// Architectures 2 and 3 fetch an ancestry frontier in batches: the ids of
// one shard domain go out in one SimpleDB Select per 20 names (a lone name
// as a GetAttributes), and every answer is what the per-id get_provenance
// returns for it -- errors, spills, quoted names and stale replicas
// included.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "cloudprov/ancestry.hpp"
#include "cloudprov/consistency_read.hpp"
#include "cloudprov/sdb_backend.hpp"
#include "cloudprov/serialize.hpp"
#include "cloudprov/wal_backend.hpp"
#include "pass/observer.hpp"

namespace {

using namespace provcloud::cloudprov;
using namespace provcloud::pass;
namespace aws = provcloud::aws;
namespace sim = provcloud::sim;
namespace util = provcloud::util;

using Records = std::vector<ProvenanceRecord>;
using Answers = std::vector<BackendResult<Records>>;

FlushUnit file_unit(const std::string& object, std::uint32_t version,
                    Records records = {}) {
  FlushUnit u;
  u.object = object;
  u.version = version;
  u.kind = PnodeKind::kFile;
  u.data = util::make_shared_bytes("data of " + object);
  if (records.empty())
    records = {make_text_record("TYPE", "file"),
               make_text_record("NAME", object)};
  u.records = std::move(records);
  return u;
}

std::unique_ptr<ProvenanceBackend> make_arch(Architecture arch,
                                             CloudServices& services,
                                             std::size_t shards,
                                             std::size_t parallelism) {
  if (arch == Architecture::kS3SimpleDb)
    return make_sdb_backend(services,
                            SdbBackendConfig{.shard_count = shards,
                                             .parallelism = parallelism});
  return make_wal_backend(services,
                          WalBackendConfig{.shard_count = shards,
                                           .parallelism = parallelism});
}

/// An Arch 2 or Arch 3 store under strong consistency.
struct World {
  explicit World(Architecture arch, std::size_t shards = 1,
                 std::size_t parallelism = 1)
      : env(73, aws::ConsistencyConfig::strong()), services(env) {
    backend = make_arch(arch, services, shards, parallelism);
  }
  void store(const std::vector<FlushUnit>& units) {
    for (const FlushUnit& u : units) backend->store(u);
    backend->quiesce();
    env.clock().drain();
  }
  /// The per-id answers: one get_provenance per id.
  Answers per_id(const std::vector<ObjectVersion>& ids) {
    Answers out;
    for (const ObjectVersion& id : ids)
      out.push_back(backend->get_provenance(id.object, id.version));
    return out;
  }
  /// get_provenance_many(ids) and the requests it made.
  Answers many(const std::vector<ObjectVersion>& ids,
               sim::MeterSnapshot* bill = nullptr) {
    const auto before = env.meter().snapshot();
    Answers out = backend->get_provenance_many(ids);
    if (bill != nullptr) *bill = env.meter().snapshot().diff(before);
    return out;
  }
  aws::CloudEnv env;
  CloudServices services;
  std::unique_ptr<ProvenanceBackend> backend;
};

void expect_same_answers(const Answers& got, const Answers& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].has_value(), want[i].has_value()) << i;
    if (got[i])
      EXPECT_EQ(*got[i], *want[i]) << i;
    else
      EXPECT_EQ(got[i].error().code, want[i].error().code) << i;
  }
}

std::vector<FlushUnit> files(std::size_t n, const std::string& prefix = "f") {
  std::vector<FlushUnit> out;
  for (std::size_t i = 0; i < n; ++i)
    out.push_back(file_unit(prefix + std::to_string(i), 1));
  return out;
}

std::vector<ObjectVersion> ids_of(const std::vector<FlushUnit>& units) {
  std::vector<ObjectVersion> out;
  for (const FlushUnit& u : units) out.push_back({u.object, u.version});
  return out;
}

constexpr Architecture kSdbArchitectures[] = {Architecture::kS3SimpleDb,
                                              Architecture::kS3SimpleDbSqs};

TEST(BatchedProvenanceTest, ReturnsThePerIdAnswers) {
  for (const Architecture arch : kSdbArchitectures) {
    SCOPED_TRACE(to_string(arch));
    World w(arch);
    SyscallTrace t;
    t.push_back(ev_exec(1, "/bin/p1"));
    t.push_back(ev_write(1, "a", "1"));
    t.push_back(ev_close(1, "a"));
    t.push_back(ev_exec(2, "/bin/p2"));
    t.push_back(ev_read(2, "a"));
    t.push_back(ev_write(2, "b", "2"));
    t.push_back(ev_close(2, "b"));
    PassObserver obs([&w](const FlushUnit& u) { w.backend->store(u); });
    obs.apply_trace(t);
    obs.finish();
    w.backend->quiesce();
    w.env.clock().drain();

    const AncestryResult walked = fetch_ancestry(*w.backend, "b", 1);
    std::vector<ObjectVersion> ids;
    for (const auto& [id, node] : walked.graph.nodes()) ids.push_back(id);
    ASSERT_GT(ids.size(), 4u);
    ids.push_back(ObjectVersion{"never-stored", 1});
    ids.push_back(ids.front());  // a repeated id gets its own copy
    const Answers many = w.many(ids);
    expect_same_answers(many, w.per_id(ids));
    ASSERT_FALSE(many[ids.size() - 2].has_value());
    EXPECT_EQ(many[ids.size() - 2].error().code,
              BackendErrorCode::kConsistencyExhausted);
  }
}

TEST(BatchedProvenanceTest, OneSelectPerTwentyIdsOfAShard) {
  for (const Architecture arch : kSdbArchitectures) {
    SCOPED_TRACE(to_string(arch));
    World w(arch);
    const std::vector<FlushUnit> units = files(45);
    w.store(units);
    const std::vector<ObjectVersion> all = ids_of(units);
    for (const std::size_t n : {2, 3, 20, 21, 40, 41, 45}) {
      const std::vector<ObjectVersion> ids(all.begin(),
                                           all.begin() + static_cast<long>(n));
      sim::MeterSnapshot bill;
      const Answers many = w.many(ids, &bill);
      EXPECT_EQ(bill.calls("sdb", "Select"), (n + 19) / 20) << n;
      EXPECT_EQ(bill.calls("sdb"), (n + 19) / 20) << n;
      expect_same_answers(many, w.per_id(ids));
    }
    // A lone id stays the cheaper GetAttributes.
    sim::MeterSnapshot bill;
    const Answers one = w.many({all.front()}, &bill);
    EXPECT_EQ(bill.calls("sdb", "GetAttributes"), 1u);
    EXPECT_EQ(bill.calls("sdb"), 1u);
    expect_same_answers(one, w.per_id({all.front()}));
  }
}

TEST(BatchedProvenanceTest, SpilledValueResolvesPerRecord) {
  for (const Architecture arch : kSdbArchitectures) {
    SCOPED_TRACE(to_string(arch));
    World w(arch);
    const std::string big(1500, 'e');
    std::vector<FlushUnit> units = files(3);
    units.push_back(file_unit(
        "spilled", 1, {make_text_record("TYPE", "file"),
                       make_text_record("ENV", big)}));
    w.store(units);
    sim::MeterSnapshot bill;
    const Answers many = w.many(ids_of(units), &bill);
    EXPECT_EQ(bill.calls("sdb", "Select"), 1u);
    EXPECT_EQ(bill.calls("s3", "GET"), 1u);  // the one spill
    ASSERT_TRUE(many.back().has_value());
    bool found = false;
    for (const ProvenanceRecord& r : *many.back())
      found |= r.attribute == "ENV" && r.text() == big;
    EXPECT_TRUE(found);
    expect_same_answers(many, w.per_id(ids_of(units)));
  }
}

TEST(BatchedProvenanceTest, QuotesInsideNamesAreDoubled) {
  for (const Architecture arch : kSdbArchitectures) {
    SCOPED_TRACE(to_string(arch));
    World w(arch);
    const std::vector<FlushUnit> units = {file_unit("it's", 1),
                                          file_unit("o'neil's/x''y", 2),
                                          file_unit("plain", 1)};
    w.store(units);
    sim::MeterSnapshot bill;
    const Answers many = w.many(ids_of(units), &bill);
    EXPECT_EQ(bill.calls("sdb", "Select"), 1u);
    for (const auto& answer : many) EXPECT_TRUE(answer.has_value());
    expect_same_answers(many, w.per_id(ids_of(units)));
  }
}

TEST(BatchedProvenanceTest, FourShardsInParallelAnswerAsSequential) {
  for (const Architecture arch : kSdbArchitectures) {
    SCOPED_TRACE(to_string(arch));
    World sequential(arch, 4, 1);
    World parallel(arch, 4, 4);
    const std::vector<FlushUnit> units = files(60);
    sequential.store(units);
    parallel.store(units);
    std::vector<ObjectVersion> ids = ids_of(units);
    ids.push_back(ObjectVersion{"never-stored", 1});
    sim::MeterSnapshot seq_bill, par_bill;
    const Answers seq = sequential.many(ids, &seq_bill);
    const Answers par = parallel.many(ids, &par_bill);
    expect_same_answers(par, seq);
    expect_same_answers(seq, sequential.per_id(ids));
    // Each shard's names go out together: ceil(n / 20) Selects for a shard
    // asked n >= 2 names, a GetAttributes for a shard asked one, and the
    // never-stored id asked alone for 64 more rounds.
    std::map<std::size_t, std::uint64_t> per_shard;
    for (const ObjectVersion& id : ids)
      ++per_shard[parallel.backend->topology()->shard_of(id.object)];
    std::uint64_t selects = 0, gets = 64;
    for (const auto& [shard, n] : per_shard)
      (n == 1 ? gets : selects) += n == 1 ? 1 : (n + 19) / 20;
    for (const sim::MeterSnapshot* bill : {&seq_bill, &par_bill}) {
      EXPECT_EQ(bill->calls("sdb", "Select"), selects);
      EXPECT_EQ(bill->calls("sdb", "GetAttributes"), gets);
    }
  }
}

TEST(BatchedProvenanceStaleTest, OnlyTheMissingNamesAreAskedAgain) {
  // Three replicas, a fixed 10 s propagation delay, and a clock that does
  // not move during the fetch: a fresh item is visible only on the
  // coordinator, so it is missing from any answer another replica gives.
  aws::ConsistencyConfig slow;
  slow.replicas = 3;
  slow.propagation_min = 10 * sim::kSecond;
  slow.propagation_max = 10 * sim::kSecond;
  aws::CloudEnv env(5, slow);
  CloudServices services(env);
  auto backend = make_sdb_backend(services);
  const std::vector<FlushUnit> settled = files(5, "old");
  for (const FlushUnit& u : settled) backend->store(u);
  env.clock().drain();
  backend->store(file_unit("fresh", 1));

  std::vector<ObjectVersion> ids = ids_of(settled);
  ids.push_back(ObjectVersion{"fresh", 1});
  const auto bill_before = env.meter().snapshot();
  const std::uint64_t retries_before =
      env.metrics().counter("read.retries").value();
  const auto idle_before = env.latency_ledger().elapsed_by_service()["idle"];
  const Answers many = backend->get_provenance_many(ids);
  const auto bill = env.meter().snapshot().diff(bill_before);
  const std::uint64_t retries =
      env.metrics().counter("read.retries").value() - retries_before;
  const auto idle =
      env.latency_ledger().elapsed_by_service()["idle"] - idle_before;

  // The first Select missed the fresh item (this seed's replica draw), so
  // the fetch retried -- and each retry asked for that one name alone.
  ASSERT_GT(retries, 0u);
  EXPECT_EQ(bill.calls("sdb", "Select"), 1u);
  EXPECT_EQ(bill.calls("sdb", "GetAttributes"), retries);
  EXPECT_EQ(idle, static_cast<sim::SimTime>(retries) * kReadRetryIdle);
  for (const auto& answer : many) EXPECT_TRUE(answer.has_value());

  env.clock().drain();
  const auto fresh = backend->get_provenance("fresh", 1);
  ASSERT_TRUE(fresh.has_value());
  EXPECT_EQ(*many.back(), *fresh);
}

}  // namespace
