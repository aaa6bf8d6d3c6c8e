// Sharded storage end to end: backends writing through the ShardRouter and
// the scatter/gather query engine must answer exactly like the single-domain
// layout at any shard count.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>

#include "cloudprov/backend.hpp"
#include "cloudprov/query.hpp"
#include "cloudprov/sdb_backend.hpp"
#include "cloudprov/serialize.hpp"
#include "cloudprov/shard_router.hpp"
#include "cloudprov/wal_backend.hpp"
#include "pass/observer.hpp"
#include "workloads/workload.hpp"

namespace {

using namespace provcloud::cloudprov;
using namespace provcloud::pass;
namespace aws = provcloud::aws;
namespace util = provcloud::util;

/// A pipeline world with enough distinct objects to populate every shard:
/// one generator fans out many data files, two blast-like runs consume a
/// few, and downstream tools chain off the outputs.
SyscallTrace sharded_world() {
  util::Rng rng(5);
  SyscallTrace t;
  t.push_back(ev_exec(1, "/usr/bin/datagen", {"datagen"},
                      provcloud::workloads::synth_environment(rng, 500)));
  for (int i = 0; i < 24; ++i) {
    const std::string path = "data/input" + std::to_string(i);
    t.push_back(ev_write(1, path, "raw-" + std::to_string(i)));
    t.push_back(ev_close(1, path));
  }
  t.push_back(ev_exit(1));
  for (int q = 0; q < 2; ++q) {
    const Pid pid = 10 + q;
    const std::string hits = "out/hits" + std::to_string(q);
    t.push_back(ev_exec(pid, "/usr/bin/blastall", {"blastall"},
                        provcloud::workloads::synth_environment(rng, 800)));
    t.push_back(ev_read(pid, "data/input" + std::to_string(q)));
    t.push_back(ev_read(pid, "data/input" + std::to_string(10 + q)));
    t.push_back(ev_write(pid, hits, "alignments" + std::to_string(q)));
    t.push_back(ev_close(pid, hits));
    t.push_back(ev_exit(pid));
  }
  t.push_back(ev_exec(20, "/usr/bin/python", {"python", "summarize.py"},
                      provcloud::workloads::synth_environment(rng, 600)));
  t.push_back(ev_read(20, "out/hits0"));
  t.push_back(ev_write(20, "out/summary", "stats"));
  t.push_back(ev_close(20, "out/summary"));
  t.push_back(ev_exit(20));
  return t;
}

/// Run the world into an arch-2 (or arch-3) backend at a given shard count
/// and expose a matching scatter/gather query engine.
struct ShardedWorld {
  ShardedWorld(Architecture arch, std::size_t shard_count)
      : env(61, aws::ConsistencyConfig::strong()), services(env) {
    if (arch == Architecture::kS3SimpleDb) {
      backend = make_sdb_backend(services,
                                 SdbBackendConfig{.shard_count = shard_count});
    } else {
      WalBackendConfig cfg;
      cfg.commit_threshold = 4;
      cfg.shard_count = shard_count;
      backend = make_wal_backend(services, cfg);
    }
    PassObserver obs([this](const FlushUnit& u) { backend->store(u); });
    obs.apply_trace(sharded_world());
    obs.finish();
    env.clock().drain();
    backend->quiesce();
    env.clock().drain();
    // Build the engine from the backend's own topology: the factory that
    // keeps query and storage shard layouts in lockstep.
    engine = make_sdb_query_engine(services, backend->topology());
  }
  aws::CloudEnv env;
  CloudServices services;
  std::unique_ptr<ProvenanceBackend> backend;
  std::unique_ptr<QueryEngine> engine;
};

class ShardCountCase
    : public ::testing::TestWithParam<std::tuple<Architecture, std::size_t>> {};

TEST_P(ShardCountCase, QueriesMatchTheSingleDomainAnswers) {
  const auto [arch, shards] = GetParam();
  ShardedWorld base(arch, 1);
  ShardedWorld sharded(arch, shards);

  const Q1Result q1_base = base.engine->q1_all_provenance();
  const Q1Result q1_sharded = sharded.engine->q1_all_provenance();
  EXPECT_EQ(q1_sharded.object_versions, q1_base.object_versions);
  EXPECT_EQ(q1_sharded.records, q1_base.records);

  EXPECT_EQ(sharded.engine->q2_outputs_of("/usr/bin/blastall"),
            base.engine->q2_outputs_of("/usr/bin/blastall"));
  EXPECT_EQ(sharded.engine->q3_descendants_of("/usr/bin/blastall"),
            base.engine->q3_descendants_of("/usr/bin/blastall"));
  EXPECT_EQ(sharded.engine->q3_descendants_of("/usr/bin/datagen"),
            base.engine->q3_descendants_of("/usr/bin/datagen"));
  EXPECT_TRUE(sharded.engine->q2_outputs_of("/usr/bin/never-ran").empty());
}

TEST_P(ShardCountCase, ShardedItemsActuallySpreadAcrossDomains) {
  const auto [arch, shards] = GetParam();
  if (shards == 1) GTEST_SKIP() << "single domain holds everything";
  ShardedWorld w(arch, shards);
  ShardRouter router(shards);
  std::size_t populated = 0;
  std::uint64_t total = 0;
  for (const std::string& domain : router.domains()) {
    const std::uint64_t n = w.services.sdb.item_count(domain);
    total += n;
    if (n > 0) ++populated;
  }
  EXPECT_GT(populated, 1u);  // the hash actually partitions
  EXPECT_EQ(w.services.sdb.item_count(kProvenanceDomain), 0u);
  EXPECT_GT(total, 0u);
}

TEST_P(ShardCountCase, ReadPathFollowsTheRouter) {
  const auto [arch, shards] = GetParam();
  ShardedWorld w(arch, shards);
  for (const char* object : {"out/hits0", "out/summary"}) {
    auto got = w.backend->read(object);
    ASSERT_TRUE(got.has_value()) << object;
    EXPECT_TRUE(got->verified) << object;
    auto prov = w.backend->get_provenance(object, got->version);
    ASSERT_TRUE(prov.has_value()) << object;
    EXPECT_FALSE(prov->empty()) << object;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Arches, ShardCountCase,
    ::testing::Combine(::testing::Values(Architecture::kS3SimpleDb,
                                         Architecture::kS3SimpleDbSqs),
                       ::testing::Values(std::size_t{1}, std::size_t{4})));

TEST(ShardedRecoveryTest, OrphanScanCoversEveryShardDomain) {
  aws::CloudEnv env(62, aws::ConsistencyConfig::strong());
  CloudServices services(env);
  auto backend =
      make_sdb_backend(services, SdbBackendConfig{.shard_count = 4});

  FlushUnit good;
  good.object = "good";
  good.version = 1;
  good.kind = PnodeKind::kFile;
  good.data = util::make_shared_bytes(std::string("x"));
  good.records = {make_text_record("TYPE", "file")};
  backend->store(good);

  // Orphan several objects so that (with high probability) more than one
  // shard domain holds an orphan.
  for (int i = 0; i < 6; ++i) {
    FlushUnit bad = good;
    bad.object = "bad" + std::to_string(i);
    env.failures().arm_crash("sdb.store.between_prov_and_data");
    EXPECT_THROW(backend->store(bad), provcloud::sim::CrashError);
  }
  env.clock().drain();

  backend->recover();
  auto* sdb_backend = dynamic_cast<SdbBackend*>(backend.get());
  ASSERT_NE(sdb_backend, nullptr);
  EXPECT_EQ(sdb_backend->last_recovery_orphans(), 6u);
  ShardRouter router(4);
  for (int i = 0; i < 6; ++i) {
    const std::string object = "bad" + std::to_string(i);
    EXPECT_FALSE(services.sdb
                     .peek_item(router.domain_for_object(object), object + ":1")
                     .has_value());
  }
  EXPECT_TRUE(services.sdb
                  .peek_item(router.domain_for_object("good"), "good:1")
                  .has_value());
}

}  // namespace
