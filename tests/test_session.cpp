// The session-oriented close path: submit/sync tickets, cross-close group
// commit, typed per-close errors, and crash-mid-group recovery.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "cloudprov/consistency_read.hpp"
#include "cloudprov/lsb/lsb_backend.hpp"
#include "cloudprov/sdb_backend.hpp"
#include "cloudprov/serialize.hpp"
#include "cloudprov/session.hpp"
#include "cloudprov/wal_backend.hpp"
#include "sim/failure.hpp"
#include "util/md5.hpp"

namespace {

using namespace provcloud::cloudprov;
using namespace provcloud::pass;
namespace aws = provcloud::aws;
namespace pass = provcloud::pass;
namespace sim = provcloud::sim;
namespace util = provcloud::util;

FlushUnit file_unit(const std::string& object, std::uint32_t version,
                    const std::string& data,
                    std::vector<ProvenanceRecord> records = {}) {
  FlushUnit u;
  u.object = object;
  u.version = version;
  u.kind = PnodeKind::kFile;
  u.data = util::make_shared_bytes(data);
  if (records.empty())
    records = {make_text_record("TYPE", "file"),
               make_text_record("NAME", object)};
  u.records = std::move(records);
  return u;
}

// --- ticket lifecycle ---

TEST(SessionTest, TicketsPendUntilTheBarrier) {
  aws::CloudEnv env(11, aws::ConsistencyConfig::strong());
  CloudServices services(env);
  auto backend = make_sdb_backend(services);
  auto session = backend->open_session(SessionConfig{.max_group = 4});

  std::vector<Ticket> tickets;
  for (int i = 0; i < 3; ++i)
    tickets.push_back(
        session->submit(file_unit("f" + std::to_string(i), 1, "x")));
  EXPECT_EQ(session->pending(), 3u);
  for (const Ticket& t : tickets) {
    EXPECT_TRUE(t.valid());
    EXPECT_FALSE(t.done());  // the group has not flushed
  }
  EXPECT_EQ(tickets[0].id(), 1u);
  EXPECT_EQ(tickets[2].id(), 3u);

  ASSERT_TRUE(session->sync().has_value());
  EXPECT_EQ(session->pending(), 0u);
  EXPECT_EQ(session->submitted(), 3u);
  for (const Ticket& t : tickets) {
    EXPECT_TRUE(t.done());
    EXPECT_TRUE(t.ok());
  }
  // Durable for real, not just ticked: the reads verify.
  for (int i = 0; i < 3; ++i) {
    auto got = backend->read("f" + std::to_string(i));
    ASSERT_TRUE(got.has_value()) << i;
    EXPECT_TRUE(got->verified);
  }
}

TEST(SessionTest, FullGroupFlushesWithoutExplicitSync) {
  aws::CloudEnv env(12, aws::ConsistencyConfig::strong());
  CloudServices services(env);
  auto backend = make_sdb_backend(services);
  auto session = backend->open_session(SessionConfig{.max_group = 2});
  const Ticket a = session->submit(file_unit("a", 1, "x"));
  EXPECT_FALSE(a.done());
  const Ticket b = session->submit(file_unit("b", 1, "y"));  // fills the group
  EXPECT_TRUE(a.done());
  EXPECT_TRUE(b.ok());
  EXPECT_EQ(session->pending(), 0u);
}

// --- group size 1 reproduces the per-close protocol bit-for-bit ---

TEST(SessionTest, GroupSizeOneMatchesStoreBitForBit) {
  for (const Architecture arch :
       {Architecture::kS3Only, Architecture::kS3SimpleDb,
        Architecture::kS3SimpleDbSqs}) {
    aws::CloudEnv store_env(11, aws::ConsistencyConfig::strong());
    CloudServices store_services(store_env);
    auto store_backend = make_backend(arch, store_services);
    aws::CloudEnv session_env(11, aws::ConsistencyConfig::strong());
    CloudServices session_services(session_env);
    auto session_backend = make_backend(arch, session_services);

    for (int i = 0; i < 6; ++i)
      store_backend->store(file_unit("f" + std::to_string(i), 1, "payload"));
    auto session = session_backend->open_session(SessionConfig{});
    for (int i = 0; i < 6; ++i)
      session->submit(file_unit("f" + std::to_string(i), 1, "payload"));
    ASSERT_TRUE(session->sync().has_value());

    // Same requests, same billing, same elapsed time -- byte for byte the
    // pre-session protocol.
    const auto store_snap = store_env.meter().snapshot();
    const auto session_snap = session_env.meter().snapshot();
    EXPECT_EQ(store_snap.total_calls(), session_snap.total_calls())
        << to_string(arch);
    EXPECT_EQ(store_env.busy_time(), session_env.busy_time())
        << to_string(arch);
    EXPECT_EQ(store_env.elapsed_time(), session_env.elapsed_time())
        << to_string(arch);
  }
}

// --- per-architecture group-commit semantics ---

TEST(SessionTest, ArchOneSubmitsAreImmediateWhateverTheGroupSize) {
  // Arch 1's Table-1 properties rest on submit == store: the single-PUT
  // close is atomic, so sessions never hold its submits back.
  aws::CloudEnv env(13, aws::ConsistencyConfig::strong());
  CloudServices services(env);
  auto backend = make_backend(Architecture::kS3Only, services);
  EXPECT_FALSE(backend->supports_group_commit());
  auto session = backend->open_session(SessionConfig{.max_group = 25});
  for (int i = 0; i < 3; ++i) {
    const Ticket t =
        session->submit(file_unit("f" + std::to_string(i), 1, "x"));
    EXPECT_TRUE(t.done());
    EXPECT_TRUE(t.ok());
    EXPECT_EQ(session->pending(), 0u);
    EXPECT_TRUE(backend->read("f" + std::to_string(i)).has_value());
  }
}

TEST(SessionTest, ArchTwoGroupCommitCoalescesWriteRoundTrips) {
  const auto write_calls = [](std::size_t group_size) {
    aws::CloudEnv env(14, aws::ConsistencyConfig::strong());
    CloudServices services(env);
    auto backend = make_sdb_backend(services);
    auto session =
        backend->open_session(SessionConfig{.max_group = group_size});
    for (int i = 0; i < 25; ++i)
      session->submit(file_unit("f" + std::to_string(i), 1, "x"));
    EXPECT_TRUE(session->sync().has_value());
    for (int i = 0; i < 25; ++i) {
      auto got = backend->read("f" + std::to_string(i));
      EXPECT_TRUE(got.has_value() && got->verified) << i;
    }
    return env.meter().snapshot().calls("sdb", "BatchPutAttributes");
  };
  // 25 independent closes: one BatchPutAttributes round trip per group.
  EXPECT_EQ(write_calls(1), 25u);
  EXPECT_EQ(write_calls(25), 1u);
}

TEST(SessionTest, ArchTwoCausalWavesOrderIntraGroupAncestors) {
  // b derives from a, c from b, all in one group: the batch calls must go
  // out in causal waves so a crash between calls can never persist a
  // record whose intra-group ancestor was lost.
  aws::CloudEnv env(15, aws::ConsistencyConfig::strong());
  CloudServices services(env);
  auto backend = make_sdb_backend(services);
  auto session = backend->open_session(SessionConfig{.max_group = 3});
  session->submit(file_unit("a", 1, "va"));
  session->submit(file_unit("b", 1, "vb",
                            {make_text_record("TYPE", "file"),
                             make_xref_record("INPUT", {"a", 1})}));
  session->submit(file_unit("c", 1, "vc",
                            {make_text_record("TYPE", "file"),
                             make_xref_record("INPUT", {"b", 1})}));
  ASSERT_TRUE(session->sync().has_value());
  // Three dependency levels -> three write waves even though all three
  // items share one shard domain.
  EXPECT_EQ(env.meter().snapshot().calls("sdb", "BatchPutAttributes"), 3u);
}

TEST(SessionTest, ArchTwoCrashBetweenWavesKeepsCausalOrdering) {
  aws::CloudEnv env(16, aws::ConsistencyConfig::strong());
  CloudServices services(env);
  auto backend = make_sdb_backend(services);
  auto session = backend->open_session(SessionConfig{.max_group = 3});
  // Crash after the second wave's batch call: a and b written, c lost.
  env.failures().arm_crash("sdb.store.mid_putattrs", 2);
  session->submit(file_unit("a", 1, "va"));
  session->submit(file_unit("b", 1, "vb",
                            {make_text_record("TYPE", "file"),
                             make_xref_record("INPUT", {"a", 1})}));
  Ticket c;
  EXPECT_THROW(
      {
        c = session->submit(file_unit(
            "c", 1, "vc",
            {make_text_record("TYPE", "file"),
             make_xref_record("INPUT", {"b", 1})}));  // fills the group
      },
      sim::CrashError);
  env.clock().drain();
  // Whatever survived respects causality: b's ancestor a is stored; the
  // dependent c never made it without its own ancestors.
  EXPECT_TRUE(services.sdb.peek_item(kProvenanceDomain, "a:1").has_value());
  EXPECT_TRUE(services.sdb.peek_item(kProvenanceDomain, "b:1").has_value());
  EXPECT_FALSE(services.sdb.peek_item(kProvenanceDomain, "c:1").has_value());
}

TEST(SessionTest, DuplicateSubmitInOneGroupLaterCloseWins) {
  // The same (object, version) twice between barriers: duplicate item
  // names cannot share a batch call, and the later submit must win.
  aws::CloudEnv env(17, aws::ConsistencyConfig::strong());
  CloudServices services(env);
  auto backend = make_sdb_backend(services);
  auto session = backend->open_session(SessionConfig{.max_group = 2});
  session->submit(file_unit("dup", 1, "first"));
  session->submit(file_unit("dup", 1, "second"));
  ASSERT_TRUE(session->sync().has_value());
  EXPECT_EQ(env.meter().snapshot().calls("sdb", "BatchPutAttributes"), 2u);
  auto got = backend->read("dup");
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->verified);
  EXPECT_EQ(*got->data, "second");
}

// --- consistency tokens of a lane-hashed group ---

/// Every provenance item's MD5 attribute after `units` went through one
/// session at `max_group`, synced and settled under strong consistency.
std::map<std::string, std::set<std::string>> stored_tokens(
    Architecture arch, const std::vector<FlushUnit>& units,
    std::size_t max_group) {
  aws::CloudEnv env(31, aws::ConsistencyConfig::strong());
  CloudServices services(env);
  auto backend = make_backend(arch, services);
  auto session = backend->open_session(SessionConfig{.max_group = max_group});
  for (const FlushUnit& unit : units) session->submit(unit);
  EXPECT_TRUE(session->sync().has_value());
  backend->quiesce();
  env.clock().drain();
  std::map<std::string, std::set<std::string>> tokens;
  for (const std::string& item :
       services.sdb.peek_item_names(kProvenanceDomain)) {
    const auto attrs = services.sdb.peek_item(kProvenanceDomain, item);
    const auto md5 = attrs->find(kMd5Attribute);
    if (md5 != attrs->end()) tokens[item] = md5->second;
  }
  return tokens;
}

TEST(SessionTest, LaneHashedGroupStoresTheTokensOfLoneCloses) {
  // A group's tokens are hashed together in vector lanes; a lone close's
  // on the scalar path. One group of 25 closes must store the MD5
  // attributes that the same closes store one per group: transient pnodes,
  // empty data, the 55/56/64-byte padding edges, a 100 KiB file and a
  // repeated (object, version).
  std::vector<FlushUnit> units;
  for (int i = 0; i < 3; ++i) {
    FlushUnit proc;
    proc.object = "proc" + std::to_string(i);
    proc.kind = PnodeKind::kProcess;
    proc.version = 1;
    proc.records = {make_text_record("TYPE", "process")};
    units.push_back(proc);
  }
  units.push_back(file_unit("empty", 1, ""));
  for (std::size_t size : {55u, 56u, 64u})
    units.push_back(
        file_unit("edge" + std::to_string(size), 1, std::string(size, 'e')));
  units.push_back(file_unit("big", 2, std::string(100 * 1024, 'b')));
  units.push_back(file_unit("dup", 1, "first"));
  units.push_back(file_unit("dup", 1, "second"));
  for (int i = 0; units.size() < 25; ++i)
    units.push_back(file_unit("f" + std::to_string(i), 1 + i % 3,
                              std::string(100 * i, 'a' + i % 26)));

  for (const Architecture arch :
       {Architecture::kS3SimpleDb, Architecture::kS3SimpleDbSqs}) {
    const auto grouped = stored_tokens(arch, units, 25);
    EXPECT_EQ(grouped.size(), 24u) << to_string(arch);  // dup:1 once
    EXPECT_EQ(grouped, stored_tokens(arch, units, 1)) << to_string(arch);
    const std::set<std::string> want = {util::md5_with_nonce("second", "1")};
    EXPECT_EQ(grouped.at("dup:1"), want) << to_string(arch);
  }
}

// --- read-your-writes ---

TEST(SessionTest, ReadObservesUnsyncedSubmitsWithoutCloudCalls) {
  aws::CloudEnv env(31, aws::ConsistencyConfig::strong());
  CloudServices services(env);
  auto backend = make_sdb_backend(services);
  auto session = backend->open_session(SessionConfig{.max_group = 8});

  const Ticket t = session->submit(file_unit("ryw", 1, "pending-data"));
  ASSERT_FALSE(t.done());
  const auto before = env.meter().snapshot();
  auto got = session->read("ryw");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got->data, "pending-data");
  EXPECT_EQ(got->version, 1u);
  EXPECT_EQ(got->retries, 0u);
  // Served from the in-flight queue: not a single cloud round trip.
  EXPECT_EQ(env.meter().snapshot().total_calls(), before.total_calls());

  // An object this session never wrote still takes the backend path.
  auto other = session->read("never-written", /*max_retries=*/2);
  EXPECT_FALSE(other.has_value());

  // After the barrier the same read flows through the backend, verified.
  ASSERT_TRUE(session->sync().has_value());
  auto durable = session->read("ryw");
  ASSERT_TRUE(durable.has_value());
  EXPECT_TRUE(durable->verified);
  EXPECT_EQ(*durable->data, "pending-data");
}

TEST(SessionTest, ReadFloorsStaleRepliesAtOwnDurableWrite) {
  // Eventual consistency, no propagation: the backend read path cannot see
  // the write yet, but the session's own durable write floors the answer --
  // a stale replica never rolls the session's view of its writes backwards.
  aws::CloudEnv env(32);
  CloudServices services(env);
  auto backend = make_sdb_backend(services);
  auto session = backend->open_session(SessionConfig{.max_group = 1});
  session->submit(file_unit("mine", 3, "v3"));
  ASSERT_TRUE(session->sync().has_value());

  // The raw backend read may fail or return stale state here; the session
  // read must succeed at the own version either way.
  auto own = session->read("mine", /*max_retries=*/2);
  ASSERT_TRUE(own.has_value());
  EXPECT_GE(own->version, 3u);
  EXPECT_EQ(*own->data, "v3");
}

// --- deadline-driven adaptive group flush ---

TEST(SessionTest, DeadlineExpiryFlushesAPartialGroup) {
  aws::CloudEnv env(33, aws::ConsistencyConfig::strong());
  CloudServices services(env);
  auto backend = make_sdb_backend(services);
  auto session = backend->open_session(SessionConfig{
      .max_group = 8, .flush_deadline = 50 * sim::kMillisecond});

  const Ticket a = session->submit(file_unit("da", 1, "x"));
  const Ticket b = session->submit(file_unit("db", 1, "y"));
  EXPECT_FALSE(a.done());
  EXPECT_EQ(session->pending(), 2u);

  // The deadline wake flushes the partial group of 2; no barrier needed.
  env.clock().advance_by(50 * sim::kMillisecond);
  EXPECT_TRUE(a.done());
  EXPECT_TRUE(b.ok());
  EXPECT_EQ(env.meter().snapshot().calls("sdb", "BatchPutAttributes"), 1u);
  EXPECT_TRUE(backend->read("da").has_value());

  // The queued wait is charged to the closes as "idle" and surfaces in the
  // client's elapsed time at the barrier merge: deadline batching trades
  // elapsed time for round trips, visibly.
  ASSERT_TRUE(session->sync().has_value());
  const auto split = env.latency_ledger().elapsed_by_service();
  ASSERT_TRUE(split.count("idle"));
  EXPECT_GE(split.at("idle"), 50 * sim::kMillisecond);
}

TEST(SessionTest, SubmitsDuringAFlushJoinTheNextGroup) {
  // kivaloo-style: a submit landing while a flush is in flight must not
  // block and must not squeeze into the in-flight group.
  aws::CloudEnv env(34, aws::ConsistencyConfig::strong());
  CloudServices services(env);
  auto backend = make_sdb_backend(services);
  auto s1 = backend->open_session(SessionConfig{.max_group = 2});
  auto s2 = backend->open_session(SessionConfig{.max_group = 2});
  s1->submit(file_unit("g1a", 1, "x"));
  s1->submit(file_unit("g1b", 1, "x"));  // fills and flushes group 1
  s2->submit(file_unit("g2a", 1, "x"));
  s2->submit(file_unit("g2b", 1, "x"));  // fills and flushes group 2
  ASSERT_TRUE(s1->sync().has_value());
  ASSERT_TRUE(s2->sync().has_value());
  EXPECT_EQ(env.meter().snapshot().calls("sdb", "BatchPutAttributes"), 2u);
}

TEST(SessionTest, CrashLandsMidDeadlineFlush) {
  // A deadline flush is protocol like any other: an injected client crash
  // during it propagates out of the clock advance that fired the wake, and
  // the group's tickets settle as kCrashed.
  aws::CloudEnv env(35, aws::ConsistencyConfig::strong());
  CloudServices services(env);
  auto backend = make_sdb_backend(services);
  auto session = backend->open_session(SessionConfig{
      .max_group = 8, .flush_deadline = 20 * sim::kMillisecond});
  env.failures().arm_crash("sdb.store.between_prov_and_data");
  const Ticket t = session->submit(file_unit("doomed", 1, "x"));
  EXPECT_FALSE(t.done());
  EXPECT_THROW(env.clock().advance_by(20 * sim::kMillisecond),
               sim::CrashError);
  ASSERT_TRUE(t.done());
  EXPECT_EQ(t.error().code, BackendErrorCode::kCrashed);
  EXPECT_FALSE(session->sync().has_value());
}

// --- per-close errors carried by tickets, asserted on typed codes ---

/// A backend that fails exactly one close inside a batched commit, to
/// prove the session loses no per-close result.
class PoisonBackend final : public ProvenanceBackend {
 public:
  explicit PoisonBackend(CloudServices& services)
      : ProvenanceBackend(services, TopologyConfig{}) {}
  Architecture architecture() const override { return Architecture::kS3Only; }
  std::string name() const override { return "poison"; }
  bool supports_group_commit() const override { return true; }
  void commit_group(const std::vector<TicketState*>& group) override {
    for (TicketState* t : group) {
      t->done = true;
      if (t->unit.object == "poison")
        t->result = backend_error(BackendErrorCode::kServiceError,
                                  "injected per-close failure");
    }
  }
  BackendResult<ReadResult> read(const std::string&, std::uint32_t) override {
    return backend_error(BackendErrorCode::kUnsupported, "poison");
  }
  BackendResult<std::vector<pass::ProvenanceRecord>> get_provenance(
      const std::string&, std::uint32_t) override {
    return backend_error(BackendErrorCode::kUnsupported, "poison");
  }
  void recover() override {}
  PropertyClaims claims() const override { return {}; }
};

TEST(SessionTest, PerCloseFailureInsideAGroupIsNotLost) {
  aws::CloudEnv env;
  CloudServices services(env);
  PoisonBackend backend(services);
  auto session = backend.open_session(SessionConfig{.max_group = 3});
  const Ticket ok1 = session->submit(file_unit("fine", 1, "x"));
  const Ticket bad = session->submit(file_unit("poison", 1, "x"));
  const Ticket ok2 = session->submit(file_unit("alsofine", 1, "x"));
  EXPECT_TRUE(ok1.ok());
  EXPECT_TRUE(ok2.ok());
  ASSERT_TRUE(bad.done());
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().code, BackendErrorCode::kServiceError);

  // The barrier reports the first failure since the last sync...
  const auto synced = session->sync();
  ASSERT_FALSE(synced.has_value());
  EXPECT_EQ(synced.error().code, BackendErrorCode::kServiceError);
  // ...and a clean interval syncs clean again.
  session->submit(file_unit("fine", 2, "y"));
  EXPECT_TRUE(session->sync().has_value());
}

TEST(SessionTest, DroppingAnUnsyncedSessionMarksTicketsCrashed) {
  aws::CloudEnv env(18, aws::ConsistencyConfig::strong());
  CloudServices services(env);
  auto backend = make_sdb_backend(services);
  Ticket abandoned;
  {
    auto session = backend->open_session(SessionConfig{.max_group = 8});
    abandoned = session->submit(file_unit("gone", 1, "x"));
    EXPECT_FALSE(abandoned.done());
  }
  ASSERT_TRUE(abandoned.done());
  EXPECT_FALSE(abandoned.ok());
  EXPECT_EQ(abandoned.error().code, BackendErrorCode::kCrashed);
  EXPECT_FALSE(services.sdb.peek_item(kProvenanceDomain, "gone:1").has_value());
}

// --- crash mid-group-commit, restart, recover ---

TEST(SessionTest, ArchTwoCrashMidGroupRecoversByOrphanScan) {
  aws::CloudEnv env(19, aws::ConsistencyConfig::strong());
  CloudServices services(env);
  SdbBackend backend(services, SdbBackendConfig{});
  auto session = backend.open_session(SessionConfig{.max_group = 8});

  // The atomicity hole, group-wide: every provenance item of the group is
  // written, then the client dies before any data PUT.
  env.failures().arm_crash("sdb.store.between_prov_and_data");
  std::vector<Ticket> tickets;
  for (int i = 0; i < 7; ++i)
    tickets.push_back(
        session->submit(file_unit("f" + std::to_string(i), 1, "x")));
  EXPECT_THROW(session->sync(), sim::CrashError);
  for (const Ticket& t : tickets) {
    ASSERT_TRUE(t.done());
    EXPECT_FALSE(t.ok());
    EXPECT_EQ(t.error().code, BackendErrorCode::kCrashed);
  }
  env.clock().drain();
  EXPECT_EQ(services.sdb.peek_item_names(kProvenanceDomain).size(), 7u);

  // Restart: a fresh client over the same cloud state runs the remedial
  // orphan scan. Every orphan goes; nothing is double-deleted or left.
  SdbBackend restarted(services, SdbBackendConfig{});
  restarted.recover();
  EXPECT_EQ(restarted.last_recovery_orphans(), 7u);
  EXPECT_TRUE(services.sdb.peek_item_names(kProvenanceDomain).empty());
  // A second scan finds a clean state.
  restarted.recover();
  EXPECT_EQ(restarted.last_recovery_orphans(), 0u);
}

TEST(SessionTest, ArchThreeCrashMidGroupReplaysCommittedPrefixExactlyOnce) {
  aws::CloudEnv env(20, aws::ConsistencyConfig::strong());
  CloudServices services(env);
  WalBackendConfig cfg;
  cfg.commit_threshold = 1;
  WalBackend backend(services, cfg);
  auto session = backend.open_session(SessionConfig{.max_group = 12});

  // Twelve closes in one group: the sealing commit records span two
  // SendMessageBatch calls (10 + 2). Crash after the first call lands --
  // ten closes are durable in the log, two are not.
  env.failures().arm_crash("wal.store.after_commit", 1);
  std::vector<Ticket> tickets;
  for (int i = 0; i < 11; ++i)
    tickets.push_back(session->submit(
        file_unit("f" + std::to_string(i), 1, "body" + std::to_string(i))));
  EXPECT_THROW(session->submit(file_unit("f11", 1, "body11")),
               sim::CrashError);
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(tickets[i].ok()) << i;  // log durable before the crash
  }
  EXPECT_EQ(tickets[10].error().code, BackendErrorCode::kCrashed);

  // Restart: WAL replay via the commit daemon.
  backend.recover();
  backend.quiesce();
  env.clock().drain();
  backend.recover();

  // The committed prefix is applied exactly once (set semantics: replay
  // must not duplicate attributes)...
  for (int i = 0; i < 10; ++i) {
    const std::string object = "f" + std::to_string(i);
    auto obj = services.s3.peek(kDataBucket, object);
    ASSERT_TRUE(obj.has_value()) << object;
    EXPECT_EQ(*obj->data, "body" + std::to_string(i));
    auto item = services.sdb.peek_item(kProvenanceDomain, object + ":1");
    ASSERT_TRUE(item.has_value()) << object;
    EXPECT_EQ(item->at("TYPE").size(), 1u);
    EXPECT_EQ(item->at(kMd5Attribute).size(), 1u);
  }
  // ...and the uncommitted suffix never reaches a final home: no data
  // object, no provenance item -- no orphaned and no duplicated provenance.
  for (const char* object : {"f10", "f11"}) {
    EXPECT_FALSE(services.s3.peek(kDataBucket, object).has_value()) << object;
    EXPECT_FALSE(
        services.sdb.peek_item(kProvenanceDomain, std::string(object) + ":1")
            .has_value())
        << object;
  }
}

TEST(SessionTest, ArchThreeGroupLogRidesBatchedSends) {
  const auto sends = [](std::size_t group_size) {
    aws::CloudEnv env(21, aws::ConsistencyConfig::strong());
    CloudServices services(env);
    WalBackendConfig cfg;
    cfg.commit_threshold = 1000;  // keep the daemon out of the way
    WalBackend backend(services, cfg);
    auto session =
        backend.open_session(SessionConfig{.max_group = group_size});
    for (int i = 0; i < 10; ++i)
      session->submit(file_unit("f" + std::to_string(i), 1, "x"));
    EXPECT_TRUE(session->sync().has_value());
    const auto snap = env.meter().snapshot();
    return snap.calls("sqs", "SendMessage") +
           snap.calls("sqs", "SendMessageBatch");
  };
  // Per close: begin + pointer + provenance + md5 + commit = 5 sends each.
  // Grouped: the same records packed 10-per-call.
  const std::uint64_t per_close = sends(1);
  const std::uint64_t grouped = sends(10);
  EXPECT_GE(per_close, grouped * 5);
}

// --- commit-daemon maintenance runs on its own actor, off the close ---

/// Arch 3 draining its WAL after every close, or Arch 4 publishing its
/// index every other close and cleaning whenever two overwritten closes
/// are indexed: maintenance runs after most groups.
std::unique_ptr<ProvenanceBackend> eager_maintenance_backend(
    Architecture arch, CloudServices& services) {
  if (arch == Architecture::kS3SimpleDbSqs) {
    WalBackendConfig cfg;
    cfg.commit_threshold = 1;
    return make_wal_backend(services, cfg);
  }
  // At a 1 KiB cap each close below is its own segment, and an overwrite
  // leaves the previous one mostly garbage.
  LsbBackendConfig cfg;
  cfg.segment_cap_bytes = util::kKiB;
  cfg.index_publish_entries = 2;
  return make_lsb_backend(services, cfg);
}

/// One client submitting `closes` closes at group 1, synced; from the
/// sixth on, each overwrites one of five files.
std::vector<Ticket> run_sequential_closes(ProvenanceBackend& backend,
                                          int closes) {
  auto session = backend.open_session(SessionConfig{});
  std::vector<Ticket> tickets;
  for (int i = 0; i < closes; ++i)
    tickets.push_back(session->submit(file_unit(
        "f" + std::to_string(i % 5), 1 + i / 5, std::string(600, 'p'))));
  EXPECT_TRUE(session->sync().has_value());
  return tickets;
}

sim::SimTime counter_value(aws::CloudEnv& env, const char* name) {
  return env.metrics().counter(name).value();
}

TEST(SessionTest, MaintenanceChargesNoClose) {
  for (const Architecture arch :
       {Architecture::kS3SimpleDbSqs, Architecture::kS3SegmentLog}) {
    aws::CloudEnv env(22, aws::ConsistencyConfig::strong());
    CloudServices services(env);
    auto backend = eager_maintenance_backend(arch, services);
    // (Creating the backend's domains already waited on SimpleDB.)
    const sim::SimTime start = env.elapsed_time();
    const sim::SimTime start_sdb = env.elapsed_by_service()["sdb"];
    const std::vector<Ticket> tickets = run_sequential_closes(*backend, 12);
    if (arch == Architecture::kS3SegmentLog) {
      EXPECT_GT(counter_value(env, "lsb.compactions"), 0u);  // it cleaned
    }

    // SimpleDB was written, and on these architectures only maintenance
    // writes it (the WAL drain, the index publication and cleaner).
    const auto snap = env.meter().snapshot();
    EXPECT_GT(snap.calls("sdb", "PutAttributes") +
                  snap.calls("sdb", "BatchPutAttributes"),
              0u)
        << to_string(arch);
    // At group 1 the client's timeline grows only by its closes'
    // timelines, so it gains exactly their per-service splits: no close
    // waited on SimpleDB.
    sim::SimTime closes = 0;
    for (const Ticket& t : tickets) closes += t.elapsed();
    EXPECT_EQ(env.elapsed_time() - start, closes) << to_string(arch);
    EXPECT_EQ(env.elapsed_by_service()["sdb"], start_sdb) << to_string(arch);
  }
}

TEST(SessionTest, MaintenanceActorConservesEveryCharge) {
  for (const Architecture arch :
       {Architecture::kS3SimpleDbSqs, Architecture::kS3SegmentLog}) {
    aws::CloudEnv env(23, aws::ConsistencyConfig::strong());
    CloudServices services(env);
    auto backend = eager_maintenance_backend(arch, services);
    run_sequential_closes(*backend, 12);
    backend->quiesce();
    if (arch == Architecture::kS3SegmentLog) {
      EXPECT_GT(counter_value(env, "lsb.compactions"), 0u);  // it cleaned
    }

    // Every charge lands on the client's timeline or the actor's, never
    // both; the client's only other time is its wait at the join.
    const sim::SimTime busy = counter_value(env, "maintenance.busy_us");
    const sim::SimTime wait = counter_value(env, "idle.maintenance_wait_us");
    EXPECT_GT(busy, 0u) << to_string(arch);
    EXPECT_EQ(env.elapsed_time() - wait + busy, env.busy_time())
        << to_string(arch);
  }
}

TEST(SessionTest, QuiesceWaitsForTheMaintenanceActor) {
  for (const Architecture arch :
       {Architecture::kS3SimpleDbSqs, Architecture::kS3SegmentLog}) {
    aws::CloudEnv env(24, aws::ConsistencyConfig::strong());
    CloudServices services(env);
    auto backend = eager_maintenance_backend(arch, services);
    run_sequential_closes(*backend, 12);
    backend->quiesce();
    if (arch == Architecture::kS3SegmentLog) {
      EXPECT_GT(counter_value(env, "lsb.compactions"), 0u);  // it cleaned
    }

    // The client cannot finish before the actor's work, nor later than
    // the serial sum of every charge.
    const sim::SimTime busy = counter_value(env, "maintenance.busy_us");
    EXPECT_GT(busy, 0u) << to_string(arch);
    EXPECT_GE(env.elapsed_time(), busy) << to_string(arch);
    EXPECT_LE(env.elapsed_time(), env.busy_time()) << to_string(arch);
  }
}

}  // namespace
