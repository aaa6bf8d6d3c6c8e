// Architecture 3 (S3 + SimpleDB + SQS): WAL logging, the commit daemon and
// what it keeps between phases, idempotent replay across daemon crashes,
// client restarts, the quiesce() barrier, the cleaner.
#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <set>

#include "cloudprov/ancestry.hpp"
#include "cloudprov/consistency_read.hpp"
#include "cloudprov/serialize.hpp"
#include "cloudprov/session.hpp"
#include "cloudprov/wal_backend.hpp"
#include "pass/observer.hpp"
#include "util/md5.hpp"
#include "util/require.hpp"
#include "workloads/combined.hpp"

namespace {

using namespace provcloud::cloudprov;
using namespace provcloud::pass;
namespace aws = provcloud::aws;
namespace sim = provcloud::sim;
namespace util = provcloud::util;
namespace workloads = provcloud::workloads;

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

WalBackendConfig low_threshold() {
  WalBackendConfig c;
  c.commit_threshold = 1;  // commit eagerly in unit tests
  return c;
}

class WalBackendTest : public ::testing::Test {
 protected:
  WalBackendTest()
      : env_(21, aws::ConsistencyConfig::strong()), services_(env_) {
    backend_ = std::make_unique<WalBackend>(services_, low_threshold());
  }
  aws::CloudEnv env_;
  CloudServices services_;
  std::unique_ptr<WalBackend> backend_;
};

TEST_F(WalBackendTest, StoreEventuallyLandsInS3AndSimpleDb) {
  backend_->store(file_unit("data/f", 1, "contents"));
  backend_->quiesce();
  auto obj = services_.s3.peek(kDataBucket, "data/f");
  ASSERT_TRUE(obj.has_value());
  EXPECT_EQ(*obj->data, "contents");
  EXPECT_EQ(obj->metadata.at(kNonceMetaKey), "1");
  auto item = services_.sdb.peek_item(kProvenanceDomain, "data/f:1");
  ASSERT_TRUE(item.has_value());
  EXPECT_EQ(item->at(kMd5Attribute).count(util::md5_with_nonce("contents", "1")),
            1u);
}

TEST_F(WalBackendTest, WalDrainsAndTempObjectsVanish) {
  for (int i = 0; i < 5; ++i)
    backend_->store(file_unit("f" + std::to_string(i), 1, "x"));
  backend_->quiesce();
  EXPECT_EQ(services_.sqs.exact_message_count("sqs://queue/wal-client-0"), 0u);
  for (const std::string& key : services_.s3.peek_keys(kDataBucket, kTempPrefix))
    ADD_FAILURE() << "temp object left behind: " << key;
  EXPECT_EQ(backend_->committed_count(), 5u);
}

TEST_F(WalBackendTest, ReadPathSameAsArchTwo) {
  backend_->store(file_unit("f", 1, "payload"));
  backend_->quiesce();
  auto got = backend_->read("f");
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->verified);
  EXPECT_EQ(*got->data, "payload");
}

TEST_F(WalBackendTest, CopyStampsNonceViaMetadataReplace) {
  backend_->store(file_unit("f", 3, "x"));
  backend_->quiesce();
  auto obj = services_.s3.peek(kDataBucket, "f");
  ASSERT_TRUE(obj.has_value());
  EXPECT_EQ(obj->metadata.at(kNonceMetaKey), "3");
  EXPECT_EQ(obj->metadata.at(kVersionMetaKey), "3");
  // The temp-creation marker must not leak onto the final object.
  EXPECT_EQ(obj->metadata.count("x-temp-created"), 0u);
}

TEST(WalGuardTest, MalformedStoredVersionDoesNotSuppressTheClose) {
  // A stored x-version that is not a plain decimal is no version: the
  // ordering guard must not read it as a newer one and drop the COPY, or
  // the acknowledged close never reaches S3.
  for (const char* stored : {"-1", "9x", " 9", "abc"}) {
    aws::CloudEnv env(22, aws::ConsistencyConfig::strong());
    CloudServices services(env);
    WalBackend backend(services, low_threshold());
    ASSERT_TRUE(
        services.s3.put(kDataBucket, "obj", "old", {{kVersionMetaKey, stored}})
            .has_value());
    backend.store(file_unit("obj", 1, "new"));
    backend.quiesce();
    auto got = backend.read("obj");
    ASSERT_TRUE(got.has_value()) << '"' << stored << "\": "
                                 << got.error().message;
    EXPECT_TRUE(got->verified) << stored;
    EXPECT_EQ(got->version, 1u) << stored;
    EXPECT_EQ(*got->data, "new") << stored;
  }
}

TEST_F(WalBackendTest, ThresholdGatesThePump) {
  WalBackendConfig cfg;
  cfg.commit_threshold = 1000;  // never reached in this test
  aws::CloudEnv env(22, aws::ConsistencyConfig::strong());
  CloudServices services(env);
  WalBackend lazy(services, cfg);
  lazy.store(file_unit("f", 1, "x"));
  // The log is durable but nothing has been committed yet.
  EXPECT_GT(services.sqs.exact_message_count("sqs://queue/wal-client-0"), 0u);
  EXPECT_FALSE(services.s3.peek(kDataBucket, "f").has_value());
  // Force the daemon (recover = forced pump).
  lazy.recover();
  EXPECT_TRUE(services.s3.peek(kDataBucket, "f").has_value());
}

TEST_F(WalBackendTest, LargeProvenanceChunksAcrossMessages) {
  std::vector<ProvenanceRecord> records;
  for (int i = 0; i < 60; ++i)
    records.push_back(
        make_text_record("ENV" + std::to_string(i), std::string(700, 'e')));
  const auto before = env_.meter().snapshot();
  backend_->store(file_unit("bigprov", 1, "x", std::move(records)));
  backend_->quiesce();
  const auto diff = env_.meter().snapshot().diff(before);
  // 60 * ~700B of provenance: > 5 chunks of <= 8 KB each, plus begin, data,
  // md5, commit.
  EXPECT_GE(diff.calls("sqs", "SendMessage"), 9u);
  auto prov = backend_->get_provenance("bigprov", 1);
  ASSERT_TRUE(prov.has_value());
  EXPECT_EQ(prov->size(), 60u);
}

TEST_F(WalBackendTest, SameVersionRestoreInOneGroupDoesNotTear) {
  // Two closes of one (object, version) with different data reach one
  // drain; their items collide, so the flush splits them across calls. The
  // later close must win on both sides: its data in S3, its MD5 in
  // SimpleDB -- never the first submit's data under the second's MD5.
  auto session = backend_->open_session(SessionConfig{.max_group = 2});
  session->submit(file_unit("dup", 1, "first-payload"));
  session->submit(file_unit("dup", 1, "second-payload"));
  ASSERT_TRUE(session->sync().has_value());
  backend_->quiesce();
  auto got = backend_->read("dup");
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->verified);
  EXPECT_EQ(*got->data, "second-payload");
  auto obj = services_.s3.peek(kDataBucket, "dup");
  ASSERT_TRUE(obj.has_value());
  auto item = services_.sdb.peek_item(kProvenanceDomain, "dup:1");
  ASSERT_TRUE(item.has_value());
  EXPECT_EQ(item->at(kMd5Attribute).size(), 1u);
  EXPECT_EQ(
      item->at(kMd5Attribute).count(util::md5_with_nonce(*obj->data, "1")),
      1u);
}

// --- crash behaviour: log phase ---

class WalCrashTest : public ::testing::Test {
 protected:
  WalCrashTest()
      : env_(23, aws::ConsistencyConfig::strong()), services_(env_) {
    backend_ = std::make_unique<WalBackend>(services_, low_threshold());
  }
  aws::CloudEnv env_;
  CloudServices services_;
  std::unique_ptr<WalBackend> backend_;
};

TEST_F(WalCrashTest, CrashBeforeCommitRecordIgnoresTransaction) {
  env_.failures().arm_crash("wal.store.before_commit");
  EXPECT_THROW(backend_->store(file_unit("f", 1, "x")), sim::CrashError);
  backend_->quiesce();
  // "If the client crashes before it can log all the information to the WAL
  // queue ... the commit daemon ignores these records."
  EXPECT_FALSE(services_.s3.peek(kDataBucket, "f").has_value());
  EXPECT_FALSE(services_.sdb.peek_item(kProvenanceDomain, "f:1").has_value());
}

TEST_F(WalCrashTest, CrashMidLogIgnoresTransaction) {
  env_.failures().arm_crash("wal.store.mid_records", 1);
  EXPECT_THROW(backend_->store(file_unit("f", 1, "x")), sim::CrashError);
  backend_->quiesce();
  EXPECT_FALSE(services_.s3.peek(kDataBucket, "f").has_value());
}

TEST_F(WalCrashTest, CrashAfterCommitRecordCompletesViaDaemon) {
  env_.failures().arm_crash("wal.store.after_commit");
  EXPECT_THROW(backend_->store(file_unit("f", 1, "x")), sim::CrashError);
  // The client died after sealing the log; the daemon finishes the job.
  backend_->quiesce();
  EXPECT_TRUE(services_.s3.peek(kDataBucket, "f").has_value());
  EXPECT_TRUE(services_.sdb.peek_item(kProvenanceDomain, "f:1").has_value());
}

TEST_F(WalCrashTest, UncommittedTempObjectCleanedAfterTtl) {
  env_.failures().arm_crash("wal.store.before_commit");
  EXPECT_THROW(backend_->store(file_unit("f", 1, "x")), sim::CrashError);
  backend_->quiesce();
  EXPECT_FALSE(services_.s3.peek_keys(kDataBucket, kTempPrefix).empty());
  // Before the TTL the cleaner must leave it alone.
  backend_->clean_temp_objects();
  EXPECT_FALSE(services_.s3.peek_keys(kDataBucket, kTempPrefix).empty());
  // After 4 days it goes.
  env_.clock().advance_by(4 * sim::kDay + sim::kHour);
  backend_->clean_temp_objects();
  EXPECT_TRUE(services_.s3.peek_keys(kDataBucket, kTempPrefix).empty());
}

// --- crash behaviour: commit daemon (idempotent replay) ---

struct DaemonCrashCase {
  const char* point;
  const char* ctest_name;
  /// Closes logged before the one commit phase that crashes. At 3 the phase
  /// deletes 16 messages in two batches, and the first batch ends inside
  /// the second close's transaction.
  int closes = 1;
};

// CTest names each case after how gtest prints it. Unprinted, a case is its
// raw bytes -- here a pointer -- so the name changed from build to build.
// Print the name the case is registered under instead.
void PrintTo(const DaemonCrashCase& c, std::ostream* os) {
  *os << c.ctest_name;
}

/// The crash cases' closes: "f", then "f1" with two provenance chunks, then
/// "f2".
std::vector<FlushUnit> crash_case_units(int closes) {
  std::vector<FlushUnit> units;
  for (int i = 0; i < closes; ++i) {
    const std::string object = i == 0 ? "f" : "f" + std::to_string(i);
    std::vector<ProvenanceRecord> records = {make_text_record("TYPE", "file"),
                                             make_text_record("NAME", object)};
    if (i == 1)
      for (const char* env : {"ENV0", "ENV1"})
        records.push_back(make_text_record(env, std::string(5000, 'e')));
    units.push_back(file_unit(object, 1, "idempotent-payload", records));
  }
  return units;
}

class WalDaemonCrashTest : public ::testing::TestWithParam<DaemonCrashCase> {};

TEST_P(WalDaemonCrashTest, ReplayAfterDaemonCrashIsIdempotent) {
  aws::CloudEnv env(31, aws::ConsistencyConfig::strong());
  CloudServices services(env);
  const std::vector<FlushUnit> units = crash_case_units(GetParam().closes);
  // The phase runs once the last close is logged.
  WalBackendConfig cfg;
  cfg.commit_threshold = 0;
  for (const FlushUnit& u : units)
    cfg.commit_threshold += build_transaction("tx", u, "t", "n", "m").size();
  WalBackend backend(services, cfg);

  env.failures().arm_crash(GetParam().point);
  try {
    for (const FlushUnit& u : units) backend.store(u);
  } catch (const sim::CrashError&) {
    // daemon (or log phase) died; restart follows
  }
  EXPECT_EQ(env.failures().hits(GetParam().point), 1u);
  // Restart: recovery + normal pumping until stable.
  backend.recover();
  backend.quiesce();
  env.clock().drain();
  backend.recover();

  for (const FlushUnit& u : units) {
    auto obj = services.s3.peek(kDataBucket, u.object);
    ASSERT_TRUE(obj.has_value()) << GetParam().point << " " << u.object;
    EXPECT_EQ(*obj->data, "idempotent-payload");
    auto item = services.sdb.peek_item(kProvenanceDomain, u.object + ":1");
    ASSERT_TRUE(item.has_value()) << GetParam().point << " " << u.object;
    // Replay must not duplicate provenance (set semantics).
    EXPECT_EQ(item->at("TYPE").size(), 1u);
    EXPECT_EQ(item->at(kMd5Attribute).size(), 1u);
    EXPECT_EQ(item->at(kMd5Attribute).count(
                  util::md5_with_nonce("idempotent-payload", "1")),
              1u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Points, WalDaemonCrashTest,
    ::testing::Values(
        DaemonCrashCase{"commitd.after_receive",
                        "8-byte object <68-74 F1-8D 8C-55 00-00>"},
        DaemonCrashCase{"commitd.after_copy",
                        "8-byte object <7E-74 F1-8D 8C-55 00-00>"},
        DaemonCrashCase{"commitd.after_sdb",
                        "8-byte object <91-74 F1-8D 8C-55 00-00>"},
        DaemonCrashCase{"commitd.mid_message_delete",
                        "8-byte object <A3-74 F1-8D 8C-55 00-00>"},
        DaemonCrashCase{"commitd.before_temp_delete",
                        "8-byte object <73-02 F4-8D 8C-55 00-00>"},
        // The first point of the maintenance step the commit daemon runs
        // after the close's group: the close is already durable in the log.
        DaemonCrashCase{"commitd.begin", "commitd.begin"},
        DaemonCrashCase{"commitd.after_txn", "commitd.after_txn"},
        DaemonCrashCase{"commitd.mid_message_delete",
                        "commitd.mid_message_delete.between_batches", 3}));

// --- the daemon's memory between phases ---

constexpr const char* kQueueUrl = "sqs://queue/wal-client-0";

/// Logs `unit` under `txid` into the default queue the way a close does --
/// the temp PUT (unless `put_temp` is false), then each record -- but holds
/// back the commit record and returns it.
util::Bytes log_all_but_commit(CloudServices& services, const std::string& txid,
                               const FlushUnit& unit, bool put_temp = true) {
  const std::string temp_key =
      std::string(kTempPrefix) + "wal-client-0/" + txid;
  const std::string nonce = nonce_for_version(unit.version);
  if (put_temp) {
    EXPECT_TRUE(services.s3.put(kDataBucket, temp_key, *unit.data).has_value());
  }
  const std::vector<WalRecord> records = build_transaction(
      txid, unit, temp_key, nonce, util::md5_with_nonce(*unit.data, nonce));
  for (std::size_t i = 0; i + 1 < records.size(); ++i) {
    const util::Bytes body = encode_wal_record(records[i]);
    EXPECT_TRUE(services.sqs.send_message(kQueueUrl, body).has_value());
  }
  return encode_wal_record(records.back());
}

WalBackendConfig never_pumps() {
  WalBackendConfig c;
  c.commit_threshold = std::numeric_limits<std::uint64_t>::max();
  return c;
}

TEST(WalKeptStateTest, TransactionSplitAcrossPhasesCompletesInTheSecond) {
  aws::CloudEnv env(51, aws::ConsistencyConfig::strong());
  CloudServices services(env);
  WalBackend backend(services, never_pumps());
  const util::Bytes commit =
      log_all_but_commit(services, make_txid(7, 1), file_unit("split", 1, "s"));
  backend.recover();  // folds the four messages and keeps them
  EXPECT_FALSE(services.s3.peek(kDataBucket, "split").has_value());
  ASSERT_TRUE(services.sqs.send_message(kQueueUrl, commit).has_value());
  // No clock movement: the kept pieces are still in flight, and only the
  // commit arrives now.
  backend.recover();
  EXPECT_TRUE(services.s3.peek(kDataBucket, "split").has_value());
  EXPECT_EQ(backend.committed_count(), 1u);
  EXPECT_EQ(services.sqs.exact_message_count(kQueueUrl), 0u);
}

TEST(WalKeptStateTest, RedeliveredAfterTimeoutCompletesOnce) {
  aws::CloudEnv env(52, aws::ConsistencyConfig::strong());
  CloudServices services(env);
  WalBackend backend(services, never_pumps());
  std::vector<ProvenanceRecord> records = {make_text_record("TYPE", "file")};
  for (int i = 0; i < 4; ++i)  // four prov chunks
    records.push_back(
        make_text_record("ENV" + std::to_string(i), std::string(5000, 'e')));
  const util::Bytes commit = log_all_but_commit(
      services, make_txid(7, 1), file_unit("again", 1, "a", records));
  backend.recover();
  // Every kept message is visible again; the next phase receives each a
  // second time beside the commit.
  env.clock().advance_by(61 * sim::kSecond);
  ASSERT_TRUE(services.sqs.send_message(kQueueUrl, commit).has_value());
  backend.recover();
  EXPECT_EQ(backend.committed_count(), 1u);
  EXPECT_EQ(services.sqs.exact_message_count(kQueueUrl), 0u);
  auto prov = backend.get_provenance("again", 1);
  ASSERT_TRUE(prov.has_value());
  EXPECT_EQ(prov->size(), records.size());
}

TEST(WalKeptStateTest, CrashAfterKeepingAPartialLandsEveryCloseOnce) {
  aws::CloudEnv env(53, aws::ConsistencyConfig::strong());
  CloudServices services(env);
  WalBackend first(services, never_pumps());
  first.store(file_unit("k0", 1, "zero"));
  first.store(file_unit("k1", 1, "one"));
  const util::Bytes commit =
      log_all_but_commit(services, make_txid(7, 1), file_unit("kp", 1, "p"));
  first.recover();  // applies k0 and k1, keeps kp
  ASSERT_TRUE(services.sqs.send_message(kQueueUrl, commit).has_value());
  first.store(file_unit("k2", 1, "two"));
  // The next phase completes kp and writes kp's and k2's provenance, then
  // dies before deleting anything: the kept state dies with it.
  env.failures().arm_crash("commitd.after_sdb");
  EXPECT_THROW(first.recover(), sim::CrashError);
  env.failures().disarm("commitd.after_sdb");

  WalBackend restarted(services, never_pumps());
  restarted.quiesce();
  env.clock().drain();
  EXPECT_EQ(first.committed_count() + restarted.committed_count(), 4u);
  EXPECT_EQ(services.sqs.exact_message_count(kQueueUrl), 0u);
  EXPECT_TRUE(services.s3.peek_keys(kDataBucket, kTempPrefix).empty());
  for (const auto& [object, data] :
       std::map<std::string, std::string>{
           {"k0", "zero"}, {"k1", "one"}, {"k2", "two"}, {"kp", "p"}}) {
    auto got = restarted.read(object);
    ASSERT_TRUE(got.has_value()) << object;
    EXPECT_TRUE(got->verified) << object;
    EXPECT_EQ(*got->data, data) << object;
    auto item = services.sdb.peek_item(kProvenanceDomain, object + ":1");
    ASSERT_TRUE(item.has_value()) << object;
    EXPECT_EQ(item->at(kMd5Attribute).size(), 1u) << object;
  }
}

TEST(WalKeptStateTest, VersionMemorySupersedesAnOlderKeptTransaction) {
  // Each object's v1 is kept partial while its v2 is promoted; v1's commit
  // then arrives at the same clock instant. With propagation this slow,
  // only the coordinator replica has v2, so each of the guard's four HEADs
  // misses it with probability 2/3. Without the daemon's own memory of
  // what it promoted, some v1 COPY lands over its v2.
  aws::ConsistencyConfig c;
  c.replicas = 3;
  c.propagation_min = 20 * sim::kSecond;
  c.propagation_max = 40 * sim::kSecond;
  c.sqs_sample_fraction = 1.0;
  aws::CloudEnv env(54, c);
  CloudServices services(env);
  WalBackend backend(services, never_pumps());
  constexpr int kObjects = 24;
  const auto object = [](int i) { return "hot" + std::to_string(i); };
  std::vector<util::Bytes> v1_commits;
  for (int i = 0; i < kObjects; ++i) {
    v1_commits.push_back(log_all_but_commit(services, make_txid(7, 2 * i + 1),
                                            file_unit(object(i), 1, "old")));
    const util::Bytes v2_commit = log_all_but_commit(
        services, make_txid(7, 2 * i + 2), file_unit(object(i), 2, "new"));
    ASSERT_TRUE(services.sqs.send_message(kQueueUrl, v2_commit).has_value());
  }
  backend.recover();  // promotes every v2, keeps every v1
  for (const util::Bytes& commit : v1_commits)
    ASSERT_TRUE(services.sqs.send_message(kQueueUrl, commit).has_value());
  backend.recover();  // every v1 completes
  EXPECT_EQ(backend.committed_count(), 2u * kObjects);
  env.clock().drain();
  for (int i = 0; i < kObjects; ++i) {
    auto got = backend.read(object(i), 200);
    ASSERT_TRUE(got.has_value()) << object(i);
    EXPECT_EQ(got->version, 2u) << object(i);
    EXPECT_EQ(*got->data, "new") << object(i);
    EXPECT_TRUE(got->verified) << object(i);
  }
}

// --- restarts: txids are unique per client incarnation ---

TEST(WalRestartTest, RestartedClientDoesNotMergeWithTheDeadOnesLog) {
  // Client A logs a0 and a1 with no phase run, then dies before a2's
  // commit record. B restarts on the same queue and counts its txids from
  // 1 again: its transactions must not merge with A's, nor its temp
  // objects overwrite A's.
  aws::CloudEnv env(55, aws::ConsistencyConfig::strong());
  CloudServices services(env);
  {
    WalBackend a(services, never_pumps());
    a.store(file_unit("a0", 1, "from a0"));
    a.store(file_unit("a1", 1, "from a1"));
    env.failures().arm_crash("wal.store.before_commit");
    EXPECT_THROW(a.store(file_unit("a2", 1, "from a2")), sim::CrashError);
    env.failures().disarm("wal.store.before_commit");
  }
  WalBackend b(services, never_pumps());
  for (int i = 0; i < 3; ++i)
    b.store(file_unit("b" + std::to_string(i), 1,
                      "from b" + std::to_string(i)));
  b.quiesce();
  env.clock().drain();
  for (const char* object : {"a0", "a1", "b0", "b1", "b2"}) {
    auto got = b.read(object);
    ASSERT_TRUE(got.has_value()) << object;
    EXPECT_TRUE(got->verified) << object;
    EXPECT_EQ(*got->data, std::string("from ") + object) << object;
  }
  EXPECT_FALSE(services.s3.peek(kDataBucket, "a2").has_value());
  // Only a2's four uncommitted records are left, for the retention.
  EXPECT_EQ(services.sqs.exact_message_count(kQueueUrl), 4u);
}

TEST(WalRestartTest, RecoverAfterAnUncommittedCrashThenOneClose) {
  aws::CloudEnv env(56, aws::ConsistencyConfig::strong());
  CloudServices services(env);
  {
    WalBackend a(services, low_threshold());
    env.failures().arm_crash("wal.store.before_commit");
    EXPECT_THROW(a.store(file_unit("a0", 1, "x")), sim::CrashError);
    env.failures().disarm("wal.store.before_commit");
  }
  WalBackend b(services, low_threshold());
  b.recover();  // keeps the dead client's partial transaction
  b.store(file_unit("b0", 1, "from b0"));
  b.quiesce();
  env.clock().drain();
  auto got = b.read("b0");
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->verified);
  EXPECT_EQ(*got->data, "from b0");
  EXPECT_FALSE(services.s3.peek(kDataBucket, "a0").has_value());
}

// --- quiesce() is a barrier ---

TEST(WalQuiesceTest, DrainsABacklogBeyondSixtyFourForcedPhases) {
  // A forced phase receives at most 24 x 10 messages; the backlog here
  // needs more than 64 such phases.
  aws::CloudEnv env(57, aws::ConsistencyConfig::strong());
  CloudServices services(env);
  WalBackend backend(services, never_pumps());
  auto session = backend.open_session(SessionConfig{.max_group = 1});
  PassObserver observer([&session](const FlushUnit& u) { session->submit(u); });
  observer.apply_trace(workloads::build_combined_trace(
      {.seed = 57, .count_scale = 2.0, .size_scale = 0.02}));
  observer.finish();
  ASSERT_TRUE(session->sync().has_value());
  ASSERT_GT(services.sqs.exact_message_count(kQueueUrl), 64u * 24u * 10u);

  backend.quiesce();
  EXPECT_EQ(services.sqs.exact_message_count(kQueueUrl), 0u);
  const auto& truth = observer.ground_truth();
  EXPECT_EQ(backend.committed_count(), truth.size());
  std::map<std::string, const FlushUnit*> latest;
  for (const auto& [id, unit] : truth)
    if (unit.kind == PnodeKind::kFile) latest[id.first] = &unit;  // key order
  for (const auto& [object, unit] : latest) {
    auto got = backend.read(object);
    ASSERT_TRUE(got.has_value()) << object;
    EXPECT_TRUE(got->verified) << object;
    EXPECT_EQ(got->version, unit->version) << object;
    EXPECT_EQ(*got->data, *unit->data) << object;
  }
  // Every close's walk reaches exactly the ancestors PASS recorded.
  for (const auto& [id, unit] : truth) {
    std::set<ObjectVersion> expected;
    std::vector<ObjectVersion> todo = {ObjectVersion{id.first, id.second}};
    while (!todo.empty()) {
      const ObjectVersion next = todo.back();
      todo.pop_back();
      if (!expected.insert(next).second) continue;
      for (const ProvenanceRecord& r :
           truth.at({next.object, next.version}).records)
        if (r.is_xref()) todo.push_back(r.xref());
    }
    const AncestryResult walk = fetch_ancestry(backend, id.first, id.second);
    EXPECT_TRUE(walk.missing.empty()) << id.first << ":" << id.second;
    std::set<ObjectVersion> walked;
    for (const auto& [node, ignored] : walk.graph.nodes()) walked.insert(node);
    EXPECT_EQ(walked, expected) << id.first << ":" << id.second;
  }
}

TEST(WalQuiesceTest, FailsLoudlyWhenACommittedTransactionCannotApply) {
  // A complete, committed transaction whose temp object never existed: its
  // COPY defers it phase after phase.
  aws::CloudEnv env(58, aws::ConsistencyConfig::strong());
  CloudServices services(env);
  WalBackend backend(services, never_pumps());
  const util::Bytes commit =
      log_all_but_commit(services, make_txid(7, 1), file_unit("lost", 1, "l"),
                         /*put_temp=*/false);
  ASSERT_TRUE(services.sqs.send_message(kQueueUrl, commit).has_value());
  try {
    backend.quiesce();
    ADD_FAILURE() << "quiesce() returned with a transaction unapplied";
  } catch (const util::LogicError& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "1 complete committed transactions unapplied"),
              std::string::npos)
        << e.what();
  }
}

// --- sampling SQS: the daemon must cope with partial receives ---

TEST(WalSamplingTest, CommitsDespiteSamplingReceives) {
  aws::ConsistencyConfig c = aws::ConsistencyConfig::strong();
  c.sqs_sample_fraction = 0.25;  // each receive sees 2 of 8 shards
  aws::CloudEnv env(41, c);
  CloudServices services(env);
  WalBackendConfig cfg;
  cfg.commit_threshold = 1;
  WalBackend backend(services, cfg);
  for (int i = 0; i < 8; ++i)
    backend.store(file_unit("f" + std::to_string(i), 1, "x"));
  backend.quiesce();
  for (int i = 0; i < 8; ++i)
    EXPECT_TRUE(
        services.s3.peek(kDataBucket, "f" + std::to_string(i)).has_value())
        << i;
  EXPECT_EQ(services.sqs.exact_message_count("sqs://queue/wal-client-0"), 0u);
}

TEST(WalEventualTest, WorksUnderFullStaleness) {
  aws::ConsistencyConfig c;
  c.replicas = 3;
  c.propagation_min = 500 * sim::kMillisecond;
  c.propagation_max = 4 * sim::kSecond;
  c.sqs_sample_fraction = 0.5;
  aws::CloudEnv env(42, c);
  CloudServices services(env);
  WalBackendConfig cfg;
  cfg.commit_threshold = 1;
  WalBackend backend(services, cfg);
  for (int i = 0; i < 6; ++i) {
    backend.store(file_unit("f" + std::to_string(i), 1,
                            "body" + std::to_string(i)));
    env.clock().advance_by(300 * sim::kMillisecond);
  }
  backend.quiesce();
  env.clock().drain();
  backend.recover();
  for (int i = 0; i < 6; ++i) {
    auto got = backend.read("f" + std::to_string(i));
    ASSERT_TRUE(got.has_value()) << i;
    EXPECT_TRUE(got->verified) << i;
    EXPECT_EQ(*got->data, "body" + std::to_string(i));
  }
}

}  // namespace
