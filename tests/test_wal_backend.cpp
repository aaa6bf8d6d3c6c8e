// Architecture 3 (S3 + SimpleDB + SQS): WAL logging, the commit daemon,
// idempotent replay across daemon crashes, the cleaner.
#include <gtest/gtest.h>

#include "cloudprov/consistency_read.hpp"
#include "cloudprov/serialize.hpp"
#include "cloudprov/session.hpp"
#include "cloudprov/wal_backend.hpp"
#include "util/md5.hpp"

namespace {

using namespace provcloud::cloudprov;
using namespace provcloud::pass;
namespace aws = provcloud::aws;
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
};

// CTest names each case after how gtest prints it. Unprinted, a case is its
// raw bytes -- here a pointer -- so the name changed from build to build.
// Print the name the case is registered under instead.
void PrintTo(const DaemonCrashCase& c, std::ostream* os) {
  *os << c.ctest_name;
}

class WalDaemonCrashTest : public ::testing::TestWithParam<DaemonCrashCase> {};

TEST_P(WalDaemonCrashTest, ReplayAfterDaemonCrashIsIdempotent) {
  aws::CloudEnv env(31, aws::ConsistencyConfig::strong());
  CloudServices services(env);
  WalBackendConfig cfg;
  cfg.commit_threshold = 1;
  WalBackend backend(services, cfg);

  env.failures().arm_crash(GetParam().point);
  try {
    backend.store(file_unit("f", 1, "idempotent-payload"));
  } catch (const sim::CrashError&) {
    // daemon (or log phase) died; restart follows
  }
  // Restart: recovery + normal pumping until stable.
  backend.recover();
  backend.quiesce();
  env.clock().drain();
  backend.recover();

  auto obj = services.s3.peek(kDataBucket, "f");
  ASSERT_TRUE(obj.has_value()) << GetParam().point;
  EXPECT_EQ(*obj->data, "idempotent-payload");
  auto item = services.sdb.peek_item(kProvenanceDomain, "f:1");
  ASSERT_TRUE(item.has_value()) << GetParam().point;
  // Replay must not duplicate provenance (set semantics).
  EXPECT_EQ(item->at("TYPE").size(), 1u);
  EXPECT_EQ(item->at(kMd5Attribute).size(), 1u);
  EXPECT_EQ(item->at(kMd5Attribute).count(
                util::md5_with_nonce("idempotent-payload", "1")),
            1u);
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
        DaemonCrashCase{"commitd.begin", "commitd.begin"}));

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
