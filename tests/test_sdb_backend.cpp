// Architecture 2 (S3 + SimpleDB): split storage, MD5+nonce consistency,
// the atomicity hole and the orphan-scan recovery.
#include <gtest/gtest.h>

#include <cstring>

#include "cloudprov/consistency_read.hpp"
#include "cloudprov/sdb_backend.hpp"
#include "cloudprov/serialize.hpp"
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

class SdbBackendTest : public ::testing::Test {
 protected:
  SdbBackendTest()
      : env_(11, aws::ConsistencyConfig::strong()), services_(env_) {
    backend_ = make_sdb_backend(services_);
  }
  aws::CloudEnv env_;
  CloudServices services_;
  std::unique_ptr<ProvenanceBackend> backend_;
};

TEST_F(SdbBackendTest, StoreSplitsDataAndProvenance) {
  backend_->store(file_unit("data/f", 1, "contents"));
  // Data lives in S3 with the nonce.
  auto obj = services_.s3.peek(kDataBucket, "data/f");
  ASSERT_TRUE(obj.has_value());
  EXPECT_EQ(*obj->data, "contents");
  EXPECT_EQ(obj->metadata.at(kNonceMetaKey), "1");
  // Provenance lives in SimpleDB under "object:version".
  auto item = services_.sdb.peek_item(kProvenanceDomain, "data/f:1");
  ASSERT_TRUE(item.has_value());
  EXPECT_EQ(item->at("TYPE").count("file"), 1u);
  // Including the MD5(data || nonce) consistency token.
  EXPECT_EQ(item->at(kMd5Attribute).count(util::md5_with_nonce("contents", "1")),
            1u);
}

TEST_F(SdbBackendTest, ReadVerifiesMd5) {
  backend_->store(file_unit("f", 1, "payload"));
  auto got = backend_->read("f");
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->verified);
  EXPECT_EQ(*got->data, "payload");
  EXPECT_EQ(got->version, 1u);
  EXPECT_EQ(got->records.size(), 2u);
}

TEST_F(SdbBackendTest, EachVersionKeepsItsProvenance) {
  backend_->store(file_unit("f", 1, "v1"));
  backend_->store(file_unit("f", 2, "v1v2"));
  // Unlike Architecture 1, old version provenance survives.
  EXPECT_TRUE(backend_->get_provenance("f", 1).has_value());
  EXPECT_TRUE(backend_->get_provenance("f", 2).has_value());
  auto got = backend_->read("f");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->version, 2u);
}

TEST_F(SdbBackendTest, LargeValueSpillsToS3) {
  const std::string big(1500, 'e');
  backend_->store(file_unit("f", 1, "x",
                            {make_text_record("TYPE", "file"),
                             make_text_record("ENV", big)}));
  auto item = services_.sdb.peek_item(kProvenanceDomain, "f:1");
  ASSERT_TRUE(item.has_value());
  ASSERT_EQ(item->at("ENV").size(), 1u);
  EXPECT_EQ(item->at("ENV").begin()->rfind(kSpillMarker, 0), 0u);
  // get_provenance resolves the pointer.
  auto prov = backend_->get_provenance("f", 1);
  ASSERT_TRUE(prov.has_value());
  bool found = false;
  for (const auto& r : *prov)
    if (r.attribute == "ENV" && r.text() == big) found = true;
  EXPECT_TRUE(found);
}

TEST_F(SdbBackendTest, VerifiedReadFetchesItsItemOnce) {
  const std::string big(1500, 'e');
  backend_->store(file_unit("f", 1, "x",
                            {make_text_record("TYPE", "file"),
                             make_text_record("ENV", big)}));
  const auto before = env_.meter().snapshot();
  auto got = backend_->read("f");
  const auto diff = env_.meter().snapshot().diff(before);
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->verified);
  // One GetAttributes for the item it verified, one GET for the data and
  // one for the spilled value -- no second fetch of the item.
  EXPECT_EQ(diff.calls("sdb", "GetAttributes"), 1u);
  EXPECT_EQ(diff.calls("sdb"), 1u);
  EXPECT_EQ(diff.calls("s3", "GET"), 2u);
  bool resolved = false;
  for (const auto& r : got->records)
    resolved |= r.attribute == "ENV" && r.text() == big;
  EXPECT_TRUE(resolved);
}

TEST_F(SdbBackendTest, VerifiedReadWithALostSpillFails) {
  backend_->store(file_unit("f", 1, "x",
                            {make_text_record("TYPE", "file"),
                             make_text_record("ENV", std::string(1500, 'e'))}));
  auto item = services_.sdb.peek_item(kProvenanceDomain, "f:1");
  ASSERT_TRUE(item.has_value());
  const std::string marker = *item->at("ENV").begin();
  ASSERT_EQ(marker.rfind(kSpillMarker, 0), 0u);
  ASSERT_TRUE(services_.s3
                  .del(kDataBucket, marker.substr(std::strlen(kSpillMarker)))
                  .has_value());
  // The pair verifies, but its spilled value is gone: the read fails
  // instead of handing back the "@s3:" pointer as the record's value.
  auto got = backend_->read("f", 4);
  ASSERT_FALSE(got.has_value());
  EXPECT_EQ(got.error().code, BackendErrorCode::kConsistencyExhausted);
}

TEST_F(SdbBackendTest, ManyRecordsChunkPutAttributes) {
  // batch_size = 1 pins the legacy one-PutAttributes-per-chunk path.
  auto legacy = make_sdb_backend(services_, SdbBackendConfig{.batch_size = 1});
  std::vector<ProvenanceRecord> records;
  for (int i = 0; i < 230; ++i)
    records.push_back(make_xref_record("INPUT", {"in" + std::to_string(i), 1}));
  const auto before = env_.meter().snapshot();
  legacy->store(file_unit("fanin", 1, "x", std::move(records)));
  const auto diff = env_.meter().snapshot().diff(before);
  // 230 records + kind + md5 = 232 attrs -> 3 calls at the 100-attr limit.
  EXPECT_EQ(diff.calls("sdb", "PutAttributes"), 3u);
}

TEST_F(SdbBackendTest, ManyRecordsCoalesceIntoOneBatchPut) {
  // The default batched path: the same 232-attribute record is one
  // BatchPutAttributes round trip (batch entries admit 256 pairs).
  std::vector<ProvenanceRecord> records;
  for (int i = 0; i < 230; ++i)
    records.push_back(make_xref_record("INPUT", {"in" + std::to_string(i), 1}));
  const auto before = env_.meter().snapshot();
  backend_->store(file_unit("fanin", 1, "x", std::move(records)));
  const auto diff = env_.meter().snapshot().diff(before);
  EXPECT_EQ(diff.calls("sdb", "BatchPutAttributes"), 1u);
  EXPECT_EQ(diff.calls("sdb", "PutAttributes"), 0u);
  auto prov = backend_->get_provenance("fanin", 1);
  ASSERT_TRUE(prov.has_value());
  EXPECT_EQ(prov->size(), 230u);
}

TEST_F(SdbBackendTest, ClaimsMatchTableOne) {
  const auto claims = backend_->claims();
  EXPECT_FALSE(claims.atomicity);
  EXPECT_TRUE(claims.consistency);
  EXPECT_TRUE(claims.causal_ordering);
  EXPECT_TRUE(claims.efficient_query);
}

// --- the atomicity hole and recovery ---

class SdbBackendCrashTest : public ::testing::Test {
 protected:
  SdbBackendCrashTest()
      : env_(12, aws::ConsistencyConfig::strong()), services_(env_) {
    backend_ = make_sdb_backend(services_);
  }
  aws::CloudEnv env_;
  CloudServices services_;
  std::unique_ptr<ProvenanceBackend> backend_;
};

TEST_F(SdbBackendCrashTest, CrashBetweenProvAndDataOrphansProvenance) {
  env_.failures().arm_crash("sdb.store.between_prov_and_data");
  EXPECT_THROW(backend_->store(file_unit("f", 1, "x")), sim::CrashError);
  // Provenance recorded, data not: atomicity violated, exactly the paper's
  // scenario.
  EXPECT_TRUE(services_.sdb.peek_item(kProvenanceDomain, "f:1").has_value());
  EXPECT_FALSE(services_.s3.peek(kDataBucket, "f").has_value());
}

TEST_F(SdbBackendCrashTest, RecoverScansAndRemovesOrphans) {
  backend_->store(file_unit("good", 1, "x"));
  env_.failures().arm_crash("sdb.store.between_prov_and_data");
  EXPECT_THROW(backend_->store(file_unit("bad", 1, "y")), sim::CrashError);
  env_.clock().drain();

  backend_->recover();
  // Orphan removed; healthy item untouched.
  EXPECT_FALSE(services_.sdb.peek_item(kProvenanceDomain, "bad:1").has_value());
  EXPECT_TRUE(services_.sdb.peek_item(kProvenanceDomain, "good:1").has_value());
  auto* sdb_backend = dynamic_cast<SdbBackend*>(backend_.get());
  ASSERT_NE(sdb_backend, nullptr);
  EXPECT_EQ(sdb_backend->last_recovery_orphans(), 1u);
}

TEST_F(SdbBackendCrashTest, RecoverKeepsOldVersionItems) {
  backend_->store(file_unit("f", 1, "v1"));
  backend_->store(file_unit("f", 2, "v1v2"));
  backend_->recover();
  // Provenance of superseded versions is legitimate, not orphaned.
  EXPECT_TRUE(services_.sdb.peek_item(kProvenanceDomain, "f:1").has_value());
  EXPECT_TRUE(services_.sdb.peek_item(kProvenanceDomain, "f:2").has_value());
}

TEST_F(SdbBackendCrashTest, OrphanedNewVersionRemovedDataKeepsOld) {
  backend_->store(file_unit("f", 1, "v1"));
  env_.failures().arm_crash("sdb.store.between_prov_and_data");
  EXPECT_THROW(backend_->store(file_unit("f", 2, "v1v2")), sim::CrashError);
  env_.clock().drain();
  backend_->recover();
  EXPECT_TRUE(services_.sdb.peek_item(kProvenanceDomain, "f:1").has_value());
  EXPECT_FALSE(services_.sdb.peek_item(kProvenanceDomain, "f:2").has_value());
  // The old data/provenance pair still reads consistently.
  auto got = backend_->read("f");
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->verified);
  EXPECT_EQ(got->version, 1u);
}

// --- consistency detection under staleness ---

class SdbBackendEventualTest : public ::testing::Test {
 protected:
  static aws::ConsistencyConfig slow() {
    aws::ConsistencyConfig c;
    c.replicas = 3;
    c.propagation_min = sim::kSecond;
    c.propagation_max = 5 * sim::kSecond;
    return c;
  }
  SdbBackendEventualTest() : env_(13, slow()), services_(env_) {
    backend_ = make_sdb_backend(services_);
  }
  aws::CloudEnv env_;
  CloudServices services_;
  std::unique_ptr<ProvenanceBackend> backend_;
};

TEST_F(SdbBackendEventualTest, VerifiedReadsAreNeverMismatched) {
  backend_->store(file_unit("f", 1, "one"));
  env_.clock().advance_by(500 * sim::kMillisecond);
  backend_->store(file_unit("f", 2, "onetwo"));
  for (int i = 0; i < 60; ++i) {
    env_.clock().advance_by(100 * sim::kMillisecond);
    auto got = backend_->read("f");
    if (!got || !got->verified) continue;
    // A verified pair must be internally consistent: recompute the token.
    const std::string nonce = std::to_string(got->version);
    bool md5_ok = false;
    auto item = services_.sdb.peek_item(kProvenanceDomain,
                                        item_name("f", got->version));
    ASSERT_TRUE(item.has_value());
    md5_ok = item->at(kMd5Attribute).count(
                 util::md5_with_nonce(*got->data, nonce)) == 1;
    EXPECT_TRUE(md5_ok);
    // And the data must be the right bytes for that version.
    if (got->version == 1)
      EXPECT_EQ(*got->data, "one");
    else
      EXPECT_EQ(*got->data, "onetwo");
  }
}

TEST_F(SdbBackendEventualTest, StalenessCausesRetriesNotWrongAnswers) {
  backend_->store(file_unit("f", 1, "one"));
  env_.clock().drain();
  std::uint64_t retries = 0;
  backend_->store(file_unit("f", 2, "onetwo"));
  for (int i = 0; i < 40; ++i) {
    auto got = backend_->read("f");
    if (got) retries += got->retries;
  }
  // With a 5s window and no clock advance between reads, at least some
  // reads must have hit a mismatch and retried.
  EXPECT_GT(retries, 0u);
}

TEST_F(SdbBackendEventualTest, SameContentOverwriteDetectedByNonce) {
  // "a file is overwritten with the same data. In such cases, new
  // provenance will be generated but the MD5sum of the data will be the
  // same as before" -- the nonce disambiguates.
  backend_->store(file_unit("f", 1, "same-bytes"));
  env_.clock().drain();
  backend_->store(file_unit("f", 2, "same-bytes"));
  env_.clock().drain();
  auto got = backend_->read("f");
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->verified);
  EXPECT_EQ(got->version, 2u);
}

}  // namespace
