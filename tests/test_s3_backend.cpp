// Architecture 1 (standalone S3): atomic single-PUT protocol, metadata
// provenance, overflow spills.
#include <gtest/gtest.h>

#include "cloudprov/s3_backend.hpp"
#include "cloudprov/serialize.hpp"

namespace {

using namespace provcloud::cloudprov;
using namespace provcloud::pass;
namespace aws = provcloud::aws;
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

class S3BackendTest : public ::testing::Test {
 protected:
  S3BackendTest()
      : env_(5, aws::ConsistencyConfig::strong()), services_(env_) {
    backend_ = make_s3_backend(services_);
  }
  aws::CloudEnv env_;
  CloudServices services_;
  std::unique_ptr<ProvenanceBackend> backend_;
};

TEST_F(S3BackendTest, StoreThenReadReturnsDataAndProvenance) {
  backend_->store(file_unit("data/f", 1, "contents"));
  auto got = backend_->read("data/f");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got->data, "contents");
  EXPECT_EQ(got->version, 1u);
  EXPECT_TRUE(got->verified);
  EXPECT_EQ(got->records.size(), 2u);
}

TEST_F(S3BackendTest, SinglePutCarriesBoth) {
  const auto before = env_.meter().snapshot();
  backend_->store(file_unit("data/f", 1, "x"));
  const auto diff = env_.meter().snapshot().diff(before);
  EXPECT_EQ(diff.calls("s3", "PUT"), 1u);  // exactly one PUT: atomic
  EXPECT_EQ(diff.calls("sdb"), 0u);
  EXPECT_EQ(diff.calls("sqs"), 0u);
}

TEST_F(S3BackendTest, TransientUnitStoredAsEmptyObject) {
  FlushUnit proc;
  proc.object = "proc/1/1";
  proc.version = 1;
  proc.kind = PnodeKind::kProcess;
  proc.records = {make_text_record("TYPE", "process"),
                  make_text_record("NAME", "/bin/sh")};
  backend_->store(proc);
  auto obj = services_.s3.peek(kDataBucket, "proc/1/1");
  ASSERT_TRUE(obj.has_value());
  EXPECT_TRUE(obj->data->empty());
  EXPECT_EQ(decode_metadata(obj->metadata)->kind, "process");
}

TEST_F(S3BackendTest, GetProvenanceReturnsStoredRecords) {
  backend_->store(file_unit(
      "f", 2, "x",
      {make_text_record("TYPE", "file"),
       make_xref_record("INPUT", {"proc/1/1", 1})}));
  auto prov = backend_->get_provenance("f", 2);
  ASSERT_TRUE(prov.has_value());
  ASSERT_EQ(prov->size(), 2u);
}

TEST_F(S3BackendTest, OnlyLatestVersionProvenanceAvailable) {
  backend_->store(file_unit("f", 1, "v1"));
  backend_->store(file_unit("f", 2, "v1v2"));
  EXPECT_TRUE(backend_->get_provenance("f", 2).has_value());
  // Architecture 1 limitation: the old version's metadata was overwritten.
  EXPECT_FALSE(backend_->get_provenance("f", 1).has_value());
}

TEST_F(S3BackendTest, LargeRecordSpillsAndResolvesOnRead) {
  const std::string big(1500, 'e');
  backend_->store(file_unit("f", 1, "data",
                            {make_text_record("TYPE", "file"),
                             make_text_record("ENV", big)}));
  // The overflow object exists.
  EXPECT_TRUE(
      services_.s3.peek(kDataBucket, overflow_key("f", 1, 1)).has_value());
  // The read path resolves the pointer back into the full value.
  auto got = backend_->read("f");
  ASSERT_TRUE(got.has_value());
  bool found = false;
  for (const auto& r : got->records)
    if (r.attribute == "ENV" && !r.is_xref() && r.text() == big) found = true;
  EXPECT_TRUE(found);
}

TEST_F(S3BackendTest, SpillCostsExtraPut) {
  const auto before = env_.meter().snapshot();
  backend_->store(file_unit("f", 1, "x",
                            {make_text_record("ENV", std::string(1500, 'e'))}));
  const auto diff = env_.meter().snapshot().diff(before);
  EXPECT_EQ(diff.calls("s3", "PUT"), 2u);  // overflow + main
}

TEST_F(S3BackendTest, ReadMissingObjectFails) {
  auto got = backend_->read("never-stored", 3);
  EXPECT_FALSE(got.has_value());
}

/// An object whose metadata is the encoding of a valid unit, except that
/// `key` holds `value`; stored with a raw PUT, as a torn or corrupt writer
/// would leave it.
void put_with_corrupt_metadata(CloudServices& services,
                               const std::string& object,
                               const std::string& key,
                               const std::string& value) {
  aws::S3Metadata meta =
      encode_unit_as_metadata(file_unit(object, 1, "x")).metadata;
  meta[key] = value;
  ASSERT_TRUE(services.s3.put(kDataBucket, object, "x", meta).has_value());
}

TEST_F(S3BackendTest, RecordWithoutEqualsReadsAsCorrupt) {
  put_with_corrupt_metadata(services_, "f", "p0", "TYPEfile");
  auto got = backend_->read("f");
  ASSERT_FALSE(got.has_value());
  EXPECT_EQ(got.error().code, BackendErrorCode::kCorrupt);
  auto prov = backend_->get_provenance("f", 1);
  ASSERT_FALSE(prov.has_value());
  EXPECT_EQ(prov.error().code, BackendErrorCode::kCorrupt);
}

TEST_F(S3BackendTest, NonNumericVersionReadsAsCorruptNotVersionZero) {
  put_with_corrupt_metadata(services_, "f", "x-version", "abc");
  auto got = backend_->read("f");
  ASSERT_FALSE(got.has_value());
  EXPECT_EQ(got.error().code, BackendErrorCode::kCorrupt);
}

TEST_F(S3BackendTest, VersionAboveUint32ReadsAsCorruptNotTruncated) {
  put_with_corrupt_metadata(services_, "f", "x-version", "4294967297");
  auto got = backend_->read("f");
  ASSERT_FALSE(got.has_value());
  EXPECT_EQ(got.error().code, BackendErrorCode::kCorrupt);
  // 2^32 + 1 would have truncated to version 1, the stored unit's own.
  auto prov = backend_->get_provenance("f", 1);
  ASSERT_FALSE(prov.has_value());
  EXPECT_EQ(prov.error().code, BackendErrorCode::kCorrupt);
}

TEST_F(S3BackendTest, ClaimsMatchTableOne) {
  const auto claims = backend_->claims();
  EXPECT_TRUE(claims.atomicity);
  EXPECT_TRUE(claims.consistency);
  EXPECT_TRUE(claims.causal_ordering);
  EXPECT_FALSE(claims.efficient_query);
}

class S3BackendEventualTest : public ::testing::Test {
 protected:
  static aws::ConsistencyConfig slow() {
    aws::ConsistencyConfig c;
    c.replicas = 3;
    c.propagation_min = provcloud::sim::kSecond;
    c.propagation_max = 5 * provcloud::sim::kSecond;
    return c;
  }
  S3BackendEventualTest() : env_(6, slow()), services_(env_) {
    backend_ = make_s3_backend(services_);
  }
  aws::CloudEnv env_;
  CloudServices services_;
  std::unique_ptr<ProvenanceBackend> backend_;
};

TEST_F(S3BackendEventualTest, ReadDuringWindowIsInternallyConsistent) {
  backend_->store(file_unit("f", 1, "one"));
  env_.clock().drain();
  backend_->store(file_unit("f", 2, "onetwo"));
  // Whatever version a read returns, data and provenance match because they
  // travelled in one PUT.
  for (int i = 0; i < 100; ++i) {
    auto got = backend_->read("f");
    ASSERT_TRUE(got.has_value());
    if (got->version == 1)
      EXPECT_EQ(*got->data, "one");
    else
      EXPECT_EQ(*got->data, "onetwo");
  }
}

TEST_F(S3BackendEventualTest, ReadRetriesThroughPropagationMiss) {
  backend_->store(file_unit("fresh", 1, "x"));
  // Even while some replicas lack the object, a read with retries succeeds.
  auto got = backend_->read("fresh", 64);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got->data, "x");
}

TEST(S3BackendCrashTest, CrashBeforePutLeavesNothing) {
  aws::CloudEnv env(7, aws::ConsistencyConfig::strong());
  CloudServices services(env);
  auto backend = make_s3_backend(services);
  env.failures().arm_crash("s3.store.before_put");
  EXPECT_THROW(backend->store(file_unit("f", 1, "x")),
               provcloud::sim::CrashError);
  // Atomicity: no data, no provenance.
  EXPECT_FALSE(services.s3.peek(kDataBucket, "f").has_value());
}

TEST(S3BackendCrashTest, CrashAfterPutLeavesCompleteState) {
  aws::CloudEnv env(8, aws::ConsistencyConfig::strong());
  CloudServices services(env);
  auto backend = make_s3_backend(services);
  env.failures().arm_crash("s3.store.after_put");
  EXPECT_THROW(backend->store(file_unit("f", 1, "x")),
               provcloud::sim::CrashError);
  auto obj = services.s3.peek(kDataBucket, "f");
  ASSERT_TRUE(obj.has_value());
  EXPECT_FALSE(decode_metadata(obj->metadata)->records.empty());
}

}  // namespace
