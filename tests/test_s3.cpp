// S3 simulator: the operation set, limits, eventual consistency and billing
// behaviour the paper's section 2.1 describes.
#include <gtest/gtest.h>

#include "aws/common/env.hpp"
#include "aws/s3/s3.hpp"
#include "util/md5.hpp"

namespace {

using namespace provcloud::aws;
namespace sim = provcloud::sim;
namespace util = provcloud::util;

class S3Test : public ::testing::Test {
 protected:
  S3Test() : env_(1, ConsistencyConfig::strong()), s3_(env_) {}
  CloudEnv env_;
  S3Service s3_;
};

TEST_F(S3Test, PutThenGetRoundTrips) {
  S3Metadata meta{{"k", "v"}};
  ASSERT_TRUE(s3_.put("b", "key", "hello", meta).has_value());
  auto got = s3_.get("b", "key");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got->data, "hello");
  EXPECT_EQ(got->metadata.at("k"), "v");
}

TEST_F(S3Test, EtagIsContentMd5) {
  // The ETag is the MD5 of the whole object's bytes, however it is read.
  ASSERT_TRUE(s3_.put("b", "key", "abcdef").has_value());
  const std::string etag = util::Md5::hex_digest("abcdef");
  auto got = s3_.get("b", "key");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->etag(), etag);
  auto head = s3_.head("b", "key");
  ASSERT_TRUE(head.has_value());
  EXPECT_EQ(head->etag(), etag);
  EXPECT_EQ(s3_.peek("b", "key")->etag(), etag);
  // A range GET reports the whole object's ETag, not its slice's.
  auto range = s3_.get_range("b", "key", 1, 3);
  ASSERT_TRUE(range.has_value());
  EXPECT_EQ(*range->data, "bcd");
  EXPECT_EQ(range->etag(), etag);
  // COPY: the destination carries the source's bytes, so its ETag.
  ASSERT_TRUE(s3_.copy("b", "key", "b", "copy", MetadataDirective::kReplace,
                       {{"k", "v"}})
                  .has_value());
  EXPECT_EQ(s3_.get("b", "copy")->etag(), etag);
  // Overwrite: new bytes, new ETag; the copy keeps the old one.
  ASSERT_TRUE(s3_.put("b", "key", "xyz").has_value());
  EXPECT_EQ(s3_.get("b", "key")->etag(), util::Md5::hex_digest("xyz"));
  EXPECT_EQ(s3_.head("b", "key")->etag(), util::Md5::hex_digest("xyz"));
  EXPECT_EQ(s3_.get("b", "copy")->etag(), etag);
}

TEST_F(S3Test, PutOverwrites) {
  ASSERT_TRUE(s3_.put("b", "key", "one").has_value());
  ASSERT_TRUE(s3_.put("b", "key", "two").has_value());
  EXPECT_EQ(*s3_.get("b", "key")->data, "two");
}

TEST_F(S3Test, GetMissingKeyReturnsNoSuchKey) {
  ASSERT_TRUE(s3_.put("b", "exists", "x").has_value());
  auto got = s3_.get("b", "missing");
  ASSERT_FALSE(got.has_value());
  EXPECT_EQ(got.error().code, AwsErrorCode::kNoSuchKey);
}

TEST_F(S3Test, GetMissingBucketReturnsNoSuchBucket) {
  auto got = s3_.get("nope", "k");
  ASSERT_FALSE(got.has_value());
  EXPECT_EQ(got.error().code, AwsErrorCode::kNoSuchBucket);
}

TEST_F(S3Test, MetadataOverTwoKbRejected) {
  S3Metadata meta{{"big", std::string(2049, 'x')}};
  auto put = s3_.put("b", "k", "data", meta);
  ASSERT_FALSE(put.has_value());
  EXPECT_EQ(put.error().code, AwsErrorCode::kMetadataTooLarge);
  // Nothing stored.
  EXPECT_FALSE(s3_.peek("b", "k").has_value());
}

TEST_F(S3Test, MetadataSizeCountsKeysAndValues) {
  // 2KB exactly must pass; keys count toward the limit.
  S3Metadata meta{{std::string(1024, 'k'), std::string(1024, 'v')}};
  EXPECT_EQ(metadata_size(meta), 2048u);
  EXPECT_TRUE(s3_.put("b", "k", "data", meta).has_value());
}

TEST_F(S3Test, RangeGetReturnsSlice) {
  ASSERT_TRUE(s3_.put("b", "k", "0123456789").has_value());
  auto got = s3_.get_range("b", "k", 3, 4);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got->data, "3456");
}

TEST_F(S3Test, RangeGetClampsAtEnd) {
  ASSERT_TRUE(s3_.put("b", "k", "0123456789").has_value());
  EXPECT_EQ(*s3_.get_range("b", "k", 8, 100)->data, "89");
  EXPECT_EQ(*s3_.get_range("b", "k", 100, 5)->data, "");
}

TEST_F(S3Test, HeadReturnsMetadataWithoutData) {
  S3Metadata meta{{"prov", "INPUT=bar:2"}};
  ASSERT_TRUE(s3_.put("b", "k", "payload", meta).has_value());
  const auto before = env_.meter().snapshot();
  auto head = s3_.head("b", "k");
  ASSERT_TRUE(head.has_value());
  EXPECT_EQ(head->metadata.at("prov"), "INPUT=bar:2");
  EXPECT_EQ(head->size, 7u);
  // HEAD must not bill the payload bytes.
  const auto diff = env_.meter().snapshot().diff(before);
  EXPECT_LT(diff.bytes_out("s3"), 7u + 20u);
}

TEST_F(S3Test, CopyPreservesDataAndMetadataByDefault) {
  S3Metadata meta{{"m", "1"}};
  ASSERT_TRUE(s3_.put("b", "src", "body", meta).has_value());
  ASSERT_TRUE(s3_.copy("b", "src", "b", "dst").has_value());
  auto got = s3_.get("b", "dst");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got->data, "body");
  EXPECT_EQ(got->metadata.at("m"), "1");
}

TEST_F(S3Test, CopyWithReplaceSwapsMetadata) {
  ASSERT_TRUE(s3_.put("b", "src", "body", {{"old", "1"}}).has_value());
  ASSERT_TRUE(s3_.copy("b", "src", "b", "dst", MetadataDirective::kReplace,
                       {{"new", "2"}})
                  .has_value());
  auto got = s3_.get("b", "dst");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->metadata.count("old"), 0u);
  EXPECT_EQ(got->metadata.at("new"), "2");
}

TEST_F(S3Test, CopyBillsNoTransfer) {
  ASSERT_TRUE(s3_.put("b", "src", std::string(100000, 'z')).has_value());
  const auto before = env_.meter().snapshot();
  ASSERT_TRUE(s3_.copy("b", "src", "b", "dst").has_value());
  const auto diff = env_.meter().snapshot().diff(before);
  EXPECT_EQ(diff.calls("s3", "COPY"), 1u);
  EXPECT_EQ(diff.bytes_in("s3"), 0u);
  EXPECT_EQ(diff.bytes_out("s3"), 0u);
}

TEST_F(S3Test, CopyMissingSourceFails) {
  auto copy = s3_.copy("b", "nope", "b", "dst");
  ASSERT_FALSE(copy.has_value());
}

TEST_F(S3Test, DeleteRemovesAndIsIdempotent) {
  ASSERT_TRUE(s3_.put("b", "k", "x").has_value());
  ASSERT_TRUE(s3_.del("b", "k").has_value());
  EXPECT_FALSE(s3_.get("b", "k").has_value());
  ASSERT_TRUE(s3_.del("b", "k").has_value());  // second delete succeeds
  ASSERT_TRUE(s3_.del("other-bucket", "k").has_value());
}

TEST_F(S3Test, ListByPrefixAndPagination) {
  for (int i = 0; i < 25; ++i)
    ASSERT_TRUE(
        s3_.put("b", "pre/k" + std::to_string(100 + i), "x").has_value());
  ASSERT_TRUE(s3_.put("b", "other", "x").has_value());

  auto page1 = s3_.list("b", "pre/", "", 10);
  ASSERT_TRUE(page1.has_value());
  EXPECT_EQ(page1->keys.size(), 10u);
  EXPECT_TRUE(page1->truncated);

  auto page2 = s3_.list("b", "pre/", page1->keys.back(), 10);
  ASSERT_TRUE(page2.has_value());
  EXPECT_EQ(page2->keys.size(), 10u);

  auto page3 = s3_.list("b", "pre/", page2->keys.back(), 10);
  ASSERT_TRUE(page3.has_value());
  EXPECT_EQ(page3->keys.size(), 5u);
  EXPECT_FALSE(page3->truncated);
}

TEST_F(S3Test, StorageGaugeTracksPutsAndDeletes) {
  ASSERT_TRUE(s3_.put("b", "a", std::string(100, 'x')).has_value());
  ASSERT_TRUE(s3_.put("b", "b", std::string(50, 'y'), {{"k", "v"}}).has_value());
  EXPECT_EQ(s3_.stored_bytes(), 100u + 50u + 2u);
  ASSERT_TRUE(s3_.put("b", "a", std::string(10, 'z')).has_value());  // shrink
  EXPECT_EQ(s3_.stored_bytes(), 10u + 50u + 2u);
  ASSERT_TRUE(s3_.del("b", "b").has_value());
  EXPECT_EQ(s3_.stored_bytes(), 10u);
  EXPECT_EQ(env_.meter().snapshot().storage_bytes("s3"), 10u);
}

TEST_F(S3Test, BillingCountsOpsAndBytes) {
  const auto before = env_.meter().snapshot();
  ASSERT_TRUE(s3_.put("b", "k", "12345", {{"m", "n"}}).has_value());
  auto got = s3_.get("b", "k");
  ASSERT_TRUE(got.has_value());
  const auto diff = env_.meter().snapshot().diff(before);
  EXPECT_EQ(diff.calls("s3", "PUT"), 1u);
  EXPECT_EQ(diff.bytes_in("s3", "PUT"), 5u + 2u);
  EXPECT_EQ(diff.calls("s3", "GET"), 1u);
  EXPECT_EQ(diff.bytes_out("s3", "GET"), 5u + 2u);
}

TEST_F(S3Test, ObjectCountTracksBuckets) {
  ASSERT_TRUE(s3_.put("b1", "a", "x").has_value());
  ASSERT_TRUE(s3_.put("b2", "b", "x").has_value());
  ASSERT_TRUE(s3_.put("b2", "c", "x").has_value());
  EXPECT_EQ(s3_.object_count(), 3u);
}

// --- eventual consistency ---

class S3EventualTest : public ::testing::Test {
 protected:
  static ConsistencyConfig slow() {
    ConsistencyConfig c;
    c.replicas = 4;
    c.propagation_min = sim::kSecond;
    c.propagation_max = 5 * sim::kSecond;
    return c;
  }
  S3EventualTest() : env_(2, slow()), s3_(env_) {}
  CloudEnv env_;
  S3Service s3_;
};

TEST_F(S3EventualTest, GetAfterPutCanReturnOldObject) {
  ASSERT_TRUE(s3_.put("b", "k", "old").has_value());
  env_.clock().drain();
  ASSERT_TRUE(s3_.put("b", "k", "new").has_value());
  int stale = 0;
  for (int i = 0; i < 100; ++i) {
    auto got = s3_.get("b", "k");
    ASSERT_TRUE(got.has_value());
    if (*got->data == "old") ++stale;
  }
  EXPECT_GT(stale, 0);
  env_.clock().drain();
  for (int i = 0; i < 50; ++i) EXPECT_EQ(*s3_.get("b", "k")->data, "new");
}

TEST_F(S3EventualTest, GetAfterFirstPutCanMiss) {
  ASSERT_TRUE(s3_.put("b", "fresh", "x").has_value());
  int miss = 0;
  for (int i = 0; i < 100; ++i)
    if (!s3_.get("b", "fresh")) ++miss;
  EXPECT_GT(miss, 0);
}

TEST_F(S3EventualTest, DataAndMetadataNeverTear) {
  // The pair travels in one PUT: a reader may see an old version but never
  // version-1 data with version-2 metadata.
  ASSERT_TRUE(s3_.put("b", "k", "one", {{"v", "1"}}).has_value());
  env_.clock().advance_by(sim::kMillisecond);
  ASSERT_TRUE(s3_.put("b", "k", "two", {{"v", "2"}}).has_value());
  for (int i = 0; i < 200; ++i) {
    auto got = s3_.get("b", "k");
    if (!got) continue;
    if (*got->data == "one")
      EXPECT_EQ(got->metadata.at("v"), "1");
    else
      EXPECT_EQ(got->metadata.at("v"), "2");
  }
}

TEST_F(S3EventualTest, LastPutWinsOnConcurrentWrites) {
  ASSERT_TRUE(s3_.put("b", "k", "first").has_value());
  ASSERT_TRUE(s3_.put("b", "k", "second").has_value());
  env_.clock().drain();
  for (int i = 0; i < 50; ++i) EXPECT_EQ(*s3_.get("b", "k")->data, "second");
}

}  // namespace
