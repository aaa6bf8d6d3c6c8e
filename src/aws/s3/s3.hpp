// Amazon S3 simulator (January 2009 feature snapshot, as used by the paper).
//
// An object store: objects from 1 byte to 5 GB, identified by (bucket, key),
// each carrying up to 2 KB of user metadata stored *with* the object -- the
// property Architecture 1 exploits for atomic data+provenance PUTs.
//
// Operations (the set the paper uses): PUT, GET (full or byte-range), HEAD,
// COPY, DELETE, LIST. All reads are eventually consistent (served by a
// random replica, see ReplicatedKV); writes are last-writer-wins.
//
// Billing: every call is metered on service "s3" with the operation name;
// bytes in/out follow Amazon's rules -- COPY moves no billable bytes.
//
// Simulator cost: the ETag (MD5 of the object's bytes) is hashed only when a
// caller asks for it, so PUT, COPY, GET and HEAD hash nothing.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "aws/common/env.hpp"
#include "aws/common/errors.hpp"
#include "aws/common/replicated.hpp"
#include "util/bytes.hpp"

namespace provcloud::aws {

/// S3 user metadata: string key/value pairs, at most kMaxMetadataBytes total
/// (sum of key and value lengths), sent and stored with the object.
using S3Metadata = std::map<std::string, std::string>;

inline constexpr std::size_t kS3MaxObjectBytes = 5 * util::kGiB;
inline constexpr std::size_t kS3MaxMetadataBytes = 2 * util::kKiB;

std::size_t metadata_size(const S3Metadata& metadata);

/// A stored object. Data is shared across replicas.
struct S3Object {
  util::SharedBytes data;
  S3Metadata metadata;
  /// MD5 of the data, hex -- as real S3 reports. Hashed on each call.
  std::string etag() const;
};

/// GET result.
struct S3GetResult {
  util::SharedBytes data;  // the whole object, or the requested range
  S3Metadata metadata;
  util::SharedBytes object_data;  // the whole object (shared, not copied)
  /// The whole object's ETag, also after a range GET, as S3 reports it.
  std::string etag() const;
};

/// HEAD result: metadata + size only, no data transfer.
struct S3HeadResult {
  S3Metadata metadata;
  std::uint64_t size = 0;
  util::SharedBytes object_data;  // the whole object (shared, not copied)
  std::string etag() const;
};

/// What COPY should do with metadata, mirroring x-amz-metadata-directive.
enum class MetadataDirective { kCopy, kReplace };

class S3Service {
 public:
  explicit S3Service(CloudEnv& env) : env_(&env) {}

  /// Store an object, overwriting any existing one. The metadata travels in
  /// the same request: data and metadata are stored atomically.
  AwsResult<void> put(const std::string& bucket, const std::string& key,
                      util::BytesView data, const S3Metadata& metadata = {});

  /// Same but the payload is an already-shared buffer (avoids copying large
  /// objects through the client).
  AwsResult<void> put_shared(const std::string& bucket, const std::string& key,
                             util::SharedBytes data,
                             const S3Metadata& metadata = {});

  /// Retrieve a whole object.
  AwsResult<S3GetResult> get(const std::string& bucket, const std::string& key);

  /// Retrieve `length` bytes starting at `offset` (clamped to the object).
  AwsResult<S3GetResult> get_range(const std::string& bucket,
                                   const std::string& key, std::uint64_t offset,
                                   std::uint64_t length);

  /// Retrieve only the metadata.
  AwsResult<S3HeadResult> head(const std::string& bucket,
                               const std::string& key);

  /// Server-side copy. With MetadataDirective::kReplace the new metadata is
  /// stored on the destination (the Arch-3 commit daemon uses this to stamp
  /// the nonce during temp->real promotion). No billable data transfer.
  AwsResult<void> copy(const std::string& src_bucket, const std::string& src_key,
                       const std::string& dst_bucket, const std::string& dst_key,
                       MetadataDirective directive = MetadataDirective::kCopy,
                       const S3Metadata& replacement = {});

  /// Delete an object. Idempotent (deleting a missing key succeeds, as real
  /// S3 does).
  AwsResult<void> del(const std::string& bucket, const std::string& key);

  /// List keys in a bucket with the given prefix (eventually consistent),
  /// up to `max_keys` per call starting after `marker`.
  struct ListResult {
    std::vector<std::string> keys;
    bool truncated = false;
  };
  AwsResult<ListResult> list(const std::string& bucket,
                             const std::string& prefix = "",
                             const std::string& marker = "",
                             std::size_t max_keys = 1000);

  /// --- test/verification access (not billed, fully consistent) ---

  /// Freshest view of an object, or nullopt.
  std::optional<S3Object> peek(const std::string& bucket,
                               const std::string& key) const;
  std::vector<std::string> peek_keys(const std::string& bucket,
                                     const std::string& prefix = "") const;
  /// Total bytes stored (coordinator view): data + metadata.
  std::uint64_t stored_bytes() const { return stored_bytes_; }
  std::uint64_t object_count() const;

 private:
  using Bucket = ReplicatedKV<S3Object>;
  Bucket& bucket_ref(const std::string& bucket);
  Bucket* bucket_find(const std::string& bucket);
  const Bucket* bucket_ptr(const std::string& bucket) const;
  void account_put(const std::string& bucket, const std::string& key,
                   std::uint64_t new_size);
  void account_delete(const std::string& bucket, const std::string& key);

  CloudEnv* env_;
  // Guards the bucket map structure and the storage gauge; per-object data
  // is linearized by each bucket's own ReplicatedKV lock, so shard-parallel
  // clients only contend here for the brief map lookup and size accounting.
  mutable std::shared_mutex mu_;
  std::map<std::string, Bucket> buckets_;
  // Logical (coordinator) object sizes for the storage gauge.
  std::map<std::pair<std::string, std::string>, std::uint64_t> sizes_;
  std::uint64_t stored_bytes_ = 0;
};

}  // namespace provcloud::aws
