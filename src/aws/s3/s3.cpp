#include "aws/s3/s3.hpp"

#include <algorithm>

#include "util/md5.hpp"

namespace provcloud::aws {

namespace {
constexpr const char* kService = "s3";
}

std::size_t metadata_size(const S3Metadata& metadata) {
  std::size_t total = 0;
  for (const auto& [k, v] : metadata) total += k.size() + v.size();
  return total;
}

std::string S3Object::etag() const { return util::Md5::hex_digest(*data); }

std::string S3GetResult::etag() const {
  return util::Md5::hex_digest(*object_data);
}

std::string S3HeadResult::etag() const {
  return util::Md5::hex_digest(*object_data);
}

S3Service::Bucket& S3Service::bucket_ref(const std::string& bucket) {
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    auto it = buckets_.find(bucket);
    // Map nodes are address-stable after the lock drops.
    if (it != buckets_.end()) return it->second;
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto it = buckets_.find(bucket);
  if (it == buckets_.end())
    it = buckets_.emplace(bucket, Bucket(*env_)).first;
  return it->second;
}

S3Service::Bucket* S3Service::bucket_find(const std::string& bucket) {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = buckets_.find(bucket);
  return it == buckets_.end() ? nullptr : &it->second;
}

const S3Service::Bucket* S3Service::bucket_ptr(const std::string& bucket) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = buckets_.find(bucket);
  return it == buckets_.end() ? nullptr : &it->second;
}

void S3Service::account_put(const std::string& bucket, const std::string& key,
                            std::uint64_t new_size) {
  // The gauge is published while mu_ is held so two concurrent writers
  // cannot publish out of order and strand a stale total on the meter.
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto& slot = sizes_[{bucket, key}];
  stored_bytes_ -= slot;
  slot = new_size;
  stored_bytes_ += new_size;
  env_->meter().set_storage(kService, stored_bytes_);
}

void S3Service::account_delete(const std::string& bucket,
                               const std::string& key) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto it = sizes_.find({bucket, key});
  if (it != sizes_.end()) {
    stored_bytes_ -= it->second;
    sizes_.erase(it);
    env_->meter().set_storage(kService, stored_bytes_);
  }
}

AwsResult<void> S3Service::put(const std::string& bucket, const std::string& key,
                               util::BytesView data,
                               const S3Metadata& metadata) {
  return put_shared(bucket, key, util::make_shared_bytes(data), metadata);
}

AwsResult<void> S3Service::put_shared(const std::string& bucket,
                                      const std::string& key,
                                      util::SharedBytes data,
                                      const S3Metadata& metadata) {
  PROVCLOUD_REQUIRE(data != nullptr);
  if (data->size() > kS3MaxObjectBytes)
    return aws_error(AwsErrorCode::kEntityTooLarge,
                     "object exceeds 5GB: " + key);
  const std::size_t meta_bytes = metadata_size(metadata);
  if (meta_bytes > kS3MaxMetadataBytes)
    return aws_error(AwsErrorCode::kMetadataTooLarge,
                     "metadata exceeds 2KB on " + key);

  env_->charge(kService, "PUT", data->size() + meta_bytes, 0);

  S3Object obj;
  obj.data = std::move(data);
  obj.metadata = metadata;
  const std::uint64_t size = obj.data->size() + meta_bytes;
  bucket_ref(bucket).put(key, std::move(obj));
  account_put(bucket, key, size);
  return {};
}

AwsResult<S3GetResult> S3Service::get(const std::string& bucket,
                                      const std::string& key) {
  Bucket* b = bucket_find(bucket);
  if (b == nullptr) {
    env_->charge(kService, "GET", 0, 0);
    return aws_error(AwsErrorCode::kNoSuchBucket, bucket);
  }
  auto found = b->get(key);
  if (!found) {
    env_->charge(kService, "GET", 0, 0);
    return aws_error(AwsErrorCode::kNoSuchKey, bucket + "/" + key);
  }
  const S3Object& obj = **found;
  env_->charge(kService, "GET", 0,
               obj.data->size() + metadata_size(obj.metadata));
  return S3GetResult{obj.data, obj.metadata, obj.data};
}

AwsResult<S3GetResult> S3Service::get_range(const std::string& bucket,
                                            const std::string& key,
                                            std::uint64_t offset,
                                            std::uint64_t length) {
  Bucket* b = bucket_find(bucket);
  if (b == nullptr) {
    env_->charge(kService, "GET", 0, 0);
    return aws_error(AwsErrorCode::kNoSuchBucket, bucket);
  }
  auto found = b->get(key);
  if (!found) {
    env_->charge(kService, "GET", 0, 0);
    return aws_error(AwsErrorCode::kNoSuchKey, bucket + "/" + key);
  }
  const S3Object& obj = **found;
  const std::uint64_t size = obj.data->size();
  const std::uint64_t begin = std::min(offset, size);
  const std::uint64_t end = std::min(offset + length, size);
  auto slice = util::make_shared_bytes(
      util::BytesView(*obj.data).substr(begin, end - begin));
  env_->charge(kService, "GET", 0,
               slice->size() + metadata_size(obj.metadata));
  return S3GetResult{std::move(slice), obj.metadata, obj.data};
}

AwsResult<S3HeadResult> S3Service::head(const std::string& bucket,
                                        const std::string& key) {
  Bucket* b = bucket_find(bucket);
  if (b == nullptr) {
    env_->charge(kService, "HEAD", 0, 0);
    return aws_error(AwsErrorCode::kNoSuchBucket, bucket);
  }
  auto found = b->get(key);
  if (!found) {
    env_->charge(kService, "HEAD", 0, 0);
    return aws_error(AwsErrorCode::kNoSuchKey, bucket + "/" + key);
  }
  const S3Object& obj = **found;
  env_->charge(kService, "HEAD", 0, metadata_size(obj.metadata));
  return S3HeadResult{obj.metadata, obj.data->size(), obj.data};
}

AwsResult<void> S3Service::copy(const std::string& src_bucket,
                                const std::string& src_key,
                                const std::string& dst_bucket,
                                const std::string& dst_key,
                                MetadataDirective directive,
                                const S3Metadata& replacement) {
  // COPY is server-side: the read happens inside AWS against some replica,
  // so it is as eventually consistent as a GET, but no client bytes move.
  env_->charge(kService, "COPY", 0, 0);
  Bucket* src = bucket_find(src_bucket);
  if (src == nullptr)
    return aws_error(AwsErrorCode::kNoSuchBucket, src_bucket);
  auto found = src->get(src_key);
  if (!found)
    return aws_error(AwsErrorCode::kNoSuchKey, src_bucket + "/" + src_key);
  const S3Object& obj = **found;

  const S3Metadata& meta =
      directive == MetadataDirective::kReplace ? replacement : obj.metadata;
  const std::size_t meta_bytes = metadata_size(meta);
  if (meta_bytes > kS3MaxMetadataBytes)
    return aws_error(AwsErrorCode::kMetadataTooLarge,
                     "metadata exceeds 2KB on " + dst_key);

  S3Object dst;
  dst.data = obj.data;  // shared: server-side copy moves no bytes
  dst.metadata = meta;
  const std::uint64_t size = dst.data->size() + meta_bytes;
  bucket_ref(dst_bucket).put(dst_key, std::move(dst));
  account_put(dst_bucket, dst_key, size);
  return {};
}

AwsResult<void> S3Service::del(const std::string& bucket,
                               const std::string& key) {
  env_->charge(kService, "DELETE", 0, 0);
  Bucket* b = bucket_find(bucket);
  if (b == nullptr) return {};  // idempotent
  b->erase(key);
  account_delete(bucket, key);
  return {};
}

AwsResult<S3Service::ListResult> S3Service::list(const std::string& bucket,
                                                 const std::string& prefix,
                                                 const std::string& marker,
                                                 std::size_t max_keys) {
  Bucket* b = bucket_find(bucket);
  if (b == nullptr) {
    env_->charge(kService, "LIST", 0, 0);
    return aws_error(AwsErrorCode::kNoSuchBucket, bucket);
  }
  std::vector<std::string> all = b->list(prefix);
  ListResult out;
  std::uint64_t bytes_out = 0;
  for (const std::string& k : all) {
    if (!marker.empty() && k <= marker) continue;
    if (out.keys.size() == max_keys) {
      out.truncated = true;
      break;
    }
    bytes_out += k.size();
    out.keys.push_back(k);
  }
  env_->charge(kService, "LIST", 0, bytes_out);
  return out;
}

std::optional<S3Object> S3Service::peek(const std::string& bucket,
                                        const std::string& key) const {
  const Bucket* b = bucket_ptr(bucket);
  if (b == nullptr) return std::nullopt;
  auto found = b->get_coordinator(key);
  if (!found) return std::nullopt;
  return **found;
}

std::vector<std::string> S3Service::peek_keys(const std::string& bucket,
                                              const std::string& prefix) const {
  const Bucket* b = bucket_ptr(bucket);
  if (b == nullptr) return {};
  return b->list_coordinator(prefix);
}

std::uint64_t S3Service::object_count() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::uint64_t n = 0;
  for (const auto& [name, b] : buckets_) n += b.size_coordinator();
  return n;
}

}  // namespace provcloud::aws
