#include "cloudprov/s3_backend.hpp"

#include <optional>

#include "cloudprov/serialize.hpp"
#include "cloudprov/session.hpp"
#include "util/require.hpp"

namespace provcloud::cloudprov {

namespace {
const util::SharedBytes kEmptyBytes = util::make_shared_bytes(util::Bytes{});

util::Unexpected<BackendError> corrupt_metadata(const std::string& object) {
  return backend_error(BackendErrorCode::kCorrupt,
                       "undecodable provenance metadata: " + object);
}
}  // namespace

S3Backend::S3Backend(CloudServices& services, std::size_t parallelism)
    : ProvenanceBackend(services, TopologyConfig{.parallelism = parallelism}) {}

void S3Backend::commit_group(const std::vector<TicketState*>& group) {
  for (TicketState* ticket : group) {
    // The whole single-PUT close is exclusive to this ticket: land it on
    // the ticket's timeline so in-flight closes of other sessions overlap.
    sim::LatencyLedger::ScopedTimeline bind(services_->env->latency_ledger(),
                                            ticket->timeline);
    store_one(ticket->unit);
    ticket->done = true;
  }
}

void S3Backend::store_one(const pass::FlushUnit& unit) {
  aws::CloudEnv& env = *services_->env;
  env.failures().crash_point("s3.store.begin");

  // Step 2: convert provenance to S3 metadata; spill oversized records.
  S3MetadataEncoding enc = encode_unit_as_metadata(unit);
  for (std::size_t index : enc.spilled_indexes) {
    const pass::ProvenanceRecord& r = unit.records[index];
    const std::string key = overflow_key(unit.object, unit.version, index);
    auto result = services_->s3.put(kDataBucket, key, r.value_string());
    PROVCLOUD_REQUIRE_MSG(result.has_value(),
                          "overflow PUT failed: " + result.error().message);
    env.failures().crash_point("s3.store.after_overflow_put");
  }

  // Step 3: one PUT carries data + provenance atomically.
  env.failures().crash_point("s3.store.before_put");
  const util::SharedBytes data = unit.data != nullptr ? unit.data : kEmptyBytes;
  auto result =
      services_->s3.put_shared(kDataBucket, unit.object, data, enc.metadata);
  PROVCLOUD_REQUIRE_MSG(result.has_value(),
                        "data PUT failed: " + result.error().message);
  env.failures().crash_point("s3.store.after_put");
}

BackendResult<std::vector<pass::ProvenanceRecord>> S3Backend::resolve_spills(
    std::vector<pass::ProvenanceRecord> records, std::uint32_t max_retries) {
  for (pass::ProvenanceRecord& r : records) {
    if (r.is_xref()) continue;
    const std::string& value = r.text();
    if (value.rfind(kSpillMarker, 0) != 0) continue;
    const std::string key = value.substr(std::string(kSpillMarker).size());
    // The overflow object was PUT before the main object, but a stale
    // replica can still miss it: retry. This separate fetch is exactly why
    // the paper calls the overflow scheme a read-correctness hazard.
    bool resolved = false;
    for (std::uint32_t attempt = 0; attempt <= max_retries; ++attempt) {
      auto got = services_->s3.get(kDataBucket, key);
      if (got) {
        r = record_from(r.attribute, *got->data);
        resolved = true;
        break;
      }
    }
    if (!resolved)
      return backend_error(BackendErrorCode::kConsistencyExhausted,
                           "unresolvable provenance overflow object: " + key);
  }
  return records;
}

BackendResult<ReadResult> S3Backend::read(const std::string& object,
                                          std::uint32_t max_retries) {
  // A single GET returns data and provenance together: whatever version the
  // chosen replica holds, the pair is internally consistent.
  auto got = services_->s3.get(kDataBucket, object);
  std::uint32_t attempts = 0;
  while (!got && attempts < max_retries) {
    // NoSuchKey right after a PUT: propagation race; retry.
    ++attempts;
    got = services_->s3.get(kDataBucket, object);
  }
  if (!got)
    return backend_error(BackendErrorCode::kNotFound,
                         "object not found: " + object + " (" +
                             got.error().message + ")");

  std::optional<DecodedMetadata> decoded = decode_metadata(got->metadata);
  if (!decoded) return corrupt_metadata(object);
  auto records = resolve_spills(std::move(decoded->records), max_retries);
  if (!records) return util::Unexpected(records.error());

  ReadResult out;
  out.data = got->data;
  out.records = std::move(*records);
  out.version = decoded->version;
  out.retries = attempts;
  out.verified = true;
  return out;
}

BackendResult<std::vector<pass::ProvenanceRecord>> S3Backend::get_provenance(
    const std::string& object, std::uint32_t version) {
  auto head = services_->s3.head(kDataBucket, object);
  std::uint32_t attempts = 0;
  while (!head && attempts < 64) {
    ++attempts;
    head = services_->s3.head(kDataBucket, object);
  }
  if (!head)
    return backend_error(BackendErrorCode::kNotFound,
                         "object not found: " + object);
  std::optional<DecodedMetadata> decoded = decode_metadata(head->metadata);
  if (!decoded) return corrupt_metadata(object);
  if (decoded->version != version)
    return backend_error(
        BackendErrorCode::kUnsupported,
        "architecture 1 keeps only the provenance of the last stored "
        "version; requested " + std::to_string(version) + " but stored is " +
        std::to_string(decoded->version));
  return resolve_spills(std::move(decoded->records), 64);
}

std::unique_ptr<ProvenanceBackend> make_s3_backend(CloudServices& services) {
  return std::make_unique<S3Backend>(services);
}

}  // namespace provcloud::cloudprov
