// The MD5+nonce consistency read loop shared by Architectures 2 and 3, their
// provenance readers, and the SimpleDB item writers every SimpleDB-backed
// architecture shares.
//
// Both store data in S3 (metadata: the nonce) and provenance in SimpleDB
// (one attribute: MD5(data || nonce)). Under eventual consistency S3 can
// return older data while SimpleDB returns newer provenance or vice versa;
// the MD5 comparison detects this and the read is reissued "until we get
// consistent provenance and data" (section 4.2). A verified read resolves
// its spilled values from the item it verified, so it fetches that item
// once.
//
// Ancestry walks read provenance a BFS frontier at a time: "retrieve each
// item ..., then examine each item for its ancestors and then look up
// further". fetch_sdb_provenance_many folds a frontier into one
// `select * ... where itemName() in (...)` per 20 ids of a shard domain
// (SimpleDB's cap on comparisons per Select expression); a lone id stays a
// GetAttributes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cloudprov/backend.hpp"
#include "cloudprov/domain_topology.hpp"

namespace provcloud::cloudprov {

/// Metadata keys the data objects carry in Architectures 2/3.
inline constexpr const char* kNonceMetaKey = "x-nonce";
inline constexpr const char* kVersionMetaKey = "x-version";

/// Attribute under which the consistency token lives in SimpleDB.
inline constexpr const char* kMd5Attribute = "MD5";

/// Backoff a reader sleeps between consistency/visibility retry rounds,
/// charged to the caller's ledger timeline as "idle" (mirror of the write
/// side's deadline-flush idle charge): staleness retries trade elapsed
/// time for a consistent view, and the timelines show it. Zero-retry runs
/// (strong consistency) charge nothing -- bit-identical to before.
inline constexpr sim::SimTime kReadRetryIdle = 20 * sim::kMillisecond;

/// Charge one consistency-retry backoff round: kReadRetryIdle onto the
/// caller's ledger timeline as "idle", plus the always-on retry metrics.
/// Every retry site funnels through here so the counters cannot drift from
/// the ledger accounting.
inline void charge_read_retry(aws::CloudEnv& env) {
  env.latency_ledger().charge(kReadRetryIdle, "idle");
  env.metrics().counter("read.retries").add(1);
  env.metrics().counter("idle.read_retry_us").add(kReadRetryIdle);
}

/// Nonce of a version ("the nonce is typically the file version").
std::string nonce_for_version(std::uint32_t version);

/// The consistency token of every close of a flush group, in group order:
/// MD5(data || nonce_for_version(version)), a close without data hashing
/// as empty data.
/// The group is hashed together in vector lanes (util::md5_with_nonce_many),
/// so a token is bit-identical to util::md5_with_nonce's.
std::vector<std::string> group_md5_tokens(
    const std::vector<TicketState*>& group);

/// The read path: GET data, look up the provenance item named by the nonce
/// in the object's shard domain (resolved through the topology), verify
/// MD5(data || nonce); on any mismatch or miss, retry the whole round. A
/// verified pair's spill pointers resolve from the attributes it verified;
/// one that never resolves fails the read with kConsistencyExhausted.
/// After max_retries the best-effort pair is returned with verified=false
/// (its spill pointers unresolved).
BackendResult<ReadResult> consistency_checked_read(
    CloudServices& services, const DomainTopology& topology,
    const std::string& object, std::uint32_t max_retries);

/// Fetch provenance records of (object, version) from the object's shard
/// domain, retrying empty reads (propagation races) and resolving S3 spill
/// pointers: one GetAttributes per attempt. It is the one-id case of
/// fetch_sdb_provenance_many's per-domain loop.
BackendResult<std::vector<pass::ProvenanceRecord>> fetch_sdb_provenance(
    CloudServices& services, const DomainTopology& topology,
    const std::string& object, std::uint32_t version,
    std::uint32_t max_retries);

/// fetch_sdb_provenance for many ids: one result per id, in input order,
/// each what fetch_sdb_provenance returns for it (a never-stored id:
/// kConsistencyExhausted). The ids are grouped by shard domain, and the
/// domains fetched through DomainTopology::run_tasks. Each domain's
/// distinct names go out at most aws::kSdbMaxSelectComparisons per call:
/// one name as a GetAttributes, more as one Select. A name an answer lacks
/// is a propagation race: only those names are asked again, for up to
/// max_retries rounds, each round charged through charge_read_retry.
/// Spill pointers then resolve per record.
std::vector<BackendResult<std::vector<pass::ProvenanceRecord>>>
fetch_sdb_provenance_many(CloudServices& services,
                          const DomainTopology& topology,
                          const std::vector<pass::ObjectVersion>& ids,
                          std::uint32_t max_retries);

// The SimpleDB item writers. Both fire `crash_point` (null: none) after
// every call and fail loudly on a failed call or a rejected item (a
// rejection is a size or pair-limit violation no retry can fix).

/// One item in PutAttributes calls of <= 100 attributes each (the paper's
/// per-close protocol).
void put_item_chunks(CloudServices& services, const std::string& domain,
                     const std::string& item,
                     const std::vector<aws::SdbReplaceableAttribute>& attrs,
                     const char* crash_point);

/// Items of one domain in BatchPutAttributes calls of <= `batch_size`
/// (<= 25) items each, in input order. A repeated item name rides a later
/// call -- one call rejects duplicates -- so the later write lands last.
void batch_put_items(CloudServices& services, const std::string& domain,
                     std::vector<aws::SdbBatchEntry> entries,
                     std::size_t batch_size, const char* crash_point);

}  // namespace provcloud::cloudprov
