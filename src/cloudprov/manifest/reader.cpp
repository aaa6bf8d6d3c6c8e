#include "cloudprov/manifest/reader.hpp"

#include <algorithm>
#include <functional>
#include <map>

#include "cloudprov/consistency_read.hpp"
#include "cloudprov/manifest/catalog.hpp"
#include "obs/trace.hpp"
#include "util/require.hpp"

namespace provcloud::cloudprov::manifest {

ManifestReader::ManifestReader(CloudServices& services,
                               std::shared_ptr<const DomainTopology> topology,
                               ManifestReaderConfig config)
    : services_(&services),
      topology_(std::move(topology)),
      config_(config),
      cache_(std::make_shared<AncestorCache>(config.cache_capacity)) {
  PROVCLOUD_REQUIRE(topology_ != nullptr);
  cache_->bind_metrics(services.env->metrics());
}

const char* const* ManifestReader::sdb_read_ops() {
  static const char* const ops[] = {"GetAttributes", "Query",
                                    "QueryWithAttributes", "Select", nullptr};
  return ops;
}

BackendResult<std::vector<ManifestEntry>> ManifestReader::fetch_block_with_retry(
    const std::string& key) {
  for (std::uint32_t attempt = 0; attempt <= config_.max_retries; ++attempt) {
    if (attempt > 0)
      charge_read_retry(*services_->env);
    auto got = services_->s3.get(kManifestBucket, key);
    if (!got) continue;  // propagation race
    auto decoded = decode_block(*got->data);
    if (!decoded)
      return backend_error(BackendErrorCode::kCorrupt,
                           "undecodable manifest block: " + key);
    return std::move(*decoded);
  }
  return backend_error(BackendErrorCode::kConsistencyExhausted,
                       "manifest block never became visible: " + key);
}

BackendResult<void> ManifestReader::bind(const CatalogPointer& pointer,
                                         bool pinned) {
  if (open_ && list_.snapshot_id == pointer.snapshot_id) {
    pinned_ = pinned;
    return {};
  }
  for (std::uint32_t attempt = 0; attempt <= config_.max_retries; ++attempt) {
    if (attempt > 0)
      charge_read_retry(*services_->env);
    auto got = services_->s3.get(kManifestBucket, pointer.list_key);
    if (!got) continue;
    auto decoded = decode_manifest_list(*got->data);
    if (!decoded || decoded->snapshot_id != pointer.snapshot_id)
      return backend_error(BackendErrorCode::kCorrupt,
                           "undecodable manifest list: " + pointer.list_key);
    list_ = std::move(*decoded);
    open_ = true;
    pinned_ = pinned;
    cache_->set_snapshot(list_.snapshot_id);
    return {};
  }
  return backend_error(BackendErrorCode::kConsistencyExhausted,
                       "manifest list never became visible: " +
                           pointer.list_key);
}

BackendResult<void> ManifestReader::open_current() {
  Catalog catalog(*services_, config_.max_retries);
  catalog.ensure_domain();
  const std::optional<CatalogPointer> cur = catalog.current();
  if (!cur)
    return backend_error(BackendErrorCode::kNotFound,
                         "no committed snapshot in the catalog");
  return bind(*cur, /*pinned=*/false);
}

BackendResult<void> ManifestReader::open(std::uint64_t snapshot_id) {
  Catalog catalog(*services_, config_.max_retries);
  catalog.ensure_domain();
  const std::optional<CatalogPointer> row = catalog.history(snapshot_id);
  if (!row)
    return backend_error(
        BackendErrorCode::kNotFound,
        "snapshot " + std::to_string(snapshot_id) + " was never committed");
  return bind(*row, /*pinned=*/true);
}

std::vector<BackendResult<std::vector<pass::ProvenanceRecord>>>
ManifestReader::get_provenance_many(const std::vector<pass::ObjectVersion>& ids) {
  using Records = std::vector<pass::ProvenanceRecord>;
  PROVCLOUD_REQUIRE_MSG(open_, "ManifestReader used before open");
  obs::Span span(&services_->env->tracer(), "manifest.read", "manifest");
  span.arg("ids", static_cast<std::uint64_t>(ids.size()));
  std::vector<BackendResult<Records>> results(
      ids.size(), backend_error(BackendErrorCode::kUnknown, "unresolved"));

  // Pass 1: cache hits and min/max pruning. Each miss maps to at most one
  // block (ranges are disjoint); ids outside every range are mutable tail.
  std::map<std::size_t, std::vector<std::size_t>> by_block;  // block -> idxs
  std::vector<std::size_t> tail;
  std::size_t cache_hits = 0;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (const Records* cached = cache_->find(ids[i])) {
      results[i] = *cached;
      ++cache_hits;
      continue;
    }
    const std::optional<std::size_t> block = find_block(list_, ids[i]);
    if (block)
      by_block[*block].push_back(i);
    else
      tail.push_back(i);
  }
  span.arg("cache_hits", static_cast<std::uint64_t>(cache_hits));
  // Ids the min/max ranges prune away before any block fetch: they can
  // only live in the mutable tail.
  span.arg("pruned_to_tail", static_cast<std::uint64_t>(tail.size()));

  // Pass 2: scatter/gather the distinct blocks. Tasks only write their own
  // slot; the ledger charges the critical path of the overlapped GETs.
  span.arg("blocks", static_cast<std::uint64_t>(by_block.size()));
  if (!by_block.empty()) {
    std::vector<std::size_t> block_order;
    block_order.reserve(by_block.size());
    for (const auto& [block, idxs] : by_block) block_order.push_back(block);
    std::vector<BackendResult<std::vector<ManifestEntry>>> fetched(
        block_order.size(),
        backend_error(BackendErrorCode::kUnknown, "unfetched"));
    std::vector<std::function<void()>> tasks;
    tasks.reserve(block_order.size());
    for (std::size_t slot = 0; slot < block_order.size(); ++slot) {
      tasks.push_back(
          [this, slot, key = &list_.blocks[block_order[slot]].key, &fetched] {
            fetched[slot] = fetch_block_with_retry(*key);
          });
    }
    topology_->run_tasks(std::move(tasks));

    // Decode results populate the cache on the caller's thread: the cache
    // stays single-threaded, no locking.
    for (std::size_t slot = 0; slot < block_order.size(); ++slot) {
      const std::vector<std::size_t>& idxs = by_block[block_order[slot]];
      if (!fetched[slot]) {
        for (const std::size_t i : idxs)
          results[i] = util::Unexpected(fetched[slot].error());
        continue;
      }
      std::vector<ManifestEntry>& entries = *fetched[slot];
      for (const ManifestEntry& e : entries) cache_->insert(e.id, e.records);
      for (const std::size_t i : idxs) {
        const auto it = std::lower_bound(
            entries.begin(), entries.end(), ids[i],
            [](const ManifestEntry& e, const pass::ObjectVersion& v) {
              return e.id < v;
            });
        if (it != entries.end() && it->id == ids[i])
          results[i] = it->records;
        else
          tail.push_back(i);  // inside the range but absent: not frozen
      }
    }
    std::sort(tail.begin(), tail.end());
  }

  // Pass 3: mutable tail above the snapshot -- the per-shard SimpleDB read
  // the manifest path replaces everywhere else. Pinned (time-travel)
  // readers must not see it.
  span.arg("tail", static_cast<std::uint64_t>(tail.size()));
  for (const std::size_t i : tail) {
    if (pinned_) {
      results[i] = backend_error(
          BackendErrorCode::kNotFound,
          "not in snapshot " + std::to_string(list_.snapshot_id) + ": " +
              ids[i].to_string());
      continue;
    }
    results[i] = fetch_sdb_provenance(*services_, *topology_, ids[i].object,
                                      ids[i].version, config_.max_retries);
  }
  return results;
}

}  // namespace provcloud::cloudprov::manifest
