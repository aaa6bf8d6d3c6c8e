#include "cloudprov/manifest/writer.hpp"

#include <algorithm>
#include <optional>
#include <span>

#include "cloudprov/consistency_read.hpp"
#include "cloudprov/manifest/catalog.hpp"
#include "cloudprov/serialize.hpp"
#include "obs/trace.hpp"
#include "util/require.hpp"

namespace provcloud::cloudprov::manifest {

ManifestWriter::ManifestWriter(CloudServices& services,
                               std::shared_ptr<const DomainTopology> topology,
                               ManifestWriterConfig config)
    : services_(&services), topology_(std::move(topology)), config_(config) {
  PROVCLOUD_REQUIRE(topology_ != nullptr);
  PROVCLOUD_REQUIRE(config_.block_entries > 0);
}

BackendResult<ManifestList> ManifestWriter::roll() {
  aws::CloudEnv& env = *services_->env;
  obs::Span span(&env.tracer(), "manifest.roll", "manifest");
  Catalog catalog(*services_, config_.max_retries);
  catalog.ensure_domain();
  env.failures().crash_point("manifest.roll.begin");

  // Enumerate the frozen item names, one billed query sweep per shard
  // domain; the per-domain sweeps overlap on the topology's executor.
  const std::vector<std::vector<std::string>> per_domain =
      topology_->scatter<std::vector<std::string>>(
          [this](std::size_t, const std::string& domain) {
            std::vector<std::string> names;
            std::string token;
            for (;;) {
              auto page = services_->sdb.query(domain, "",
                                               aws::kSdbMaxQueryResults, token);
              if (!page) break;
              names.insert(names.end(), page->item_names.begin(),
                           page->item_names.end());
              if (!page->next_token) break;
              token = *page->next_token;
            }
            return names;
          });
  std::vector<pass::ObjectVersion> ids;
  for (const std::vector<std::string>& names : per_domain) {
    for (const std::string& item : names) {
      pass::ObjectVersion id;
      if (parse_item_name(item, id.object, id.version))
        ids.push_back(std::move(id));
    }
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());

  // The base is the writer's last snapshot only while that snapshot is the
  // committed one; otherwise every name is fetched.
  const std::optional<CatalogPointer> current = catalog.current();
  const bool have_base =
      current.has_value() && current->snapshot_id == last_snapshot_id_;
  const std::vector<ManifestEntry> no_base;
  const std::vector<ManifestEntry>& base = have_base ? last_entries_ : no_base;

  // Merge the sorted names with the sorted base: a name the base holds
  // reuses its frozen entry, any other name is fetched -- the exact bytes
  // the SimpleDB read path would return. Base entries the sweep no longer
  // lists fall away.
  std::vector<ManifestEntry> entries;
  entries.reserve(ids.size());
  auto reuse = base.begin();
  std::uint64_t fetched = 0;
  for (pass::ObjectVersion& id : ids) {
    while (reuse != base.end() && reuse->id < id) ++reuse;
    if (reuse != base.end() && reuse->id == id) {
      entries.push_back(*reuse++);
      continue;
    }
    auto records = fetch_sdb_provenance(*services_, *topology_, id.object,
                                        id.version, config_.max_retries);
    if (!records)
      return backend_error(BackendErrorCode::kServiceError,
                           "manifest roll could not fetch " +
                               item_name(id.object, id.version) + ": " +
                               records.error().message);
    entries.push_back(ManifestEntry{std::move(id), std::move(*records)});
    ++fetched;
  }
  span.arg("reused", static_cast<std::uint64_t>(entries.size()) - fetched);
  span.arg("fetched", fetched);

  const std::uint64_t snapshot_id = catalog.next_snapshot_id(current);

  // Cut sorted entries into blocks and PUT each. Sequential on purpose: a
  // roll is background work, and the crash sweep wants a deterministic
  // point between any two block PUTs.
  ManifestList list;
  list.snapshot_id = snapshot_id;
  list.total_entries = entries.size();
  for (std::size_t start = 0; start < entries.size();
       start += config_.block_entries) {
    const std::size_t end =
        std::min(start + config_.block_entries, entries.size());
    const std::span<const ManifestEntry> block(entries.data() + start,
                                               end - start);
    const std::string encoded = encode_block(block);
    BlockStats stats;
    stats.key = manifest_block_key(snapshot_id, list.blocks.size());
    stats.min = block.front().id;
    stats.max = block.back().id;
    stats.entries = block.size();
    stats.bytes = encoded.size();
    auto put = services_->s3.put(kManifestBucket, stats.key, encoded);
    if (!put)
      return backend_error(BackendErrorCode::kServiceError,
                           "manifest block PUT failed: " + put.error().message);
    list.blocks.push_back(std::move(stats));
    env.failures().crash_point("manifest.roll.after_block_put");
  }

  CatalogPointer pointer{snapshot_id, manifest_list_key(snapshot_id),
                         list.total_entries};
  auto put_list = services_->s3.put(kManifestBucket, pointer.list_key,
                                    encode_manifest_list(list));
  if (!put_list)
    return backend_error(BackendErrorCode::kServiceError,
                         "manifest list PUT failed: " + put_list.error().message);
  env.failures().crash_point("manifest.roll.after_list_put");

  auto history = catalog.publish_history(pointer);
  if (!history) return util::Unexpected(history.error());
  env.failures().crash_point("manifest.roll.after_history");

  auto committed = catalog.commit(pointer);
  if (!committed) return util::Unexpected(committed.error());
  env.failures().crash_point("manifest.roll.after_commit");

  last_snapshot_id_ = snapshot_id;
  last_entries_ = std::move(entries);
  return list;
}

}  // namespace provcloud::cloudprov::manifest
