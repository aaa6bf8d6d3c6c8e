#include "cloudprov/manifest/catalog.hpp"

#include "cloudprov/consistency_read.hpp"
#include "cloudprov/manifest/format.hpp"
#include "cloudprov/wire_codec.hpp"
#include "util/require.hpp"

namespace provcloud::cloudprov::manifest {

namespace {

constexpr const char* kCurrentItem = "current";
constexpr const char* kIdAttr = "id";
constexpr const char* kListKeyAttr = "list-key";
constexpr const char* kEntriesAttr = "entries";

std::string history_item(std::uint64_t snapshot_id) {
  return "snap-" + std::to_string(snapshot_id);
}

std::optional<std::string> single_value(const aws::SdbItem& attrs,
                                        const char* name) {
  auto it = attrs.find(name);
  if (it == attrs.end() || it->second.empty()) return std::nullopt;
  return *it->second.begin();
}

}  // namespace

Catalog::Catalog(CloudServices& services, std::uint32_t max_retries)
    : services_(&services), max_retries_(max_retries) {}

void Catalog::ensure_domain() {
  auto created = services_->sdb.create_domain(kCatalogDomain);
  PROVCLOUD_REQUIRE_MSG(
      created.has_value(),
      "catalog CreateDomain failed: " + created.error().message);
}

std::optional<CatalogPointer> Catalog::read_row(const std::string& item,
                                                bool retry_invisible) {
  for (std::uint32_t attempt = 0;; ++attempt) {
    if (attempt > 0)
      charge_read_retry(*services_->env);
    auto got = services_->sdb.get_attributes(kCatalogDomain, item);
    if (got && !got->empty()) {
      const auto id = single_value(*got, kIdAttr);
      const auto list_key = single_value(*got, kListKeyAttr);
      const auto entries = single_value(*got, kEntriesAttr);
      if (!id || !list_key || !entries) return std::nullopt;
      CatalogPointer row{0, *list_key, 0};
      if (!wire::parse_u64(*id, row.snapshot_id) ||
          !wire::parse_u64(*entries, row.total_entries))
        return std::nullopt;
      return row;
    }
    if (!retry_invisible || attempt >= max_retries_) return std::nullopt;
  }
}

std::optional<CatalogPointer> Catalog::current() {
  // A single round: an absent row legitimately means "never rolled", so
  // retrying emptiness would stall every pre-snapshot read path. A stale
  // (older) committed pointer is still a correct answer.
  return read_row(kCurrentItem, /*retry_invisible=*/false);
}

std::optional<CatalogPointer> Catalog::history(std::uint64_t snapshot_id) {
  const std::optional<CatalogPointer> cur = current();
  if (!cur || snapshot_id > cur->snapshot_id) return std::nullopt;
  return read_row(history_item(snapshot_id), /*retry_invisible=*/true);
}

BackendResult<void> Catalog::publish_history(const CatalogPointer& pointer) {
  auto put = services_->sdb.put_attributes(
      kCatalogDomain, history_item(pointer.snapshot_id),
      {{kIdAttr, std::to_string(pointer.snapshot_id), true},
       {kListKeyAttr, pointer.list_key, true},
       {kEntriesAttr, std::to_string(pointer.total_entries), true}});
  if (!put)
    return backend_error(BackendErrorCode::kServiceError,
                         "catalog history put failed: " + put.error().message);
  return {};
}

BackendResult<void> Catalog::commit(const CatalogPointer& pointer) {
  // Replace semantics make the single PutAttributes the atomic commit
  // point: afterwards every reader that sees the row sees the whole row.
  auto put = services_->sdb.put_attributes(
      kCatalogDomain, kCurrentItem,
      {{kIdAttr, std::to_string(pointer.snapshot_id), true},
       {kListKeyAttr, pointer.list_key, true},
       {kEntriesAttr, std::to_string(pointer.total_entries), true}});
  if (!put)
    return backend_error(BackendErrorCode::kServiceError,
                         "catalog commit failed: " + put.error().message);
  return {};
}

std::uint64_t Catalog::next_snapshot_id(
    const std::optional<CatalogPointer>& current) {
  std::uint64_t candidate = current ? current->snapshot_id + 1 : 1;
  // Never reuse an id that left any trace: a stale "current" read must not
  // let a roll overwrite a committed snapshot's immutable objects, and a
  // crashed roll that got as far as its history row keeps its id burned.
  while (read_row(history_item(candidate), /*retry_invisible=*/false))
    ++candidate;
  return candidate;
}

}  // namespace provcloud::cloudprov::manifest
