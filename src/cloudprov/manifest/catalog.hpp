// The snapshot catalog: one SimpleDB domain holding pointer rows.
//
// Item "current" is the commit point -- a single PutAttributes (replace
// semantics) atomically swaps which snapshot readers see. Item "snap-<id>"
// is the immutable history row of one snapshot, written *before* the swap
// so an old pointer can always be followed (time travel). A crash anywhere
// before the swap leaves the previous snapshot fully intact: its blocks,
// list and rows are never touched by a later roll.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "cloudprov/backend.hpp"

namespace provcloud::cloudprov::manifest {

/// What a catalog row names: the snapshot's manifest list plus its
/// high-watermark (how many frozen entries the snapshot covers -- anything
/// the snapshot's min/max stats prune away is mutable tail).
struct CatalogPointer {
  std::uint64_t snapshot_id = 0;
  std::string list_key;
  std::uint64_t total_entries = 0;
};

class Catalog {
 public:
  explicit Catalog(CloudServices& services, std::uint32_t max_retries = 64);

  /// Create the catalog domain (idempotent).
  void ensure_domain();

  /// The committed pointer, or nullopt when no snapshot was ever rolled.
  /// Retries propagation races a bounded number of times (each retry round
  /// is charged to the ledger as idle wait); a *stale* committed pointer is
  /// returned as-is -- an older snapshot is still correct, the mutable-tail
  /// fallback covers the difference.
  std::optional<CatalogPointer> current();

  /// The history row of `snapshot_id`, but only when that snapshot has been
  /// committed (snapshot_id <= current()'s id): a history row above the
  /// commit point belongs to a crashed, unfinished roll and must not be
  /// served.
  std::optional<CatalogPointer> history(std::uint64_t snapshot_id);

  /// Write the immutable history row of a finished-but-uncommitted
  /// snapshot (step before the swap).
  BackendResult<void> publish_history(const CatalogPointer& pointer);

  /// The commit point: atomically repoint "current" at `pointer`.
  BackendResult<void> commit(const CatalogPointer& pointer);

  /// First snapshot id with no trace in the catalog, starting from
  /// `current` + 1, where `current` is the caller's read of current(). Ids
  /// of crashed rolls that reached their history row stay burned: a fresh
  /// roll must never overwrite objects another (possibly committed,
  /// possibly half-written) snapshot may own.
  std::uint64_t next_snapshot_id(const std::optional<CatalogPointer>& current);

 private:
  std::optional<CatalogPointer> read_row(const std::string& item,
                                         bool retry_invisible);

  CloudServices* services_;
  std::uint32_t max_retries_;
};

}  // namespace provcloud::cloudprov::manifest
