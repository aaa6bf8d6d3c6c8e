// ManifestWriter: roll the frozen provenance store into a snapshot.
//
// A roll enumerates every provenance item name across the shard domains,
// sorts and de-duplicates them, and pairs each with its fully-resolved
// records: the entry of the writer's last snapshot when that snapshot holds
// the name, otherwise a fetch through the same fetch_sdb_provenance path
// queries use (so manifest contents are bit-identical to SimpleDB reads).
// It then cuts the entries into immutable blocks on S3, writes the manifest
// list, publishes the catalog history row and finally swaps the catalog
// "current" pointer -- the commit point. PASS versioning makes every stored
// (object, version) immutable, so anything the enumeration saw is frozen by
// construction; items stored after the roll are the mutable tail the reader
// serves from SimpleDB.
//
// Incremental rolls. The writer keeps the sorted entries of the last
// snapshot it committed, and a roll fetches only the names that base lacks.
// It relies on the invariant ancestor_cache.hpp states: an (object,
// version)'s records are written once, at close, so an entry already frozen
// never changes. A name the enumeration no longer lists (an orphan that
// SdbBackend::recover() deleted) drops out. The base is used only while the
// catalog's "current" names the writer's own last snapshot; otherwise (a
// fresh writer, a crash after the commit point, another writer's snapshot
// current) it is empty and the same loop fetches every name. Either way the
// snapshot's objects are byte-identical to a full roll's.
//
// Crash protocol (the property checker sweeps every point):
//   manifest.roll.begin            -- before any write
//   manifest.roll.after_block_put  -- after each block PUT
//   manifest.roll.after_list_put   -- manifest list durable, not cataloged
//   manifest.roll.after_history    -- history row durable, not committed
//   manifest.roll.after_commit     -- pointer swapped
// A crash at any point before after_commit leaves the previous snapshot
// serving: its objects are immutable and its pointer row untouched. The
// writer's base changes only when a roll returns, so a crash leaves it
// describing the last snapshot the writer saw committed.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cloudprov/backend.hpp"
#include "cloudprov/domain_topology.hpp"
#include "cloudprov/manifest/format.hpp"

namespace provcloud::cloudprov::manifest {

struct ManifestWriterConfig {
  /// Entries per manifest block. Smaller blocks prune tighter; larger
  /// blocks amortize GETs harder (the kivaloo lbs trade).
  std::size_t block_entries = 64;
  /// Visibility-retry budget when fetching item records at roll time.
  std::uint32_t max_retries = 64;
};

class ManifestWriter {
 public:
  ManifestWriter(CloudServices& services,
                 std::shared_ptr<const DomainTopology> topology,
                 ManifestWriterConfig config = {});

  /// Roll a new snapshot of everything currently visible. Returns the
  /// committed manifest list. May throw sim::CrashError at an armed crash
  /// point -- the catalog then still names the previous snapshot. Traced
  /// as the span manifest.roll (args: reused, fetched entries).
  BackendResult<ManifestList> roll();

  /// Id of the last snapshot this writer committed (0 = none yet).
  std::uint64_t last_snapshot_id() const { return last_snapshot_id_; }

 private:
  CloudServices* services_;
  std::shared_ptr<const DomainTopology> topology_;
  ManifestWriterConfig config_;
  std::uint64_t last_snapshot_id_ = 0;
  /// The entries of last_snapshot_id_ in snapshot order: the next roll's
  /// base.
  std::vector<ManifestEntry> last_entries_;
};

}  // namespace provcloud::cloudprov::manifest
