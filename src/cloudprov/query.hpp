// The paper's three representative provenance queries (section 5, Table 3),
// implemented against both storage layouts:
//
//   Q.1  given an object and version, retrieve its provenance -- run over
//        every object ("the query results for one object are insufficient
//        to differentiate the two methods");
//   Q.2  find all files that were outputs of blast;
//   Q.3  find all descendants of files derived from blast.
//
// The S3 engine can only HEAD-scan every object (plus a GET per spilled
// record): no search capability. The SimpleDB engine uses the service's
// automatic indexes via Query/QueryWithAttributes; Q.3 must iterate level
// by level because SimpleDB "does not support recursive queries or stored
// procedures".
//
// Costs are not returned by these calls: the caller diffs
// CloudEnv::meter() snapshots around them, exactly how the benches build
// Table 3.
#pragma once

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cloudprov/ancestry.hpp"
#include "cloudprov/backend.hpp"
#include "pass/record.hpp"

namespace provcloud::cloudprov {

namespace manifest {
class ManifestReader;
}

struct Q1Result {
  std::uint64_t object_versions = 0;  // provenance sets retrieved
  std::uint64_t records = 0;          // records retrieved in total
};

class QueryEngine {
 public:
  virtual ~QueryEngine() = default;
  virtual std::string name() const = 0;

  virtual Q1Result q1_all_provenance() = 0;
  /// File object names written by any process whose NAME is `program`.
  virtual std::set<std::string> q2_outputs_of(const std::string& program) = 0;
  /// File object names transitively derived from outputs of `program`
  /// (includes the outputs themselves).
  virtual std::set<std::string> q3_descendants_of(const std::string& program) = 0;

  /// Full ancestry closure of (object, version) -- the deep walk the
  /// read-path engines compete on. Every engine answers it from its own
  /// layout (metadata scan, per-shard SimpleDB gets, or snapshot
  /// manifests), but the result is the same graph.
  virtual AncestryResult ancestry(const std::string& object,
                                  std::uint32_t version,
                                  std::size_t max_nodes = 10000) = 0;

  /// Whether ancestry_as_of is available (manifest engines only).
  virtual bool supports_time_travel() const { return false; }

  /// Time travel: the ancestry closure as the store stood when
  /// `snapshot_id` was rolled. Nodes the snapshot does not cover land in
  /// `missing` (never served from the mutable tail). Engines without
  /// snapshots fail a requirement -- gate on supports_time_travel().
  virtual AncestryResult ancestry_as_of(std::uint64_t snapshot_id,
                                        const std::string& object,
                                        std::uint32_t version,
                                        std::size_t max_nodes = 10000);
};

/// Arch-1 engine: full metadata scans over the data bucket.
std::unique_ptr<QueryEngine> make_s3_query_engine(CloudServices& services);

/// Arch-4 engine: linear scan over the segment log (GET every segment,
/// evaluate locally). The log retains every version's provenance, so
/// ancestry walks resolve old ancestor versions, but search is scan-based
/// like Arch 1: query cost grows with the log, not the result.
std::unique_ptr<QueryEngine> make_lsb_query_engine(CloudServices& services);

/// Arch-2/3 engine: indexed SimpleDB queries ("The query results are the
/// same for the last two architectures (as they both query SimpleDB)").
/// With shard_count > 1 every query scatters across the shard domains and
/// the per-domain answers are gathered: since items are partitioned by
/// object hash, the merged result is identical at any shard count. With
/// parallelism > 1 the per-domain requests overlap on the topology's
/// executor; the gathered answers (and metered call counts) are identical
/// at any parallelism.
struct SdbQueryConfig {
  /// OR-terms per predicate when chunking large ancestor sets into
  /// ['INPUT' = 'a' or 'INPUT' = 'b' ...] expressions.
  std::size_t or_terms_per_query = 20;
  /// Must match the shard_count the storing backend used.
  std::size_t shard_count = 1;
  /// Concurrent per-domain requests for scatter/gather. 1 is sequential.
  std::size_t parallelism = 1;
};
class DomainTopology;
std::unique_ptr<QueryEngine> make_sdb_query_engine(CloudServices& services);
std::unique_ptr<QueryEngine> make_sdb_query_engine(CloudServices& services,
                                                   const SdbQueryConfig& config);
/// Share the storing backend's topology outright
/// (ProvenanceBackend::topology()): same layout *and* same executor.
std::unique_ptr<QueryEngine> make_sdb_query_engine(
    CloudServices& services, std::shared_ptr<const DomainTopology> topology);

/// Manifest-backed engine: q1-q3 answer exactly like the SimpleDB engine
/// (indexed queries are already one round trip per predicate), but ancestry
/// walks are served from the committed snapshot -- AncestorCache, then
/// min/max-pruned manifest-block GETs scatter/gathered through the
/// topology, then the SimpleDB mutable-tail fallback -- with results
/// bit-identical to the pure scatter path. supports_time_travel() is true:
/// ancestry_as_of answers from any committed historical snapshot.
///
/// Config migration: SdbQueryConfig call sites keep working unchanged; the
/// manifest engine nests that struct as `base` and only adds the snapshot
/// read-path knobs on top.
struct ManifestQueryConfig {
  SdbQueryConfig base;
  /// AncestorCache capacity (transitive-closure fragments kept resident).
  std::size_t cache_capacity = 4096;
  /// Propagation-retry budget of the snapshot read path.
  std::uint32_t max_retries = 64;
};
std::unique_ptr<QueryEngine> make_manifest_query_engine(
    CloudServices& services, std::shared_ptr<const DomainTopology> topology,
    const ManifestQueryConfig& config = {});
/// Share an existing reader (and therefore its AncestorCache) with other
/// consumers -- the hints prefetcher, tests poking cache stats.
std::unique_ptr<QueryEngine> make_manifest_query_engine(
    CloudServices& services, std::shared_ptr<manifest::ManifestReader> reader,
    const ManifestQueryConfig& config = {});

}  // namespace provcloud::cloudprov
