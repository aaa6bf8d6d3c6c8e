// Empirical verification of the paper's Table 1.
//
// Rather than trusting each backend's claims(), the checker *measures* the
// four properties:
//
//   Atomicity       -- crash the client at every crash point the close
//                      protocol passes through, at every occurrence; after
//                      each crash, let propagation and (for Arch 3) the
//                      always-running commit daemon settle -- a daemon that
//                      died mid-drain restarts and finishes it -- then
//                      assert that no object has data without matching
//                      provenance and no provenance without data. (Arch 2's
//                      remedial orphan scan is NOT run here: the paper
//                      counts it as cleanup, not atomicity.)
//   Consistency     -- under aggressive staleness, hammer the read path
//                      while versions are being stored; a read that claims
//                      verified=true must return an internally matching
//                      (data, provenance) pair.
//   Causal ordering -- after every crash scenario, every cross-reference in
//                      stored provenance must name an ancestor object that
//                      is itself stored (version-granular for SimpleDB
//                      architectures, object-granular for Arch 1, which
//                      retains only the latest version's records).
//   Efficient query -- run Q.2 on a small and a double-size dataset; the
//                      property holds when query cost grows sublinearly in
//                      dataset size.
//
// One crash driver serves every scenario: the Table-1 close above, the
// manifest roll, the Arch-4 segment log's maintenance and the Frontend's
// admission-to-durability path. A scenario is a
// base phase, an injected phase and a check. The driver runs it once with
// no crash armed and counts each crash point's hits in the injected phase,
// then replays it at the same seed once per (point, k <= hits) with the
// crash armed at the k-th hit, disarms the point, drains the clock and runs
// the check. So every crash point a scenario reaches is swept at every
// occurrence; a replay is deterministic at its seed, so every armed crash
// fires, and the report counts any that does not.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cloudprov/backend.hpp"

namespace provcloud::cloudprov {

/// What one crash sweep did and found: one replay per (point, k <= hits),
/// the hits counted in an uninjected run of the scenario's injected phase.
struct CrashSweepReport {
  struct Point {
    std::uint64_t hits = 0;     // counted in the uninjected run
    std::uint64_t crashes = 0;  // replays in which the armed crash fired
  };
  /// Every crash point the injected phase reaches.
  std::map<std::string, Point> points;
  std::uint64_t crash_scenarios = 0;  // replays: the sum of the hits
  std::uint64_t crashed_runs = 0;     // replays where the armed crash fired
  std::uint64_t violations = 0;

  bool crash_safe() const { return crash_scenarios > 0 && violations == 0; }
};

struct PropertyReport {
  Architecture arch = Architecture::kS3Only;

  bool atomicity = false;
  bool consistency = false;
  bool causal_ordering = false;
  bool efficient_query = false;

  // Evidence. The close scenario's crash sweep, whose violations split
  // into the two counts below.
  CrashSweepReport crash_sweep;
  std::uint64_t atomicity_violations = 0;
  std::uint64_t causal_violations = 0;
  std::uint64_t reads_checked = 0;
  std::uint64_t consistency_violations = 0;
  /// Read-your-writes: session reads issued against still-pending submits
  /// during the crash-sweep workload, and how many failed to observe them.
  std::uint64_t ryw_checked = 0;
  std::uint64_t ryw_violations = 0;
  std::uint64_t reads_with_retries = 0;  // staleness *detected* and handled
  std::uint64_t query_ops_small = 0;
  std::uint64_t query_ops_large = 0;
  double query_growth = 0.0;  // ops_large / ops_small

  bool matches(const ProvenanceBackend::PropertyClaims& claims) const {
    return atomicity == claims.atomicity && consistency == claims.consistency &&
           causal_ordering == claims.causal_ordering &&
           efficient_query == claims.efficient_query;
  }
};

struct PropertyCheckOptions {
  std::uint64_t seed = 7;
  /// Files in the mini workload used for crash sweeps.
  std::size_t mini_files = 12;
  /// Reads issued per stored version in the consistency hammer.
  std::size_t reads_per_version = 4;
  /// Shard domains the SimpleDB architectures store across (1 = the
  /// paper's single-domain layout). The state checks sweep every shard
  /// domain, so the verdicts are layout-independent.
  std::size_t shard_count = 1;
  /// Executor parallelism of the backends under test.
  std::size_t parallelism = 1;
  /// Closes coalesced per session group commit. 1 is the paper's per-close
  /// protocol; larger groups verify the Table-1 claims still hold when the
  /// backend batches submits between durability barriers (the crash sweep
  /// then crashes *mid-group*). The consistency hammer always syncs per
  /// close -- its property is read-after-durable, independent of grouping.
  std::size_t group_size = 1;
  /// Adaptive flush deadline of the crash-sweep session (0 = flush only on
  /// group-full or sync). When set, the workload advances the clock half a
  /// deadline between closes, so injected crashes land *mid-deadline-flush*
  /// -- the daemon, not the submitter, is in commit_group when the crash
  /// fires.
  sim::SimTime flush_deadline = 0;
  /// Hostile-environment sweep (ROADMAP 5b). Extra per-request latency
  /// injected into every service (a correlated brown-out) ...
  sim::SimTime service_slowdown = 0;
  /// ... and a service-side 503 throttle storm: each request throttled
  /// with this probability and/or rate-limited to throttle_rate_per_sec
  /// admitted requests per virtual second (see aws::ThrottleConfig).
  /// Verdicts must be environment-independent: a storm may stretch elapsed
  /// time, never corrupt state or change a Table-1 answer.
  double throttle_probability = 0.0;
  std::uint64_t throttle_rate_per_sec = 0;
};

PropertyReport check_properties(Architecture arch,
                                const PropertyCheckOptions& options = {});

/// Convenience: all three rows of Table 1.
std::vector<PropertyReport> check_all_architectures(
    const PropertyCheckOptions& options = {});

/// Crash sweep over the manifest-roll protocol (the snapshot read path's
/// commit sequence: block PUTs, list PUT, history row, pointer swap). The
/// injected phase is one roll on top of a committed snapshot and a mutable
/// tail; after each crash the catalog must still bind a committed snapshot,
/// live manifest-path walks must stay bit-identical to the pure SimpleDB
/// scatter walk, one more roll by the same writer (incremental) and one by
/// a fresh writer (a full fetch) must hold the same entries, and every
/// committed snapshot must keep serving complete, correct time-travel
/// ancestry. Requires a SimpleDB architecture (Arch 2 or 3): rolls snapshot
/// the provenance index, which Architecture 1 does not have.
CrashSweepReport check_manifest_roll(Architecture arch,
                                     const PropertyCheckOptions& options = {});

/// Crash sweep over the Arch-4 segment log's maintenance. The injected
/// phase is a close that supersedes most of a sealed segment, an index
/// publication and a cleaner pass (seal, publication and cleaner points);
/// after each crash a FRESH backend recovers over the same store (client
/// restart) and must: serve every committed close, expose no torn index
/// (every durable posting between the watermarks resolves to a matching
/// entry in an existing segment), and -- after a subsequent uninjected
/// cleaner pass -- answer ancestry walks bit-identically to the pre-crash
/// ground truth. The crashed backend is never settled.
CrashSweepReport check_lsb_crash_sweep(
    const PropertyCheckOptions& options = {});

/// Crash sweep over the Frontend's path from offer to durable close. The
/// base phase is a Frontend (a pool of two sessions at the options' group
/// size, a 200 ms flush deadline) taking 39 closes from three tenants, then
/// a sync; the injected phase offers 15 more between clock steps and pumps,
/// then syncs. The crashed Frontend is dropped. After each crash an Arch-3
/// backend recovers (its commit daemon restarts), the world settles, and
/// every close whose FrontendTicket was ok() when the crash fired must read
/// back verified, at its version, with its data.
CrashSweepReport check_frontend_crash_sweep(
    Architecture arch, const PropertyCheckOptions& options = {});

}  // namespace provcloud::cloudprov
