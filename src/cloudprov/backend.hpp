// ProvenanceBackend: the public interface of the paper's contribution.
//
// A backend implements one of the three architectures from section 4 (or
// Arch 4's segment log). It receives FlushUnits from PASS at file close
// (store), serves the read-correctness read path (read), retrieves
// provenance (get_provenance), recovers after client crashes (recover), and
// -- for backends with background work (Arch 3's WAL drain, Arch 4's index
// publication and cleaner) -- exposes pump()/quiesce() to drive it
// deterministically.
//
// A backend is a CloudServices, a DomainTopology and a commit_group: the
// base owns the first two, and sessions, the commit daemon and read_many
// run on the services' env and the topology. A backend implements only the
// protocol itself.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "aws/common/env.hpp"
#include "aws/s3/s3.hpp"
#include "aws/simpledb/simpledb.hpp"
#include "aws/sqs/sqs.hpp"
#include "pass/local_cache.hpp"
#include "pass/record.hpp"
#include "util/expected.hpp"

namespace provcloud::cloudprov {

/// Which architecture a backend implements.
enum class Architecture {
  kS3Only,          // section 4.1
  kS3SimpleDb,      // section 4.2
  kS3SimpleDbSqs,   // section 4.3
  kS3SegmentLog,    // Arch 4: log-structured segments + SimpleDB index
};

const char* to_string(Architecture arch);

/// Result of the read-correctness read path.
struct ReadResult {
  util::SharedBytes data;
  std::vector<pass::ProvenanceRecord> records;
  std::uint32_t version = 0;
  /// Number of retry rounds the consistency check forced (Arch 2/3).
  std::uint32_t retries = 0;
  /// False when the backend returned a pair it cannot vouch for (Arch 1
  /// never sets this; Arch 2/3 set it only if retries were exhausted).
  bool verified = true;
};

/// Why a backend operation failed. Tests and callers branch on the code;
/// the message is for humans only.
enum class BackendErrorCode {
  kUnknown = 0,
  /// The object (or requested version) does not exist in the store.
  kNotFound,
  /// The consistency retry budget ran out before a verifiable view
  /// appeared (propagation race outlasted max_retries).
  kConsistencyExhausted,
  /// An underlying AWS service call failed in a way the protocol cannot
  /// absorb.
  kServiceError,
  /// The client crashed (injected CrashError) before this close became
  /// durable; the ticket's unit was never persisted.
  kCrashed,
  /// The architecture cannot serve this request (e.g. Arch 1 retains only
  /// the latest version's provenance).
  kUnsupported,
  /// The request was refused by admission control (per-tenant capacity
  /// exhausted, or a bounded queue rejected/shed it). Distinct from
  /// kServiceError: the request was well-formed and the services healthy --
  /// the caller exceeded its provisioned throughput and should retry after
  /// BackendError::retry_after.
  kThrottled,
  /// Stored bytes arrived whole but do not decode to what was asked for.
  /// Retrying cannot help: the object is immutable, so the read fails at
  /// once instead of spending the consistency retry budget.
  kCorrupt,
};

const char* to_string(BackendErrorCode code);

struct BackendError {
  BackendErrorCode code = BackendErrorCode::kUnknown;
  std::string message;
  /// For kThrottled: virtual time until the caller's capacity refills
  /// enough to admit the request (0 = unknown, retry at caller's pace).
  sim::SimTime retry_after = 0;
};

template <typename T>
using BackendResult = util::Expected<T, BackendError>;

inline util::Unexpected<BackendError> backend_error(BackendErrorCode code,
                                                    std::string message) {
  return util::Unexpected(BackendError{code, std::move(message), 0});
}

inline util::Unexpected<BackendError> backend_throttled(
    std::string message, sim::SimTime retry_after) {
  return util::Unexpected(
      BackendError{BackendErrorCode::kThrottled, std::move(message),
                   retry_after});
}

/// The services a backend runs against. One bundle per experiment; shared
/// by backends and query engines so all billing lands in one meter.
struct CloudServices {
  explicit CloudServices(aws::CloudEnv& env)
      : env(&env), s3(env), sdb(env), sqs(env) {}

  aws::CloudEnv* env;
  aws::S3Service s3;
  aws::SimpleDbService sdb;
  aws::SqsService sqs;
};

class Session;
struct TicketState;
class CommitDaemon;
class DomainTopology;
struct TopologyConfig;

/// Per-client session knobs (see ProvenanceBackend::open_session): the
/// group size and flush deadline, which together say how a session's closes
/// may be coalesced. How a group reaches the services (the SimpleDB batch
/// width, the shard layout) belongs to the backend's own config.
struct SessionConfig {
  /// Names the client the session belongs to (diagnostics; each session is
  /// driven from one thread, but many sessions may share a backend).
  std::string client_id = "client-0";
  /// Closes coalesced between durability barriers: the commit daemon
  /// flushes once this many submits are queued. 1 reproduces the paper's
  /// per-close protocol bit-for-bit (same requests, same billing, same
  /// elapsed time); larger groups let the backend commit submitted closes
  /// together (Arch 2: cross-close BatchPutAttributes chains; Arch 3:
  /// batched WAL sends). Backends without group commit (Arch 1) treat
  /// every submit as an immediate store regardless of this value.
  /// 0 means 1 (no coalescing).
  std::size_t max_group = 0;
  /// Adaptive group flush: a queued submit older than this flushes the
  /// pending group even when it is not full (kivaloo's kvlds deadline).
  /// The wait is charged to the ticket's ledger timeline as "idle" --
  /// deadline batching trades elapsed time for round trips, and the ledger
  /// shows it. 0 disables the deadline (flush only on group-full or sync).
  sim::SimTime flush_deadline = 0;

  /// The group size with the zero default resolved (never 0).
  std::size_t resolved_group() const { return max_group > 0 ? max_group : 1; }
};

class ProvenanceBackend {
 public:
  virtual ~ProvenanceBackend() = default;

  virtual Architecture architecture() const = 0;
  virtual std::string name() const = 0;

  /// The close-time protocol: persist one object version and its
  /// provenance. May throw sim::CrashError at an armed crash point.
  /// Non-virtual by design: store() IS a one-shot session (open_session ->
  /// submit -> sync at group size 1), so every backend's single-close path
  /// and its commit_group primitive are one code path. Defined in
  /// session.cpp, where Session is complete.
  void store(const pass::FlushUnit& unit);

  /// The session-oriented close path: submits enqueue closes without
  /// blocking on the cloud round-trip chain, sync() is the durability
  /// barrier, and between barriers the backend's commit daemon may
  /// coalesce submitted closes into one group commit. Each session is
  /// driven from one thread, but a backend accepts many concurrent
  /// sessions: their submits feed one MPSC queue drained by a single
  /// commit daemon (see Session for the full contract). Defined in
  /// session.cpp, where Session is complete.
  std::unique_ptr<Session> open_session(
      SessionConfig config = SessionConfig{});

  /// Whether submits may legally wait for a group (Arch 2/3). When false
  /// (Arch 1's single-PUT protocol, whose Table-1 properties depend on
  /// submit == store), sessions flush every submit immediately.
  virtual bool supports_group_commit() const { return false; }

  /// The group-commit primitive behind Session and store(): persist every
  /// unit of `group` (in submit order where ordering matters), marking
  /// each ticket done as its close becomes durable. Service time exclusive
  /// to one close is charged to the ticket's own timeline (bound on the
  /// env's ledger) so the commit daemon can merge in-flight tickets by
  /// critical path. The only close-path entry point a backend implements.
  virtual void commit_group(const std::vector<TicketState*>& group) = 0;

  /// The services the backend runs against; sessions and the commit daemon
  /// take their ledger, clock, tracer and metrics from its env.
  CloudServices& services() const { return *services_; }

  /// The backend's shard/parallelism layout. read_many routes through it;
  /// query engines share it so the layout cannot drift.
  std::shared_ptr<const DomainTopology> topology() const { return topology_; }

  /// The read path a scientist uses: fetch the latest data of `object`
  /// together with its provenance, enforcing whatever consistency the
  /// architecture offers. `max_retries` bounds the Arch-2/3 consistency
  /// retry loop.
  virtual BackendResult<ReadResult> read(const std::string& object,
                                         std::uint32_t max_retries = 64) = 0;

  /// Multi-object read path: one read() per object, results in input
  /// order, routed through topology()->run_tasks so a parallel topology
  /// overlaps the per-object consistency rounds (parallelism 1: a
  /// sequential loop, charges in issue order).
  std::vector<BackendResult<ReadResult>> read_many(
      const std::vector<std::string>& objects, std::uint32_t max_retries = 64);

  /// Retrieve the provenance of one (object, version), resolving spilled
  /// records.
  virtual BackendResult<std::vector<pass::ProvenanceRecord>> get_provenance(
      const std::string& object, std::uint32_t version) = 0;

  /// Batched get_provenance: one result per id, in input order, each what
  /// get_provenance would return for it. fetch_ancestry hands it one BFS
  /// frontier at a time. The default calls get_provenance for each id in
  /// turn, so a backend that does not override it (Arch 1) makes exactly
  /// the requests of a per-node walk. Arch 2/3 override it to fetch a
  /// frontier with one SimpleDB Select per 20 ids of a shard domain, and
  /// Arch 4 with one range GET per segment.
  virtual std::vector<BackendResult<std::vector<pass::ProvenanceRecord>>>
  get_provenance_many(const std::vector<pass::ObjectVersion>& ids);

  /// Client-restart recovery (after a CrashError was thrown from store or
  /// pump). Arch 1: nothing. Arch 2: orphan-provenance scan. Arch 3: WAL
  /// replay via the commit daemon.
  virtual void recover() = 0;

  /// One step of background maintenance, each task gated on its own
  /// threshold: Arch 3's WAL drain, Arch 4's index publication and cleaner;
  /// a no-op for Arch 1/2. The commit daemon calls it after every flush
  /// group, on its own maintenance timeline (see Session).
  virtual void pump() {}

  /// Run daemons until stable (e.g. WAL fully drained). Test/bench helper.
  /// First joins the commit daemon's maintenance actor: the caller's
  /// timeline advances to the actor's end, the wait charged as "idle".
  /// Then runs do_quiesce() on the caller's timeline. Non-virtual so the
  /// join happens on every backend; defined in session.cpp.
  void quiesce();

  /// Paper Table 1 row, verified empirically by cloudprov/properties.
  struct PropertyClaims {
    bool atomicity = false;
    bool consistency = false;
    bool causal_ordering = false;
    bool efficient_query = false;
  };
  virtual PropertyClaims claims() const = 0;

  /// The backend's commit daemon, created lazily on first use. Every
  /// session's submits funnel through it -- one MPSC queue, one flusher at
  /// a time. Defined in session.cpp.
  std::shared_ptr<CommitDaemon> commit_daemon();

 protected:
  /// Builds the backend's topology from `topology`, its ledger set to the
  /// env's so parallel fan-outs merge their branches by critical path.
  ProvenanceBackend(CloudServices& services, TopologyConfig topology);

  /// quiesce()'s virtual hook: drain the backend's deferred work.
  virtual void do_quiesce() {}

  CloudServices* const services_;
  const std::shared_ptr<const DomainTopology> topology_;

 private:
  std::mutex daemon_mu_;
  std::shared_ptr<CommitDaemon> daemon_;
};

inline const char* to_string(Architecture arch) {
  switch (arch) {
    case Architecture::kS3Only: return "S3";
    case Architecture::kS3SimpleDb: return "S3+SimpleDB";
    case Architecture::kS3SimpleDbSqs: return "S3+SimpleDB+SQS";
    case Architecture::kS3SegmentLog: return "S3-segments+SimpleDB";
  }
  return "?";
}

inline const char* to_string(BackendErrorCode code) {
  switch (code) {
    case BackendErrorCode::kUnknown: return "unknown";
    case BackendErrorCode::kNotFound: return "not-found";
    case BackendErrorCode::kConsistencyExhausted:
      return "consistency-exhausted";
    case BackendErrorCode::kServiceError: return "service-error";
    case BackendErrorCode::kCrashed: return "crashed";
    case BackendErrorCode::kUnsupported: return "unsupported";
    case BackendErrorCode::kThrottled: return "throttled";
    case BackendErrorCode::kCorrupt: return "corrupt";
  }
  return "?";
}

/// Factories (defined with each backend).
std::unique_ptr<ProvenanceBackend> make_s3_backend(CloudServices& services);
struct SdbBackendConfig;
std::unique_ptr<ProvenanceBackend> make_sdb_backend(CloudServices& services);
std::unique_ptr<ProvenanceBackend> make_sdb_backend(
    CloudServices& services, const SdbBackendConfig& config);
struct WalBackendConfig;
std::unique_ptr<ProvenanceBackend> make_wal_backend(CloudServices& services);
std::unique_ptr<ProvenanceBackend> make_wal_backend(
    CloudServices& services, const WalBackendConfig& config);
struct LsbBackendConfig;
std::unique_ptr<ProvenanceBackend> make_lsb_backend(CloudServices& services);
std::unique_ptr<ProvenanceBackend> make_lsb_backend(
    CloudServices& services, const LsbBackendConfig& config);
std::unique_ptr<ProvenanceBackend> make_backend(Architecture arch,
                                                CloudServices& services);

}  // namespace provcloud::cloudprov
