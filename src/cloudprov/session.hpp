// Session / Ticket / CommitDaemon: the concurrent asynchronous close path.
//
// The paper's close-time protocol charges one full cloud round-trip chain
// per file close because ProvenanceBackend::store blocks until the close is
// durable. A Session decouples the two halves of that contract, after
// kivaloo's pipelined request/response protocol: submit(unit) enqueues a
// close and returns a Ticket immediately; sync() is the durability barrier
// that drains every outstanding ticket.
//
// PR 6 turns the session layer into a server core, after kivaloo's kvlds
// dispatcher: a backend accepts MANY concurrent sessions, whose submits
// feed one per-backend MPSC queue drained by a single commit daemon. The
// daemon flushes the pending group into the backend's group-commit path
// when the group is full OR when the oldest queued submit's flush deadline
// expires (SessionConfig::flush_deadline, delivered by a SimClock event);
// submits arriving while a flush is in flight never block -- they join the
// next group, kivaloo-style. Groups may therefore span sessions: the
// causal-wave logic in Arch 2's commit path and the txid ordering in Arch
// 3's already handle cross-close (now cross-client) dependencies and
// duplicate (object, version) submits.
//
//   Arch 1  submit == store (its single-PUT atomicity depends on it);
//   Arch 2  one BatchPutAttributes chain per group of closes instead of
//           per close, routed per shard through DomainTopology;
//   Arch 3  WAL log records of the whole group ride batched SQS sends; the
//           WAL drain runs in the daemon's maintenance step, not the close.
//
// Read-your-writes: Session::read(object) consults the session's in-flight
// submits before the backend read path. A pending (unflushed) submit is
// served straight from its queued FlushUnit -- zero cloud calls; a durable
// own-write puts a floor under the backend's answer (a stale replica can
// never roll the session's own view backwards).
//
// Error handling: each Ticket carries the eventual BackendResult of its
// close, so a per-close failure inside a batched flush is not lost. An
// injected client crash (sim::CrashError) still propagates out of the call
// that ran the flush -- submit(), sync(), or the clock advance that fired a
// deadline -- with every not-yet-durable ticket of the group marked
// BackendErrorCode::kCrashed.
//
// Elapsed time: service calls exclusive to one close (spill PUTs, data
// PUTs, WAL temp PUTs) are charged to that ticket's own ledger timeline;
// calls shared by the group (the batched provenance writes) are charged to
// a per-group timeline the daemon binds around commit_group and then
// absorbs into every rider's timeline. Time a submit spends queued waiting
// for a deadline is charged to its ticket as "idle" -- deadline batching is
// not free, and the ledger shows the trade. When a group retires, each
// owning session merges its own tickets of that group into its caller's
// timeline by critical path: in-flight closes overlap, so the client waits
// for the slowest one, not the sum. With group size 1 and no queue wait the
// merge degenerates to the sum.
//
// Maintenance: after every group the daemon runs the backend's pump() (Arch
// 3's WAL drain, Arch 4's index publication and cleaner) on its own
// "maintenance" timeline, which no ticket or group absorbs: a close is done
// once its group committed, as with the paper's separate commit daemon. The
// maintenance actor is concurrent, not free: each task starts at the later
// of its previous task's end and the triggering group's end, and
// ProvenanceBackend::quiesce() first advances its caller to the actor's end,
// charged as "idle". So a client's elapsed time after quiesce() is the larger
// of its own path and the actor's, never more than the serial sum of all
// charges. Arch 1/2's pump() is a no-op, so their accounting is the sum
// exactly.
//
// Env: Session and CommitDaemon run on the backend's env
// (backend.services().env) -- its ledger, clock, tracer and metrics. Every
// backend has one, so every flush takes the same path.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "cloudprov/backend.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace provcloud::cloudprov {

/// Why a flush group went out: the group filled, a queued submit's deadline
/// expired, or a durability barrier drained the queue. Counted per trigger
/// (metrics daemon.flush.*) and stamped onto flush spans.
enum class FlushTrigger { kGroupFull, kDeadline, kSync };

const char* to_string(FlushTrigger trigger);

/// Shared state of one submitted close. Written by the flushing thread
/// (whichever session or clock event claims the flush), published to the
/// owning session and any Ticket holder via the `retired` release store.
struct TicketState {
  std::uint64_t id = 0;  // session-local submit counter
  pass::FlushUnit unit;
  /// Service time exclusive to this close (spill / data / temp PUTs) plus
  /// its queued "idle" wait, merged into the owning client's timeline by
  /// critical path at group retire.
  sim::LatencyLedger::Timeline timeline;
  /// Backend-facing completion flag: commit_group sets it as the close
  /// becomes durable (flusher thread only; readers use `retired`).
  bool done = false;
  BackendResult<void> result;

  /// Published-to-readers flag: the daemon stores it (release) after the
  /// result AND timeline are final -- cross-thread readers acquire it
  /// before touching either.
  std::atomic<bool> retired{false};

  // --- commit-daemon bookkeeping (queue fields under the daemon's lock,
  // --- the rest written once before enqueue or once at flush claim) ---
  std::uint64_t session_serial = 0;  // owning session, for forget()
  std::size_t max_group = 1;         // owning session's effective group
  sim::SimTime flush_deadline = 0;   // relative, from SessionConfig (0 = none)
  sim::SimTime enqueue_time = 0;
  sim::SimTime deadline_at = 0;      // absolute flush deadline (0 = none)
  std::uint64_t group_seq = 0;       // flush group this ticket rode in
};

/// Handle to one submitted close. Cheap to copy; outlives the session.
class Ticket {
 public:
  Ticket() = default;
  explicit Ticket(std::shared_ptr<const TicketState> state)
      : state_(std::move(state)) {}

  bool valid() const { return state_ != nullptr; }
  std::uint64_t id() const { return state_ == nullptr ? 0 : state_->id; }

  /// The backend finished processing this close (after the group it rode
  /// in flushed -- at the latest at the next sync()).
  bool done() const {
    return state_ != nullptr &&
           state_->retired.load(std::memory_order_acquire);
  }

  /// done() and the close is durable.
  bool ok() const { return done() && state_->result.has_value(); }

  /// The per-close failure; call only when done() && !ok().
  const BackendError& error() const { return state_->result.error(); }

  /// This close's end-to-end virtual latency: exclusive service time plus
  /// queued "idle" wait plus the flush group's shared round trips, exactly
  /// what close.latency_us records. 0 until done().
  sim::SimTime elapsed() const {
    return done() ? state_->timeline.elapsed : 0;
  }

 private:
  std::shared_ptr<const TicketState> state_;
};

/// One backend's commit daemon: the single drain of the per-backend MPSC
/// submit queue, after kivaloo's kvlds dispatcher. There is no dedicated
/// daemon thread -- in a discrete-event world the daemon is a role: the
/// submitting thread whose enqueue makes the group flushable, the syncing
/// thread at a barrier, or the clock event a flush deadline scheduled
/// claims the `flushing_` token, drains the queue into the backend's
/// commit_group, and then runs the backend's pump() as the maintenance
/// step on the daemon's own timeline. Submits arriving while a flush is in
/// flight enqueue and return immediately: the active flusher re-checks the
/// trigger when it finishes, so they join the next group rather than
/// blocking.
class CommitDaemon : public std::enable_shared_from_this<CommitDaemon> {
 public:
  explicit CommitDaemon(ProvenanceBackend& backend);
  CommitDaemon(const CommitDaemon&) = delete;
  CommitDaemon& operator=(const CommitDaemon&) = delete;

  /// A session's identity with the daemon (forget() scope).
  std::uint64_t register_session();

  /// Enqueue one close. Flushes inline (possibly several groups) when the
  /// enqueue makes the trigger fire and no flush is in flight; otherwise
  /// returns immediately. May throw from a flush it ran.
  void submit(const std::shared_ptr<TicketState>& ticket);

  /// Durability barrier: block until every ticket in `tickets` is retired,
  /// flushing the queue (and waiting out other flushers) as needed. May
  /// throw from a flush it ran.
  void barrier(const std::vector<std::shared_ptr<TicketState>>& tickets);

  /// Deadline hook, fired by a SimClock event: flush if the oldest queued
  /// submit's deadline has expired and nobody is flushing. A stale wake
  /// (queue already flushed) is a no-op. May throw from a flush it ran --
  /// the crash then propagates out of the clock advance, exactly like a
  /// client dying mid-deadline-flush.
  void poll();

  /// Drop `session_serial`'s still-queued tickets (the owning session is
  /// being destroyed before a barrier): they are marked kCrashed and never
  /// handed to the backend. In-flight tickets are settled by their flush.
  void forget(std::uint64_t session_serial);

  /// Queued (not yet flushing) submits, across all sessions.
  std::size_t queued() const;

  /// Join the maintenance actor: wait out any flush in flight, then advance
  /// the calling thread's timeline to the actor's end, charging the gap as
  /// "idle" (counter idle.maintenance_wait_us). A caller already past the
  /// actor's end pays nothing.
  void join_maintenance();

 private:
  /// The trigger warranting a flush right now, if any: full group (the
  /// smallest effective max_group among queued tickets -- a small-group
  /// session flushes everyone sooner) or expired deadline.
  std::optional<FlushTrigger> trigger_locked() const;
  /// Claim the flusher token, drain the whole queue as one group, run the
  /// backend's commit_group and then the maintenance step unlocked,
  /// settle/publish the tickets, release the token. `lk` is held on entry
  /// and exit.
  void flush_group(std::unique_lock<std::mutex>& lk, FlushTrigger trigger);
  /// The maintenance step after a group whose last rider ends at
  /// `group_end` on the flushing thread's timeline: the backend's pump(),
  /// bound to `maintenance_`. Runs under the flush token.
  void maintain(sim::SimTime group_end);

  ProvenanceBackend& backend_;
  sim::LatencyLedger& ledger_;
  sim::SimClock& clock_;
  obs::Tracer& tracer_;
  obs::Histogram& group_size_hist_;
  obs::Histogram& queue_depth_hist_;
  obs::Counter& flush_group_full_;
  obs::Counter& flush_deadline_;
  obs::Counter& flush_sync_;
  obs::Counter& queue_wait_us_;
  obs::Counter& maintenance_busy_us_;
  obs::Counter& maintenance_wait_us_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::shared_ptr<TicketState>> queue_;
  bool flushing_ = false;
  /// The maintenance actor's timeline; its elapsed is the actor's end on
  /// the clients' virtual axis. Written only by the flusher (under the
  /// flush token), read by join_maintenance() under mu_ once no flush is in
  /// flight.
  sim::LatencyLedger::Timeline maintenance_;
  std::uint64_t next_group_seq_ = 0;
  std::uint64_t next_session_serial_ = 1;
};

/// One client's asynchronous close stream. Each session is driven from one
/// thread, but many sessions (threads) may share a backend: their submits
/// interleave in the backend's commit daemon, and a flush group may carry
/// closes from several sessions.
class Session {
 public:
  /// Built by ProvenanceBackend::open_session. Submits and syncs become
  /// spans on the client's track of the env's tracer, every ticket timeline
  /// gets its own named track, and retired closes feed the env's
  /// close.latency_us histogram.
  Session(ProvenanceBackend& backend, SessionConfig config);
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Enqueue one close. Returns immediately unless the enqueue triggers a
  /// flush (group full, or the backend has no group commit) while no flush
  /// is in flight, in which case this thread runs the flush before
  /// returning. May throw sim::CrashError from a flush.
  Ticket submit(const pass::FlushUnit& unit);

  /// Durability barrier: every submit of this session is flushed (the
  /// daemon drains the shared queue, so causally earlier submits of other
  /// sessions ride along), and the first per-close failure since the last
  /// sync is reported (success if every ticket since then is durable).
  /// May throw sim::CrashError from the flush.
  BackendResult<void> sync();

  /// Read-your-writes read path. A pending (unsynced) submit of this
  /// session is served from the in-flight queue -- the submitted data,
  /// records and version, zero cloud calls; otherwise the backend read
  /// path answers, floored at the session's own last durable write (a
  /// stale replica cannot roll the session's view of its own writes
  /// backwards).
  BackendResult<ReadResult> read(const std::string& object,
                                 std::uint32_t max_retries = 64);

  /// This session's closes submitted but not yet durable (or failed).
  std::size_t pending() const;
  /// Closes submitted over the session's lifetime.
  std::uint64_t submitted() const { return next_ticket_id_ - 1; }

  const SessionConfig& config() const { return config_; }

 private:
  /// Absorb retired tickets: merge each flush group's timelines into the
  /// caller's by critical path, record the first error, drop them from the
  /// outstanding list.
  void reap();

  ProvenanceBackend& backend_;
  SessionConfig config_;
  std::size_t max_group_ = 1;  // effective (1 when no group commit)
  sim::LatencyLedger& ledger_;
  obs::Tracer& tracer_;
  obs::Histogram& close_latency_;
  bool named_client_track_ = false;
  std::shared_ptr<CommitDaemon> daemon_;
  std::uint64_t serial_ = 0;
  /// Submit-order tickets not yet reaped (retired prefix pending merge).
  std::vector<std::shared_ptr<TicketState>> outstanding_;
  /// Latest own write per object, for read-your-writes.
  std::map<std::string, std::shared_ptr<TicketState>> writes_;
  std::optional<BackendError> first_error_;
  std::uint64_t next_ticket_id_ = 1;
};

}  // namespace provcloud::cloudprov
