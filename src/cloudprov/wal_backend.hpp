// Architecture 3 (section 4.3): S3 + SimpleDB + SQS write-ahead logging.
//
// The client's SQS queue is a WAL (after Brantner et al.'s "Building a
// database on S3"). Close protocol (log phase):
//   1. read caches (the FlushUnit);
//   2. allocate a transaction id; enqueue a begin record with the record
//      count;
//   3. store the data under a *temporary* S3 name; enqueue a pointer record
//      tagged with the transaction id and a nonce;
//   4. enqueue the provenance in <= 8 KB chunks, plus an MD5(data || nonce)
//      record;
//   5. enqueue the commit record.
//
// commit_group runs these steps for every group through one send step: a
// lone close sends each record with its own SendMessage (the per-close
// protocol above, message for message); a larger group packs each record
// class into SendMessageBatch calls of up to 10.
//
// Txids are "tx-<incarnation>-<n>" (see txn.hpp): the incarnation, drawn
// once per WalBackend from the env's seeded stream, keeps a restarted
// client's transactions and temp objects apart from those its dead
// predecessor left in the same queue.
//
// A close is done once its commit record is in the queue. The commit daemon
// (pump) is a separate actor: the session's CommitDaemon runs it after every
// flush group on its own maintenance timeline, so no close waits for it. It
// watches ApproximateNumberOfMessages; past the threshold it runs a commit
// phase: repeated ReceiveMessage calls (SQS sampling can miss messages),
// then, for every complete transaction in (incarnation, n) order: COPY
// temp -> real name stamping the nonce metadata, PutAttributes the
// provenance (<= 100 attrs per call, > 1 KB values spilled to S3), delete
// the log records with DeleteMessageBatch (10 handles per call), DELETE the
// temp object. Every step is idempotent, so replay after a daemon crash is
// safe. Transactions without a commit record are never applied; SQS's 4-day
// retention garbage-collects their messages and the cleaner daemon removes
// their temp objects.
//
// The daemon keeps what it received of an incomplete transaction from one
// phase to the next, keyed by SQS message id, so a transaction whose
// messages arrive over two phases completes in the second instead of
// waiting out the visibility timeout. It also remembers, for one visibility
// timeout, the newest version it promoted per object: a transaction older
// than that is superseded even when every guard HEAD samples a stale
// replica. This memory lives in the daemon, not the cloud: a phase takes it
// at its start and stores it back at its end, so a crash inside a phase
// loses it, and the visibility timeout re-exposes the messages as before.
#pragma once

#include <map>
#include <mutex>
#include <vector>

#include "cloudprov/backend.hpp"
#include "cloudprov/domain_topology.hpp"
#include "cloudprov/txn.hpp"

namespace provcloud::cloudprov {

struct WalBackendConfig {
  std::string queue_name = "wal-client-0";
  /// Commit-daemon trigger: ApproximateNumberOfMessages threshold.
  std::uint64_t commit_threshold = 32;
  /// SimpleDB domains provenance items are hashed across. 1 keeps the
  /// original single-"provenance"-domain layout bit-identically.
  std::size_t shard_count = 1;
  /// Items per BatchPutAttributes when the commit daemon flushes a batch of
  /// transactions; 1 selects the legacy one-PutAttributes-per-chunk path.
  std::size_t batch_size = aws::kSdbMaxItemsPerBatch;
  /// Concurrent shard requests: the commit daemon flushes per-domain
  /// batches in parallel and read_many overlaps consistency rounds. 1 keeps
  /// every path sequential and deterministic.
  std::size_t parallelism = 1;
};

class WalBackend final : public ProvenanceBackend {
 public:
  WalBackend(CloudServices& services, WalBackendConfig config);

  Architecture architecture() const override {
    return Architecture::kS3SimpleDbSqs;
  }
  std::string name() const override { return "S3+SimpleDB+SQS"; }

  bool supports_group_commit() const override { return true; }
  /// The log phase for a group of closes, in one order: begins, temp PUTs,
  /// middles, then the sealing commits in submit order. A single-close
  /// group sends one SendMessage per record; a larger one rides
  /// SendMessageBatch calls (10 messages per round trip). The drain is not
  /// part of it: the session's commit daemon calls pump() once after every
  /// group.
  void commit_group(const std::vector<TicketState*>& group) override;
  BackendResult<ReadResult> read(const std::string& object,
                                 std::uint32_t max_retries = 64) override;
  BackendResult<std::vector<pass::ProvenanceRecord>> get_provenance(
      const std::string& object, std::uint32_t version) override;
  /// A BFS frontier in one Select per 20 ids of a shard domain
  /// (fetch_sdb_provenance_many).
  std::vector<BackendResult<std::vector<pass::ProvenanceRecord>>>
  get_provenance_many(const std::vector<pass::ObjectVersion>& ids) override;

  /// Client restart: just run the daemons -- the WAL replays committed
  /// transactions; uncommitted ones are ignored.
  void recover() override;

  /// One commit-daemon step (threshold-gated).
  void pump() override;

  /// Cleaner daemon: delete temp objects of uncommitted transactions older
  /// than the TTL (4 days, SQS's retention).
  void clean_temp_objects();

  PropertyClaims claims() const override {
    return PropertyClaims{.atomicity = true,
                          .consistency = true,
                          .causal_ordering = true,
                          .efficient_query = true};
  }

  const WalBackendConfig& config() const { return config_; }
  /// Transactions the commit daemon has fully processed (diagnostics).
  std::uint64_t committed_count() const {
    std::lock_guard<std::mutex> lock(phase_mu_);
    return committed_count_;
  }

 protected:
  /// A barrier: force commit phases while each one applies a transaction
  /// or folds in a message new to the daemon; after a phase without
  /// progress, wait out the visibility timeout (plus the daemon's wakeup)
  /// and try once more. Returns when that phase makes no progress either,
  /// or the queue is empty. Messages of uncommitted or partly deleted
  /// transactions stay for the retention to reap; a complete, committed
  /// transaction still unapplied then fails a PROVCLOUD_REQUIRE with the
  /// counts. Mutates the simulated clock.
  void do_quiesce() override;

 private:
  /// The commit daemon's memory between phases (see the header comment).
  struct DaemonMemory {
    struct Kept {
      WalTransaction txn;
      sim::SimTime last_receive = 0;  // clock time of its latest receive
    };
    struct Promoted {
      std::uint32_t version = 0;
      sim::SimTime at = 0;  // clock time of the COPY
    };
    /// Transactions not yet applied, in the order phases apply them.
    std::map<TxOrder, Kept> txns;
    /// The newest version this daemon promoted, by object.
    std::map<std::string, Promoted> promoted;
  };

  /// What one commit phase did, for quiesce()'s progress rule.
  struct PhaseOutcome {
    std::size_t folded = 0;     // messages new to the daemon
    std::size_t applied = 0;    // transactions applied
    std::size_t unapplied = 0;  // complete transactions deferred
    std::size_t kept = 0;       // transactions kept for a later phase
    bool progressed() const { return folded > 0 || applied > 0; }
  };

  /// A transaction whose S3 promotion is done and whose SimpleDB writes are
  /// coalesced, waiting for the batched flush.
  struct StagedTxn {
    TxOrder order;
    const WalTransaction* txn = nullptr;
    bool has_data = false;
    std::string domain;  // shard the item hashes to
    std::string item;
    std::vector<aws::SdbReplaceableAttribute> attributes;
  };

  PhaseOutcome commit_phase(bool forced);
  /// Per-transaction front half: COPY/supersede handling, spill PUTs, and
  /// the attribute encoding. nullopt defers the transaction to a later
  /// phase. `promoted` is the daemon's version memory: read for the
  /// ordering guard, updated by the COPY.
  std::optional<StagedTxn> prepare_transaction(
      const WalTransaction& txn,
      std::map<std::string, DaemonMemory::Promoted>& promoted);
  /// Write every staged transaction's attributes: BatchPutAttributes in
  /// batch_size groups per shard domain, the domains flushed concurrently
  /// on the topology's executor (batch_size == 1: the legacy PutAttributes
  /// chunk loop).
  void flush_staged(std::vector<StagedTxn>& staged);
  /// The back half after a successful flush: delete every staged
  /// transaction's WAL messages, 10 per DeleteMessageBatch, then their temp
  /// objects.
  void finish_staged(const std::vector<StagedTxn>& staged);

  WalBackendConfig config_;
  std::string queue_url_;
  /// Drawn once from the env's seeded stream; see make_txid.
  std::uint64_t incarnation_ = 0;
  std::uint64_t next_txid_ = 1;
  /// Runs commit phases one at a time: pump() runs on the maintenance
  /// actor's flushing thread, quiesce() and recover() on their caller's.
  mutable std::mutex phase_mu_;
  DaemonMemory memory_;  // guarded by phase_mu_
  std::uint64_t committed_count_ = 0;  // guarded by phase_mu_
};

}  // namespace provcloud::cloudprov
