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
// A close is done once its commit record is in the queue. The commit daemon
// (pump) is a separate actor: the session's CommitDaemon runs it after every
// flush group on its own maintenance timeline, so no close waits for it. It
// watches ApproximateNumberOfMessages; past the threshold it drains the
// queue with repeated ReceiveMessage calls (SQS sampling can miss messages),
// assembles complete transactions, and for each: COPY temp -> real name
// stamping the nonce metadata, PutAttributes the provenance (<= 100 attrs
// per call, > 1 KB values spilled to S3), DeleteMessage the log records,
// DELETE the temp object. Every step is idempotent, so replay after a daemon
// crash is safe. Transactions without a commit record are ignored; SQS's
// 4-day retention garbage-collects their messages and the cleaner daemon
// removes their temp objects.
#pragma once

#include <map>
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

  std::unique_ptr<Session> do_open_session(SessionConfig config) override;
  bool supports_group_commit() const override { return true; }
  /// The log phase for a group of closes, in one order: begins, temp PUTs,
  /// middles, then the sealing commits in submit order. A single-close
  /// group sends one SendMessage per record; a larger one rides
  /// SendMessageBatch calls (10 messages per round trip). The drain is not
  /// part of it: the session's commit daemon calls pump() once after every
  /// group.
  void commit_group(const std::vector<TicketState*>& group,
                    sim::LatencyLedger* ledger) override;
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
  std::shared_ptr<const DomainTopology> topology() const override {
    return topology_;
  }
  /// Transactions the commit daemon has fully processed (diagnostics).
  std::uint64_t committed_count() const { return committed_count_; }

 protected:
  /// Drain the WAL completely: force-pump and advance past visibility
  /// timeouts until the queue is empty. Mutates the simulated clock.
  void do_quiesce() override;

 private:
  /// A transaction whose S3 promotion is done and whose SimpleDB writes are
  /// coalesced, waiting for the batched flush.
  struct StagedTxn {
    const WalTransaction* txn = nullptr;
    bool has_data = false;
    std::string domain;  // shard the item hashes to
    std::string item;
    std::vector<aws::SdbReplaceableAttribute> attributes;
  };

  void commit_phase(bool forced);
  /// Per-transaction front half: COPY/supersede handling, spill PUTs, and
  /// the attribute encoding. nullopt defers the transaction to a later pump.
  std::optional<StagedTxn> prepare_transaction(const WalTransaction& txn);
  /// Write every staged transaction's attributes: BatchPutAttributes in
  /// batch_size groups per shard domain, the domains flushed concurrently
  /// on the topology's executor (batch_size == 1: the legacy PutAttributes
  /// chunk loop).
  void flush_staged(std::vector<StagedTxn>& staged);
  /// Per-transaction back half after a successful flush: delete the WAL
  /// messages, then the temp object.
  void finish_transaction(const StagedTxn& staged);

  CloudServices* services_;
  WalBackendConfig config_;
  std::shared_ptr<const DomainTopology> topology_;
  std::string queue_url_;
  std::uint64_t next_txid_ = 1;
  std::uint64_t committed_count_ = 0;
};

}  // namespace provcloud::cloudprov
