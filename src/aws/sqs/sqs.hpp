// Amazon SQS simulator (January 2009 feature snapshot).
//
// A distributed message queue. Faithfully modelled quirks the paper's WAL
// architecture depends on:
//   * messages live on storage shards; one ReceiveMessage samples a subset
//     of shards and returns only messages found there -- "the clients need
//     to repeat these requests until they receive all the necessary
//     messages";
//   * a received message is hidden from other consumers for the visibility
//     timeout; if not deleted by then it becomes visible again (at-least-
//     once delivery, single processor at a time);
//   * 8 KB message size limit -> provenance must be chunked;
//   * messages older than 4 days are deleted automatically -- the paper uses
//     this as free garbage collection of uncommitted transactions;
//   * ApproximateNumberOfMessages is approximate (sampled);
//   * best-effort ordering only.
//
// Two calls go beyond that snapshot: SendMessageBatch and DeleteMessageBatch
// (10 entries per request, each entry failing on its own) arrived in 2011.
// The WAL uses them to log a group's records and to delete a commit phase's
// messages in fewer round trips.
//
// Simulator cost: a deleted message is erased at once, so send, receive,
// delete and count touch only the messages still live on the queue, never
// the queue's history.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

#include "aws/common/env.hpp"
#include "aws/common/errors.hpp"
#include "util/bytes.hpp"
#include "util/spinlock.hpp"

namespace provcloud::aws {

inline constexpr std::size_t kSqsMaxMessageBytes = 8 * util::kKiB;
inline constexpr std::size_t kSqsMaxReceiveBatch = 10;
inline constexpr std::size_t kSqsMaxSendBatch = 10;
inline constexpr std::size_t kSqsMaxDeleteBatch = 10;
inline constexpr sim::SimTime kSqsRetention = 4 * sim::kDay;
inline constexpr sim::SimTime kSqsDefaultVisibilityTimeout =
    30 * sim::kSecond;
/// Number of storage shards ("machines") a queue is spread over.
inline constexpr std::size_t kSqsShardsPerQueue = 8;

struct SqsMessage {
  std::string message_id;
  std::string receipt_handle;  // set on receive; changes per receive
  util::Bytes body;
};

/// One entry's failure inside a SendMessageBatch or DeleteMessageBatch call.
struct SqsBatchFailure {
  std::size_t index = 0;  // position in the submitted entries
  AwsError error;
};

/// Outcome of SendMessageBatch: per-entry message ids (empty string for a
/// failed entry) plus the failures, mirroring SimpleDB's BatchPutResult.
struct SqsSendBatchResult {
  std::vector<std::string> message_ids;
  std::vector<SqsBatchFailure> failed;
  bool ok() const { return failed.empty(); }
};

/// Outcome of DeleteMessageBatch: the entries that failed; every other
/// entry's message is gone.
struct SqsDeleteBatchResult {
  std::vector<SqsBatchFailure> failed;
  bool ok() const { return failed.empty(); }
};

class SqsService {
 public:
  explicit SqsService(CloudEnv& env) : env_(&env) {}
  SqsService(const SqsService&) = delete;
  SqsService& operator=(const SqsService&) = delete;

  /// Create a queue; returns its URL. Idempotent for the same name.
  AwsResult<std::string> create_queue(
      const std::string& name,
      sim::SimTime visibility_timeout = kSqsDefaultVisibilityTimeout);

  AwsResult<void> delete_queue(const std::string& url);

  /// Enqueue one message (Unicode text, at most 8 KB). Returns message id.
  AwsResult<std::string> send_message(const std::string& url,
                                      util::BytesView body);

  /// Enqueue up to 10 messages in one request. Entries are applied in
  /// order; an oversized entry fails individually (per-entry error) while
  /// the rest of the batch lands -- the same partial-failure contract as
  /// SimpleDB's BatchPutAttributes. More than 10 entries (or none) fails
  /// the whole call.
  AwsResult<SqsSendBatchResult> send_message_batch(
      const std::string& url, const std::vector<util::Bytes>& bodies);

  /// Receive up to max_messages (capped at 10) from a *sample* of shards.
  /// Returned messages become invisible until the visibility timeout
  /// elapses; delete them via their receipt handle before that.
  AwsResult<std::vector<SqsMessage>> receive_message(
      const std::string& url, std::size_t max_messages = 1,
      std::optional<sim::SimTime> visibility_timeout = std::nullopt);

  /// Delete a message by receipt handle. Deleting an already-deleted
  /// message succeeds (idempotent).
  AwsResult<void> delete_message(const std::string& url,
                                 const std::string& receipt_handle);

  /// Delete up to 10 messages by receipt handle in one request. A malformed
  /// handle fails its own entry while the rest are deleted -- the per-entry
  /// contract of SendMessageBatch -- and an already-deleted message
  /// succeeds. More than 10 entries (or none) fails the whole call.
  AwsResult<SqsDeleteBatchResult> delete_message_batch(
      const std::string& url, const std::vector<std::string>& receipt_handles);

  /// GetQueueAttributes:ApproximateNumberOfMessages -- sampled estimate.
  AwsResult<std::uint64_t> approximate_number_of_messages(
      const std::string& url);

  /// --- test/verification access (not billed) ---
  /// Exact number of live (visible or in-flight) messages.
  std::uint64_t exact_message_count(const std::string& url) const;
  std::uint64_t stored_bytes() const {
    return stored_bytes_.load(std::memory_order_relaxed);
  }

 private:
  struct StoredMessage {
    util::Bytes body;
    sim::SimTime sent_at = 0;
    sim::SimTime visible_at = 0;    // now >= visible_at -> deliverable
    std::uint64_t receipt_seq = 0;  // bumped every delivery
  };
  /// A shard's live messages keyed by message-id sequence number. Ids are
  /// issued under the queue lock, so key order is send order, and -- the
  /// clock never going back -- sent_at order too: receives walk the map
  /// front to back, deletes erase by key and retention pops the front.
  struct Shard {
    std::map<std::uint64_t, StoredMessage> messages;
  };
  struct Queue {
    std::string name;
    sim::SimTime visibility_timeout = kSqsDefaultVisibilityTimeout;
    std::vector<Shard> shards;
    /// Live bytes on this queue, maintained incrementally under `mu`.
    std::uint64_t queue_bytes = 0;
    /// Set by delete_queue (under `mu`) after the map entry is gone; a
    /// racing caller that already resolved the queue sees NoSuchQueue.
    bool erased = false;
    /// Per-queue lock: concurrent WAL clients each own a queue, so their
    /// send/receive/delete traffic runs truly in parallel while ops on one
    /// queue stay linearized -- the same granularity as SimpleDB's
    /// per-domain and S3's per-bucket locks.
    mutable std::mutex mu;
  };

  /// Queues live behind shared_ptr so a lookup stays valid across the
  /// unlocked window between resolving the queue and locking it: a
  /// concurrent delete_queue only drops the map reference, never the Queue
  /// a peer is about to lock.
  std::shared_ptr<Queue> find_queue(const std::string& url) const;
  /// Caller holds q.mu. Reaps retention-expired messages and publishes the
  /// reaped bytes.
  void expire_old(Queue& q);
  /// Caller holds q.mu. Stores one message on an RNG-drawn shard; returns
  /// its id.
  std::string enqueue(Queue& q, util::Bytes body);
  /// Caller holds q.mu. Erases the message a receipt handle names and
  /// returns the bytes it freed (0 when it is already gone); nullopt for a
  /// handle this queue cannot have issued.
  std::optional<std::uint64_t> erase_by_receipt(
      Queue& q, const std::string& receipt_handle);
  /// Fold a live-bytes change into the service-wide gauge + meter.
  void publish_gauge_delta(std::int64_t delta);

  /// message id encoding: "msg-<sequence number as 16 hex digits>".
  static std::string message_id(std::uint64_t seq);
  /// Inverse of message_id(); nullopt for anything it cannot have produced.
  static std::optional<std::uint64_t> parse_message_id(std::string_view id);
  /// receipt handle encoding: "<shard>:<message_id>:<receipt_seq>".
  static std::string make_receipt(std::size_t shard, const std::string& id,
                                  std::uint64_t seq);

  CloudEnv* env_;
  // Guards the queue map structure only (shared for the per-call lookup on
  // every request; exclusive for create/delete).
  mutable std::shared_mutex queues_mu_;
  std::map<std::string, std::shared_ptr<Queue>> queues_;  // by URL
  std::atomic<std::uint64_t> next_message_id_{1};
  /// Orders concurrent cross-queue gauge updates and their meter publish.
  util::Spinlock storage_gauge_mu_;
  std::atomic<std::uint64_t> stored_bytes_{0};
};

}  // namespace provcloud::aws
