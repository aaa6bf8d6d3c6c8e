#include "aws/sqs/sqs.hpp"

#include <algorithm>
#include <charconv>

#include "util/hex.hpp"
#include "util/require.hpp"
#include "util/string_utils.hpp"

namespace provcloud::aws {

namespace {
constexpr const char* kService = "sqs";
}

std::shared_ptr<SqsService::Queue> SqsService::find_queue(
    const std::string& url) const {
  std::shared_lock<std::shared_mutex> lock(queues_mu_);
  auto it = queues_.find(url);
  return it == queues_.end() ? nullptr : it->second;
}

std::string SqsService::message_id(std::uint64_t seq) {
  return "msg-" + util::hex_u64(seq);
}

std::optional<std::uint64_t> SqsService::parse_message_id(std::string_view id) {
  const char* digits = id.data() + std::min<std::size_t>(4, id.size());
  std::uint64_t seq = 0;
  const auto parsed = std::from_chars(digits, id.data() + id.size(), seq, 16);
  if (parsed.ec != std::errc() || message_id(seq) != id) return std::nullopt;
  return seq;
}

std::string SqsService::make_receipt(std::size_t shard, const std::string& id,
                                     std::uint64_t seq) {
  return std::to_string(shard) + ":" + id + ":" + std::to_string(seq);
}

void SqsService::publish_gauge_delta(std::int64_t delta) {
  // Cross-queue writers share the gauge: fold the delta in and publish
  // under one lock so a slower thread cannot overwrite a newer total with
  // a stale one (the per-queue mutex orders writes within a queue only).
  std::lock_guard<util::Spinlock> gauge_lock(storage_gauge_mu_);
  stored_bytes_ += static_cast<std::uint64_t>(delta);
  env_->meter().set_storage(kService, stored_bytes_.load());
}

void SqsService::expire_old(Queue& q) {
  const sim::SimTime now = env_->clock().now();
  if (now < kSqsRetention) return;
  const sim::SimTime cutoff = now - kSqsRetention;
  std::uint64_t reaped = 0;
  for (Shard& shard : q.shards) {
    auto& messages = shard.messages;
    while (!messages.empty() && messages.begin()->second.sent_at < cutoff) {
      reaped += messages.begin()->second.body.size();
      messages.erase(messages.begin());
    }
  }
  if (reaped > 0) {
    q.queue_bytes -= reaped;
    publish_gauge_delta(-static_cast<std::int64_t>(reaped));
  }
}

std::string SqsService::enqueue(Queue& q, util::Bytes body) {
  const std::uint64_t seq =
      next_message_id_.fetch_add(1, std::memory_order_relaxed);
  StoredMessage m;
  m.body = std::move(body);
  m.sent_at = env_->clock().now();
  m.visible_at = m.sent_at;
  const std::size_t shard = env_->rng_below(q.shards.size());
  q.queue_bytes += m.body.size();
  auto& messages = q.shards[shard].messages;
  messages.emplace_hint(messages.end(), seq, std::move(m));
  return message_id(seq);
}

AwsResult<std::string> SqsService::create_queue(
    const std::string& name, sim::SimTime visibility_timeout) {
  const std::string url = "sqs://queue/" + name;
  env_->charge(kService, "CreateQueue", name.size(), 0, url);
  std::unique_lock<std::shared_mutex> lock(queues_mu_);
  if (queues_.find(url) == queues_.end()) {
    auto q = std::make_shared<Queue>();
    q->name = name;
    q->visibility_timeout = visibility_timeout;
    q->shards.resize(kSqsShardsPerQueue);
    queues_.emplace(url, std::move(q));
  }
  return url;
}

AwsResult<void> SqsService::delete_queue(const std::string& url) {
  env_->charge(kService, "DeleteQueue", 0, 0, url);
  std::shared_ptr<Queue> q;
  {
    std::unique_lock<std::shared_mutex> lock(queues_mu_);
    auto it = queues_.find(url);
    if (it == queues_.end()) return {};
    q = std::move(it->second);
    queues_.erase(it);
  }
  std::lock_guard<std::mutex> lock(q->mu);
  q->erased = true;  // racing holders of the old reference see NoSuchQueue
  if (q->queue_bytes > 0) {
    publish_gauge_delta(-static_cast<std::int64_t>(q->queue_bytes));
    q->queue_bytes = 0;
  }
  return {};
}

AwsResult<std::string> SqsService::send_message(const std::string& url,
                                                util::BytesView body) {
  env_->charge(kService, "SendMessage", body.size(), 0, url);
  std::shared_ptr<Queue> q = find_queue(url);
  if (q == nullptr) return aws_error(AwsErrorCode::kNoSuchQueue, url);
  std::lock_guard<std::mutex> lock(q->mu);
  if (q->erased) return aws_error(AwsErrorCode::kNoSuchQueue, url);
  if (body.size() > kSqsMaxMessageBytes)
    return aws_error(AwsErrorCode::kEntityTooLarge,
                     "message exceeds 8KB limit");
  expire_old(*q);
  std::string id = enqueue(*q, util::Bytes(body));
  publish_gauge_delta(static_cast<std::int64_t>(body.size()));
  return id;
}

AwsResult<SqsSendBatchResult> SqsService::send_message_batch(
    const std::string& url, const std::vector<util::Bytes>& bodies) {
  std::uint64_t bytes_in = 0;
  for (const util::Bytes& body : bodies) bytes_in += body.size();
  env_->charge(kService, "SendMessageBatch", bytes_in, 0, url);
  if (bodies.empty() || bodies.size() > kSqsMaxSendBatch)
    return aws_error(AwsErrorCode::kInvalidArgument,
                     "SendMessageBatch takes 1..10 entries, got " +
                         std::to_string(bodies.size()));
  std::shared_ptr<Queue> q = find_queue(url);
  if (q == nullptr) return aws_error(AwsErrorCode::kNoSuchQueue, url);
  std::lock_guard<std::mutex> lock(q->mu);
  if (q->erased) return aws_error(AwsErrorCode::kNoSuchQueue, url);
  expire_old(*q);

  SqsSendBatchResult result;
  result.message_ids.reserve(bodies.size());
  std::uint64_t added_bytes = 0;
  for (std::size_t i = 0; i < bodies.size(); ++i) {
    const util::Bytes& body = bodies[i];
    if (body.size() > kSqsMaxMessageBytes) {
      result.message_ids.emplace_back();
      result.failed.push_back(SqsBatchFailure{
          i, AwsError{AwsErrorCode::kEntityTooLarge,
                      "batch entry exceeds 8KB limit"}});
      continue;
    }
    added_bytes += body.size();
    result.message_ids.push_back(enqueue(*q, body));
  }
  if (added_bytes > 0)
    publish_gauge_delta(static_cast<std::int64_t>(added_bytes));
  return result;
}

AwsResult<std::vector<SqsMessage>> SqsService::receive_message(
    const std::string& url, std::size_t max_messages,
    std::optional<sim::SimTime> visibility_timeout) {
  std::shared_ptr<Queue> q = find_queue(url);
  if (q == nullptr) {
    env_->charge(kService, "ReceiveMessage", 0, 0, url);
    return aws_error(AwsErrorCode::kNoSuchQueue, url);
  }
  std::unique_lock<std::mutex> lock(q->mu);
  if (q->erased) {
    lock.unlock();
    env_->charge(kService, "ReceiveMessage", 0, 0, url);
    return aws_error(AwsErrorCode::kNoSuchQueue, url);
  }
  expire_old(*q);
  max_messages = std::min(std::max<std::size_t>(1, max_messages),
                          kSqsMaxReceiveBatch);
  const sim::SimTime timeout =
      visibility_timeout.value_or(q->visibility_timeout);
  const sim::SimTime now = env_->clock().now();

  // Sample a subset of shards: this is the eventual-consistency behaviour
  // the paper describes -- a single receive can miss messages that exist.
  const double fraction = env_->consistency().sqs_sample_fraction;
  std::size_t sample_count = static_cast<std::size_t>(
      static_cast<double>(q->shards.size()) * fraction + 0.5);
  sample_count = std::clamp<std::size_t>(sample_count, 1, q->shards.size());
  std::vector<std::size_t> shard_order(q->shards.size());
  for (std::size_t i = 0; i < shard_order.size(); ++i) shard_order[i] = i;
  // Partial Fisher-Yates for the sampled prefix.
  for (std::size_t i = 0; i < sample_count; ++i) {
    const std::size_t j =
        i + env_->rng_below(shard_order.size() - i);
    std::swap(shard_order[i], shard_order[j]);
  }

  std::vector<SqsMessage> out;
  std::uint64_t bytes_out = 0;
  for (std::size_t s = 0; s < sample_count && out.size() < max_messages; ++s) {
    Shard& shard = q->shards[shard_order[s]];
    for (auto& [seq, m] : shard.messages) {
      if (out.size() >= max_messages) break;
      if (m.visible_at > now) continue;
      m.visible_at = now + timeout;  // hide from other consumers
      ++m.receipt_seq;
      SqsMessage delivered;
      delivered.message_id = message_id(seq);
      delivered.receipt_handle =
          make_receipt(shard_order[s], delivered.message_id, m.receipt_seq);
      delivered.body = m.body;
      bytes_out += m.body.size();
      out.push_back(std::move(delivered));
    }
  }
  lock.unlock();
  env_->charge(kService, "ReceiveMessage", 0, bytes_out, url);
  return out;
}

AwsResult<void> SqsService::delete_message(const std::string& url,
                                           const std::string& receipt_handle) {
  env_->charge(kService, "DeleteMessage", receipt_handle.size(), 0, url);
  std::shared_ptr<Queue> q = find_queue(url);
  if (q == nullptr) return aws_error(AwsErrorCode::kNoSuchQueue, url);
  std::lock_guard<std::mutex> lock(q->mu);
  if (q->erased) return aws_error(AwsErrorCode::kNoSuchQueue, url);
  const std::vector<std::string> parts = util::split(receipt_handle, ':');
  if (parts.size() != 3)
    return aws_error(AwsErrorCode::kInvalidReceiptHandle, receipt_handle);
  std::size_t shard_idx = 0;
  try {
    shard_idx = std::stoul(parts[0]);
  } catch (...) {
    return aws_error(AwsErrorCode::kInvalidReceiptHandle, receipt_handle);
  }
  if (shard_idx >= q->shards.size())
    return aws_error(AwsErrorCode::kInvalidReceiptHandle, receipt_handle);
  auto& messages = q->shards[shard_idx].messages;
  const std::optional<std::uint64_t> seq = parse_message_id(parts[1]);
  const auto it = seq ? messages.find(*seq) : messages.end();
  if (it == messages.end()) return {};  // already gone: idempotent
  const std::uint64_t bytes = it->second.body.size();
  messages.erase(it);
  q->queue_bytes -= bytes;
  publish_gauge_delta(-static_cast<std::int64_t>(bytes));
  return {};
}

AwsResult<std::uint64_t> SqsService::approximate_number_of_messages(
    const std::string& url) {
  env_->charge(kService, "GetQueueAttributes", 0, sizeof(std::uint64_t), url);
  std::shared_ptr<Queue> q = find_queue(url);
  if (q == nullptr) return aws_error(AwsErrorCode::kNoSuchQueue, url);
  std::lock_guard<std::mutex> lock(q->mu);
  if (q->erased) return aws_error(AwsErrorCode::kNoSuchQueue, url);
  expire_old(*q);

  // Sample a subset of shards and scale up -- an *approximation*, exactly
  // what the API name promises.
  const double fraction = env_->consistency().sqs_sample_fraction;
  std::size_t sample_count = static_cast<std::size_t>(
      static_cast<double>(q->shards.size()) * fraction + 0.5);
  sample_count = std::clamp<std::size_t>(sample_count, 1, q->shards.size());
  std::vector<std::size_t> shard_order(q->shards.size());
  for (std::size_t i = 0; i < shard_order.size(); ++i) shard_order[i] = i;
  for (std::size_t i = 0; i < sample_count; ++i) {
    const std::size_t j = i + env_->rng_below(shard_order.size() - i);
    std::swap(shard_order[i], shard_order[j]);
  }
  std::uint64_t sampled = 0;
  for (std::size_t s = 0; s < sample_count; ++s)
    sampled += q->shards[shard_order[s]].messages.size();
  const double scale =
      static_cast<double>(q->shards.size()) / static_cast<double>(sample_count);
  return static_cast<std::uint64_t>(static_cast<double>(sampled) * scale + 0.5);
}

std::uint64_t SqsService::exact_message_count(const std::string& url) const {
  const std::shared_ptr<Queue> q = find_queue(url);
  if (q == nullptr) return 0;
  std::lock_guard<std::mutex> lock(q->mu);
  std::uint64_t n = 0;
  for (const Shard& shard : q->shards) n += shard.messages.size();
  return n;
}

}  // namespace provcloud::aws
