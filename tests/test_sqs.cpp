// SQS simulator: sampling receives, visibility timeout, retention, limits
// (section 2.3 of the paper).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "aws/common/env.hpp"
#include "aws/sqs/sqs.hpp"

namespace {

using namespace provcloud::aws;
namespace sim = provcloud::sim;

class SqsTest : public ::testing::Test {
 protected:
  SqsTest() : env_(1, ConsistencyConfig::strong()), sqs_(env_) {
    auto url = sqs_.create_queue("wal");
    EXPECT_TRUE(url.has_value());
    url_ = *url;
  }
  CloudEnv env_;
  SqsService sqs_;
  std::string url_;
};

TEST_F(SqsTest, CreateQueueReturnsStableUrl) {
  auto again = sqs_.create_queue("wal");
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(*again, url_);
}

TEST_F(SqsTest, SendReceiveDeleteLifecycle) {
  auto id = sqs_.send_message(url_, "hello");
  ASSERT_TRUE(id.has_value());
  auto batch = sqs_.receive_message(url_, 10);
  ASSERT_TRUE(batch.has_value());
  ASSERT_EQ(batch->size(), 1u);
  EXPECT_EQ((*batch)[0].body, "hello");
  EXPECT_EQ((*batch)[0].message_id, *id);
  ASSERT_TRUE(sqs_.delete_message(url_, (*batch)[0].receipt_handle).has_value());
  EXPECT_EQ(sqs_.exact_message_count(url_), 0u);
}

TEST_F(SqsTest, MessageOverEightKbRejected) {
  auto send = sqs_.send_message(url_, std::string(8 * 1024 + 1, 'x'));
  ASSERT_FALSE(send.has_value());
  EXPECT_EQ(send.error().code, AwsErrorCode::kEntityTooLarge);
  EXPECT_TRUE(sqs_.send_message(url_, std::string(8 * 1024, 'x')).has_value());
}

TEST_F(SqsTest, ReceiveCapAtTen) {
  for (int i = 0; i < 30; ++i)
    ASSERT_TRUE(sqs_.send_message(url_, "m" + std::to_string(i)).has_value());
  auto batch = sqs_.receive_message(url_, 25);
  ASSERT_TRUE(batch.has_value());
  EXPECT_LE(batch->size(), 10u);
}

TEST_F(SqsTest, ReceivedMessageIsInvisibleUntilTimeout) {
  ASSERT_TRUE(sqs_.send_message(url_, "only").has_value());
  auto first = sqs_.receive_message(url_, 10);
  ASSERT_TRUE(first.has_value());
  ASSERT_EQ(first->size(), 1u);
  // Invisible now ("SQS blocks the message from other clients").
  for (int i = 0; i < 20; ++i) {
    auto again = sqs_.receive_message(url_, 10);
    ASSERT_TRUE(again.has_value());
    EXPECT_TRUE(again->empty());
  }
  // After the visibility timeout it reappears.
  env_.clock().advance_by(kSqsDefaultVisibilityTimeout + sim::kSecond);
  auto after = sqs_.receive_message(url_, 10);
  ASSERT_TRUE(after.has_value());
  ASSERT_EQ(after->size(), 1u);
  // The receipt handle changed with the redelivery.
  EXPECT_NE((*after)[0].receipt_handle, (*first)[0].receipt_handle);
}

TEST_F(SqsTest, CustomVisibilityTimeoutOnReceive) {
  ASSERT_TRUE(sqs_.send_message(url_, "m").has_value());
  auto got = sqs_.receive_message(url_, 10, 5 * sim::kSecond);
  ASSERT_TRUE(got.has_value());
  ASSERT_EQ(got->size(), 1u);
  env_.clock().advance_by(6 * sim::kSecond);
  auto again = sqs_.receive_message(url_, 10);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->size(), 1u);
}

TEST_F(SqsTest, DeleteWithStaleHandleStillDeletes) {
  ASSERT_TRUE(sqs_.send_message(url_, "m").has_value());
  auto first = sqs_.receive_message(url_, 10);
  ASSERT_EQ(first->size(), 1u);
  env_.clock().advance_by(kSqsDefaultVisibilityTimeout + sim::kSecond);
  auto second = sqs_.receive_message(url_, 10);
  ASSERT_EQ(second->size(), 1u);
  // The first (stale) handle still identifies the message.
  ASSERT_TRUE(sqs_.delete_message(url_, (*first)[0].receipt_handle).has_value());
  EXPECT_EQ(sqs_.exact_message_count(url_), 0u);
}

TEST_F(SqsTest, DeleteIsIdempotent) {
  ASSERT_TRUE(sqs_.send_message(url_, "m").has_value());
  auto got = sqs_.receive_message(url_, 10);
  ASSERT_EQ(got->size(), 1u);
  const std::string handle = (*got)[0].receipt_handle;
  ASSERT_TRUE(sqs_.delete_message(url_, handle).has_value());
  ASSERT_TRUE(sqs_.delete_message(url_, handle).has_value());
}

TEST_F(SqsTest, MalformedHandleRejected) {
  auto del = sqs_.delete_message(url_, "not-a-handle");
  ASSERT_FALSE(del.has_value());
  EXPECT_EQ(del.error().code, AwsErrorCode::kInvalidReceiptHandle);
}

TEST_F(SqsTest, MissingQueueErrors) {
  auto send = sqs_.send_message("sqs://queue/nope", "m");
  ASSERT_FALSE(send.has_value());
  EXPECT_EQ(send.error().code, AwsErrorCode::kNoSuchQueue);
}

TEST_F(SqsTest, RetentionDeletesAfterFourDays) {
  ASSERT_TRUE(sqs_.send_message(url_, "doomed").has_value());
  env_.clock().advance_by(3 * sim::kDay);
  ASSERT_TRUE(sqs_.send_message(url_, "young").has_value());
  env_.clock().advance_by(sim::kDay + sim::kHour);
  // "doomed" is now > 4 days old; "young" is ~1 day old.
  std::set<std::string> seen;
  for (int i = 0; i < 50; ++i) {
    auto got = sqs_.receive_message(url_, 10, 0);
    ASSERT_TRUE(got.has_value());
    for (const auto& m : *got) seen.insert(std::string(m.body));
  }
  EXPECT_EQ(seen.count("doomed"), 0u);
  EXPECT_EQ(seen.count("young"), 1u);
}

TEST_F(SqsTest, ApproximateCountExactUnderStrongConfig) {
  for (int i = 0; i < 12; ++i)
    ASSERT_TRUE(sqs_.send_message(url_, "m").has_value());
  auto approx = sqs_.approximate_number_of_messages(url_);
  ASSERT_TRUE(approx.has_value());
  EXPECT_EQ(*approx, 12u);
}

TEST_F(SqsTest, BillingCountsOps) {
  const auto before = env_.meter().snapshot();
  ASSERT_TRUE(sqs_.send_message(url_, "12345").has_value());
  auto got = sqs_.receive_message(url_, 1);
  ASSERT_TRUE(got.has_value());
  const auto diff = env_.meter().snapshot().diff(before);
  EXPECT_EQ(diff.calls("sqs", "SendMessage"), 1u);
  EXPECT_EQ(diff.bytes_in("sqs", "SendMessage"), 5u);
  EXPECT_EQ(diff.calls("sqs", "ReceiveMessage"), 1u);
  EXPECT_EQ(diff.bytes_out("sqs", "ReceiveMessage"), 5u);
}

TEST_F(SqsTest, PerQueueDetailMetering) {
  const std::string other = *sqs_.create_queue("wal-other");
  ASSERT_TRUE(sqs_.send_message(url_, "aa").has_value());
  ASSERT_TRUE(sqs_.send_message(url_, "bb").has_value());
  ASSERT_TRUE(sqs_.send_message(other, "cc").has_value());
  const auto snap = env_.meter().snapshot();
  EXPECT_EQ(snap.detail_calls("sqs", url_) +
                snap.detail_calls("sqs", other),
            snap.calls("sqs"));
  EXPECT_GE(snap.detail_calls("sqs", url_), 2u);
  EXPECT_GE(snap.detail_calls("sqs", other), 1u);
}

TEST_F(SqsTest, ConcurrentClientsOnDistinctQueues) {
  // Per-queue locks: one WAL client per queue, all sending/receiving/
  // deleting concurrently. Totals must come out exact (TSan covers the
  // synchronization; this covers the arithmetic).
  constexpr int kClients = 4;
  constexpr int kMessages = 32;
  std::vector<std::string> urls;
  for (int c = 0; c < kClients; ++c)
    urls.push_back(*sqs_.create_queue("wal-client-" + std::to_string(c)));
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([this, &urls, c] {
      for (int i = 0; i < kMessages; ++i)
        ASSERT_TRUE(sqs_.send_message(urls[c], "payload").has_value());
      // Drain half of what this client can see.
      for (int i = 0; i < kMessages / 2; ++i) {
        auto got = sqs_.receive_message(urls[c], 1);
        ASSERT_TRUE(got.has_value());
        for (const auto& m : *got)
          ASSERT_TRUE(sqs_.delete_message(urls[c], m.receipt_handle)
                          .has_value());
      }
    });
  }
  for (std::thread& t : clients) t.join();
  std::uint64_t live = 0;
  for (const std::string& url : urls) live += sqs_.exact_message_count(url);
  EXPECT_EQ(live, static_cast<std::uint64_t>(kClients * kMessages / 2));
  EXPECT_EQ(sqs_.stored_bytes(), live * std::string("payload").size());
}

TEST_F(SqsTest, DeleteQueueReleasesStorageAndInvalidatesQueue) {
  ASSERT_TRUE(sqs_.send_message(url_, std::string(64, 'x')).has_value());
  EXPECT_EQ(sqs_.stored_bytes(), 64u);
  ASSERT_TRUE(sqs_.delete_queue(url_).has_value());
  EXPECT_EQ(sqs_.stored_bytes(), 0u);
  auto sent = sqs_.send_message(url_, "late");
  ASSERT_FALSE(sent.has_value());
  EXPECT_EQ(sent.error().code, AwsErrorCode::kNoSuchQueue);
  EXPECT_EQ(sqs_.stored_bytes(), 0u);  // a late send cannot leak the gauge
}

// The shard a receipt handle names ("<shard>:<message_id>:<receipt_seq>").
std::size_t receipt_shard(const std::string& handle) {
  return std::stoul(handle.substr(0, handle.find(':')));
}

TEST_F(SqsTest, DeletedMessagesLeaveOnlySurvivorsInSendOrder) {
  constexpr int kMessages = 60;
  std::vector<std::string> ids;
  for (int i = 0; i < kMessages; ++i)
    ids.push_back(*sqs_.send_message(url_, std::string(1 + i, 'm')));
  std::map<std::string, std::string> receipts;  // message id -> handle
  while (receipts.size() < ids.size()) {
    auto got = sqs_.receive_message(url_, 10);
    ASSERT_TRUE(got.has_value());
    ASSERT_FALSE(got->empty());
    for (const auto& m : *got) receipts[m.message_id] = m.receipt_handle;
  }
  std::map<std::string, int> survivors;  // message id -> send index
  std::uint64_t survivor_bytes = 0;
  for (int i = 0; i < kMessages; ++i) {
    if (i % 2 == 0) {
      ASSERT_TRUE(sqs_.delete_message(url_, receipts.at(ids[i])).has_value());
    } else {
      survivors[ids[i]] = i;
      survivor_bytes += static_cast<std::uint64_t>(1 + i);
    }
  }
  EXPECT_EQ(sqs_.exact_message_count(url_), survivors.size());
  EXPECT_EQ(*sqs_.approximate_number_of_messages(url_), survivors.size());
  EXPECT_EQ(sqs_.stored_bytes(), survivor_bytes);

  // Once visible again, receives return exactly the survivors, each shard's
  // in the order they were sent.
  env_.clock().advance_by(kSqsDefaultVisibilityTimeout + sim::kSecond);
  std::map<std::size_t, std::vector<int>> per_shard;  // shard -> send indices
  std::size_t delivered = 0;
  for (;;) {
    auto got = sqs_.receive_message(url_, 10);
    ASSERT_TRUE(got.has_value());
    if (got->empty()) break;
    for (const auto& m : *got) {
      ASSERT_EQ(survivors.count(m.message_id), 1u) << m.message_id;
      per_shard[receipt_shard(m.receipt_handle)].push_back(
          survivors.at(m.message_id));
      ++delivered;
    }
  }
  EXPECT_EQ(delivered, survivors.size());
  for (const auto& [shard, order] : per_shard)
    EXPECT_TRUE(std::is_sorted(order.begin(), order.end())) << shard;
}

TEST_F(SqsTest, StorageGaugeTracksBodies) {
  ASSERT_TRUE(sqs_.send_message(url_, std::string(100, 'a')).has_value());
  ASSERT_TRUE(sqs_.send_message(url_, std::string(50, 'b')).has_value());
  EXPECT_EQ(sqs_.stored_bytes(), 150u);
  auto got = sqs_.receive_message(url_, 1);
  ASSERT_EQ(got->size(), 1u);
  ASSERT_TRUE(sqs_.delete_message(url_, (*got)[0].receipt_handle).has_value());
  EXPECT_TRUE(sqs_.stored_bytes() == 100u || sqs_.stored_bytes() == 50u);
}

// --- DeleteMessageBatch ---

/// Sends `n` messages and receives them all; returns their receipt handles.
std::vector<std::string> received_handles(SqsService& sqs,
                                          const std::string& url, int n) {
  for (int i = 0; i < n; ++i)
    EXPECT_TRUE(sqs.send_message(url, "m" + std::to_string(i)).has_value());
  std::vector<std::string> handles;
  while (handles.size() < static_cast<std::size_t>(n)) {
    auto got = sqs.receive_message(url, 10);
    EXPECT_TRUE(got.has_value() && !got->empty());
    if (!got.has_value() || got->empty()) break;
    for (const auto& m : *got) handles.push_back(m.receipt_handle);
  }
  return handles;
}

TEST_F(SqsTest, DeleteBatchTakesOneToTenEntries) {
  const std::vector<std::string> handles = received_handles(sqs_, url_, 11);
  ASSERT_EQ(handles.size(), 11u);
  for (const std::vector<std::string>& bad :
       {std::vector<std::string>{}, handles}) {
    auto del = sqs_.delete_message_batch(url_, bad);
    ASSERT_FALSE(del.has_value()) << bad.size();
    EXPECT_EQ(del.error().code, AwsErrorCode::kInvalidArgument);
  }
  EXPECT_EQ(sqs_.exact_message_count(url_), 11u);  // a failed call deletes none

  auto ten = sqs_.delete_message_batch(
      url_, std::vector<std::string>(handles.begin(), handles.begin() + 10));
  ASSERT_TRUE(ten.has_value());
  EXPECT_TRUE(ten->ok());
  auto one = sqs_.delete_message_batch(url_, {handles.back()});
  ASSERT_TRUE(one.has_value());
  EXPECT_TRUE(one->ok());
  EXPECT_EQ(sqs_.exact_message_count(url_), 0u);
  EXPECT_EQ(sqs_.stored_bytes(), 0u);
}

TEST_F(SqsTest, DeleteBatchMalformedHandleFailsOnlyItsEntry) {
  const std::vector<std::string> handles = received_handles(sqs_, url_, 2);
  ASSERT_EQ(handles.size(), 2u);
  auto del = sqs_.delete_message_batch(
      url_, {handles[0], "not-a-handle", "99:msg-1:1", handles[1]});
  ASSERT_TRUE(del.has_value());
  ASSERT_EQ(del->failed.size(), 2u);
  EXPECT_EQ(del->failed[0].index, 1u);
  EXPECT_EQ(del->failed[0].error.code, AwsErrorCode::kInvalidReceiptHandle);
  EXPECT_EQ(del->failed[1].index, 2u);
  EXPECT_EQ(del->failed[1].error.code, AwsErrorCode::kInvalidReceiptHandle);
  EXPECT_EQ(sqs_.exact_message_count(url_), 0u);  // the good entries landed
}

TEST_F(SqsTest, DeleteBatchOfDeletedMessagesSucceeds) {
  const std::vector<std::string> handles = received_handles(sqs_, url_, 3);
  ASSERT_EQ(handles.size(), 3u);
  ASSERT_TRUE(sqs_.delete_message(url_, handles[0]).has_value());
  auto first = sqs_.delete_message_batch(url_, handles);
  ASSERT_TRUE(first.has_value());
  EXPECT_TRUE(first->ok());
  auto again = sqs_.delete_message_batch(url_, handles);
  ASSERT_TRUE(again.has_value());
  EXPECT_TRUE(again->ok());
  EXPECT_EQ(sqs_.exact_message_count(url_), 0u);
}

TEST_F(SqsTest, DeleteBatchBilledAsOneRequest) {
  const std::vector<std::string> handles = received_handles(sqs_, url_, 7);
  ASSERT_EQ(handles.size(), 7u);
  std::uint64_t handle_bytes = 0;
  for (const std::string& h : handles) handle_bytes += h.size();
  const auto before = env_.meter().snapshot();
  ASSERT_TRUE(sqs_.delete_message_batch(url_, handles).has_value());
  ASSERT_FALSE(sqs_.delete_message_batch(url_, {}).has_value());
  const auto diff = env_.meter().snapshot().diff(before);
  EXPECT_EQ(diff.calls("sqs", "DeleteMessageBatch"), 2u);  // a refused call too
  EXPECT_EQ(diff.calls("sqs", "DeleteMessage"), 0u);
  EXPECT_EQ(diff.calls("sqs"), 2u);
  EXPECT_EQ(diff.bytes_in("sqs", "DeleteMessageBatch"), handle_bytes);
}

// --- sampling (eventual consistency) ---

class SqsSamplingTest : public ::testing::Test {
 protected:
  static ConsistencyConfig sampling() {
    ConsistencyConfig c = ConsistencyConfig::strong();
    c.sqs_sample_fraction = 0.25;  // 2 of 8 shards per receive
    return c;
  }
  SqsSamplingTest() : env_(7, sampling()), sqs_(env_) {
    url_ = *sqs_.create_queue("wal");
  }
  CloudEnv env_;
  SqsService sqs_;
  std::string url_;
};

TEST_F(SqsSamplingTest, SingleReceiveCanMissMessages) {
  for (int i = 0; i < 16; ++i)
    ASSERT_TRUE(sqs_.send_message(url_, "m" + std::to_string(i)).has_value());
  // One receive samples a shard subset: it cannot return all 16.
  bool missed_something = false;
  auto got = sqs_.receive_message(url_, 10, 0);
  ASSERT_TRUE(got.has_value());
  if (got->size() < 16) missed_something = true;
  EXPECT_TRUE(missed_something);
}

TEST_F(SqsSamplingTest, RepeatedReceivesEventuallySeeEverything) {
  // "The clients need to repeat these requests until they receive all the
  // necessary messages."
  std::set<std::string> sent;
  for (int i = 0; i < 16; ++i) {
    const std::string body = "m" + std::to_string(i);
    sent.insert(body);
    ASSERT_TRUE(sqs_.send_message(url_, body).has_value());
  }
  std::set<std::string> seen;
  for (int round = 0; round < 200 && seen.size() < sent.size(); ++round) {
    auto got = sqs_.receive_message(url_, 10, 0);  // zero visibility timeout
    ASSERT_TRUE(got.has_value());
    for (const auto& m : *got) seen.insert(std::string(m.body));
  }
  EXPECT_EQ(seen, sent);
}

TEST_F(SqsSamplingTest, SeededScriptDeliversPinnedSequence) {
  // A fixed script of sends, sampled receives and deletes, with redelivery
  // after the visibility timeout. The delivered sequence pins delivery
  // order and every RNG draw (shard placement and shard sampling).
  std::vector<std::uint64_t> delivered;  // message-id sequence numbers
  int receives = 0;
  for (int round = 0; round < 12; ++round) {
    for (int i = 0; i < 5; ++i)
      ASSERT_TRUE(sqs_.send_message(url_, "r" + std::to_string(round) + "." +
                                              std::to_string(i))
                      .has_value());
    auto got = sqs_.receive_message(url_, 4, 20 * sim::kSecond);
    ASSERT_TRUE(got.has_value());
    for (const auto& m : *got) {
      delivered.push_back(std::stoull(m.message_id.substr(4), nullptr, 16));
      if (receives++ % 3 != 0) {
        ASSERT_TRUE(sqs_.delete_message(url_, m.receipt_handle).has_value());
      }
    }
    if (round % 4 == 3) {
      ASSERT_TRUE(sqs_.approximate_number_of_messages(url_).has_value());
    }
    env_.clock().advance_by(15 * sim::kSecond);
  }
  const std::vector<std::uint64_t> pinned = {
      2,  4,  7,  10, 9,  1,  13, 14, 15, 3,  11, 16, 22, 10,
      17, 19, 21, 2,  12, 26, 32, 5,  6,  33, 38, 8,  20, 25,
      36, 22, 23, 37, 44, 3,  50, 54, 25, 5,  38, 42, 45};
  EXPECT_EQ(delivered, pinned);
}

TEST_F(SqsSamplingTest, ApproximateCountIsApproximate) {
  for (int i = 0; i < 64; ++i)
    ASSERT_TRUE(sqs_.send_message(url_, "m").has_value());
  // Sampled estimate: scaled up from a shard subset, so it hovers around
  // the truth without being reliably exact.
  std::uint64_t min_seen = UINT64_MAX, max_seen = 0;
  for (int i = 0; i < 50; ++i) {
    auto approx = sqs_.approximate_number_of_messages(url_);
    ASSERT_TRUE(approx.has_value());
    min_seen = std::min(min_seen, *approx);
    max_seen = std::max(max_seen, *approx);
  }
  EXPECT_GT(max_seen, 0u);
  EXPECT_NE(min_seen, max_seen);  // it wobbles: sampled, not exact
  EXPECT_GT(max_seen, 32u);       // but lands in the right ballpark
  EXPECT_LT(min_seen, 128u);
}

}  // namespace
