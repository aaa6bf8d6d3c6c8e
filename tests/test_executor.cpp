// The bounded scatter/gather executor: inline determinism at parallelism 1,
// full completion and exception propagation at parallelism N.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "util/executor.hpp"

namespace {

using provcloud::util::Executor;

TEST(ExecutorTest, SingleThreadRunsInlineInSubmissionOrder) {
  Executor ex(1);
  std::vector<int> order;
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 8; ++i)
    tasks.push_back([&order, i] { order.push_back(i); });
  ex.run_all(std::move(tasks));
  std::vector<int> expected(8);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(ExecutorTest, ZeroParallelismClampsToOne) {
  Executor ex(0);
  EXPECT_EQ(ex.parallelism(), 1u);
  int ran = 0;
  ex.run_all({[&ran] { ++ran; }});
  EXPECT_EQ(ran, 1);
}

TEST(ExecutorTest, ParallelRunsEveryTaskExactlyOnce) {
  Executor ex(4);
  constexpr int kTasks = 100;
  std::vector<std::atomic<int>> counts(kTasks);
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < kTasks; ++i)
    tasks.push_back([&counts, i] { ++counts[i]; });
  ex.run_all(std::move(tasks));
  for (int i = 0; i < kTasks; ++i) EXPECT_EQ(counts[i].load(), 1) << i;
}

TEST(ExecutorTest, IndexedSlotsGatherDeterministicResults) {
  // The scatter idiom: tasks write into index-addressed slots, so gathered
  // values are identical at any parallelism.
  const auto run = [](std::size_t parallelism) {
    Executor ex(parallelism);
    std::vector<int> out(64, 0);
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 64; ++i)
      tasks.push_back([&out, i] { out[static_cast<std::size_t>(i)] = i * i; });
    ex.run_all(std::move(tasks));
    return out;
  };
  EXPECT_EQ(run(1), run(4));
  EXPECT_EQ(run(1), run(8));
}

TEST(ExecutorTest, BoundedConcurrency) {
  constexpr std::size_t kParallelism = 3;
  Executor ex(kParallelism);
  std::atomic<int> running{0};
  std::atomic<int> peak{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 40; ++i) {
    tasks.push_back([&running, &peak] {
      const int now = ++running;
      int prev = peak.load();
      while (now > prev && !peak.compare_exchange_weak(prev, now)) {
      }
      --running;
    });
  }
  ex.run_all(std::move(tasks));
  EXPECT_LE(peak.load(), static_cast<int>(kParallelism));
  EXPECT_GE(peak.load(), 1);
}

TEST(ExecutorTest, FirstExceptionPropagatesAfterBatchCompletes) {
  for (const std::size_t parallelism : {std::size_t{1}, std::size_t{4}}) {
    Executor ex(parallelism);
    std::atomic<int> ran{0};
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 10; ++i) {
      tasks.push_back([&ran, i] {
        ++ran;
        if (i == 3) throw std::runtime_error("task 3 failed");
      });
    }
    EXPECT_THROW(ex.run_all(std::move(tasks)), std::runtime_error)
        << "parallelism " << parallelism;
    if (parallelism > 1) {
      EXPECT_EQ(ran.load(), 10);
    }
  }
}

TEST(ExecutorTest, ReusableAcrossBatches) {
  Executor ex(4);
  std::atomic<int> total{0};
  for (int batch = 0; batch < 20; ++batch) {
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 5; ++i) tasks.push_back([&total] { ++total; });
    ex.run_all(std::move(tasks));
  }
  EXPECT_EQ(total.load(), 100);
}

TEST(ExecutorTest, EmptyBatchIsANoOp) {
  Executor ex(4);
  ex.run_all({});
}

}  // namespace
