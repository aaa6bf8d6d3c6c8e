// The million-client front door: service-side 503 throttling in the cloud
// fabric (backoff math, the charge() gate, billing bit-identity), the
// per-tenant capacity model, the Frontend admission controller, and the
// open-loop workload generators that drive the frontend benches.
#include <gtest/gtest.h>

#include <thread>

#include "cloudprov/frontend/frontend.hpp"
#include "cloudprov/session.hpp"
#include "util/require.hpp"
#include "workloads/openloop.hpp"

namespace {

using namespace provcloud::cloudprov;
using namespace provcloud::pass;
using namespace provcloud::workloads;
namespace aws = provcloud::aws;
namespace sim = provcloud::sim;
namespace util = provcloud::util;

FlushUnit file_unit(const std::string& object, std::uint32_t version,
                    const std::string& data) {
  FlushUnit u;
  u.object = object;
  u.version = version;
  u.kind = PnodeKind::kFile;
  u.data = util::make_shared_bytes(data);
  u.records = {make_text_record("TYPE", "file"),
               make_text_record("NAME", object)};
  return u;
}

// --- backoff math (pure function) ---

TEST(ThrottleBackoffTest, DoublesUpToTheCap) {
  aws::ThrottleConfig cfg;
  cfg.backoff_base = 10 * sim::kMillisecond;
  cfg.backoff_cap = 1 * sim::kSecond;
  // Zero jitter draw pins the result to the lower "equal jitter" edge:
  // exactly half the pre-jitter delay.
  EXPECT_EQ(aws::throttle_backoff_delay(1, cfg, 0), 5 * sim::kMillisecond);
  EXPECT_EQ(aws::throttle_backoff_delay(2, cfg, 0), 10 * sim::kMillisecond);
  EXPECT_EQ(aws::throttle_backoff_delay(3, cfg, 0), 20 * sim::kMillisecond);
  // 10ms * 2^7 = 1.28s saturates at the 1s cap; so does every later retry.
  EXPECT_EQ(aws::throttle_backoff_delay(8, cfg, 0), 500 * sim::kMillisecond);
  EXPECT_EQ(aws::throttle_backoff_delay(40, cfg, 0), 500 * sim::kMillisecond);
  // Attempt 0 is treated as the first retry.
  EXPECT_EQ(aws::throttle_backoff_delay(0, cfg, 0),
            aws::throttle_backoff_delay(1, cfg, 0));
}

TEST(ThrottleBackoffTest, EqualJitterStaysWithinTheWindow) {
  aws::ThrottleConfig cfg;
  cfg.backoff_base = 10 * sim::kMillisecond;
  cfg.backoff_cap = 1 * sim::kSecond;
  util::Rng rng(99);
  for (std::uint32_t attempt = 1; attempt <= 10; ++attempt) {
    const sim::SimTime full = std::min<sim::SimTime>(
        cfg.backoff_base << (attempt - 1), cfg.backoff_cap);
    for (int i = 0; i < 32; ++i) {
      const std::uint64_t draw = rng.next_u64();
      const sim::SimTime d = aws::throttle_backoff_delay(attempt, cfg, draw);
      EXPECT_GE(d, full / 2) << "attempt " << attempt;
      EXPECT_LE(d, full) << "attempt " << attempt;
      // Pure function of (attempt, cfg, draw): replays bit-identically.
      EXPECT_EQ(d, aws::throttle_backoff_delay(attempt, cfg, draw));
    }
  }
}

// --- the charge() admission gate ---

TEST(ThrottleGateTest, StormChargesIdleBackoffThenRelents) {
  aws::CloudEnv env(51, aws::ConsistencyConfig::strong());
  aws::ThrottleConfig cfg;
  cfg.probability = 1.0;  // every attempt throttled: must exhaust retries
  cfg.max_attempts = 3;
  env.set_service_throttle("sdb", cfg);

  env.charge("sdb", "GetAttributes", 100, 100);

  // Three backoffs, then the service relents -- the request is admitted and
  // billed exactly once; the 503 round trips themselves are free.
  EXPECT_EQ(env.metrics().counter("throttle.injected").value(), 3u);
  EXPECT_EQ(env.metrics().counter("throttle.sdb.injected").value(), 3u);
  EXPECT_EQ(env.metrics().counter("throttle.sdb.relented").value(), 1u);
  EXPECT_EQ(env.meter().snapshot().calls("sdb"), 1u);

  // The waits (pre-jitter 10/20/40ms, jittered to at least half) are honest
  // elapsed time, attributed to "idle" on the caller's timeline.
  const sim::SimTime idle =
      env.metrics().counter("idle.throttle_backoff_us").value();
  EXPECT_GE(idle, 35 * sim::kMillisecond);
  EXPECT_LE(idle, 70 * sim::kMillisecond);
  EXPECT_EQ(env.elapsed_by_service()["idle"], idle);
}

TEST(ThrottleGateTest, SeededRunsReplayBitIdentically) {
  auto run = [] {
    aws::CloudEnv env(52, aws::ConsistencyConfig::strong());
    aws::ThrottleConfig cfg;
    cfg.probability = 0.5;
    env.set_service_throttle("s3", cfg);
    for (int i = 0; i < 50; ++i) env.charge("s3", "PUT", 1024, 0);
    return std::pair(env.elapsed_time(),
                     env.metrics().counter("throttle.injected").value());
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
  EXPECT_GT(a.second, 0u);  // a 50% storm over 50 requests throttles some
}

TEST(ThrottleGateTest, DisabledThrottleLeavesBillingBitIdentical) {
  // Configure-then-clear must be indistinguishable from never-configured:
  // same bill, same elapsed time, and the shared RNG stream in the same
  // state (the disabled gate draws nothing).
  aws::CloudEnv toggled(53, aws::ConsistencyConfig::strong());
  aws::CloudEnv fresh(53, aws::ConsistencyConfig::strong());
  aws::ThrottleConfig cfg;
  cfg.probability = 1.0;
  toggled.set_service_throttle("sdb", cfg);
  toggled.set_service_throttle("sdb", aws::ThrottleConfig{});  // zeroed: off

  for (int i = 0; i < 20; ++i) {
    toggled.charge("sdb", "PutAttributes", 256, 0);
    fresh.charge("sdb", "PutAttributes", 256, 0);
  }
  EXPECT_EQ(toggled.busy_time(), fresh.busy_time());
  EXPECT_EQ(toggled.elapsed_time(), fresh.elapsed_time());
  EXPECT_EQ(toggled.metrics().counter("throttle.injected").value(), 0u);
  EXPECT_EQ(toggled.rng_below(1u << 30), fresh.rng_below(1u << 30));
}

TEST(ThrottleGateTest, RateTriggerThrottlesAboveProvisionedRate) {
  aws::CloudEnv env(54, aws::ConsistencyConfig::strong());
  aws::ThrottleConfig cfg;
  cfg.rate_per_sec = 2;
  cfg.burst = 2;
  cfg.backoff_base = 100 * sim::kMillisecond;
  env.set_service_throttle("sqs", cfg);

  // Three requests at the same virtual instant against a 2-token burst:
  // the third is rate-throttled, backs off (the wait itself refills the
  // bucket), and is eventually admitted -- all three are billed.
  for (int i = 0; i < 3; ++i) env.charge("sqs", "SendMessage", 64, 0);
  EXPECT_GT(env.metrics().counter("throttle.sqs.injected").value(), 0u);
  EXPECT_EQ(env.meter().snapshot().calls("sqs"), 3u);
  EXPECT_GT(env.elapsed_by_service()["idle"], 0);
}

// --- per-tenant capacity model ---

TEST(TokenBucketTest, StartsFullThenRefillsFromVirtualTime) {
  TenantQuota quota;
  quota.rate_per_sec = 10.0;
  quota.burst = 20.0;
  TokenBucket bucket(quota, 0);
  EXPECT_DOUBLE_EQ(bucket.available(0), 20.0);
  EXPECT_TRUE(bucket.try_consume(20.0, 0));

  sim::SimTime retry_after = 0;
  EXPECT_FALSE(bucket.try_consume(1.0, 0, &retry_after));
  // One unit refills in 1/10 s of virtual time.
  EXPECT_GT(retry_after, 0);
  EXPECT_LE(retry_after, sim::kSecond / 10 + 1);

  // After the advertised wait the same consume succeeds.
  EXPECT_TRUE(bucket.try_consume(1.0, retry_after));
  // A long idle banks at most the burst capacity.
  EXPECT_DOUBLE_EQ(bucket.available(100 * sim::kSecond), 20.0);
}

TEST(TokenBucketTest, RetryAfterScalesWithTheDeficit) {
  TenantQuota quota;
  quota.rate_per_sec = 100.0;
  quota.burst = 10.0;
  TokenBucket bucket(quota, 0);
  ASSERT_TRUE(bucket.try_consume(10.0, 0));
  sim::SimTime small = 0, large = 0;
  EXPECT_FALSE(bucket.try_consume(1.0, 0, &small));
  EXPECT_FALSE(bucket.try_consume(8.0, 0, &large));
  EXPECT_GT(large, small);
}

// --- the Frontend admission controller ---

FrontendConfig ample_config() {
  FrontendConfig cfg;
  cfg.default_quota.rate_per_sec = 1e6;
  cfg.default_quota.burst = 1e6;
  return cfg;
}

TEST(FrontendTest, AdmitsWithinQuotaAndCompletesCloses) {
  aws::CloudEnv env(61, aws::ConsistencyConfig::strong());
  CloudServices services(env);
  auto backend = make_backend(Architecture::kS3SimpleDb, services);
  Frontend frontend(*backend, env, ample_config());

  std::vector<FrontendTicket> tickets;
  for (int i = 0; i < 6; ++i) {
    const std::string tenant = i % 2 == 0 ? "alice" : "bob";
    auto offered = frontend.offer(
        tenant, file_unit("t-" + tenant + "/f" + std::to_string(i), 1, "data"));
    ASSERT_TRUE(offered.has_value()) << i;
    tickets.push_back(*offered);
    EXPECT_FALSE(tickets.back().done());
  }
  EXPECT_EQ(frontend.queued(), 6u);
  ASSERT_TRUE(frontend.sync_all().has_value());
  EXPECT_EQ(frontend.queued(), 0u);
  EXPECT_EQ(frontend.in_flight(), 0u);
  for (const FrontendTicket& t : tickets) {
    EXPECT_TRUE(t.done());
    EXPECT_TRUE(t.ok());
  }
  const auto alice = frontend.tenant_stats("alice");
  EXPECT_EQ(alice.offered, 3u);
  EXPECT_EQ(alice.completed, 3u);
  EXPECT_EQ(alice.throttled, 0u);
  EXPECT_EQ(env.metrics().counter("frontend.completed").value(), 6u);
  // Per-tenant close latency was recorded for every completion.
  const auto* latency =
      env.metrics().find_histogram("tenant.alice.close_latency_us");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count(), 3u);
}

TEST(FrontendTest, CapacityRefusalIsTypedWithRetryAfter) {
  aws::CloudEnv env(62, aws::ConsistencyConfig::strong());
  CloudServices services(env);
  auto backend = make_backend(Architecture::kS3SimpleDb, services);
  FrontendConfig cfg;
  cfg.default_quota.rate_per_sec = 1.0;
  cfg.default_quota.burst = 2.0;  // exactly one 256-byte close (cost 2)
  Frontend frontend(*backend, env, cfg);

  const FlushUnit unit = file_unit("t0/a", 1, std::string(256, 'x'));
  ASSERT_TRUE(frontend.offer("t0", unit).has_value());
  auto refused = frontend.offer("t0", unit);
  ASSERT_FALSE(refused.has_value());
  EXPECT_EQ(refused.error().code, BackendErrorCode::kThrottled);
  EXPECT_GT(refused.error().retry_after, 0);
  const auto stats = frontend.tenant_stats("t0");
  EXPECT_EQ(stats.throttled, 1u);
  EXPECT_EQ(stats.accepted, 1u);
  // Only the offending tenant pays: a different tenant is admitted.
  EXPECT_TRUE(frontend.offer("t1", unit).has_value());
}

TEST(FrontendTest, CloseDearerThanTheBurstIsAdmittedIntoDebt) {
  // The default quota: 100 units/s, a 200-unit burst and 4 KiB units. A
  // 1 MiB close costs 257 units, more than the bucket holds: a full bucket
  // admits it and goes 57 units into debt.
  aws::CloudEnv env(67, aws::ConsistencyConfig::strong());
  CloudServices services(env);
  auto backend = make_backend(Architecture::kS3SimpleDb, services);
  Frontend frontend(*backend, env);
  ASSERT_TRUE(
      frontend.offer("t0", file_unit("t0/big", 1, std::string(1 << 20, 'b')))
          .has_value());

  // The next close (2 units) waits out the debt too: 59 units, 0.59 s.
  const FlushUnit small = file_unit("t0/small", 1, std::string(256, 's'));
  auto refused = frontend.offer("t0", small);
  ASSERT_FALSE(refused.has_value());
  EXPECT_EQ(refused.error().code, BackendErrorCode::kThrottled);
  EXPECT_GE(refused.error().retry_after, 59 * sim::kSecond / 100);
  env.clock().advance_by(refused.error().retry_after);
  EXPECT_TRUE(frontend.offer("t0", small).has_value());
}

TEST(FrontendTest, DebtKeepsTheSustainedRateForClosesDearerThanTheBurst) {
  // A tenant offers 1 MiB closes (257 units each) for 60 virtual seconds,
  // each retry after the advertised Retry-After. The bucket starts full,
  // so it admits the first at once and then one per 2.57 s: no more than
  // the 100 units/s quota pays for, and every advertised wait is honest.
  aws::CloudEnv env(68, aws::ConsistencyConfig::strong());
  CloudServices services(env);
  auto backend = make_backend(Architecture::kS3SimpleDb, services);
  Frontend frontend(*backend, env);
  const FlushUnit big = file_unit("t0/big", 1, std::string(1 << 20, 'b'));
  const sim::SimTime end = env.clock().now() + 60 * sim::kSecond;
  std::uint64_t admitted = 0;
  bool refused_last = false;
  while (env.clock().now() <= end) {
    auto offered = frontend.offer("t0", big);
    if (offered.has_value()) {
      ++admitted;
      refused_last = false;
      continue;
    }
    EXPECT_FALSE(refused_last) << "refused again after its Retry-After";
    refused_last = true;
    ASSERT_GT(offered.error().retry_after, 0);
    env.clock().advance_by(offered.error().retry_after);
  }
  EXPECT_LE(admitted, 1u + 60u * 100u / 257u);
  EXPECT_GE(admitted, 60u * 100u / 257u);
}

TEST(FrontendTest, ZeroTenantQueueCapIsRefusedAtConstruction) {
  // Nothing fits a queue of zero, and kShedOldest would shed from an
  // empty one.
  aws::CloudEnv env(69, aws::ConsistencyConfig::strong());
  CloudServices services(env);
  auto backend = make_backend(Architecture::kS3SimpleDb, services);
  FrontendConfig cfg = ample_config();
  cfg.tenant_queue_cap = 0;
  cfg.overflow = OverflowPolicy::kShedOldest;
  EXPECT_THROW(Frontend(*backend, env, cfg), util::LogicError);
}

TEST(FrontendTest, FullQueueRejectsUnderRejectPolicy) {
  aws::CloudEnv env(63, aws::ConsistencyConfig::strong());
  CloudServices services(env);
  auto backend = make_backend(Architecture::kS3SimpleDb, services);
  FrontendConfig cfg = ample_config();
  cfg.tenant_queue_cap = 2;
  Frontend frontend(*backend, env, cfg);

  const FlushUnit unit = file_unit("t0/a", 1, "x");
  ASSERT_TRUE(frontend.offer("t0", unit).has_value());
  ASSERT_TRUE(frontend.offer("t0", unit).has_value());
  auto refused = frontend.offer("t0", unit);
  ASSERT_FALSE(refused.has_value());
  EXPECT_EQ(refused.error().code, BackendErrorCode::kThrottled);
  EXPECT_EQ(refused.error().retry_after, 0);  // retry at the caller's pace
  EXPECT_EQ(frontend.tenant_stats("t0").rejected, 1u);
  EXPECT_EQ(frontend.queued(), 2u);
}

TEST(FrontendTest, ShedOldestAdmitsTheNewAndShedsTheOldest) {
  aws::CloudEnv env(64, aws::ConsistencyConfig::strong());
  CloudServices services(env);
  auto backend = make_backend(Architecture::kS3SimpleDb, services);
  FrontendConfig cfg = ample_config();
  cfg.tenant_queue_cap = 2;
  cfg.overflow = OverflowPolicy::kShedOldest;
  Frontend frontend(*backend, env, cfg);

  auto first = frontend.offer("t0", file_unit("t0/a", 1, "x"));
  auto second = frontend.offer("t0", file_unit("t0/b", 1, "x"));
  auto third = frontend.offer("t0", file_unit("t0/c", 1, "x"));
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  ASSERT_TRUE(third.has_value());  // admitted: the oldest was shed instead

  EXPECT_TRUE(first->done());
  EXPECT_FALSE(first->ok());
  EXPECT_EQ(first->error().code, BackendErrorCode::kThrottled);
  EXPECT_EQ(frontend.tenant_stats("t0").shed, 1u);
  EXPECT_EQ(frontend.queued(), 2u);

  ASSERT_TRUE(frontend.sync_all().has_value());
  EXPECT_TRUE(second->ok());
  EXPECT_TRUE(third->ok());
  EXPECT_EQ(frontend.tenant_stats("t0").completed, 2u);
}

TEST(FrontendTest, AdmissionOffIsAPureMultiplexer) {
  aws::CloudEnv env(65, aws::ConsistencyConfig::strong());
  CloudServices services(env);
  auto backend = make_backend(Architecture::kS3SimpleDb, services);
  FrontendConfig cfg;
  cfg.admission_control = false;
  cfg.tenant_queue_cap = 1;           // ignored
  cfg.default_quota.rate_per_sec = 0.001;  // ignored
  cfg.default_quota.burst = 0.001;
  Frontend frontend(*backend, env, cfg);

  for (int i = 0; i < 50; ++i)
    ASSERT_TRUE(
        frontend.offer("t0", file_unit("t0/f" + std::to_string(i), 1, "x"))
            .has_value())
        << i;
  ASSERT_TRUE(frontend.sync_all().has_value());
  const auto stats = frontend.tenant_stats("t0");
  EXPECT_EQ(stats.accepted, 50u);
  EXPECT_EQ(stats.completed, 50u);
  EXPECT_EQ(stats.throttled, 0u);
  EXPECT_EQ(stats.rejected, 0u);
}

TEST(FrontendTest, ConcurrentOffersAreThreadSafe) {
  // offer() is the tenant-thread entry point; hammer it from several
  // threads while the driver thread stays out, then drain on the driver
  // thread. TSan (the repo's test_* glob runs under it in CI) checks the
  // admission path's locking and the ticket phase publication.
  aws::CloudEnv env(66, aws::ConsistencyConfig::strong());
  CloudServices services(env);
  auto backend = make_backend(Architecture::kS3SimpleDb, services);
  FrontendConfig cfg = ample_config();
  cfg.tenant_queue_cap = 256;
  Frontend frontend(*backend, env, cfg);

  constexpr int kThreads = 4;
  constexpr int kOffers = 50;
  std::vector<std::thread> threads;
  std::atomic<int> accepted{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&frontend, &accepted, t] {
      const std::string tenant = "tenant-" + std::to_string(t);
      for (int i = 0; i < kOffers; ++i) {
        auto offered = frontend.offer(
            tenant,
            file_unit(tenant + "/f" + std::to_string(i), 1, "payload"));
        if (offered.has_value())
          accepted.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(accepted.load(), kThreads * kOffers);

  ASSERT_TRUE(frontend.sync_all().has_value());
  std::uint64_t completed = 0;
  for (const std::string& tenant : frontend.tenants())
    completed += frontend.tenant_stats(tenant).completed;
  EXPECT_EQ(completed, static_cast<std::uint64_t>(kThreads * kOffers));
}

// --- open-loop workload generators ---

TEST(OpenLoopTest, ArrivalsReplayBitIdenticallyAndStaySorted) {
  OpenLoopOptions options;
  options.seed = 77;
  options.tenants = 4;
  options.arrivals_per_sec = 200.0;
  options.duration = 5 * sim::kSecond;
  const auto a = open_loop_arrivals(options);
  const auto b = open_loop_arrivals(options);
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].at, b[i].at);
    EXPECT_EQ(a[i].tenant, b[i].tenant);
    if (i > 0) {
      EXPECT_GE(a[i].at, a[i - 1].at);
    }
    EXPECT_LT(a[i].at, options.duration);
    EXPECT_LT(a[i].tenant, options.tenants);
  }
  // ~200/s over 5s: the Poisson count concentrates around 1000.
  EXPECT_GT(a.size(), 700u);
  EXPECT_LT(a.size(), 1300u);
}

TEST(OpenLoopTest, ZipfianSkewConcentratesOnHotTenants) {
  OpenLoopOptions options;
  options.seed = 78;
  options.tenants = 8;
  options.zipf_s = 1.2;
  options.arrivals_per_sec = 500.0;
  options.duration = 10 * sim::kSecond;
  std::vector<std::size_t> counts(options.tenants, 0);
  for (const TenantArrival& arrival : open_loop_arrivals(options))
    counts[arrival.tenant] += 1;
  // Tenant 0 is the hottest by construction; the coldest trails it by far.
  EXPECT_GT(counts.front(), 2 * counts.back());
  EXPECT_GT(counts.front(), counts[1]);
}

TEST(OpenLoopTest, StormArrivalsLandInsideTheWindow) {
  OpenLoopOptions options;
  options.seed = 79;
  options.tenants = 4;
  options.arrivals_per_sec = 40.0;
  options.duration = 10 * sim::kSecond;
  options.storm_tenant = 2;
  options.storm_rate = 400.0;
  options.storm_start = 4 * sim::kSecond;
  options.storm_duration = 2 * sim::kSecond;

  std::size_t storm_inside = 0, storm_total = 0;
  for (const TenantArrival& arrival : open_loop_arrivals(options)) {
    if (arrival.tenant != options.storm_tenant) continue;
    storm_total += 1;
    if (arrival.at >= options.storm_start &&
        arrival.at < options.storm_start + options.storm_duration)
      storm_inside += 1;
  }
  // ~800 storm closes inside a 2s window vs ~100 base arrivals across 10s:
  // the overwhelming majority of the storm tenant's closes sit in-window.
  EXPECT_GT(storm_total, 500u);
  EXPECT_GT(storm_inside * 10, storm_total * 8);
}

TEST(OpenLoopTest, SynthesizedClosesAreWellFormed) {
  const FlushUnit unit = make_tenant_close(3, 17, 512);
  EXPECT_EQ(unit.object, "t3/o17");
  EXPECT_EQ(unit.version, 1u);
  ASSERT_NE(unit.data, nullptr);
  EXPECT_EQ(unit.data->size(), 512u);
  EXPECT_FALSE(unit.records.empty());
}

}  // namespace
