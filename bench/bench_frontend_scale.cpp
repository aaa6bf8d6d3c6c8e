// Frontend at scale: open-loop multi-tenant load through the admission
// controller into Architecture 2, with a service-side S3 throttle as the
// shared bottleneck.
//
// Three scenarios over identical benign arrivals (same seed, so the base
// Poisson process is bit-identical; the storm only adds arrivals):
//
//   calm       -- every tenant inside its provisioned rate, service well
//                 under its throttle rate. Expect zero throttles anywhere.
//   storm_on   -- tenant 0 fires ~20x its provisioned rate for a 4s window,
//                 admission control on. The storm is refused at the front
//                 door (typed kThrottled), the service stays under its rate,
//                 and the benign tenants' p99 holds within 2x of calm.
//   storm_off  -- same arrivals, admission control off (pure multiplexer).
//                 The flood reaches S3, the 503 gate backs every request
//                 off, and every tenant's tail collapses together -- the
//                 "why you meter the front door" picture.
//
// JSON (PROVCLOUD_BENCH_JSON): per scenario and tenant
// fs_<scenario>_t<k>_{p50,p99,p999}_us latency percentiles plus offered /
// completed / throttled counts, per scenario offered vs delivered
// throughput, service throttle counts and $/close; headline benign-p99
// ratios. The shape claims (positive, ordered percentiles, storm throttled
// > 0, calm throttled == 0, the 2x benign bound) are asserted here; the exit
// code is their only gate.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "cloudprov/frontend/frontend.hpp"
#include "cost/pricing.hpp"
#include "workloads/openloop.hpp"

using namespace provcloud;
using namespace provcloud::cloudprov;
using provcloud::workloads::OpenLoopOptions;
using provcloud::workloads::TenantArrival;

namespace {

constexpr std::size_t kTenants = 4;
constexpr std::size_t kStormTenant = 0;

OpenLoopOptions arrival_options(bool storm) {
  OpenLoopOptions o;
  o.seed = 2009;
  o.tenants = kTenants;
  o.zipf_s = 0.0;  // uniform benign load: every tenant ~40 closes/s
  o.arrivals_per_sec = 160.0;
  o.duration = 8 * sim::kSecond;
  o.close_bytes = 256;
  if (storm) {
    o.storm_tenant = kStormTenant;
    o.storm_rate = 2000.0;
    o.storm_start = 2 * sim::kSecond;
    o.storm_duration = 4 * sim::kSecond;
  }
  return o;
}

struct TenantOutcome {
  Frontend::TenantStats stats;
  bench::LatencyPercentiles latency;
};

struct ScenarioResult {
  std::string name;
  std::size_t arrivals = 0;
  std::vector<TenantOutcome> tenants;
  std::uint64_t completed = 0;
  std::uint64_t refused = 0;  // capacity throttles + queue rejects + sheds
  std::uint64_t service_throttles = 0;
  std::uint64_t s3_calls = 0;
  std::uint64_t sdb_calls = 0;
  double offered_per_sec = 0.0;
  double delivered_per_sec = 0.0;
  double usd_per_close = 0.0;

  std::uint64_t worst_benign_p99() const {
    std::uint64_t worst = 0;
    for (std::size_t t = 0; t < tenants.size(); ++t)
      if (t != kStormTenant) worst = std::max(worst, tenants[t].latency.p99);
    return worst;
  }
};

ScenarioResult run_scenario(const std::string& name, bool storm,
                            bool admission) {
  aws::CloudEnv env(2009, aws::ConsistencyConfig::strong());
  CloudServices services(env);
  auto backend = make_backend(Architecture::kS3SimpleDb, services);

  // The shared bottleneck is SimpleDB: the batched provenance write of each
  // flush group (~1 call per 16 closes) is charged to the group's SHARED
  // timeline, so a 503 backoff there is absorbed by every rider -- the
  // coupling that makes an ungated storm everyone's problem. Calm runs ~10
  // index writes/s and a gated storm ~15/s, both under the 25/s rate; the
  // ungated storm (~135/s) blows through it and drags whole groups.
  aws::ThrottleConfig sdb_throttle;
  sdb_throttle.rate_per_sec = 25;
  sdb_throttle.burst = 25;
  sdb_throttle.backoff_base = 500 * sim::kMillisecond;
  sdb_throttle.backoff_cap = 5 * sim::kSecond;
  env.set_service_throttle("sdb", sdb_throttle);
  // S3 data PUTs are charged per-close (exclusive, one per close): a loose
  // 600/s rate only bites the ungated storm's own closes (~2000 PUT/s).
  aws::ThrottleConfig s3_throttle;
  s3_throttle.rate_per_sec = 600;
  s3_throttle.burst = 600;
  s3_throttle.backoff_base = 500 * sim::kMillisecond;
  s3_throttle.backoff_cap = 5 * sim::kSecond;
  env.set_service_throttle("s3", s3_throttle);

  FrontendConfig cfg;
  cfg.session_pool = 1;  // one shared session: tenants ride common groups
  cfg.tenant_queue_cap = 64;
  cfg.admission_control = admission;
  // 100 units/s + 200 burst at cost 2/close = 50 closes/s sustained per
  // tenant: 1.25x the benign offered rate, 1/40 of the storm.
  cfg.default_quota.rate_per_sec = 100.0;
  cfg.default_quota.burst = 200.0;
  cfg.session.max_group = 16;
  Frontend frontend(*backend, env, cfg);

  const OpenLoopOptions options = arrival_options(storm);
  const std::vector<TenantArrival> arrivals =
      workloads::open_loop_arrivals(options);
  std::vector<std::uint64_t> seq(kTenants, 0);
  sim::SimTime now = 0;
  for (const TenantArrival& arrival : arrivals) {
    if (arrival.at > now) {
      env.clock().advance_by(arrival.at - now);
      now = arrival.at;
    }
    const pass::FlushUnit unit = workloads::make_tenant_close(
        arrival.tenant, seq[arrival.tenant]++, options.close_bytes);
    (void)frontend.offer("t" + std::to_string(arrival.tenant), unit);
    frontend.pump();
  }
  const auto synced = frontend.sync_all();
  PROVCLOUD_REQUIRE_MSG(synced.has_value(),
                        "sync_all failed: " + synced.error().message);
  env.clock().drain();
  backend->quiesce();

  ScenarioResult result;
  result.name = name;
  result.arrivals = arrivals.size();
  const double seconds = static_cast<double>(options.duration) /
                         static_cast<double>(sim::kSecond);
  for (std::size_t t = 0; t < kTenants; ++t) {
    TenantOutcome outcome;
    outcome.stats = frontend.tenant_stats("t" + std::to_string(t));
    outcome.latency = bench::LatencyPercentiles::of(
        env.metrics(),
        ("tenant.t" + std::to_string(t) + ".close_latency_us").c_str());
    result.completed += outcome.stats.completed;
    result.refused += outcome.stats.throttled + outcome.stats.rejected +
                      outcome.stats.shed;
    result.tenants.push_back(outcome);
  }
  result.service_throttles =
      env.metrics().counter("throttle.injected").value();
  const sim::MeterSnapshot meter = env.meter().snapshot();
  result.s3_calls = meter.calls("s3");
  result.sdb_calls = meter.calls("sdb");
  result.offered_per_sec = static_cast<double>(arrivals.size()) / seconds;
  result.delivered_per_sec = static_cast<double>(result.completed) / seconds;
  if (result.completed > 0)
    result.usd_per_close =
        cost::estimate_cost(env.meter().snapshot()).total() /
        static_cast<double>(result.completed);
  return result;
}

/// Satellite check: with no throttle configured the fabric draws nothing
/// and bills identically to a build without the feature -- here proxied by
/// configure-then-clear vs never-configured over the calm trace.
bool billing_bit_identical() {
  auto run = [](bool toggle) {
    aws::CloudEnv env(7, aws::ConsistencyConfig::strong());
    if (toggle) {
      aws::ThrottleConfig cfg;
      cfg.probability = 1.0;
      env.set_service_throttle("s3", cfg);
      env.set_service_throttle("s3", aws::ThrottleConfig{});
    }
    CloudServices services(env);
    auto backend = make_backend(Architecture::kS3SimpleDb, services);
    Frontend frontend(*backend, env, FrontendConfig{});
    for (int i = 0; i < 32; ++i)
      (void)frontend.offer(
          "t0", workloads::make_tenant_close(0, static_cast<std::uint64_t>(i),
                                             256));
    PROVCLOUD_REQUIRE_MSG(frontend.sync_all().has_value(), "sync failed");
    return std::pair(env.busy_time(), env.meter().snapshot().total_calls());
  };
  return run(false) == run(true);
}

void print_scenario(const ScenarioResult& r) {
  std::printf("\n%-10s offered %7.0f/s delivered %7.0f/s refused %6llu "
              "service-503s %6llu s3 %6llu sdb %6llu $/close %.8f\n",
              r.name.c_str(), r.offered_per_sec, r.delivered_per_sec,
              static_cast<unsigned long long>(r.refused),
              static_cast<unsigned long long>(r.service_throttles),
              static_cast<unsigned long long>(r.s3_calls),
              static_cast<unsigned long long>(r.sdb_calls),
              r.usd_per_close);
  for (std::size_t t = 0; t < r.tenants.size(); ++t) {
    const TenantOutcome& o = r.tenants[t];
    std::printf(
        "  t%zu%s offered %5llu ok %5llu throttled %5llu rejected %4llu "
        "shed %3llu | p50 %7llu us p99 %8llu us p999 %8llu us\n",
        t, t == kStormTenant ? "*" : " ",
        static_cast<unsigned long long>(o.stats.offered),
        static_cast<unsigned long long>(o.stats.completed),
        static_cast<unsigned long long>(o.stats.throttled),
        static_cast<unsigned long long>(o.stats.rejected),
        static_cast<unsigned long long>(o.stats.shed),
        static_cast<unsigned long long>(o.latency.p50),
        static_cast<unsigned long long>(o.latency.p99),
        static_cast<unsigned long long>(o.latency.p999));
  }
}

void add_to_json(bench::JsonObject& json, const ScenarioResult& r) {
  json.add("fs_" + r.name + "_offered_per_sec", r.offered_per_sec);
  json.add("fs_" + r.name + "_delivered_per_sec", r.delivered_per_sec);
  json.add("fs_" + r.name + "_refused", r.refused);
  json.add("fs_" + r.name + "_service_throttles", r.service_throttles);
  json.add("fs_" + r.name + "_usd_per_close", r.usd_per_close);
  for (std::size_t t = 0; t < r.tenants.size(); ++t) {
    const std::string prefix = "fs_" + r.name + "_t" + std::to_string(t);
    const TenantOutcome& o = r.tenants[t];
    o.latency.add_to(json, prefix);
    json.add(prefix + "_offered", o.stats.offered);
    json.add(prefix + "_completed", o.stats.completed);
    json.add(prefix + "_throttled",
             o.stats.throttled + o.stats.rejected + o.stats.shed);
  }
}

}  // namespace

int main() {
  bench::print_header(
      "Frontend at scale: admission control under an open-loop burst storm");

  const ScenarioResult calm = run_scenario("calm", false, true);
  const ScenarioResult storm_on = run_scenario("storm_on", true, true);
  const ScenarioResult storm_off = run_scenario("storm_off", true, false);
  print_scenario(calm);
  print_scenario(storm_on);
  print_scenario(storm_off);

  const double ratio_on =
      static_cast<double>(storm_on.worst_benign_p99()) /
      static_cast<double>(std::max<std::uint64_t>(1, calm.worst_benign_p99()));
  const double ratio_off =
      static_cast<double>(storm_off.worst_benign_p99()) /
      static_cast<double>(std::max<std::uint64_t>(1, calm.worst_benign_p99()));
  const bool billing_ok = billing_bit_identical();
  std::printf(
      "\nworst benign-tenant p99 vs calm: admission on %.2fx | off %.2fx\n",
      ratio_on, ratio_off);
  std::printf("billing bit-identical with throttling disabled: %s\n",
              billing_ok ? "yes" : "NO");

  bool ok = true;
  auto check = [&ok](bool condition, const char* what) {
    if (!condition) {
      std::printf("CHECK FAILED: %s\n", what);
      ok = false;
    }
  };
  // Shape claims.
  for (const ScenarioResult* r : {&calm, &storm_on, &storm_off})
    for (const TenantOutcome& o : r->tenants) {
      check(o.latency.p999 >= o.latency.p99 && o.latency.p99 >= o.latency.p50,
            "percentiles must be ordered per tenant");
      check(o.latency.p50 > 0, "every tenant's p50 is positive");
      check(o.stats.completed > 0, "every tenant completes closes");
    }
  check(calm.refused == 0 && calm.service_throttles == 0,
        "provisioned headroom: no throttles anywhere in calm");
  check(storm_on.refused > 0,
        "admission control throttles the storming tenant");
  check(storm_on.tenants[kStormTenant].stats.throttled > 0,
        "the storming tenant runs out of capacity");
  for (std::size_t t = 1; t < kTenants; ++t) {
    const auto& s = storm_on.tenants[t].stats;
    check(s.throttled + s.rejected + s.shed == 0,
          "benign tenants are never throttled under admission control");
  }
  check(ratio_on <= 2.0, "benign p99 holds within 2x of calm (admission on)");
  check(storm_off.refused == 0, "pure multiplexer refuses nothing");
  check(storm_off.service_throttles > storm_on.service_throttles,
        "the ungated storm reaches the service");
  check(ratio_off > ratio_on,
        "without admission the benign tail degrades further");
  check(billing_ok, "billing bit-identical when throttling disabled");

  if (const char* path = bench::json_output_path()) {
    bench::JsonObject json;
    json.add("fs_tenants", static_cast<std::uint64_t>(kTenants));
    json.add("fs_storm_tenant", static_cast<std::uint64_t>(kStormTenant));
    json.add("fs_benign_p99_ratio_on", ratio_on);
    json.add("fs_benign_p99_ratio_off", ratio_off);
    json.add("fs_billing_bit_identical",
             static_cast<std::uint64_t>(billing_ok ? 1 : 0));
    add_to_json(json, calm);
    add_to_json(json, storm_on);
    add_to_json(json, storm_off);
    if (json.write(path))
      std::printf("\nJSON results written to %s\n", path);
  }

  std::printf("\nfrontend-scale checks %s\n", ok ? "PASSED" : "FAILED");
  return ok ? 0 : 1;
}
