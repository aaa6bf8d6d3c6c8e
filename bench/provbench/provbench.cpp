// provbench: the repository's benchmark. One invocation runs one workload
// rep after rep for a wall-clock budget, checks every rep's outputs, and
// prints every metric by name with its unit.
//
//   provbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]
//             [--trace-dir <dir>]
//
// Output: one detail JSON line (every metric, the checks, per-rep CPU),
// then, as the last line, {"correct", "attempted", "failed", "metrics"}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Exit codes: 0 all checks pass, 1 a check failed, 2 bad
// arguments, 3 a rep overran the watchdog.
//
// Reps: at least kMinReps, then more while the next one should still end
// within --seconds. Virtual-time, cost and count metrics must be
// bit-identical across reps (checked). Real CPU is the least timed-phase
// CPU of any rep -- on a shared machine the fastest rep is the one least
// disturbed -- rescaled by a calibration kernel run before every rep: CPU *
// kReferenceKernelS / (least kernel time). On a shared 4-core VM raw CPU
// drifted 10-15% over minutes and the rescaled figure about half as much.
// With --trace 1 one more rep runs with spans around every public call and
// the env's virtual-time tracer on; its span self times give the per-layer
// *_cpu_ms metrics, and its virtual metrics must equal the untraced reps'.
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "probe.hpp"
#include "workloads.hpp"

namespace {

using namespace provbench;

constexpr std::size_t kMinReps = 2;
/// The calibration kernel's CPU time that ops_per_cpu_s is scaled to.
constexpr double kReferenceKernelS = 0.070;
constexpr auto kRepBudget = std::chrono::seconds(120);

struct MetricDef {
  const char* name;
  const char* unit;
};

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs{
      {"close_p50_ms", "ms"},
      {"close_p95_ms", "ms"},
      {"walk_p50_ms", "ms"},
      {"walk_p99_ms", "ms"},
      {"usd_per_1k_closes", "usd"},
      {"usd_per_1k_walks", "usd"},
      {"stored_bytes_per_user_byte", "B/B"},
      {"virtual_elapsed_s", "s"},
      {"ops_per_cpu_s", "1/s"},
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
  };
  return defs;
}

/// Per-layer metrics, prefixed by the module they observe. Every workload
/// reports all of them; a layer a workload bypasses reads 0.
const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs{
      {"pass.closes", "count"},
      {"pass.records_per_close", "count"},
      {"pass.self_cpu_ms", "ms"},
      {"session.submit_cpu_ms", "ms"},
      {"session.sync_cpu_ms", "ms"},
      {"session.close_samples", "count"},
      {"session.close_p99_ms", "ms"},
      {"session.close_p999_ms", "ms"},
      {"session.group_size_p50", "count"},
      {"session.group_size_p99", "count"},
      {"session.flushes.group_full", "count"},
      {"session.flushes.deadline", "count"},
      {"session.flushes.sync", "count"},
      {"session.queue_depth_p99", "count"},
      {"idle.queue_wait_s", "s"},
      {"sim.clock_advance_cpu_ms", "ms"},
      {"backend.quiesce_cpu_ms", "ms"},
      {"backend.quiesce_virtual_ms", "ms"},
      {"sdb_backend.causal_waves_p50", "count"},
      {"sdb_backend.causal_waves_p99", "count"},
      {"wal_backend.ready_txns_p50", "count"},
      {"aws.sqs.sends_per_close", "count"},
      {"aws.sqs.receives_per_close", "count"},
      {"aws.sqs.deletes_per_close", "count"},
      {"idle.visibility_wait_s", "s"},
      {"idle.daemon_wakeup_s", "s"},
      {"lsb.seals", "count"},
      {"lsb.closes_per_seal_p50", "count"},
      {"lsb.seal_mb", "MB"},
      {"lsb.index_publishes", "count"},
      {"lsb.postings_published", "count"},
      {"lsb.compactions", "count"},
      {"lsb.rewritten_mb", "MB"},
      {"lsb.reclaimed_mb", "MB"},
      {"lsb.write_amp", "B/B"},
      {"lsb.segments_final", "count"},
      {"lsb.garbage_ratio_final", "ratio"},
      {"manifest.rolls", "count"},
      {"manifest.roll_cpu_ms", "ms"},
      {"manifest.roll_virtual_ms", "ms"},
      {"manifest.roll_calls", "count"},
      {"manifest.ancestor_cache.hit_ratio", "ratio"},
      {"manifest.ancestor_cache.invalidations", "count"},
      {"query.walk_cpu_ms", "ms"},
      {"query.walk_samples", "count"},
      {"query.nodes_per_walk", "count"},
      {"query.sdb_reads_per_walk", "count"},
      {"query.s3_gets_per_walk", "count"},
      {"query.read_retries", "count"},
      {"query.search_cpu_ms", "ms"},
      {"query.search_virtual_ms", "ms"},
      {"query.searches", "count"},
      {"frontend.offer_cpu_ms", "ms"},
      {"frontend.pump_cpu_ms", "ms"},
      {"frontend.sync_cpu_ms", "ms"},
      {"frontend.offered", "count"},
      {"frontend.accepted", "count"},
      {"frontend.throttled", "count"},
      {"frontend.rejected", "count"},
      {"frontend.shed", "count"},
      {"frontend.accept_ratio", "ratio"},
      {"frontend.queue_depth_p99", "count"},
      {"frontend.benign_samples", "count"},
      {"frontend.goodput_closes_per_s", "1/s"},
      {"aws.throttle.injected", "count"},
      {"aws.throttle.relented", "count"},
      {"idle.throttle_backoff_s", "s"},
      {"aws.s3.puts_per_close", "count"},
      {"aws.s3.put_kb_per_close", "KiB"},
      {"aws.s3.gets_per_op", "count"},
      {"aws.s3.get_kb_per_op", "KiB"},
      {"aws.s3.other_per_op", "count"},
      {"aws.sdb.writes_per_close", "count"},
      {"aws.sdb.write_kb_per_close", "KiB"},
      {"aws.sdb.reads_per_op", "count"},
      {"aws.sdb.read_kb_per_op", "KiB"},
      {"ledger.s3_s", "s"},
      {"ledger.sdb_s", "s"},
      {"ledger.sqs_s", "s"},
      {"ledger.idle_s", "s"},
      {"idle.read_retry_s", "s"},
      {"cost.requests_frac", "ratio"},
      {"cost.transfer_frac", "ratio"},
      {"cost.storage_frac", "ratio"},
      {"cpu.reps", "count"},
      {"cpu.rep_spread", "ratio"},
      {"cpu.timed_min_s", "s"},
      {"cpu.kernel_min_ms", "ms"},
      {"cpu.trace_overhead_frac", "ratio"},
      {"bench.ops", "count"},
      {"bench.self_cpu_ms", "ms"},
  };
  return defs;
}

/// Span name -> the per-layer metric its self time feeds.
const std::vector<std::pair<const char*, const char*>>& span_metrics() {
  static const std::vector<std::pair<const char*, const char*>> map{
      {"pass.apply", "pass.self_cpu_ms"},
      {"pass.finish", "pass.self_cpu_ms"},
      {"session.submit", "session.submit_cpu_ms"},
      {"session.sync", "session.sync_cpu_ms"},
      {"sim.clock_advance", "sim.clock_advance_cpu_ms"},
      {"backend.quiesce", "backend.quiesce_cpu_ms"},
      {"manifest.roll", "manifest.roll_cpu_ms"},
      {"query.walk", "query.walk_cpu_ms"},
      {"query.search", "query.search_cpu_ms"},
      {"frontend.offer", "frontend.offer_cpu_ms"},
      {"frontend.pump", "frontend.pump_cpu_ms"},
      {"frontend.sync_all", "frontend.sync_cpu_ms"},
  };
  return map;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 2009;
  double seconds = 0;
  bool trace = false;
  std::string trace_dir;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return std::nullopt;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args.seconds >= 0)) return std::nullopt;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0)
        return std::nullopt;
      args.trace = value[0] == '1';
    } else if (flag == "--trace-dir") {
      args.trace_dir = value;
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 == 0) return std::nullopt;  // a flag without its value
  return args;
}

std::function<Rep(const RepContext&)> workload_fn(const std::string& name) {
  if (name == "ingest_wal") return run_ingest_wal;
  if (name == "ingest_segments") return run_ingest_segments;
  if (name == "lineage_mixed") return run_lineage_mixed;
  if (name == "tenant_storm") return run_tenant_storm;
  return nullptr;
}

/// Ends the process with exit code 3 when one rep outlives kRepBudget,
/// naming the workload and the rep, instead of letting a livelocked rep
/// hang the run.
class Watchdog {
 public:
  explicit Watchdog(std::string workload)
      : workload_(std::move(workload)), thread_([this] { watch(); }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  void arm(std::size_t rep) {
    std::lock_guard<std::mutex> lock(mu_);
    rep_ = static_cast<long>(rep);
    deadline_ = std::chrono::steady_clock::now() + kRepBudget;
    cv_.notify_all();
  }
  void disarm() {
    std::lock_guard<std::mutex> lock(mu_);
    rep_ = -1;
    cv_.notify_all();
  }

 private:
  void watch() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!stop_) {
      if (rep_ < 0) {
        cv_.wait(lock);
        continue;
      }
      if (std::chrono::steady_clock::now() >= deadline_) {
        std::printf("%s\n",
                    JsonObject()
                        .str("error", "watchdog: rep overran its wall budget")
                        .str("workload", workload_)
                        .num("rep", static_cast<double>(rep_))
                        .num("budget_s", static_cast<double>(kRepBudget.count()))
                        .render()
                        .c_str());
        std::fflush(stdout);
        std::_Exit(3);
      }
      cv_.wait_until(lock, deadline_);
    }
  }

  std::string workload_;
  std::mutex mu_;
  std::condition_variable cv_;
  long rep_ = -1;
  std::chrono::steady_clock::time_point deadline_;
  bool stop_ = false;
  std::thread thread_;
};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// Names of the deterministic metrics on which two reps disagree.
std::vector<std::string> det_mismatches(const Rep& a, const Rep& b) {
  std::vector<std::string> out;
  for (const auto& [name, value] : a.det) {
    const auto it = b.det.find(name);
    if (it == b.det.end() || std::memcmp(&it->second, &value, sizeof value) != 0)
      out.push_back(name);
  }
  if (a.det.size() != b.det.size()) out.push_back("(metric set)");
  return out;
}

std::string render_metrics(const std::vector<MetricDef>& defs,
                           const std::map<std::string, double>& values) {
  JsonObject out;
  for (const MetricDef& def : defs) {
    const auto it = values.find(def.name);
    out.raw(def.name, JsonObject()
                          .num("value", it == values.end() ? 0.0 : it->second)
                          .str("unit", def.unit)
                          .render());
  }
  return out.render();
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> args = parse_args(argc, argv);
  const auto run = args ? workload_fn(args->workload) : nullptr;
  if (!args || run == nullptr) {
    std::fprintf(stderr,
                 "usage: provbench --workload <ingest_wal|ingest_segments|"
                 "lineage_mixed|tenant_storm> [--seed <n>] [--seconds <s>] "
                 "[--trace <0|1>] [--trace-dir <dir>]\n");
    return 2;
  }

  std::vector<Rep> reps;
  std::vector<double> rep_wall;
  std::vector<double> calib;  // calibration kernel CPU before each rep
  std::optional<Rep> traced;
  SpanLog spans;
  double rss_mb = 0;
  {
    Watchdog watchdog(args->workload);
    // Start another rep only while it should end within the budget.
    const std::uint64_t start = wall_ns();
    const auto fits = [&] {
      const double spent = static_cast<double>(wall_ns() - start) / 1e9;
      return spent + spent / static_cast<double>(reps.size()) <= args->seconds;
    };
    while (reps.size() < kMinReps || fits()) {
      watchdog.arm(reps.size());
      RepContext ctx;
      ctx.seed = args->seed;
      calib.push_back(calibration_cpu_s());
      const std::uint64_t rep_start = wall_ns();
      reps.push_back(run(ctx));
      rep_wall.push_back(static_cast<double>(wall_ns() - rep_start) / 1e9);
    }
    rss_mb = peak_rss_mb();
    if (args->trace) {
      RepContext ctx;
      ctx.seed = args->seed;
      ctx.spans = &spans;
      if (!args->trace_dir.empty()) {
        std::filesystem::create_directories(args->trace_dir);
        ctx.virtual_trace_path =
            args->trace_dir + "/" + args->workload + ".virtual.json";
      }
      watchdog.arm(reps.size());
      traced = run(ctx);
      if (!args->trace_dir.empty() &&
          !spans.write_chrome_json(args->trace_dir + "/" + args->workload +
                                   ".spans.json"))
        traced->failures.push_back("trace: span dump could not be written");
    }
    watchdog.disarm();
  }

  // --- checks across reps ---
  std::vector<std::string> failures;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<const Rep*> all;
  for (const Rep& r : reps) all.push_back(&r);
  if (traced) all.push_back(&*traced);
  for (std::size_t i = 0; i < all.size(); ++i) {
    attempted += all[i]->ops;
    failed += all[i]->failed;
    for (const std::string& f : all[i]->failures)
      if (failures.size() < 20)
        failures.push_back("rep " + std::to_string(i) + ": " + f);
    if (i == 0) continue;
    const std::vector<std::string> diff = det_mismatches(*all[0], *all[i]);
    if (!diff.empty()) {
      failed += 1;
      failures.push_back("determinism: rep " + std::to_string(i) +
                         " differs from rep 0 in " + diff.front());
    }
  }
  const bool correct = failures.empty() && failed == 0;

  // --- metrics ---
  std::vector<double> cpu, setup;
  for (const Rep& r : reps) {
    cpu.push_back(r.timed_cpu_s);
    setup.push_back(r.setup_s);
  }
  const double cpu_min = *std::min_element(cpu.begin(), cpu.end());
  const double cpu_max = *std::max_element(cpu.begin(), cpu.end());
  const double kernel_min = *std::min_element(calib.begin(), calib.end());
  std::map<std::string, double> e2e = reps[0].det;
  e2e["ops_per_cpu_s"] = static_cast<double>(reps[0].ops) /
                         (cpu_min * kReferenceKernelS / kernel_min);
  e2e["setup_s"] = median(setup);
  e2e["peak_rss_mb"] = rss_mb;

  std::map<std::string, double> layer = reps[0].det;
  layer["cpu.reps"] = static_cast<double>(reps.size());
  layer["cpu.rep_spread"] = (cpu_max - cpu_min) / cpu_min;
  layer["cpu.timed_min_s"] = cpu_min;
  layer["cpu.kernel_min_ms"] = kernel_min * 1e3;
  layer["bench.ops"] = static_cast<double>(reps[0].ops);
  if (traced) {
    const auto& self = spans.self_cpu_ms();
    double covered = 0;
    for (const auto& [span, metric] : span_metrics()) {
      const auto it = self.find(span);
      if (it == self.end()) continue;
      layer[metric] += it->second;
      covered += it->second;
    }
    layer["bench.self_cpu_ms"] = traced->timed_cpu_s * 1e3 - covered;
    layer["cpu.trace_overhead_frac"] = traced->timed_cpu_s / cpu_min - 1.0;
  }

  JsonObject checks;
  for (std::size_t i = 0; i < failures.size(); ++i)
    checks.str(std::to_string(i), failures[i]);
  JsonObject rep_cpu, rep_kernel, rep_setup, rep_wall_s;
  for (std::size_t i = 0; i < reps.size(); ++i) {
    rep_cpu.num(std::to_string(i), reps[i].timed_cpu_s);
    rep_kernel.num(std::to_string(i), calib[i]);
    rep_setup.num(std::to_string(i), reps[i].setup_s);
    rep_wall_s.num(std::to_string(i), rep_wall[i]);
  }
  JsonObject detail;
  detail.str("workload", args->workload)
      .num("seed", static_cast<double>(args->seed))
      .num("trace", args->trace ? 1 : 0)
      .num("reps", static_cast<double>(reps.size()))
      .num("nproc", static_cast<double>(std::thread::hardware_concurrency()))
      .raw("rep_cpu_s", rep_cpu.render())
      .raw("rep_kernel_s", rep_kernel.render())
      .raw("rep_setup_s", rep_setup.render())
      .raw("rep_wall_s", rep_wall_s.render())
      .num("traced_cpu_s", traced ? traced->timed_cpu_s : 0.0)
      .raw("failures", checks.render())
      .raw("end_to_end", render_metrics(end_to_end_metrics(), e2e))
      .raw("per_layer", render_metrics(per_layer_metrics(), layer));
  std::printf("%s\n", JsonObject().raw("provbench", detail.render()).render().c_str());
  std::printf("%s\n",
              JsonObject()
                  .raw("correct", correct ? "true" : "false")
                  .num("attempted", static_cast<double>(attempted))
                  .num("failed", static_cast<double>(failed))
                  .raw("metrics", args->trace
                                      ? render_metrics(per_layer_metrics(), layer)
                                      : render_metrics(end_to_end_metrics(), e2e))
                  .render()
                  .c_str());
  return correct ? 0 : 1;
}
