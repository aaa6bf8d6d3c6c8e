// Ablation: the batched + sharded SimpleDB write pipeline.
//
// The paper's Architectures 2/3 pay one PutAttributes round trip per
// 100-attribute chunk and funnel every client through a single SimpleDB
// domain. This ablation sweeps the two knobs the batched pipeline adds:
//
//   batch_size   1 -> 25   items per BatchPutAttributes in the WAL commit
//                          daemon (25 is the SimpleDB cap);
//   shard_count  1 -> 8    domains the ShardRouter hashes objects across;
//   parallelism  1 -> N    concurrent shard requests (DomainTopology
//                          executor): the commit daemon flushes per-domain
//                          batches concurrently and queries scatter/gather
//                          in parallel.
//
// Reported per point: SimpleDB write round trips, total service calls, the
// per-shard peak item count (the contention proxy: SimpleDB throttles per
// domain, so a lower peak means more client headroom), per-shard request
// hotness from the meter's per-domain view (peak/mean; 1.0 = even load),
// wall-clock and ledger elapsed time for the workload + queries. Query
// answers are cross-checked against the unsharded layout at every point:
// sharding and parallelism must never change an answer.
#include <cstdio>

#include <set>

#include "bench_common.hpp"
#include "cloudprov/query.hpp"
#include "cloudprov/sdb_backend.hpp"
#include "cloudprov/shard_router.hpp"
#include "workloads/blast.hpp"

using namespace provcloud;
using namespace provcloud::cloudprov;

namespace {

struct Point {
  std::size_t batch = 0;
  std::size_t shards = 0;
  std::size_t parallelism = 1;
  std::size_t group = 1;  // session closes coalesced per group commit
  std::uint64_t write_rts = 0;
  std::uint64_t sqs_send_rts = 0;
  std::uint64_t total_calls = 0;
  std::uint64_t peak_domain_items = 0;
  /// Per-shard hotness from the meter's per-domain view: the busiest
  /// domain's request count, and peak/mean (1.0 = perfectly even load).
  std::uint64_t peak_domain_calls = 0;
  double domain_hotness = 0;
  double store_ms = 0;  // wall-clock: workload through PASS + WAL drain
  double query_ms = 0;  // wall-clock: Q.2 + Q.3 scatter/gather
  sim::SimTime store_elapsed = 0;  // ledger: client timeline, store phase
  sim::SimTime query_elapsed = 0;  // ledger: client timeline, query phase
  std::set<std::string> q2;
  std::set<std::string> q3;
};

Point run_point(const pass::SyscallTrace& trace, const std::string& program,
                std::size_t batch, std::size_t shards,
                std::size_t parallelism = 1, std::size_t group = 1) {
  WalBackendConfig cfg;
  cfg.batch_size = batch;
  cfg.shard_count = shards;
  cfg.parallelism = parallelism;
  bench::WorkloadRun run(
      [&](CloudServices& s) { return make_wal_backend(s, cfg); });
  run.group_size = group;

  Point p;
  p.batch = batch;
  p.shards = shards;
  p.parallelism = parallelism;
  p.group = group;
  p.store_ms = bench::wall_clock_ms([&] { run.run(trace); });
  p.store_elapsed = run.env.elapsed_time();
  const auto snap = run.env.meter().snapshot();
  p.write_rts = snap.calls("sdb", "PutAttributes") +
                snap.calls("sdb", "BatchPutAttributes");
  p.sqs_send_rts = snap.calls("sqs", "SendMessage") +
                   snap.calls("sqs", "SendMessageBatch");
  p.total_calls = snap.total_calls();
  ShardRouter router(shards);
  std::uint64_t domain_calls_total = 0;
  for (const std::string& domain : router.domains()) {
    p.peak_domain_items =
        std::max(p.peak_domain_items, run.services.sdb.item_count(domain));
    const std::uint64_t calls = snap.detail_calls("sdb", domain);
    p.peak_domain_calls = std::max(p.peak_domain_calls, calls);
    domain_calls_total += calls;
  }
  if (domain_calls_total > 0)
    p.domain_hotness = static_cast<double>(p.peak_domain_calls) *
                       static_cast<double>(shards) /
                       static_cast<double>(domain_calls_total);
  auto engine = make_sdb_query_engine(
      run.services,
      SdbQueryConfig{.shard_count = shards, .parallelism = parallelism});
  p.query_ms = bench::wall_clock_ms([&] {
    p.q2 = engine->q2_outputs_of(program);
    p.q3 = engine->q3_descendants_of(program);
  });
  p.query_elapsed = run.env.elapsed_time() - p.store_elapsed;
  return p;
}

}  // namespace

int main() {
  const workloads::WorkloadOptions options = bench::bench_workload_options();
  bench::print_header("Ablation: batched + sharded storage (WAL architecture)");
  std::printf("workload: combined dataset (count_scale %.2f, size_scale %.2f)\n",
              options.count_scale, options.size_scale);

  const pass::SyscallTrace trace = workloads::build_combined_trace(options);
  const std::string program = workloads::BlastWorkload::kBlastProgram;

  const std::size_t parallelism = bench::bench_parallelism();
  std::vector<Point> points;
  for (const std::size_t batch : {std::size_t{1}, std::size_t{25}})
    for (const std::size_t shards :
         {std::size_t{1}, std::size_t{4}, std::size_t{8}})
      points.push_back(run_point(trace, program, batch, shards));
  // The shard-parallel points: same layouts, concurrent shard requests.
  // Skipped at parallelism 1 -- they would duplicate the sequential points
  // (same key in the JSON, self-comparing shape checks).
  if (parallelism > 1)
    for (const std::size_t shards : {std::size_t{4}, std::size_t{8}})
      points.push_back(run_point(trace, program, 25, shards, parallelism));
  // The cross-close group-commit points: same sharded layout, the client
  // session coalescing 25 closes per durability barrier (batched WAL
  // sends, and one maintenance step per group).
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}})
    points.push_back(run_point(trace, program, 25, shards, 1, 25));

  std::printf("\n%6s %7s %4s %6s %13s %10s %11s %11s %7s %8s %8s %11s\n",
              "batch", "shards", "par", "group", "sdb write RTs", "sqs sends",
              "total calls", "peak items", "hotness", "store ms", "query ms",
              "elapsed min");
  bench::print_rule(100);
  for (const Point& p : points)
    std::printf(
        "%6zu %7zu %4zu %6zu %13s %10s %11s %11s %7.2f %8.1f %8.1f %11.1f\n",
        p.batch, p.shards, p.parallelism, p.group,
        bench::fmt_count(p.write_rts).c_str(),
        bench::fmt_count(p.sqs_send_rts).c_str(),
        bench::fmt_count(p.total_calls).c_str(),
        bench::fmt_count(p.peak_domain_items).c_str(), p.domain_hotness,
        p.store_ms, p.query_ms,
        static_cast<double>(p.store_elapsed + p.query_elapsed) /
            sim::kMinute);

  const auto find_point = [&](std::size_t batch, std::size_t shards,
                              std::size_t par = 1,
                              std::size_t group = 1) -> const Point& {
    for (const Point& p : points)
      if (p.batch == batch && p.shards == shards && p.parallelism == par &&
          p.group == group)
        return p;
    std::fprintf(stderr, "sweep point (%zu, %zu, %zu, %zu) missing\n", batch,
                 shards, par, group);
    std::abort();
  };
  const Point& base = find_point(1, 1);   // the paper's layout
  const Point& fast = find_point(25, 1);
  const double speedup =
      fast.write_rts > 0 ? static_cast<double>(base.write_rts) /
                               static_cast<double>(fast.write_rts)
                         : 0.0;
  std::printf("\nbatch 25 vs 1 (single domain): %.1fx fewer write RTs\n",
              speedup);
  double query_wall_speedup = 0.0;
  if (parallelism > 1) {
    const Point& par8 = find_point(25, 8, parallelism);
    const Point& seq8 = find_point(25, 8);
    query_wall_speedup =
        par8.query_ms > 0 ? seq8.query_ms / par8.query_ms : 0.0;
    std::printf("shards 8, parallelism %zu vs 1: query wall-clock %.1f -> "
                "%.1f ms (%.2fx on %zu hardware threads)\n",
                parallelism, seq8.query_ms, par8.query_ms, query_wall_speedup,
                bench::hardware_threads());
  }

  // Cross-close group commit: the same layout driven through a 25-close
  // session group must shed SQS log round trips (batched sends) without
  // costing SimpleDB writes or elapsed time -- and, like every point,
  // without changing a single query answer.
  const Point& grp = find_point(25, 4, 1, 25);
  const Point& grp_base = find_point(25, 4);
  const double sqs_shed =
      grp.sqs_send_rts > 0 ? static_cast<double>(grp_base.sqs_send_rts) /
                                 static_cast<double>(grp.sqs_send_rts)
                           : 0.0;
  std::printf("group 25 vs 1 (batch 25, shards 4): sqs sends %s -> %s "
              "(%.1fx fewer log round trips)\n",
              bench::fmt_count(grp_base.sqs_send_rts).c_str(),
              bench::fmt_count(grp.sqs_send_rts).c_str(), sqs_shed);

  bool ok = true;
  for (const Point& p : points) {
    ok = ok && p.q2 == base.q2;  // answers never depend on the knobs
    ok = ok && p.q3 == base.q3;
  }
  ok = ok && speedup >= 5.0;
  ok = ok && sqs_shed >= 2.0;
  ok = ok && grp.write_rts <= grp_base.write_rts;
  ok = ok && grp.store_elapsed <= grp_base.store_elapsed;
  // More shards -> lower per-domain peak (contention headroom).
  ok = ok && find_point(25, 8).peak_domain_items < base.peak_domain_items;
  // Parallelism changes wall-clock and ledger elapsed time only: identical
  // billing and layout, and the overlapped (critical-path) elapsed time
  // never exceeds the sequential sum.
  if (parallelism > 1) {
    const Point& par8 = find_point(25, 8, parallelism);
    const Point& seq8 = find_point(25, 8);
    ok = ok && par8.write_rts == seq8.write_rts;
    ok = ok && par8.total_calls == seq8.total_calls;
    ok = ok && par8.peak_domain_items == seq8.peak_domain_items;
    ok = ok && par8.store_elapsed + par8.query_elapsed <=
                   seq8.store_elapsed + seq8.query_elapsed;
  }
  std::printf("\nshape check (identical answers at every point; batch >= 5x; "
              "sharding lowers per-domain peak; parallelism billing-"
              "neutral; group commit sheds >= 2x sqs sends): %s\n",
              ok ? "PASS" : "FAIL");

  if (const char* path = bench::json_output_path()) {
    bench::JsonObject j;
    j.add("bench", std::string("ablation_sharding"));
    j.add("count_scale", options.count_scale);
    j.add("parallelism", static_cast<std::uint64_t>(parallelism));
    j.add("hw_threads", static_cast<std::uint64_t>(bench::hardware_threads()));
    for (const Point& p : points) {
      // Group-1 points keep their pre-session key names so trajectories
      // stay comparable across PRs; group-commit points get a _g suffix.
      const std::string key =
          "b" + std::to_string(p.batch) + "_s" + std::to_string(p.shards) +
          "_p" + std::to_string(p.parallelism) +
          (p.group > 1 ? "_g" + std::to_string(p.group) : "");
      j.add(key + "_write_rts", p.write_rts);
      j.add(key + "_sqs_send_rts", p.sqs_send_rts);
      j.add(key + "_peak_domain_items", p.peak_domain_items);
      j.add(key + "_peak_domain_calls", p.peak_domain_calls);
      j.add(key + "_domain_hotness", p.domain_hotness);
      j.add(key + "_store_ms", p.store_ms);
      j.add(key + "_query_ms", p.query_ms);
      j.add(key + "_store_elapsed_us",
            static_cast<std::uint64_t>(p.store_elapsed));
      j.add(key + "_query_elapsed_us",
            static_cast<std::uint64_t>(p.query_elapsed));
    }
    j.add("batch_speedup", speedup);
    j.add("query_wall_speedup", query_wall_speedup);
    j.add("group_sqs_shed", sqs_shed);
    j.add("shape_check", std::string(ok ? "PASS" : "FAIL"));
    if (j.write(path)) std::printf("json written: %s\n", path);
  }
  return ok ? 0 : 1;
}
