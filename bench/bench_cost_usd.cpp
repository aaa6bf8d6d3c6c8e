// Experiment A4: dollars and elapsed time.
//
// Section 5 closes with: "operations are much cheaper (in USD) than storage
// in the AWS pricing model", and the conclusion notes a prototype would let
// them "measure the impact of the extra operations on elapsed time". This
// bench prices each architecture's full workload run with the paper's
// January-2009 price sheet and reports the client elapsed time from the
// per-client latency ledger -- with shard_count = 1 / parallelism = 1 the
// Arch 1/2 timeline is bit-identical to the retired global-clock charging
// (asserted below against busy_time; Arch 3/4 move their commit-daemon
// maintenance onto its own actor, and the assertion accounts for it), and a
// second sweep shows the latency *hiding* a sharded + parallel layout buys:
// overlapped scatter/gather is charged its critical path instead of the sum
// of its legs.
#include <cstdio>

#include <map>

#include "bench_common.hpp"
#include "cloudprov/query.hpp"
#include "cloudprov/sdb_backend.hpp"
#include "cloudprov/wal_backend.hpp"
#include "cost/pricing.hpp"
#include "workloads/blast.hpp"

using namespace provcloud;
using namespace provcloud::cloudprov;
using namespace provcloud::cost;
namespace sim = provcloud::sim;

namespace {

/// One sharded run: workload stores + the Q2/Q3 scatter/gather queries,
/// elapsed time split per phase from the driver's ledger timeline.
struct ElapsedPoint {
  std::size_t parallelism = 1;
  sim::SimTime store_elapsed = 0;
  sim::SimTime query_elapsed = 0;
  std::uint64_t total_calls = 0;
  sim::SimTime total() const { return store_elapsed + query_elapsed; }
};

ElapsedPoint run_elapsed_point(Architecture arch,
                               const pass::SyscallTrace& trace,
                               std::size_t shards, std::size_t parallelism) {
  bench::WorkloadRun run([&](CloudServices& s)
                             -> std::unique_ptr<ProvenanceBackend> {
    if (arch == Architecture::kS3SimpleDb)
      return make_sdb_backend(s, SdbBackendConfig{.shard_count = shards,
                                                  .parallelism = parallelism});
    WalBackendConfig cfg;
    cfg.shard_count = shards;
    cfg.parallelism = parallelism;
    return make_wal_backend(s, cfg);
  });
  ElapsedPoint p;
  p.parallelism = parallelism;
  run.run(trace);
  p.store_elapsed = run.env.elapsed_time();
  auto engine = make_sdb_query_engine(
      run.services,
      SdbQueryConfig{.shard_count = shards, .parallelism = parallelism});
  engine->q2_outputs_of(workloads::BlastWorkload::kBlastProgram);
  engine->q3_descendants_of(workloads::BlastWorkload::kBlastProgram);
  p.query_elapsed = run.env.elapsed_time() - p.store_elapsed;
  p.total_calls = run.env.meter().snapshot().total_calls();
  return p;
}

double as_min(sim::SimTime t) {
  return static_cast<double>(t) / sim::kMinute;
}

/// A run's counter total (0 when the run never registered it).
sim::SimTime counter_total(aws::CloudEnv& env, const char* name) {
  const obs::Counter* c = env.metrics().find_counter(name);
  return c == nullptr ? 0 : c->value();
}

/// One session-group-commit run: the workload driven through a Session
/// with `group` closes coalesced per durability barrier.
struct GroupPoint {
  std::size_t group = 1;
  double usd = 0;                   // full-run cost (incl. transfer+storage)
  std::uint64_t closes = 0;            // flush units stored
  std::uint64_t sdb_write_rts = 0;     // PutAttributes + BatchPutAttributes
  std::uint64_t sqs_send_rts = 0;      // SendMessage + SendMessageBatch
  std::uint64_t write_rts = 0;   // all write RTs: S3 PUT/COPY + sdb writes
  std::uint64_t total_calls = 0;
  sim::SimTime elapsed = 0;
  bench::LatencyPercentiles close;  // per-close latency (close.latency_us)
};

GroupPoint run_group_point(Architecture arch, const pass::SyscallTrace& trace,
                           std::size_t group) {
  bench::WorkloadRun run(arch);
  run.group_size = group;
  run.run(trace);
  GroupPoint p;
  p.group = group;
  p.close = bench::LatencyPercentiles::of(run.env.metrics(),
                                          "close.latency_us");
  const auto snap = run.env.meter().snapshot();
  p.usd = estimate_cost(snap).total();
  p.closes = run.stats.flush_units;
  p.sdb_write_rts = snap.calls("sdb", "PutAttributes") +
                    snap.calls("sdb", "BatchPutAttributes");
  p.sqs_send_rts = snap.calls("sqs", "SendMessage") +
                   snap.calls("sqs", "SendMessageBatch");
  p.write_rts = snap.calls("s3", "PUT") + snap.calls("s3", "COPY") +
                snap.calls("s3", "DELETE") + p.sdb_write_rts;
  p.total_calls = snap.total_calls();
  p.elapsed = run.env.elapsed_time();
  return p;
}

/// One deadline-driven run: a fixed offered load (one close per 20 ms of
/// simulated time, group cap 25) with the adaptive flush deadline swept.
/// Short deadlines flush small groups (deadline expiry wins); long ones let
/// groups fill toward the cap, shedding write round trips at the price of
/// closes idling in the queue -- the idle wait lands on the ledger.
struct DeadlinePoint {
  sim::SimTime deadline = 0;
  std::uint64_t write_rts = 0;  // the arch's batched write: sdb RTs or sqs sends
  sim::SimTime elapsed = 0;
  sim::SimTime idle = 0;
};

DeadlinePoint run_deadline_point(Architecture arch,
                                 const pass::SyscallTrace& trace,
                                 sim::SimTime deadline) {
  bench::WorkloadRun run(arch);
  run.group_size = 25;
  run.flush_deadline = deadline;
  run.inter_close_gap = 20 * sim::kMillisecond;
  run.run(trace);
  DeadlinePoint p;
  p.deadline = deadline;
  const auto snap = run.env.meter().snapshot();
  if (arch == Architecture::kS3SimpleDb) {
    p.write_rts = snap.calls("sdb", "PutAttributes") +
                  snap.calls("sdb", "BatchPutAttributes");
  } else if (arch == Architecture::kS3SimpleDbSqs) {
    p.write_rts = snap.calls("sqs", "SendMessage") +
                  snap.calls("sqs", "SendMessageBatch");
  } else {
    // Arch 4: the whole write path -- segment PUTs plus index batches.
    p.write_rts = snap.calls("s3", "PUT") + snap.calls("s3", "COPY") +
                  snap.calls("s3", "DELETE") +
                  snap.calls("sdb", "PutAttributes") +
                  snap.calls("sdb", "BatchPutAttributes");
  }
  p.elapsed = run.env.elapsed_time();
  const auto by_service = run.env.elapsed_by_service();
  const auto idle_it = by_service.find("idle");
  // The queue idle only: the quiesce() join's wait for the maintenance
  // actor is idle on the ledger too, but no deadline caused it.
  p.idle = (idle_it == by_service.end() ? 0 : idle_it->second) -
           counter_total(run.env, "idle.maintenance_wait_us");
  return p;
}

}  // namespace

int main() {
  const workloads::WorkloadOptions options = bench::bench_workload_options();
  bench::print_header(
      "A4: USD cost and elapsed-time impact per architecture (Jan-2009 "
      "prices)");
  std::printf("workload: combined dataset (count_scale %.2f, size_scale "
              "%.2f); latency model: ~45ms/request, 4MB/s up, 8MB/s down\n",
              options.count_scale, options.size_scale);

  const pass::SyscallTrace trace = workloads::build_combined_trace(options);

  std::printf("\n%-17s %10s %10s %10s %10s %10s | %10s %12s\n", "", "req USD",
              "xfer USD", "store/mo", "sdb box", "total", "ops",
              "elapsed");
  bench::print_rule();

  bool ledger_matches_legacy = true;
  bool service_split_sums = true;
  double arch1_total = 0, arch3_total = 0;
  sim::SimTime arch1_elapsed = 0, arch3_elapsed = 0;
  sim::SimTime arch2_seq_elapsed = 0, arch3_seq_elapsed = 0,
               arch4_seq_elapsed = 0;
  std::uint64_t arch2_seq_calls = 0, arch3_seq_calls = 0, arch4_seq_calls = 0;
  std::map<std::string, sim::SimTime, std::less<>> arch_by_service[4];
  bench::LatencyPercentiles arch_close[4];
  sim::SimTime arch_maintenance_busy[4] = {};
  sim::SimTime arch_maintenance_wait[4] = {};
  std::size_t arch_index = 0;
  for (const Architecture arch :
       {Architecture::kS3Only, Architecture::kS3SimpleDb,
        Architecture::kS3SimpleDbSqs, Architecture::kS3SegmentLog}) {
    bench::WorkloadRun run(arch);
    run.run(trace);
    const auto snap = run.env.meter().snapshot();
    const CostEstimate c = estimate_cost(snap);
    const double requests = c.s3_requests + c.sqs_requests;
    const double transfer = c.s3_transfer + c.sdb_transfer + c.sqs_transfer;
    const double storage = c.s3_storage_month + c.sdb_storage_month;
    const sim::SimTime elapsed = run.env.elapsed_time();
    const sim::SimTime busy = run.env.busy_time();
    const sim::SimTime maintenance_busy =
        counter_total(run.env, "maintenance.busy_us");
    const sim::SimTime maintenance_wait =
        counter_total(run.env, "idle.maintenance_wait_us");
    arch_maintenance_busy[arch_index] = maintenance_busy;
    arch_maintenance_wait[arch_index] = maintenance_wait;
    // The acceptance bar for the ledger refactor: a sequential
    // (parallelism = 1) run's timeline is the exact sum the retired
    // charge_latency mode produced. The session refactor inherits the same
    // bar: these runs go through a group-size-1 Session. Arch 1/2 have no
    // maintenance, so they keep it exactly. On Arch 3/4 the commit daemon's
    // maintenance runs on its own actor: the client's timeline holds every
    // charge but the actor's busy time, plus the quiesce() join's wait for
    // the actor -- so a dropped or double-counted charge still fails. The
    // overlap can only shorten it, and the join keeps it from ending before
    // the actor's work does.
    if (arch == Architecture::kS3Only || arch == Architecture::kS3SimpleDb)
      ledger_matches_legacy = ledger_matches_legacy && elapsed == busy;
    else
      ledger_matches_legacy =
          ledger_matches_legacy &&
          elapsed - maintenance_wait + maintenance_busy == busy &&
          elapsed >= maintenance_busy && elapsed <= busy;
    // Per-service breakdown: which service the client actually waited on;
    // the split must account for the whole timeline.
    arch_by_service[arch_index] = run.env.elapsed_by_service();
    sim::SimTime split_sum = 0;
    for (const auto& [service, t] : arch_by_service[arch_index])
      split_sum += t;
    service_split_sums = service_split_sums && split_sum == elapsed;
    arch_close[arch_index] =
        bench::LatencyPercentiles::of(run.env.metrics(), "close.latency_us");
    ++arch_index;
    std::printf("%-17s %10s %10s %10s %10s %10s | %10s %9.1f min\n",
                to_string(arch), format_usd(requests).c_str(),
                format_usd(transfer).c_str(), format_usd(storage).c_str(),
                format_usd(c.sdb_box_usage).c_str(),
                format_usd(c.total()).c_str(),
                bench::fmt_count(snap.total_calls()).c_str(),
                as_min(elapsed));
    if (arch == Architecture::kS3Only) {
      arch1_total = c.total();
      arch1_elapsed = elapsed;
    }
    if (arch == Architecture::kS3SimpleDb) {
      arch2_seq_elapsed = elapsed;
      arch2_seq_calls = snap.total_calls();
    }
    if (arch == Architecture::kS3SimpleDbSqs) {
      arch3_total = c.total();
      arch3_elapsed = elapsed;
      arch3_seq_elapsed = elapsed;
      arch3_seq_calls = snap.total_calls();
    }
    if (arch == Architecture::kS3SegmentLog) {
      arch4_seq_elapsed = elapsed;
      arch4_seq_calls = snap.total_calls();
    }
  }

  std::printf("\nelapsed time by service waited on (critical path split):\n");
  arch_index = 0;
  for (const Architecture arch :
       {Architecture::kS3Only, Architecture::kS3SimpleDb,
        Architecture::kS3SimpleDbSqs, Architecture::kS3SegmentLog}) {
    std::printf("%-17s", to_string(arch));
    for (const auto& [service, t] : arch_by_service[arch_index])
      std::printf("  %s %.1f min", service.c_str(), as_min(t));
    std::printf("\n");
    ++arch_index;
  }

  std::printf("\ncommit-daemon maintenance actor (busy, quiesce() join "
              "wait):\n");
  arch_index = 0;
  for (const Architecture arch :
       {Architecture::kS3Only, Architecture::kS3SimpleDb,
        Architecture::kS3SimpleDbSqs, Architecture::kS3SegmentLog}) {
    std::printf("%-17s  busy %.1f min   join wait %.1f min\n",
                to_string(arch), as_min(arch_maintenance_busy[arch_index]),
                as_min(arch_maintenance_wait[arch_index]));
    ++arch_index;
  }

  std::printf("\nper-close latency percentiles (close.latency_us):\n");
  arch_index = 0;
  for (const Architecture arch :
       {Architecture::kS3Only, Architecture::kS3SimpleDb,
        Architecture::kS3SimpleDbSqs, Architecture::kS3SegmentLog}) {
    const bench::LatencyPercentiles& p = arch_close[arch_index];
    std::printf("%-17s  p50 %8llu us   p99 %8llu us   p999 %8llu us\n",
                to_string(arch), static_cast<unsigned long long>(p.p50),
                static_cast<unsigned long long>(p.p99),
                static_cast<unsigned long long>(p.p999));
    ++arch_index;
  }
  // No close pays for a WAL drain, an index publication or a cleaner
  // pass: with maintenance off the close path, the per-close tail stays
  // within 3x of the median on Arch 3 and Arch 4.
  const bool close_tail_ok =
      arch_close[2].p99 <= 3 * arch_close[2].p50 &&
      arch_close[3].p99 <= 3 * arch_close[3].p50;

  std::printf("\nfull-properties premium (arch3 vs arch1): %.2fx USD, %.2fx "
              "elapsed time\n",
              arch3_total / arch1_total,
              static_cast<double>(arch3_elapsed) /
                  static_cast<double>(arch1_elapsed));
  std::printf("(the paper's claim to verify: the premium is dominated by "
              "operations, which are cheap relative to storage/transfer.)\n");

  // --- latency hiding: the sharded layouts at parallelism 1 vs N ---
  //
  // Same layout, same billing; the parallel run overlaps per-domain round
  // trips (WAL flush, query scatter/gather), so its timeline reports the
  // critical path instead of the sum -- the elapsed-time payoff the paper's
  // conclusion asks about.
  const std::size_t shards = 4;
  const std::size_t parallelism = bench::bench_parallelism();
  struct ArchSweep {
    Architecture arch;
    const char* label;
    ElapsedPoint seq;
    ElapsedPoint par;
  };
  std::vector<ArchSweep> sweeps;
  for (const Architecture arch :
       {Architecture::kS3SimpleDb, Architecture::kS3SimpleDbSqs}) {
    ArchSweep sweep;
    sweep.arch = arch;
    sweep.label = to_string(arch);
    sweep.seq = run_elapsed_point(arch, trace, shards, 1);
    if (parallelism > 1)
      sweep.par = run_elapsed_point(arch, trace, shards, parallelism);
    sweeps.push_back(sweep);
  }

  bool parallel_ok = true;
  if (parallelism > 1) {
    std::printf("\nelapsed time, %zu shard domains (store + Q2/Q3 queries):\n",
                shards);
    std::printf("%-17s %4s %12s %12s %12s\n", "", "par", "store min",
                "query min", "total min");
    bench::print_rule();
    for (const ArchSweep& sweep : sweeps) {
      for (const ElapsedPoint* p : {&sweep.seq, &sweep.par})
        std::printf("%-17s %4zu %12.1f %12.1f %12.1f\n", sweep.label,
                    p->parallelism, as_min(p->store_elapsed),
                    as_min(p->query_elapsed), as_min(p->total()));
      // Critical path cannot exceed the sequential sum, and overlapping
      // changes no billing.
      parallel_ok = parallel_ok && sweep.par.total() <= sweep.seq.total();
      parallel_ok =
          parallel_ok && sweep.par.total_calls == sweep.seq.total_calls;
      std::printf("%-17s      latency hidden by overlap: %.1f min (%.2fx)\n",
                  "", as_min(sweep.seq.total() - sweep.par.total()),
                  sweep.par.total() > 0
                      ? static_cast<double>(sweep.seq.total()) /
                            static_cast<double>(sweep.par.total())
                      : 0.0);
    }
  }

  // --- cross-close group commit: the session group-size sweep ---
  //
  // Same workload, same layout, submitted through a Session that coalesces
  // `group` closes per durability barrier. Arch 2 turns a group into one
  // BatchPutAttributes chain (instead of one per close); Arch 3 turns a
  // group's WAL records into batched SQS sends. group 1 must reproduce the
  // per-close runs above exactly.
  const std::vector<std::size_t> group_sizes{1, 8, 25};
  std::printf("\nsession group commit ($ and elapsed vs. group size):\n");
  std::printf("%-17s %5s %10s %12s %11s %11s %11s %12s\n", "", "group",
              "$/close", "sdb write RT", "sqs sends", "write RTs",
              "elapsed min", "total calls");
  bench::print_rule();
  std::vector<std::pair<Architecture, std::vector<GroupPoint>>> group_sweeps;
  for (const Architecture arch :
       {Architecture::kS3SimpleDb, Architecture::kS3SimpleDbSqs,
        Architecture::kS3SegmentLog}) {
    std::vector<GroupPoint> points;
    for (const std::size_t group : group_sizes)
      points.push_back(run_group_point(arch, trace, group));
    for (const GroupPoint& p : points)
      std::printf("%-17s %5zu %10.6f %12s %11s %11s %11.1f %12s\n",
                  to_string(arch), p.group,
                  p.closes > 0 ? p.usd / static_cast<double>(p.closes) : 0.0,
                  bench::fmt_count(p.sdb_write_rts).c_str(),
                  bench::fmt_count(p.sqs_send_rts).c_str(),
                  bench::fmt_count(p.write_rts).c_str(), as_min(p.elapsed),
                  bench::fmt_count(p.total_calls).c_str());
    group_sweeps.emplace_back(arch, std::move(points));
  }
  // Group 1 == the per-close protocol (same run as the table above);
  // group 25 must actually shed round trips where the architecture
  // batches: SimpleDB writes for Arch 2, SQS sends for Arch 3, the whole
  // write path (one segment PUT per group, a sliver of an index batch) for
  // Arch 4.
  bool group_ok = true;
  for (const auto& [arch, points] : group_sweeps) {
    const GroupPoint& g1 = points.front();
    const GroupPoint& g25 = points.back();
    if (arch == Architecture::kS3SimpleDb) {
      group_ok = group_ok && g1.elapsed == arch2_seq_elapsed &&
                 g1.total_calls == arch2_seq_calls;
      group_ok = group_ok && g25.sdb_write_rts * 2 <= g1.sdb_write_rts;
    } else if (arch == Architecture::kS3SimpleDbSqs) {
      group_ok = group_ok && g1.elapsed == arch3_seq_elapsed &&
                 g1.total_calls == arch3_seq_calls;
      group_ok = group_ok && g25.sqs_send_rts * 2 <= g1.sqs_send_rts;
    } else {
      group_ok = group_ok && g1.elapsed == arch4_seq_elapsed &&
                 g1.total_calls == arch4_seq_calls;
      group_ok = group_ok && g25.write_rts * 2 <= g1.write_rts;
    }
    // Batching never makes the client's timeline longer.
    group_ok = group_ok && g25.elapsed <= g1.elapsed;
  }
  // The Arch-4 payoff bar: at group 25 the segment log amortizes a whole
  // group into one PUT plus a fraction of one index batch, so it must shed
  // >= 5x the write round trips AND >= 5x the $/close of Arch 2 at the
  // same group size.
  const GroupPoint& arch2_g25 = group_sweeps[0].second.back();
  const GroupPoint& arch4_g25 = group_sweeps[2].second.back();
  const double arch2_usd_close =
      arch2_g25.closes > 0
          ? arch2_g25.usd / static_cast<double>(arch2_g25.closes)
          : 0.0;
  const double arch4_usd_close =
      arch4_g25.closes > 0
          ? arch4_g25.usd / static_cast<double>(arch4_g25.closes)
          : 0.0;
  const bool lsb_payoff_ok =
      arch4_g25.write_rts * 5 <= arch2_g25.write_rts &&
      arch4_usd_close * 5.0 <= arch2_usd_close;
  std::printf("\narch4 vs arch2 at group 25: %.1fx fewer write RTs, %.1fx "
              "cheaper per close\n",
              arch4_g25.write_rts > 0
                  ? static_cast<double>(arch2_g25.write_rts) /
                        static_cast<double>(arch4_g25.write_rts)
                  : 0.0,
              arch4_usd_close > 0 ? arch2_usd_close / arch4_usd_close : 0.0);

  // --- adaptive flush deadline at fixed offered load ---
  //
  // One close arrives per 20 ms; the daemon flushes on group-full (25) or
  // deadline expiry, whichever first. Sweeping the deadline trades write
  // round trips against queue idle time: at 25 ms a group barely pairs up,
  // at 400 ms groups fill toward the cap.
  const std::vector<sim::SimTime> deadlines{25 * sim::kMillisecond,
                                            100 * sim::kMillisecond,
                                            400 * sim::kMillisecond};
  std::printf("\nadaptive flush deadline (one close per 20 ms, group cap "
              "25):\n");
  std::printf("%-17s %9s %12s %12s %12s\n", "", "deadline", "write RTs",
              "elapsed min", "idle min");
  bench::print_rule();
  bool deadline_ok = true;
  std::vector<std::pair<Architecture, std::vector<DeadlinePoint>>>
      deadline_sweeps;
  for (const Architecture arch :
       {Architecture::kS3SimpleDb, Architecture::kS3SimpleDbSqs,
        Architecture::kS3SegmentLog}) {
    std::vector<DeadlinePoint> points;
    for (const sim::SimTime deadline : deadlines)
      points.push_back(run_deadline_point(arch, trace, deadline));
    for (const DeadlinePoint& p : points) {
      std::printf("%-17s %6lld ms %12s %12.1f %12.1f\n", to_string(arch),
                  static_cast<long long>(p.deadline / sim::kMillisecond),
                  bench::fmt_count(p.write_rts).c_str(), as_min(p.elapsed),
                  as_min(p.idle));
      // Deadline-expiry flushes really idled: the wait is on the ledger.
      deadline_ok = deadline_ok && p.idle > 0;
    }
    // A longer deadline coalesces more closes per flush, never fewer.
    for (std::size_t i = 1; i < points.size(); ++i)
      deadline_ok =
          deadline_ok && points[i].write_rts <= points[i - 1].write_rts;
    deadline_sweeps.emplace_back(arch, std::move(points));
  }

  const bool premium_ok = arch3_total < 4.0 * arch1_total;
  const bool ok = premium_ok && ledger_matches_legacy && parallel_ok &&
                  group_ok && lsb_payoff_ok && service_split_sums &&
                  deadline_ok && close_tail_ok;
  std::printf("\nshape check (premium < 4x in USD; sequential ledger == "
              "legacy busy time on arch1/2, and on arch3/4 == busy time "
              "less maintenance busy plus its join wait, between "
              "maintenance busy and busy time; "
              "parallel critical path <= sequential sum at equal billing; "
              "group 1 == per-close protocol and group 25 sheds >= 2x write "
              "RTs; arch4 at group 25 sheds >= 5x write RTs and >= 5x "
              "$/close vs arch2; per-service split sums to elapsed; "
              "deadline sweep sheds write RTs as the deadline grows with "
              "idle wait on the ledger; arch3/4 group-1 close p99 <= 3x "
              "p50): %s\n",
              ok ? "PASS" : "FAIL");

  if (const char* path = bench::json_output_path()) {
    bench::JsonObject j;
    j.add("bench", std::string("cost_usd"));
    j.add("count_scale", options.count_scale);
    j.add("parallelism", static_cast<std::uint64_t>(parallelism));
    j.add("hw_threads", static_cast<std::uint64_t>(bench::hardware_threads()));
    j.add("arch1_elapsed_us", static_cast<std::uint64_t>(arch1_elapsed));
    j.add("arch2_elapsed_us", static_cast<std::uint64_t>(arch2_seq_elapsed));
    j.add("arch3_elapsed_us", static_cast<std::uint64_t>(arch3_seq_elapsed));
    j.add("arch4_elapsed_us", static_cast<std::uint64_t>(arch4_seq_elapsed));
    j.add("arch1_usd", arch1_total);
    j.add("arch3_usd", arch3_total);
    for (const ArchSweep& sweep : sweeps) {
      const std::string key =
          sweep.arch == Architecture::kS3SimpleDb ? "arch2" : "arch3";
      j.add(key + "_s4_p1_elapsed_us",
            static_cast<std::uint64_t>(sweep.seq.total()));
      if (parallelism > 1)
        j.add(key + "_s4_p" + std::to_string(parallelism) + "_elapsed_us",
              static_cast<std::uint64_t>(sweep.par.total()));
    }
    // Per-service elapsed breakdown of the per-close (group 1) runs.
    arch_index = 0;
    for (const char* arch_key : {"arch1", "arch2", "arch3", "arch4"}) {
      for (const auto& [service, t] : arch_by_service[arch_index])
        j.add(std::string(arch_key) + "_elapsed_" + service + "_us",
              static_cast<std::uint64_t>(t));
      // Per-close latency percentiles of the same runs.
      arch_close[arch_index].add_to(j, std::string(arch_key) + "_close");
      // The maintenance actor's busy time and the quiesce() join's wait.
      j.add(std::string(arch_key) + "_maintenance_busy_us",
            static_cast<std::uint64_t>(arch_maintenance_busy[arch_index]));
      j.add(std::string(arch_key) + "_maintenance_wait_us",
            static_cast<std::uint64_t>(arch_maintenance_wait[arch_index]));
      ++arch_index;
    }
    // The session group-commit sweep: $/close and elapsed vs. group size.
    const auto arch_json_key = [](Architecture arch) {
      return arch == Architecture::kS3SimpleDb      ? "arch2"
             : arch == Architecture::kS3SimpleDbSqs ? "arch3"
                                                    : "arch4";
    };
    for (const auto& [arch, points] : group_sweeps) {
      const std::string key = arch_json_key(arch);
      for (const GroupPoint& p : points) {
        const std::string g = key + "_g" + std::to_string(p.group);
        j.add(g + "_elapsed_us", static_cast<std::uint64_t>(p.elapsed));
        j.add(g + "_usd_per_close",
              p.closes > 0 ? p.usd / static_cast<double>(p.closes) : 0.0);
        j.add(g + "_sdb_write_rts", p.sdb_write_rts);
        j.add(g + "_sqs_send_rts", p.sqs_send_rts);
        j.add(g + "_write_rts", p.write_rts);
        p.close.add_to(j, g + "_close");
      }
    }
    // The deadline sweep: write RTs vs. idle wait at fixed offered load.
    for (const auto& [arch, points] : deadline_sweeps) {
      const std::string key = arch_json_key(arch);
      for (const DeadlinePoint& p : points) {
        const std::string d =
            key + "_d" + std::to_string(p.deadline / sim::kMillisecond);
        j.add(d + "_write_rts", p.write_rts);
        j.add(d + "_elapsed_us", static_cast<std::uint64_t>(p.elapsed));
        j.add(d + "_idle_us", static_cast<std::uint64_t>(p.idle));
      }
    }
    j.add("shape_check", std::string(ok ? "PASS" : "FAIL"));
    if (j.write(path)) std::printf("json written: %s\n", path);
  }

  // A dedicated traced smoke run: Arch 3 per-close with the virtual-time
  // tracer on, dumped as Chrome trace-event JSON (loadable in Perfetto).
  // Tracing never changes billing or elapsed time, but the headline runs
  // above stay untraced regardless.
  if (const char* trace_path = bench::trace_output_path()) {
    bench::WorkloadRun traced(Architecture::kS3SimpleDbSqs);
    traced.env.set_tracing(true);
    traced.run(trace);
    if (traced.env.tracer().write_chrome_json(trace_path))
      std::printf("trace written: %s (%zu events)\n", trace_path,
                  traced.env.tracer().event_count());
  }
  return ok ? 0 : 1;
}
