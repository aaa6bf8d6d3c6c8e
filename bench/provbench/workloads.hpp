// provbench workloads: four fixed-size scenarios driven through the public
// APIs only (PassObserver, Session, Frontend, QueryEngine, ManifestWriter,
// LsbBackend::stats(), meter snapshots, ledger and registry reads).
//
//   ingest_wal       Arch 3, eventual consistency, group 1 (the paper's
//                    per-close protocol): SQS, WAL replay, visibility waits.
//   ingest_segments  Arch 4, group 25 + 100 ms deadline, quiesce() timed:
//                    segment seals, index publication and the cleaner.
//   lineage_mixed    Arch 2 x 4 shards with a rolled snapshot: ancestry
//                    walks, rolls and searches beside the writes.
//   tenant_storm     open loop through the Frontend into Arch 2 under a
//                    tenant storm and a 503-prone SimpleDB.
//
// README.md gives the reason for each. Every rep builds a fresh CloudEnv
// with parallelism 1 and one driver thread, so all virtual-time, cost and
// count metrics are a pure function of the seed. Every workload reads too:
// lineage_mixed interleaves its walks with the writes, the ingest workloads
// walk every version they stored once it is durable, and tenant_storm walks
// kReadbackWalks accepted closes.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "aws/common/env.hpp"
#include "cloudprov/ancestry.hpp"
#include "cloudprov/frontend/frontend.hpp"
#include "cloudprov/lsb/lsb_backend.hpp"
#include "cloudprov/manifest/writer.hpp"
#include "cloudprov/query.hpp"
#include "cloudprov/sdb_backend.hpp"
#include "cloudprov/session.hpp"
#include "cloudprov/wal_backend.hpp"
#include "cost/pricing.hpp"
#include "pass/observer.hpp"
#include "probe.hpp"
#include "util/rng.hpp"
#include "workloads/blast.hpp"
#include "workloads/combined.hpp"
#include "workloads/openloop.hpp"

namespace provbench {

namespace aws = provcloud::aws;
namespace cp = provcloud::cloudprov;
namespace pass = provcloud::pass;
namespace wl = provcloud::workloads;
namespace util = provcloud::util;

/// The trace workloads' one client advances the virtual clock this much
/// after each close: an offered 200 closes/s.
inline constexpr sim::SimTime kCloseGap = 5 * sim::kMillisecond;
/// tenant_storm's walks after the writes: enough for ten samples beyond
/// the p99. (The ingest workloads walk every version they stored: closure
/// sizes are heavy-tailed -- 5% of walks carry 40% of the cost -- so any
/// sample of them moves walk cost by 10% from seed to seed.)
inline constexpr std::size_t kReadbackWalks = 1000;
/// Objects read back through read() and get_provenance() per rep.
inline constexpr std::size_t kCheckedObjects = 256;
/// Roots re-walked on both engines per rep (lineage_mixed).
inline constexpr std::size_t kCheckedWalks = 64;

/// What one rep of a workload produced.
struct Rep {
  double setup_s = 0;       // wall: inputs + env (+ warm store), see README
  double timed_cpu_s = 0;   // process CPU of the timed phase
  std::uint64_t ops = 0;    // operations offered in the timed phase
  std::uint64_t failed = 0; // failed, wrongly refused or wrong operations
  std::vector<std::string> failures;  // failed output checks
  /// Virtual-time, cost and count metrics. A pure function of the seed:
  /// main() checks they are bit-identical across reps.
  std::map<std::string, double> det;
};

struct RepContext {
  std::uint64_t seed = 2009;
  /// Non-null on the traced rep: spans around every public call, and the
  /// env's virtual-time tracer on.
  SpanLog* spans = nullptr;
  /// Traced rep: where the env tracer's Chrome JSON goes ("" = nowhere).
  std::string virtual_trace_path;
};

// --- the timed window ------------------------------------------------------

/// Everything the timed phase is diffed over.
struct Snapshot {
  double cpu_s = 0;
  sim::SimTime elapsed = 0;
  std::map<std::string, sim::SimTime, std::less<>> by_service;
  sim::MeterSnapshot meter;
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, Buckets> histograms;

  static Snapshot take(aws::CloudEnv& env) {
    Snapshot s;
    s.elapsed = env.elapsed_time();
    s.by_service = env.elapsed_by_service();
    s.meter = env.meter().snapshot();
    for (const std::string& name : env.metrics().counter_names())
      s.counters[name] = env.metrics().find_counter(name)->value();
    for (const std::string& name : env.metrics().histogram_names())
      s.histograms[name] = histogram_buckets(*env.metrics().find_histogram(name));
    s.cpu_s = process_cpu_s();
    return s;
  }
};

struct Window {
  /// begin .. writes: the write phase (virtual elapsed, ledger split);
  /// begin .. end: the whole timed phase (CPU, cost, operations).
  Snapshot begin, writes, end;

  /// Open the timed phase: span self times count from here.
  void open(aws::CloudEnv& env, SpanLog* spans) {
    if (spans != nullptr) spans->begin_window();
    begin = Snapshot::take(env);
  }

  double counter(const std::string& name) const {
    const auto a = end.counters.find(name);
    const auto b = begin.counters.find(name);
    return static_cast<double>((a == end.counters.end() ? 0 : a->second) -
                               (b == begin.counters.end() ? 0 : b->second));
  }
  Buckets histogram(const std::string& name) const {
    const auto a = end.histograms.find(name);
    if (a == end.histograms.end()) return {};
    const auto b = begin.histograms.find(name);
    return b == begin.histograms.end() ? a->second
                                       : bucket_diff(a->second, b->second);
  }
  sim::MeterSnapshot meter() const { return end.meter.diff(begin.meter); }
};

/// Per-rep tallies the shared metric code turns into numbers.
struct Tally {
  std::vector<double> close_ms;   // per close of the timed phase
  std::vector<double> walk_ms;    // per ancestry walk
  sim::MeterSnapshot walk_meter;  // summed diffs around walks
  sim::MeterSnapshot search_meter;
  std::uint64_t closes = 0;       // closes submitted in the timed phase
  std::uint64_t records = 0;      // their provenance records
  std::uint64_t walk_nodes = 0;
  std::uint64_t searches = 0;
  double search_virtual_ms = 0;
  double quiesce_virtual_ms = 0;
  /// Data + provenance bytes of every durable close in the store.
  std::uint64_t user_bytes = 0;
};

inline double us_to_ms(sim::SimTime t) { return static_cast<double>(t) / 1e3; }
inline double us_to_s(sim::SimTime t) { return static_cast<double>(t) / 1e6; }

inline std::uint64_t close_bytes(const pass::FlushUnit& unit) {
  return (unit.data == nullptr ? 0 : unit.data->size()) +
         pass::records_payload_size(unit.records);
}

/// Run one library call on the driver's timeline inside span `name`,
/// returning its ledger elapsed in `virtual_ms`. With `meter`, the call's
/// service requests are summed there too: reads interleaved with writes need
/// that to split the bill (a read-back phase is metered whole instead).
template <typename Fn>
auto timed_call(aws::CloudEnv& env, SpanLog* spans, const char* name,
                std::uint64_t op, sim::MeterSnapshot* meter, double& virtual_ms,
                Fn&& fn) {
  const sim::MeterSnapshot m0 =
      meter != nullptr ? env.meter().snapshot() : sim::MeterSnapshot{};
  const sim::SimTime t0 = env.elapsed_time();
  auto result = [&] {
    SpanLog::Scope span(spans, name, op);
    return fn();
  }();
  virtual_ms = us_to_ms(env.elapsed_time() - t0);
  if (meter != nullptr) meter_add(*meter, env.meter().snapshot().diff(m0));
  return result;
}

/// One timed ancestry walk (see timed_call for `meter`).
template <typename Fn>
cp::AncestryResult timed_walk(aws::CloudEnv& env, Tally& tally, SpanLog* spans,
                              sim::MeterSnapshot* meter, Fn&& walk) {
  double ms = 0;
  cp::AncestryResult r = timed_call(env, spans, "query.walk",
                                    tally.walk_ms.size(), meter, ms, walk);
  tally.walk_ms.push_back(ms);
  tally.walk_nodes += r.graph.nodes().size();
  return r;
}

// --- clients ---------------------------------------------------------------

/// One PASS client replaying a syscall trace into one session.
class TraceClient {
 public:
  TraceClient(aws::CloudEnv& env, cp::ProvenanceBackend& backend,
              const cp::SessionConfig& config, SpanLog* spans)
      : env_(&env),
        spans_(spans),
        session_(backend.open_session(config)),
        observer_([this](const pass::FlushUnit& unit) { on_close(unit); }) {}
  TraceClient(const TraceClient&) = delete;
  TraceClient& operator=(const TraceClient&) = delete;

  void apply(const pass::SyscallEvent& event) {
    SpanLog::Scope span(spans_, "pass.apply", tickets.size());
    observer_.apply(event);
  }
  void finish() {
    SpanLog::Scope span(spans_, "pass.finish", tickets.size());
    observer_.finish();
  }
  cp::BackendResult<void> sync() {
    SpanLog::Scope span(spans_, "session.sync", tickets.size());
    return session_->sync();
  }
  const pass::PassObserver& observer() const { return observer_; }

  /// Every close, in submit order.
  std::vector<cp::Ticket> tickets;
  std::vector<pass::ObjectVersion> ids;

 private:
  void on_close(const pass::FlushUnit& unit) {
    {
      SpanLog::Scope span(spans_, "session.submit", tickets.size());
      tickets.push_back(session_->submit(unit));
    }
    ids.push_back({unit.object, unit.version});
    SpanLog::Scope span(spans_, "sim.clock_advance", tickets.size());
    env_->clock().advance_by(kCloseGap);
  }

  aws::CloudEnv* env_;
  SpanLog* spans_;
  std::unique_ptr<cp::Session> session_;
  pass::PassObserver observer_;
};

/// Settle the store: fire pending propagation, drain the backend's deferred
/// work (WAL replay, LSB publication and cleaning), fire again.
inline void quiesce(aws::CloudEnv& env, cp::ProvenanceBackend& backend,
                    Tally& tally, SpanLog* spans) {
  SpanLog::Scope span(spans, "backend.quiesce", 0);
  const sim::SimTime t0 = env.elapsed_time();
  env.clock().drain();
  backend.quiesce();
  env.clock().drain();
  tally.quiesce_virtual_ms += us_to_ms(env.elapsed_time() - t0);
}

// --- output checks ---------------------------------------------------------

inline void fail(Rep& rep, std::string what) {
  rep.failed += 1;
  rep.failures.push_back(std::move(what));
}

/// Records compared as sorted (attribute, value) keys; the MD5 consistency
/// token Arch 2/3 add is not part of what PASS emitted.
inline std::vector<std::string> record_keys(
    const std::vector<pass::ProvenanceRecord>& records) {
  std::vector<std::string> keys;
  for (const pass::ProvenanceRecord& r : records) {
    if (r.attribute == pass::attr::kMd5) continue;
    keys.push_back(r.attribute + (r.is_xref() ? "\x01" : "\x02") +
                   r.value_string());
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

/// Every close the workload made, by (object, version): PASS's ground truth
/// for the trace workloads, the generated units for the open loop.
using Truth = std::map<std::pair<std::string, std::uint32_t>, pass::FlushUnit>;

/// The ancestry closure ground truth implies.
inline cp::AncestryResult truth_ancestry(const Truth& truth,
                                         const pass::ObjectVersion& root) {
  return cp::walk_ancestry(
      [&truth](const std::vector<pass::ObjectVersion>& ids) {
        std::vector<cp::BackendResult<std::vector<pass::ProvenanceRecord>>> out;
        for (const pass::ObjectVersion& id : ids) {
          const auto it = truth.find({id.object, id.version});
          if (it == truth.end())
            out.emplace_back(cp::backend_error(cp::BackendErrorCode::kNotFound,
                                               id.to_string()));
          else
            out.emplace_back(it->second.records);
        }
        return out;
      },
      root.object, root.version);
}

/// Same nodes, same edges, same missing set; records too when `records`.
inline bool same_ancestry(const cp::AncestryResult& a,
                          const cp::AncestryResult& b, bool records) {
  const auto& na = a.graph.nodes();
  const auto& nb = b.graph.nodes();
  if (na.size() != nb.size()) return false;
  for (auto ia = na.begin(), ib = nb.begin(); ia != na.end(); ++ia, ++ib) {
    if (ia->first != ib->first) return false;
    auto ea = ia->second.ancestors, eb = ib->second.ancestors;
    std::sort(ea.begin(), ea.end());
    std::sort(eb.begin(), eb.end());
    if (ea != eb) return false;
    if (records && ia->second.records != ib->second.records) return false;
  }
  std::set<pass::ObjectVersion> ma(a.missing.begin(), a.missing.end());
  std::set<pass::ObjectVersion> mb(b.missing.begin(), b.missing.end());
  return ma == mb;
}

/// Q2 (files a `program` process wrote) and Q3 (files derived from them)
/// recomputed from ground truth the way the SimpleDB engine evaluates
/// them: producer versions by NAME, then INPUT edges level by level.
inline std::pair<std::set<std::string>, std::set<std::string>> truth_search(
    const Truth& truth, const std::string& program) {
  std::multimap<std::string, const pass::FlushUnit*> readers;  // by input
  std::set<std::string> frontier;
  for (const auto& [id, unit] : truth)
    for (const pass::ProvenanceRecord& r : unit.records) {
      if (r.attribute == pass::attr::kInput && r.is_xref())
        readers.emplace(r.xref().to_string(), &unit);
      if (unit.kind == pass::PnodeKind::kProcess &&
          r.attribute == pass::attr::kName && !r.is_xref() && r.text() == program)
        frontier.insert(pass::ObjectVersion{unit.object, unit.version}.to_string());
    }
  std::set<std::string> q2, q3, visited = frontier;
  for (bool first = true; !frontier.empty(); first = false) {
    std::set<std::string> next;
    for (const std::string& item : frontier) {
      const auto [lo, hi] = readers.equal_range(item);
      for (auto it = lo; it != hi; ++it) {
        const pass::FlushUnit& unit = *it->second;
        if (first && unit.kind == pass::PnodeKind::kFile) q2.insert(unit.object);
        const std::string name =
            pass::ObjectVersion{unit.object, unit.version}.to_string();
        if (!visited.insert(name).second) continue;
        next.insert(name);
        if (unit.kind == pass::PnodeKind::kFile) q3.insert(unit.object);
      }
    }
    frontier = std::move(next);
  }
  return {q2, q3};
}

/// Read kCheckedObjects sampled objects back through read() and
/// get_provenance() and compare data, version and records with what PASS
/// emitted.
inline void check_readback(Rep& rep, cp::ProvenanceBackend& backend,
                           const Truth& truth, std::uint64_t seed) {
  std::map<std::string, const pass::FlushUnit*> latest;
  for (const auto& [key, unit] : truth)
    if (unit.kind == pass::PnodeKind::kFile) latest[key.first] = &unit;
  std::vector<const pass::FlushUnit*> files;
  for (const auto& [object, unit] : latest) files.push_back(unit);
  util::Rng rng(seed ^ 0x5245414442414bull);  // "READBAK"
  const std::size_t n = std::min(kCheckedObjects, files.size());
  if (n < 200) fail(rep, "readback: fewer than 200 objects to check");
  for (std::size_t i = 0; i < n; ++i) {
    std::swap(files[i], files[i + rng.next_below(files.size() - i)]);
    const pass::FlushUnit& want = *files[i];
    const auto got = backend.read(want.object);
    if (!got.has_value() || got->version != want.version ||
        got->data == nullptr || want.data == nullptr ||
        *got->data != *want.data) {
      fail(rep, "readback: data of " + want.object + " differs");
      continue;
    }
    const auto prov = backend.get_provenance(want.object, want.version);
    if (!prov.has_value() || record_keys(*prov) != record_keys(want.records))
      fail(rep, "readback: records of " + want.object + " differ");
  }
}

/// Checks shared by every workload: the ledger split sums exactly to the
/// write phase's elapsed time, and the read/write meter split to the timed
/// phase's meter.
inline void check_sums(Rep& rep, const Window& w, const Tally& t) {
  sim::SimTime split = 0;
  for (const auto& [service, time] : w.writes.by_service) {
    const auto before = w.begin.by_service.find(service);
    split += time - (before == w.begin.by_service.end() ? 0 : before->second);
  }
  if (split != w.writes.elapsed - w.begin.elapsed)
    fail(rep, "sums: ledger split does not sum to the elapsed total");
  // The write meter is the total minus the reads, so the split sums to the
  // total exactly when no read counter exceeds it.
  sim::MeterSnapshot reads = t.walk_meter, writes;
  meter_add(reads, t.search_meter);
  if (!meter_sub(w.meter(), reads, writes))
    fail(rep, "sums: read meters exceed the timed-phase meter");
}

// --- metrics ---------------------------------------------------------------

/// Requests + transfer + SimpleDB box usage of a meter diff; storage is a
/// level, reported apart.
inline double usd_of(const sim::MeterSnapshot& diff) {
  sim::MeterSnapshot flows = diff;
  flows.storage.clear();
  return provcloud::cost::estimate_cost(flows).total();
}

inline bool is_sdb_write(const std::string& op) {
  return op == "PutAttributes" || op == "BatchPutAttributes" ||
         op == "DeleteAttributes";
}

/// Metrics every workload reports, from the window and the tallies.
inline void add_common_metrics(Rep& rep, const Window& w, const Tally& t) {
  auto& d = rep.det;
  const double closes = static_cast<double>(std::max<std::uint64_t>(t.closes, 1));
  const double walks =
      static_cast<double>(std::max<std::size_t>(t.walk_ms.size(), 1));
  const double ops = static_cast<double>(std::max<std::uint64_t>(rep.ops, 1));

  d["close_p50_ms"] = percentile(t.close_ms, 0.50);
  d["close_p95_ms"] = percentile(t.close_ms, 0.95);
  d["session.close_p99_ms"] = percentile(t.close_ms, 0.99);
  d["session.close_p999_ms"] = percentile(t.close_ms, 0.999);
  d["session.close_samples"] = static_cast<double>(t.close_ms.size());
  d["walk_p50_ms"] = percentile(t.walk_ms, 0.50);
  d["walk_p99_ms"] = percentile(t.walk_ms, 0.99);
  d["query.walk_samples"] = static_cast<double>(t.walk_ms.size());
  d["query.nodes_per_walk"] = static_cast<double>(t.walk_nodes) / walks;

  // Cost: the timed-phase meter split into reads (walks, searches) and
  // writes (everything else, maintenance included).
  const sim::MeterSnapshot total = w.meter();
  sim::MeterSnapshot reads = t.walk_meter, writes;
  meter_add(reads, t.search_meter);
  meter_sub(total, reads, writes);
  d["usd_per_1k_closes"] = usd_of(writes) / closes * 1000.0;
  d["usd_per_1k_walks"] = usd_of(reads) / walks * 1000.0;
  const provcloud::cost::CostEstimate c =
      provcloud::cost::estimate_cost(total);
  const double requests = c.s3_requests + c.sqs_requests + c.sdb_box_usage;
  const double transfer = c.s3_transfer + c.sdb_transfer + c.sqs_transfer;
  const double storage = c.s3_storage_month + c.sdb_storage_month;
  const double usd = std::max(requests + transfer + storage, 1e-300);
  d["cost.requests_frac"] = requests / usd;
  d["cost.transfer_frac"] = transfer / usd;
  d["cost.storage_frac"] = storage / usd;

  std::uint64_t stored = 0;
  for (const auto& [service, bytes] : w.end.meter.storage) stored += bytes;
  d["stored_bytes_per_user_byte"] =
      static_cast<double>(stored) /
      static_cast<double>(std::max<std::uint64_t>(t.user_bytes, 1));

  // Virtual time of the write phase on the driver's timeline, split by
  // what it waited on.
  d["virtual_elapsed_s"] = us_to_s(w.writes.elapsed - w.begin.elapsed);
  const auto waited = [&w](const char* service) {
    const auto a = w.writes.by_service.find(service);
    const auto b = w.begin.by_service.find(service);
    return us_to_s((a == w.writes.by_service.end() ? 0 : a->second) -
                   (b == w.begin.by_service.end() ? 0 : b->second));
  };
  for (const char* service : {"s3", "sdb", "sqs", "idle"})
    d[std::string("ledger.") + service + "_s"] = waited(service);

  d["pass.closes"] = static_cast<double>(t.closes);
  d["pass.records_per_close"] = static_cast<double>(t.records) / closes;

  const Buckets groups = w.histogram("daemon.group_size");
  d["session.group_size_p50"] = bucket_quantile(groups, 0.50);
  d["session.group_size_p99"] = bucket_quantile(groups, 0.99);
  d["session.queue_depth_p99"] =
      bucket_quantile(w.histogram("daemon.queue_depth"), 0.99);
  d["session.flushes.group_full"] = w.counter("daemon.flush.group_full");
  d["session.flushes.deadline"] = w.counter("daemon.flush.deadline");
  d["session.flushes.sync"] = w.counter("daemon.flush.sync");
  d["idle.queue_wait_s"] = w.counter("idle.queue_wait_us") / 1e6;
  d["backend.quiesce_virtual_ms"] = t.quiesce_virtual_ms;

  const Buckets waves = w.histogram("sdb.causal_waves");
  d["sdb_backend.causal_waves_p50"] = bucket_quantile(waves, 0.50);
  d["sdb_backend.causal_waves_p99"] = bucket_quantile(waves, 0.99);
  d["wal_backend.ready_txns_p50"] =
      bucket_quantile(w.histogram("wal.ready_txns"), 0.50);
  d["aws.sqs.sends_per_close"] = static_cast<double>(
      writes.calls("sqs", "SendMessage") + writes.calls("sqs", "SendMessageBatch")) /
      closes;
  d["aws.sqs.receives_per_close"] =
      static_cast<double>(writes.calls("sqs", "ReceiveMessage")) / closes;
  d["aws.sqs.deletes_per_close"] =
      static_cast<double>(writes.calls("sqs", "DeleteMessage")) / closes;
  d["idle.visibility_wait_s"] = w.counter("idle.visibility_wait_us") / 1e6;
  d["idle.daemon_wakeup_s"] = w.counter("idle.daemon_wakeup_us") / 1e6;
  d["idle.read_retry_s"] = w.counter("idle.read_retry_us") / 1e6;
  d["idle.throttle_backoff_s"] = w.counter("idle.throttle_backoff_us") / 1e6;
  d["aws.throttle.injected"] = w.counter("throttle.injected");
  d["aws.throttle.relented"] =
      w.counter("throttle.sdb.relented") + w.counter("throttle.s3.relented");
  d["query.read_retries"] = w.counter("read.retries");

  // Service calls: writes per close, reads per operation offered.
  std::uint64_t s3_other = 0, sdb_reads = 0, sdb_read_bytes = 0;
  std::uint64_t sdb_writes = 0, sdb_write_bytes = 0;
  for (const auto& [key, counter] : total.counters) {
    if (key.first == "s3" && key.second != "PUT" && key.second != "GET")
      s3_other += counter.calls;
    if (key.first != "sdb") continue;
    if (is_sdb_write(key.second)) {
      sdb_writes += counter.calls;
      sdb_write_bytes += counter.bytes_in;
    } else {
      sdb_reads += counter.calls;
      sdb_read_bytes += counter.bytes_out;
    }
  }
  d["aws.s3.puts_per_close"] =
      static_cast<double>(total.calls("s3", "PUT")) / closes;
  d["aws.s3.put_kb_per_close"] =
      static_cast<double>(total.bytes_in("s3", "PUT")) / 1024.0 / closes;
  d["aws.s3.gets_per_op"] = static_cast<double>(total.calls("s3", "GET")) / ops;
  d["aws.s3.get_kb_per_op"] =
      static_cast<double>(total.bytes_out("s3", "GET")) / 1024.0 / ops;
  d["aws.s3.other_per_op"] = static_cast<double>(s3_other) / ops;
  d["aws.sdb.writes_per_close"] = static_cast<double>(sdb_writes) / closes;
  d["aws.sdb.write_kb_per_close"] =
      static_cast<double>(sdb_write_bytes) / 1024.0 / closes;
  d["aws.sdb.reads_per_op"] = static_cast<double>(sdb_reads) / ops;
  d["aws.sdb.read_kb_per_op"] = static_cast<double>(sdb_read_bytes) / 1024.0 / ops;

  std::uint64_t walk_sdb_reads = 0;
  for (const auto& [key, counter] : t.walk_meter.counters)
    if (key.first == "sdb" && !is_sdb_write(key.second))
      walk_sdb_reads += counter.calls;
  d["query.sdb_reads_per_walk"] = static_cast<double>(walk_sdb_reads) / walks;
  d["query.s3_gets_per_walk"] =
      static_cast<double>(t.walk_meter.calls("s3", "GET")) / walks;
  d["query.search_virtual_ms"] = t.search_virtual_ms;
  d["query.searches"] = static_cast<double>(t.searches);
}

/// The timed-phase tail every trace workload shares: ticket latencies,
/// durability, user bytes.
inline void tally_closes(Rep& rep, Tally& t, const TraceClient& client,
                         std::size_t first_timed) {
  const auto& truth = client.observer().ground_truth();
  for (std::size_t i = 0; i < client.tickets.size(); ++i) {
    const cp::Ticket& ticket = client.tickets[i];
    if (!ticket.ok()) {
      fail(rep, "durable: close of " + client.ids[i].to_string() +
                    " is not durable");
      continue;
    }
    const auto it = truth.find({client.ids[i].object, client.ids[i].version});
    if (it != truth.end()) t.user_bytes += close_bytes(it->second);
    if (i < first_timed) continue;
    t.close_ms.push_back(us_to_ms(ticket.elapsed()));
    if (it != truth.end()) t.records += it->second.records.size();
  }
  t.closes = client.tickets.size() - first_timed;
}

/// Ancestry walks after the writes (ingest_* and tenant_storm) through the
/// backend's own read path; the caller meters the phase whole. Every k-th
/// walk is kept (at most kCheckedReadbacks) and checked against ground
/// truth outside the timed window.
struct Readback {
  static constexpr std::size_t kCheckedReadbacks = 1000;
  std::vector<std::pair<pass::ObjectVersion, cp::AncestryResult>> kept;

  void walk(aws::CloudEnv& env, cp::ProvenanceBackend& backend, Tally& tally,
            SpanLog* spans, const std::vector<pass::ObjectVersion>& roots) {
    const std::size_t stride = roots.size() / kCheckedReadbacks + 1;
    for (std::size_t i = 0; i < roots.size(); ++i) {
      const pass::ObjectVersion& root = roots[i];
      cp::AncestryResult r = timed_walk(env, tally, spans, nullptr, [&] {
        return cp::fetch_ancestry(backend, root.object, root.version);
      });
      if (i % stride == 0) kept.emplace_back(root, std::move(r));
    }
  }

  void check(Rep& rep, const Truth& truth) const {
    for (const auto& [root, result] : kept)
      if (!same_ancestry(result, truth_ancestry(truth, root), false))
        fail(rep, "ancestry: walk from " + root.to_string() +
                      " differs from ground truth");
  }
};

// --- the workloads ---------------------------------------------------------

inline Rep run_ingest_wal(const RepContext& ctx) {
  Rep rep;
  const std::uint64_t t0 = wall_ns();
  const pass::SyscallTrace trace = wl::build_combined_trace(
      wl::WorkloadOptions{.seed = ctx.seed, .count_scale = 3.0, .size_scale = 1.0});
  aws::CloudEnv env(ctx.seed);  // eventual: 3 replicas, 50 ms - 2 s
  env.set_tracing(ctx.spans != nullptr);
  cp::CloudServices services(env);
  cp::WalBackendConfig config;
  config.parallelism = 1;
  cp::WalBackend backend(services, config);
  rep.setup_s = static_cast<double>(wall_ns() - t0) / 1e9;

  Tally tally;
  Readback readback;
  Window w;
  w.open(env, ctx.spans);
  TraceClient client(env, backend, cp::SessionConfig{.max_group = 1}, ctx.spans);
  for (const pass::SyscallEvent& event : trace) client.apply(event);
  client.finish();
  if (!client.sync().has_value()) fail(rep, "durable: session sync failed");
  quiesce(env, backend, tally, ctx.spans);
  w.writes = Snapshot::take(env);
  readback.walk(env, backend, tally, ctx.spans, client.ids);
  w.end = Snapshot::take(env);
  tally.walk_meter = w.end.meter.diff(w.writes.meter);

  rep.timed_cpu_s = w.end.cpu_s - w.begin.cpu_s;
  tally_closes(rep, tally, client, 0);
  rep.ops = tally.closes + tally.walk_ms.size();
  add_common_metrics(rep, w, tally);
  check_sums(rep, w, tally);
  readback.check(rep, client.observer().ground_truth());
  check_readback(rep, backend, client.observer().ground_truth(), ctx.seed);
  if (!ctx.virtual_trace_path.empty())
    env.tracer().write_chrome_json(ctx.virtual_trace_path);
  return rep;
}

inline Rep run_ingest_segments(const RepContext& ctx) {
  Rep rep;
  const std::uint64_t t0 = wall_ns();
  const pass::SyscallTrace trace = wl::build_combined_trace(
      wl::WorkloadOptions{.seed = ctx.seed, .count_scale = 6.0, .size_scale = 1.0});
  aws::CloudEnv env(ctx.seed, aws::ConsistencyConfig::strong());
  env.set_tracing(ctx.spans != nullptr);
  cp::CloudServices services(env);
  cp::LsbBackendConfig config;
  config.parallelism = 1;
  cp::LsbBackend backend(services, config);
  rep.setup_s = static_cast<double>(wall_ns() - t0) / 1e9;

  Tally tally;
  Readback readback;
  Window w;
  w.open(env, ctx.spans);
  TraceClient client(
      env, backend,
      cp::SessionConfig{.max_group = 25, .flush_deadline = 100 * sim::kMillisecond},
      ctx.spans);
  for (const pass::SyscallEvent& event : trace) client.apply(event);
  client.finish();
  if (!client.sync().has_value()) fail(rep, "durable: session sync failed");
  // Deferred publication and cleaning are part of the cost of ingest.
  quiesce(env, backend, tally, ctx.spans);
  w.writes = Snapshot::take(env);
  readback.walk(env, backend, tally, ctx.spans, client.ids);
  w.end = Snapshot::take(env);
  tally.walk_meter = w.end.meter.diff(w.writes.meter);

  rep.timed_cpu_s = w.end.cpu_s - w.begin.cpu_s;
  tally_closes(rep, tally, client, 0);
  rep.ops = tally.closes + tally.walk_ms.size();
  add_common_metrics(rep, w, tally);
  auto& d = rep.det;
  const double user_mb = static_cast<double>(tally.user_bytes) / 1048576.0;
  d["lsb.seals"] = w.counter("lsb.seals");
  d["lsb.closes_per_seal_p50"] =
      bucket_quantile(w.histogram("lsb.seal.closes"), 0.50);
  d["lsb.seal_mb"] = w.counter("lsb.seal.bytes") / 1048576.0;
  d["lsb.index_publishes"] = w.counter("lsb.index.publishes");
  d["lsb.postings_published"] = w.counter("lsb.index.postings");
  d["lsb.compactions"] = w.counter("lsb.compactions");
  d["lsb.rewritten_mb"] = w.counter("lsb.compact.rewritten_bytes") / 1048576.0;
  d["lsb.reclaimed_mb"] = w.counter("lsb.compact.reclaimed_bytes") / 1048576.0;
  d["lsb.write_amp"] = (d["lsb.seal_mb"] + d["lsb.rewritten_mb"]) /
                       std::max(user_mb, 1e-9);
  const cp::LsbBackend::SegmentStats stats = backend.stats();
  d["lsb.segments_final"] = static_cast<double>(stats.segment_count);
  d["lsb.garbage_ratio_final"] = stats.garbage_ratio;
  check_sums(rep, w, tally);
  readback.check(rep, client.observer().ground_truth());
  check_readback(rep, backend, client.observer().ground_truth(), ctx.seed);
  if (!ctx.virtual_trace_path.empty())
    env.tracer().write_chrome_json(ctx.virtual_trace_path);
  return rep;
}

inline Rep run_lineage_mixed(const RepContext& ctx) {
  constexpr std::size_t kShards = 4;
  // One walk per 2 closes: at one per 4, which roots came up moved walk cost
  // by 8% from seed to seed (cache misses track the roots drawn).
  constexpr std::uint64_t kClosesPerWalk = 2;
  constexpr std::uint64_t kClosesPerRoll = 1000;
  constexpr std::uint64_t kClosesPerSearch = 2000;

  Rep rep;
  const std::uint64_t t0 = wall_ns();
  const pass::SyscallTrace trace = wl::build_combined_trace(
      wl::WorkloadOptions{.seed = ctx.seed, .count_scale = 6.0, .size_scale = 1.0});
  // Strong consistency: with eventual consistency the walks' retry storms
  // swing walk latency and cost by 10% from seed to seed; ingest_wal keeps
  // the eventual-consistency read path covered.
  aws::CloudEnv env(ctx.seed, aws::ConsistencyConfig::strong());
  env.set_tracing(ctx.spans != nullptr);
  cp::CloudServices services(env);
  cp::SdbBackend backend(services, cp::SdbBackendConfig{.shard_count = kShards,
                                                        .parallelism = 1});
  const std::shared_ptr<const cp::DomainTopology> topology = backend.topology();
  cp::manifest::ManifestWriter writer(services, topology);
  TraceClient client(
      env, backend,
      cp::SessionConfig{.max_group = 8, .flush_deadline = 100 * sim::kMillisecond},
      ctx.spans);
  // The warm store: the first half of the trace, durable, rolled into
  // snapshot 1.
  const std::size_t half = trace.size() / 2;
  for (std::size_t i = 0; i < half; ++i) client.apply(trace[i]);
  if (!client.sync().has_value()) fail(rep, "durable: warm-up sync failed");
  env.clock().drain();
  if (!writer.roll().has_value()) fail(rep, "roll: warm-up snapshot failed");
  const std::size_t first_timed = client.tickets.size();
  rep.setup_s = static_cast<double>(wall_ns() - t0) / 1e9;

  auto engine = cp::make_manifest_query_engine(
      services, topology, cp::ManifestQueryConfig{.base = {.shard_count = kShards}});
  util::Rng root_rng(ctx.seed ^ 0x57414c4b52ull);  // "WALKR"
  Tally tally;
  std::vector<pass::ObjectVersion> roots;
  std::vector<std::set<pass::ObjectVersion>> walked;
  std::size_t durable = first_timed;  // tickets [0, durable) are retired
  std::uint64_t rolls = 0, walks_due = 0;
  double roll_virtual_ms = 0;
  sim::MeterSnapshot roll_meter;
  std::pair<std::set<std::string>, std::set<std::string>> searched;

  Window w;
  w.open(env, ctx.spans);
  const auto closes = [&] { return client.tickets.size() - first_timed; };
  for (std::size_t i = half; i < trace.size(); ++i) {
    const std::uint64_t before = closes();
    client.apply(trace[i]);
    for (std::uint64_t c = before + 1; c <= closes(); ++c) {
      if (c % kClosesPerWalk == 0) ++walks_due;
      if (c % kClosesPerRoll == 0) {
        double ms = 0;
        const auto rolled = timed_call(env, ctx.spans, "manifest.roll", c,
                                       &roll_meter, ms,
                                       [&] { return writer.roll(); });
        roll_virtual_ms += ms;
        ++rolls;
        if (!rolled.has_value()) fail(rep, "roll: snapshot roll failed");
      }
      if (c % kClosesPerSearch == 0) {
        double ms = 0;
        searched = timed_call(env, ctx.spans, "query.search", c,
                              &tally.search_meter, ms, [&] {
          return std::pair(
              engine->q2_outputs_of(wl::BlastWorkload::kBlastProgram),
              engine->q3_descendants_of(wl::BlastWorkload::kBlastProgram));
        });
        tally.search_virtual_ms += ms;
        tally.searches += 1;
      }
    }
    // Walks run between events, rooted uniformly in what is durable now.
    while (durable < client.tickets.size() && client.tickets[durable].done())
      ++durable;
    for (; walks_due > 0; --walks_due) {
      roots.push_back(client.ids[root_rng.next_below(durable)]);
      const pass::ObjectVersion& root = roots.back();
      const cp::AncestryResult r =
          timed_walk(env, tally, ctx.spans, &tally.walk_meter, [&] {
            return engine->ancestry(root.object, root.version);
          });
      std::set<pass::ObjectVersion> nodes;
      for (const auto& [id, node] : r.graph.nodes()) nodes.insert(id);
      walked.push_back(std::move(nodes));
      if (!r.missing.empty())
        fail(rep, "ancestry: walk from " + root.to_string() + " missed nodes");
    }
  }
  client.finish();
  if (!client.sync().has_value()) fail(rep, "durable: session sync failed");
  quiesce(env, backend, tally, ctx.spans);
  w.end = w.writes = Snapshot::take(env);

  rep.timed_cpu_s = w.end.cpu_s - w.begin.cpu_s;
  tally_closes(rep, tally, client, first_timed);
  rep.ops = tally.closes + tally.walk_ms.size() + tally.searches;
  add_common_metrics(rep, w, tally);
  auto& d = rep.det;
  d["manifest.rolls"] = static_cast<double>(rolls);
  d["manifest.roll_virtual_ms"] = roll_virtual_ms;
  d["manifest.roll_calls"] = static_cast<double>(roll_meter.total_calls());
  const double hits = w.counter("ancestor_cache.hits");
  const double misses = w.counter("ancestor_cache.misses");
  d["manifest.ancestor_cache.hit_ratio"] =
      hits + misses > 0 ? hits / (hits + misses) : 0.0;
  d["manifest.ancestor_cache.invalidations"] =
      w.counter("ancestor_cache.invalidations");
  check_sums(rep, w, tally);

  // The manifest engine must agree with the scatter engine, node for node
  // and record for record, and both with ground truth.
  auto scatter = cp::make_sdb_query_engine(services, topology);
  for (std::size_t i = 0; i < kCheckedWalks && i < roots.size(); ++i) {
    const std::size_t k = i * roots.size() / kCheckedWalks;
    const pass::ObjectVersion& root = roots[k];
    const cp::AncestryResult m = engine->ancestry(root.object, root.version);
    const cp::AncestryResult s = scatter->ancestry(root.object, root.version);
    std::set<pass::ObjectVersion> nodes;
    for (const auto& [id, node] : m.graph.nodes()) nodes.insert(id);
    if (!same_ancestry(m, s, true) || nodes != walked[k] ||
        !same_ancestry(s, truth_ancestry(client.observer().ground_truth(), root),
                       false))
      fail(rep, "ancestry: manifest and scatter walks from " +
                    root.to_string() + " disagree");
  }
  // A search racing propagation may miss recent closes but must never
  // name a file the ground truth does not put in its answer.
  const auto [q2, q3] = truth_search(client.observer().ground_truth(),
                                     wl::BlastWorkload::kBlastProgram);
  const auto& [got2, got3] = searched;
  if (got2.empty() || !std::includes(q2.begin(), q2.end(), got2.begin(), got2.end()) ||
      !std::includes(q3.begin(), q3.end(), got3.begin(), got3.end()))
    fail(rep, "search: the last Q2/Q3 answer is empty or not in ground truth");
  check_readback(rep, backend, client.observer().ground_truth(), ctx.seed);
  if (!ctx.virtual_trace_path.empty())
    env.tracer().write_chrome_json(ctx.virtual_trace_path);
  return rep;
}

inline Rep run_tenant_storm(const RepContext& ctx) {
  constexpr std::size_t kTenants = 4;
  constexpr std::size_t kStormTenant = 0;

  Rep rep;
  const std::uint64_t t0 = wall_ns();
  wl::OpenLoopOptions options;
  options.seed = ctx.seed;
  options.tenants = kTenants;
  options.zipf_s = 0.0;
  options.arrivals_per_sec = 160.0;
  options.duration = 300 * sim::kSecond;
  options.storm_tenant = kStormTenant;
  options.storm_rate = 1920.0;
  options.storm_start = 75 * sim::kSecond;
  options.storm_duration = 150 * sim::kSecond;
  options.close_bytes = 4096;
  const std::vector<wl::TenantArrival> arrivals = wl::open_loop_arrivals(options);
  // Every offer's close, made up front. make_tenant_close fills the data
  // with 'x' bytes; all closes share one such buffer instead of 336k.
  const util::SharedBytes data =
      wl::make_tenant_close(0, 0, options.close_bytes).data;
  std::vector<pass::FlushUnit> units;
  units.reserve(arrivals.size());
  std::vector<std::uint64_t> seq(kTenants, 0);
  for (const wl::TenantArrival& a : arrivals) {
    units.push_back(wl::make_tenant_close(a.tenant, seq[a.tenant]++, 0));
    units.back().data = data;
  }
  const std::vector<std::string> tenant_names{"t0", "t1", "t2", "t3"};
  aws::CloudEnv env(ctx.seed, aws::ConsistencyConfig::strong());
  env.set_tracing(ctx.spans != nullptr);
  aws::ThrottleConfig sdb_throttle;
  sdb_throttle.rate_per_sec = 9;
  sdb_throttle.burst = 9;
  sdb_throttle.backoff_base = 500 * sim::kMillisecond;
  sdb_throttle.backoff_cap = 5 * sim::kSecond;
  env.set_service_throttle("sdb", sdb_throttle);
  aws::ThrottleConfig s3_throttle = sdb_throttle;
  s3_throttle.rate_per_sec = 600;
  s3_throttle.burst = 600;
  env.set_service_throttle("s3", s3_throttle);
  cp::CloudServices services(env);
  cp::SdbBackend backend(services);
  cp::FrontendConfig config;
  config.session_pool = 1;
  config.default_quota = cp::TenantQuota{.rate_per_sec = 100.0, .burst = 200.0};
  config.session.max_group = 16;
  config.session.flush_deadline = 200 * sim::kMillisecond;
  cp::Frontend frontend(backend, env, config);
  rep.setup_s = static_cast<double>(wall_ns() - t0) / 1e9;

  Tally tally;
  Readback readback;
  Truth truth;  // every accepted close, as generated
  std::vector<cp::FrontendTicket> accepted;
  std::vector<pass::ObjectVersion> accepted_ids;
  Window w;
  w.open(env, ctx.spans);
  // Offers are applied at their due virtual time: the generator is never
  // late, and a stall shows as latency and queueing, not as lost load.
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const wl::TenantArrival& a = arrivals[i];
    if (a.at > env.clock().now()) {
      SpanLog::Scope span(ctx.spans, "sim.clock_advance", i);
      env.clock().advance_to(a.at);
    }
    pass::FlushUnit& unit = units[i];
    {
      SpanLog::Scope span(ctx.spans, "frontend.offer", i);
      auto offered = frontend.offer(tenant_names[a.tenant], unit);
      if (offered.has_value()) {
        accepted.push_back(*offered);
        accepted_ids.push_back({unit.object, unit.version});
        truth.emplace(std::pair(unit.object, unit.version), std::move(unit));
      }
    }
    SpanLog::Scope span(ctx.spans, "frontend.pump", i);
    frontend.pump();
  }
  {
    SpanLog::Scope span(ctx.spans, "frontend.sync_all", arrivals.size());
    if (!frontend.sync_all().has_value()) fail(rep, "durable: sync_all failed");
  }
  quiesce(env, backend, tally, ctx.spans);
  w.writes = Snapshot::take(env);
  std::vector<pass::ObjectVersion> roots;
  util::Rng root_rng(ctx.seed ^ 0x57414c4b52ull);  // "WALKR"
  for (std::size_t i = 0; i < kReadbackWalks; ++i)
    roots.push_back(accepted_ids[root_rng.next_below(accepted_ids.size())]);
  readback.walk(env, backend, tally, ctx.spans, roots);
  w.end = Snapshot::take(env);
  tally.walk_meter = w.end.meter.diff(w.writes.meter);

  rep.timed_cpu_s = w.end.cpu_s - w.begin.cpu_s;
  for (std::size_t i = 0; i < accepted.size(); ++i)
    if (!accepted[i].ok())
      fail(rep, "durable: accepted close " + accepted_ids[i].to_string() +
                    " is not durable");
  for (const auto& [id, unit] : truth) {
    tally.user_bytes += close_bytes(unit);
    tally.records += unit.records.size();
  }
  tally.closes = accepted.size();
  // Latency of the benign tenants' closes, from their registry histograms;
  // a benign close refused at the door is a failed operation.
  std::uint64_t benign_completed = 0, rejected = 0;
  for (std::size_t t = 0; t < kTenants; ++t) {
    const std::string& name = tenant_names[t];
    const cp::Frontend::TenantStats s = frontend.tenant_stats(name);
    rejected += s.rejected;
    if (t == kStormTenant) continue;
    for (const double us :
         bucket_samples(w.histogram("tenant." + name + ".close_latency_us")))
      tally.close_ms.push_back(us / 1e3);
    benign_completed += s.completed;
    for (std::uint64_t k = 0; k < s.throttled + s.rejected + s.shed; ++k)
      fail(rep, "admission: a close of benign tenant " + name + " was refused");
  }
  rep.ops = arrivals.size() + tally.walk_ms.size();
  add_common_metrics(rep, w, tally);
  auto& d = rep.det;
  d["frontend.offered"] = w.counter("frontend.offered");
  d["frontend.accepted"] = w.counter("frontend.accepted");
  d["frontend.throttled"] = w.counter("frontend.throttled");
  d["frontend.rejected"] = static_cast<double>(rejected);
  d["frontend.shed"] = w.counter("frontend.shed");
  d["frontend.accept_ratio"] =
      d["frontend.accepted"] / std::max(d["frontend.offered"], 1.0);
  d["frontend.queue_depth_p99"] =
      bucket_quantile(w.histogram("frontend.queue_depth"), 0.99);
  d["frontend.benign_samples"] = static_cast<double>(tally.close_ms.size());
  d["frontend.goodput_closes_per_s"] =
      static_cast<double>(benign_completed) / us_to_s(options.duration);
  check_sums(rep, w, tally);
  readback.check(rep, truth);
  check_readback(rep, backend, truth, ctx.seed);
  if (!ctx.virtual_trace_path.empty())
    env.tracer().write_chrome_json(ctx.virtual_trace_path);
  return rep;
}

}  // namespace provbench
