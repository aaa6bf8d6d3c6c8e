#include "cloudprov/properties.hpp"

#include <algorithm>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <set>

#include "cloudprov/consistency_read.hpp"
#include "cloudprov/frontend/frontend.hpp"
#include "cloudprov/lsb/format.hpp"
#include "cloudprov/lsb/lsb_backend.hpp"
#include "cloudprov/manifest/reader.hpp"
#include "cloudprov/manifest/writer.hpp"
#include "cloudprov/query.hpp"
#include "cloudprov/sdb_backend.hpp"
#include "cloudprov/serialize.hpp"
#include "cloudprov/session.hpp"
#include "cloudprov/wal_backend.hpp"
#include "cloudprov/wire_codec.hpp"
#include "pass/observer.hpp"
#include "util/md5.hpp"
#include "util/require.hpp"
#include "util/string_utils.hpp"
#include "workloads/compile.hpp"

namespace provcloud::cloudprov {

namespace {

/// One disposable world: env + services + backend, laid out and
/// parallelized per the checker options.
struct Fixture {
  explicit Fixture(Architecture arch, std::uint64_t seed,
                   aws::ConsistencyConfig consistency,
                   const PropertyCheckOptions& options)
      : env(seed, consistency), services(env) {
    switch (arch) {
      case Architecture::kS3Only:
        backend = make_backend(arch, services);
        break;
      case Architecture::kS3SimpleDb:
        backend = std::make_unique<SdbBackend>(
            services, SdbBackendConfig{.shard_count = options.shard_count,
                                       .parallelism = options.parallelism});
        break;
      case Architecture::kS3SimpleDbSqs: {
        WalBackendConfig cfg;
        cfg.shard_count = options.shard_count;
        cfg.parallelism = options.parallelism;
        backend = std::make_unique<WalBackend>(services, cfg);
        break;
      }
      case Architecture::kS3SegmentLog: {
        LsbBackendConfig cfg;
        cfg.shard_count = options.shard_count;
        cfg.parallelism = options.parallelism;
        // Small publish threshold: index publications (and their crash
        // points) fire inside the workload, not only at quiesce.
        cfg.index_publish_entries = 8;
        backend = std::make_unique<LsbBackend>(services, cfg);
        break;
      }
    }
    // Arch 1's is a single-domain layout, which check_state's S3 branch
    // ignores.
    topology = backend->topology();
    group_size = options.group_size;
    flush_deadline = options.flush_deadline;
    // Hostile environment: correlated brown-outs and 503 throttle storms
    // across every service the architectures touch. The checks below must
    // reach the same verdicts -- slower, never corrupted.
    for (const char* service : {"s3", "sdb", "sqs", "ebs"}) {
      if (options.service_slowdown > 0)
        env.set_service_slowdown(service, options.service_slowdown);
      if (options.throttle_probability > 0.0 ||
          options.throttle_rate_per_sec > 0) {
        aws::ThrottleConfig throttle;
        throttle.probability = options.throttle_probability;
        throttle.rate_per_sec = options.throttle_rate_per_sec;
        env.set_service_throttle(service, throttle);
      }
    }
  }

  aws::CloudEnv env;
  CloudServices services;
  std::unique_ptr<ProvenanceBackend> backend;
  std::shared_ptr<const DomainTopology> topology;
  std::size_t group_size = 1;
  sim::SimTime flush_deadline = 0;
  // Read-your-writes evidence gathered while driving workloads.
  std::uint64_t ryw_checked = 0;
  std::uint64_t ryw_violations = 0;
};

aws::ConsistencyConfig aggressive_staleness() {
  aws::ConsistencyConfig c;
  c.replicas = 3;
  c.propagation_min = 500 * sim::kMillisecond;
  c.propagation_max = 5 * sim::kSecond;
  c.sqs_sample_fraction = 0.5;
  return c;
}

/// The small hand-built trace the crash sweep runs. Contains: multi-KB env
/// records (spill path), a three-deep derivation chain (causal ordering),
/// and a version bump (write after flush).
pass::SyscallTrace mini_trace(std::uint64_t seed, std::size_t files) {
  util::Rng rng(seed);
  pass::SyscallTrace t;
  const pass::Pid ingest = 11, transform = 12, aggregate = 13, editor = 14;

  t.push_back(pass::ev_exec(ingest, "/bin/ingest", {"ingest", "--all"},
                            workloads::synth_environment(rng, 1600)));
  std::vector<std::string> inputs;
  for (std::size_t i = 0; i < files; ++i) {
    const std::string path = "data/f" + std::to_string(i);
    inputs.push_back(path);
    t.push_back(pass::ev_write(ingest, path,
                               util::Bytes(64 + 32 * (i % 7), 'a' + (i % 23))));
    t.push_back(pass::ev_close(ingest, path));
  }
  t.push_back(pass::ev_exit(ingest));

  t.push_back(pass::ev_exec(transform, "/usr/bin/transform", {"transform"},
                            workloads::synth_environment(rng, 1400)));
  for (std::size_t i = 0; i < std::min<std::size_t>(3, inputs.size()); ++i)
    t.push_back(pass::ev_read(transform, inputs[i]));
  t.push_back(pass::ev_write(transform, "data/derived0", util::Bytes(256, 'd')));
  t.push_back(pass::ev_close(transform, "data/derived0"));
  t.push_back(pass::ev_exit(transform));

  t.push_back(pass::ev_exec(aggregate, "/usr/bin/aggregate", {"aggregate"},
                            workloads::synth_environment(rng, 1200)));
  t.push_back(pass::ev_read(aggregate, "data/derived0"));
  t.push_back(pass::ev_write(aggregate, "data/derived1", util::Bytes(128, 'e')));
  t.push_back(pass::ev_close(aggregate, "data/derived1"));
  t.push_back(pass::ev_exit(aggregate));

  // Version bump: rewrite an already-flushed input.
  t.push_back(pass::ev_exec(editor, "/usr/bin/editor", {"editor"},
                            workloads::synth_environment(rng, 900)));
  if (!inputs.empty()) {
    t.push_back(pass::ev_write(editor, inputs[0], util::Bytes(96, 'z')));
    t.push_back(pass::ev_close(editor, inputs[0]));
  }
  t.push_back(pass::ev_exit(editor));
  return t;
}

/// Run a trace through PASS into the backend via a client session at the
/// checker's group size. An injected crash propagates out of the client
/// partway -- with group_size > 1 it lands mid-group-commit, which is
/// exactly the scenario the batched-submit sweep must score. With a flush
/// deadline set, the clock advances half a deadline between closes, so
/// crashes also land inside deadline-expiry flushes (the commit daemon, not
/// the submitter, holds the group). Every still-pending close is immediately
/// read back through the session: read-your-writes says the pending submit
/// must be observed without waiting for durability.
void drive(Fixture& fx, const pass::SyscallTrace& trace) {
  auto session = fx.backend->open_session(
      SessionConfig{.client_id = "client-0",
                    .max_group = fx.group_size,
                    .flush_deadline = fx.flush_deadline});
  pass::PassObserver observer([&fx, &session](const pass::FlushUnit& unit) {
    const Ticket ticket = session->submit(unit);
    if (!ticket.done()) {
      ++fx.ryw_checked;
      const auto got = session->read(unit.object);
      const bool observed =
          got.has_value() && got->version == unit.version &&
          (unit.data == nullptr ||
           (got->data != nullptr && *got->data == *unit.data));
      if (!observed) ++fx.ryw_violations;
    }
    if (fx.flush_deadline > 0)
      fx.env.clock().advance_by(fx.flush_deadline / 2);
  });
  observer.apply_trace(trace);
  observer.finish();
  const auto synced = session->sync();
  PROVCLOUD_REQUIRE_MSG(synced.has_value(),
                        "session sync failed: " + synced.error().message);
}

/// Let the world settle: all propagation delivered; Arch-3 daemons pumped.
/// An armed crash may fire inside quiesce (Arch 4 publishes its index
/// checkpoint there, Arch 3's commit daemon drains the log): it propagates
/// like any other crash.
void settle(Fixture& fx) {
  fx.env.clock().drain();
  fx.backend->quiesce();
  fx.env.clock().drain();
}

std::uint32_t meta_version(const aws::S3Metadata& meta, const char* key) {
  std::uint32_t version = 0;
  auto it = meta.find(key);
  if (it != meta.end()) wire::parse_u32(it->second, version);
  return version;
}

struct StateViolations {
  std::uint64_t atomicity = 0;
  std::uint64_t causal = 0;
};

/// Invariant check over the settled cloud state (coordinator views; not
/// billed). Sweeps every shard domain of the topology: under sharding an
/// item lives in its object's hash domain, and peeking only the base
/// domain would misreport stored provenance as atomicity/orphan
/// violations.
StateViolations check_state(Architecture arch, CloudServices& services,
                            const DomainTopology& topology) {
  StateViolations v;
  std::vector<std::string> data_keys;
  for (const std::string& key : services.s3.peek_keys(kDataBucket)) {
    if (util::starts_with(key, kOverflowPrefix) ||
        util::starts_with(key, kTempPrefix))
      continue;
    data_keys.push_back(key);
  }
  const std::set<std::string> data_set(data_keys.begin(), data_keys.end());

  if (arch == Architecture::kS3Only) {
    for (const std::string& key : data_keys) {
      auto obj = services.s3.peek(kDataBucket, key);
      PROVCLOUD_REQUIRE(obj.has_value());
      const std::optional<DecodedMetadata> decoded =
          decode_metadata(obj->metadata);
      if (!decoded || decoded->records.empty()) {
        ++v.atomicity;  // data without (decodable) provenance: torn
        continue;
      }
      for (const std::string& spill : decoded->spill_keys)
        if (!services.s3.peek(kDataBucket, spill)) ++v.atomicity;
      for (const pass::ProvenanceRecord& r : decoded->records)
        if (r.is_xref() && data_set.count(r.xref().object) == 0) ++v.causal;
    }
    return v;
  }

  if (arch == Architecture::kS3SegmentLog) {
    // The log is the ground truth and data + provenance travel inside one
    // entry, so atomicity can only tear two ways: an undecodable segment
    // object, or a durable index posting that resolves to nothing. Orphan
    // segments above indexed-to are fine (recover() replays them); chunk
    // items outside [delete-to, indexed-to] are in-flight or dead debris
    // the protocol already discounts.
    std::map<std::uint64_t, util::SharedBytes> blobs;
    std::set<pass::ObjectVersion> in_log;
    for (const std::string& key : services.s3.peek_keys(lsb::kSegmentBucket)) {
      std::uint64_t id = 0;
      if (!lsb::parse_segment_key(key, id)) continue;
      auto obj = services.s3.peek(lsb::kSegmentBucket, key);
      PROVCLOUD_REQUIRE(obj.has_value());
      auto seg = lsb::decode_segment(*obj->data);
      if (!seg || seg->id != id) {
        ++v.atomicity;  // torn segment object
        continue;
      }
      for (const lsb::PlacedEntry& placed : seg->entries)
        in_log.insert(placed.entry.id);
      blobs[id] = obj->data;
    }
    // Causal ordering, version-granular: every xref in every entry names
    // an (object, version) present somewhere in the log. Checked against
    // the full set (compaction may rewrite an ancestor into a younger
    // segment than its descendant's).
    for (const auto& [id, blob] : blobs) {
      auto seg = lsb::decode_segment(*blob);
      for (const lsb::PlacedEntry& placed : seg->entries)
        for (const pass::ProvenanceRecord& r : placed.entry.records)
          if (r.is_xref() && in_log.count(r.xref()) == 0) ++v.causal;
    }

    std::uint64_t delete_to = 1;
    std::uint64_t indexed_to = 0;
    if (auto meta = services.sdb.peek_item(topology.domains().front(),
                                           lsb::kMetaItem)) {
      const auto parse = [&meta](const char* attr, std::uint64_t fallback) {
        auto it = meta->find(attr);
        if (it != meta->end() && !it->second.empty())
          wire::parse_u64(*it->second.begin(), fallback);
        return fallback;
      };
      delete_to = parse(lsb::kDeleteToAttr, 1);
      indexed_to = parse(lsb::kIndexedToAttr, 0);
    }
    for (const std::string& domain : topology.domains()) {
      for (const std::string& item : services.sdb.peek_item_names(domain)) {
        std::uint64_t seg = 0;
        std::uint64_t chunk = 0;
        if (!lsb::parse_index_item_name(item, seg, chunk)) continue;
        if (seg < delete_to || seg > indexed_to) continue;
        auto attrs = services.sdb.peek_item(domain, item);
        PROVCLOUD_REQUIRE(attrs.has_value());
        for (const auto& [name, values] : *attrs) {
          for (const std::string& value : values) {
            std::vector<lsb::Posting> postings;
            if (!lsb::unpack_postings(value, seg, postings)) {
              ++v.atomicity;  // unparseable posting value
              continue;
            }
            // A posting names the entry's records part, which names the
            // entry's data: the records part must lie inside the segment,
            // and the data (of the posting's size) before it.
            for (const auto& [ov, loc] : postings) {
              auto bit = blobs.find(loc.segment);
              if (bit == blobs.end() || loc.offset > bit->second->size() ||
                  loc.length > bit->second->size() - loc.offset) {
                ++v.atomicity;  // posting into a missing/short segment
                continue;
              }
              auto entry = lsb::decode_entry(
                  util::BytesView(*bit->second).substr(loc.offset, loc.length));
              if (!entry || !(entry->id == ov) ||
                  entry->data_length != loc.data_bytes ||
                  entry->data_offset > loc.offset ||
                  entry->data_length > loc.offset - entry->data_offset)
                ++v.atomicity;
            }
          }
        }
      }
    }
    return v;
  }

  // SimpleDB architectures: version-granular checks over every shard
  // domain's coordinator view.
  std::vector<std::pair<std::string, std::string>> domain_items;
  std::set<std::string> item_set;
  for (const std::string& domain : topology.domains()) {
    for (std::string& item : services.sdb.peek_item_names(domain)) {
      item_set.insert(item);
      domain_items.emplace_back(domain, std::move(item));
    }
  }

  // (a) provenance without data (orphans). Transient pnodes carry no data
  // object by design, so only file items can be orphaned.
  for (const auto& [domain, item] : domain_items) {
    std::string object;
    std::uint32_t version = 0;
    if (!parse_item_name(item, object, version)) continue;
    auto attrs = services.sdb.peek_item(domain, item);
    PROVCLOUD_REQUIRE(attrs.has_value());
    auto kind_it = attrs->find("x-kind");
    const bool is_file = kind_it == attrs->end() || kind_it->second.empty() ||
                         *kind_it->second.begin() == "file";
    if (is_file) {
      auto obj = services.s3.peek(kDataBucket, object);
      if (!obj || meta_version(obj->metadata, kVersionMetaKey) < version) {
        ++v.atomicity;
        continue;
      }
    }
    // (c) causal ordering: every xref's (object, version) item must exist.
    for (const auto& [name, values] : *attrs) {
      if (!is_xref_attribute(name)) continue;
      for (const std::string& value : values) {
        if (value.rfind(kSpillMarker, 0) == 0) continue;
        if (item_set.count(value) == 0) ++v.causal;
      }
    }
  }

  // (b) data without matching provenance.
  for (const std::string& key : data_keys) {
    auto obj = services.s3.peek(kDataBucket, key);
    PROVCLOUD_REQUIRE(obj.has_value());
    const std::uint32_t version = meta_version(obj->metadata, kVersionMetaKey);
    auto nonce_it = obj->metadata.find(kNonceMetaKey);
    const std::string nonce = nonce_it == obj->metadata.end()
                                  ? nonce_for_version(version)
                                  : nonce_it->second;
    auto item = services.sdb.peek_item(topology.domain_for_object(key),
                                       item_name(key, version));
    if (!item) {
      ++v.atomicity;
      continue;
    }
    auto md5_it = item->find(kMd5Attribute);
    if (md5_it == item->end() || md5_it->second.empty() ||
        *md5_it->second.begin() != util::md5_with_nonce(*obj->data, nonce))
      ++v.atomicity;
  }
  return v;
}

/// The late derivation stored *after* the first snapshot rolls: the mutable
/// tail the manifest read path must fall back to SimpleDB for.
pass::SyscallTrace tail_trace(std::uint64_t seed) {
  util::Rng rng(seed);
  pass::SyscallTrace t;
  const pass::Pid late = 15;
  t.push_back(pass::ev_exec(late, "/usr/bin/late", {"late"},
                            workloads::synth_environment(rng, 800)));
  t.push_back(pass::ev_read(late, "data/derived1"));
  t.push_back(pass::ev_write(late, "data/late0", util::Bytes(96, 'l')));
  t.push_back(pass::ev_close(late, "data/late0"));
  t.push_back(pass::ev_exit(late));
  return t;
}

/// The tail trace plus one small close from a second process: the Arch-4
/// crash sweep seals it as one segment, so that re-driving the bare tail
/// supersedes every entry of that segment but the keeper's.
pass::SyscallTrace tail_with_keeper_trace(std::uint64_t seed) {
  pass::SyscallTrace t = tail_trace(seed);
  const pass::Pid keeper = 16;
  t.push_back(pass::ev_exec(keeper, "/usr/bin/keep", {"keep"}));
  t.push_back(pass::ev_write(keeper, "data/keep0", util::Bytes(32, 'k')));
  t.push_back(pass::ev_close(keeper, "data/keep0"));
  t.push_back(pass::ev_exit(keeper));
  return t;
}

/// Full structural equality of two ancestry answers: same nodes (kind,
/// records, ancestor edges) and the same missing list.
bool ancestry_equal(const AncestryResult& a, const AncestryResult& b) {
  if (a.missing != b.missing) return false;
  const auto& an = a.graph.nodes();
  const auto& bn = b.graph.nodes();
  if (an.size() != bn.size()) return false;
  for (const auto& [id, node] : an) {
    const AncestryNode* other = b.graph.find(id);
    if (other == nullptr || node.kind != other->kind ||
        node.records != other->records || node.ancestors != other->ancestors)
      return false;
  }
  return true;
}

/// The entries a snapshot's blocks hold, in order (coordinator view, not
/// billed); nullopt when a block is missing or does not decode.
std::optional<std::vector<manifest::ManifestEntry>> snapshot_entries(
    CloudServices& services, const manifest::ManifestList& list) {
  std::vector<manifest::ManifestEntry> out;
  for (const manifest::BlockStats& b : list.blocks) {
    const auto obj = services.s3.peek(manifest::kManifestBucket, b.key);
    if (!obj) return std::nullopt;
    auto entries = manifest::decode_block(*obj->data);
    if (!entries) return std::nullopt;
    std::move(entries->begin(), entries->end(), std::back_inserter(out));
  }
  return out;
}

/// One replay of a crash scenario: its injected phase and its check, both
/// closed over the fixture and what the scenario's base phase left. The
/// check returns the violations it found.
struct Replay {
  std::function<void()> inject;
  std::function<std::uint64_t()> check;
};

/// A crash scenario runs its base phase, uninjected, on a fresh fixture and
/// returns the replay that continues from it.
using Scenario = std::function<Replay(Fixture&)>;

/// The one crash driver, after FATE (Gunawi et al., NSDI 2011): run the
/// scenario once with no crash armed and count each crash point's hits in
/// its injected phase, then replay it at the same seed once per (point,
/// k <= hits) with the crash armed at the k-th hit. After the injected phase
/// the point is disarmed and the clock drained; then the check runs.
CrashSweepReport sweep(Architecture arch, const PropertyCheckOptions& options,
                       const Scenario& scenario) {
  CrashSweepReport report;
  {
    Fixture fx(arch, options.seed, aggressive_staleness(), options);
    const Replay replay = scenario(fx);
    const sim::FailureInjector& failures = fx.env.failures();
    std::map<std::string, std::uint64_t> base_hits;
    for (const std::string& point : failures.observed_points())
      base_hits[point] = failures.hits(point);
    replay.inject();
    for (const std::string& point : failures.observed_points())
      if (const std::uint64_t hits = failures.hits(point) - base_hits[point])
        report.points[point].hits = hits;
  }
  for (auto& [point, swept] : report.points) {
    for (std::uint64_t k = 1; k <= swept.hits; ++k) {
      Fixture fx(arch, options.seed, aggressive_staleness(), options);
      const Replay replay = scenario(fx);
      fx.env.failures().arm_crash(point, k);
      try {
        replay.inject();
      } catch (const sim::CrashError&) {
        ++swept.crashes;
        ++report.crashed_runs;
      }
      fx.env.failures().disarm(point);
      fx.env.clock().drain();
      report.violations += replay.check();
      ++report.crash_scenarios;
    }
  }
  return report;
}

}  // namespace

PropertyReport check_properties(Architecture arch,
                                const PropertyCheckOptions& options) {
  PropertyReport report;
  report.arch = arch;

  // ------------------------------------------------------ crash sweep ----
  // The close scenario: the mini workload and a settle, crashed anywhere.
  report.crash_sweep = sweep(arch, options, [&](Fixture& fx) -> Replay {
    return {
        [&fx, &options] {
          drive(fx, mini_trace(options.seed, options.mini_files));
          settle(fx);
        },
        [&fx, &report, arch]() -> std::uint64_t {
          // The client is gone, but daemons (Arch 3's commit daemon) are
          // part of the system and keep running: this settle drains what
          // the crash left, restarting a daemon that died inside the
          // injected phase's own settle. Remedial recovery (Arch 2's orphan
          // scan) is deliberately NOT run: Table 1 scores the protocol, not
          // the cleanup.
          settle(fx);
          const StateViolations v =
              check_state(arch, fx.services, *fx.topology);
          report.atomicity_violations += v.atomicity;
          report.causal_violations += v.causal;
          report.ryw_checked += fx.ryw_checked;
          report.ryw_violations += fx.ryw_violations;
          return v.atomicity + v.causal;
        }};
  });
  report.atomicity = report.atomicity_violations == 0;
  report.causal_ordering = report.causal_violations == 0;

  // ------------------------------------------------ consistency hammer ----
  {
    Fixture fx(arch, options.seed ^ 0xc0ffee, aggressive_staleness(), options);
    // The hammer reads right after each close: sync() per close is the
    // durability barrier a reader-visible close implies, so the property
    // stays read-after-durable at every group size.
    auto session = fx.backend->open_session(SessionConfig{
        .client_id = "client-0", .max_group = options.group_size});
    pass::PassObserver observer([&session](const pass::FlushUnit& unit) {
      session->submit(unit);
      const auto synced = session->sync();
      PROVCLOUD_REQUIRE_MSG(synced.has_value(),
                            "hammer sync failed: " + synced.error().message);
    });
    const pass::Pid writer = 21;
    util::Rng rng(options.seed);
    observer.apply(pass::ev_exec(writer, "/bin/writer", {"writer"},
                                 workloads::synth_environment(rng, 1000)));
    for (int version = 0; version < 6; ++version) {
      observer.apply(pass::ev_write(writer, "data/hot",
                                    util::Bytes(512 + 64 * version, 'h')));
      observer.apply(pass::ev_close(writer, "data/hot"));
      // The commit daemon runs between client operations (Arch 3); without
      // it nothing would reach S3/SimpleDB before the reads below.
      fx.backend->recover();
      // Reads race propagation: no draining here.
      for (std::size_t r = 0; r < options.reads_per_version; ++r) {
        fx.env.clock().advance_by(200 * sim::kMillisecond);
        auto result = fx.backend->read("data/hot");
        if (!result) continue;
        ++report.reads_checked;
        if (result->retries > 0) ++report.reads_with_retries;
        if (!result->verified) continue;  // refused to vouch: not a violation
        const auto& truth = observer.ground_truth();
        auto it = truth.find({"data/hot", result->version});
        if (it == truth.end() || *it->second.data != *result->data)
          ++report.consistency_violations;
      }
    }
    report.consistency =
        report.reads_checked > 0 && report.consistency_violations == 0;
  }

  // ------------------------------------------------ query-cost scaling ----
  {
    const auto measure = [&](double scale) -> std::uint64_t {
      Fixture fx(arch, options.seed ^ 0xdead, aws::ConsistencyConfig::strong(),
                 options);
      workloads::WorkloadOptions wo;
      wo.seed = options.seed;
      wo.count_scale = scale;
      wo.size_scale = 0.02;  // tiny payloads; query cost is what matters
      const workloads::CompileWorkload compile;
      drive(fx, compile.generate(wo));
      settle(fx);
      auto engine =
          arch == Architecture::kS3Only ? make_s3_query_engine(fx.services)
          : arch == Architecture::kS3SegmentLog
              ? make_lsb_query_engine(fx.services)
              : make_sdb_query_engine(
                    fx.services,
                    SdbQueryConfig{.shard_count = options.shard_count,
                                   .parallelism = options.parallelism});
      const sim::MeterSnapshot before = fx.env.meter().snapshot();
      engine->q2_outputs_of("/usr/bin/gcc");
      const sim::MeterSnapshot diff =
          fx.env.meter().snapshot().diff(before);
      return diff.calls("s3") + diff.calls("sdb");
    };
    report.query_ops_small = measure(0.08);
    report.query_ops_large = measure(0.16);
    report.query_growth =
        report.query_ops_small == 0
            ? 0.0
            : static_cast<double>(report.query_ops_large) /
                  static_cast<double>(report.query_ops_small);
    report.efficient_query = report.query_growth < 1.5;
  }

  return report;
}

std::vector<PropertyReport> check_all_architectures(
    const PropertyCheckOptions& options) {
  return {check_properties(Architecture::kS3Only, options),
          check_properties(Architecture::kS3SimpleDb, options),
          check_properties(Architecture::kS3SimpleDbSqs, options),
          check_properties(Architecture::kS3SegmentLog, options)};
}

CrashSweepReport check_manifest_roll(Architecture arch,
                                     const PropertyCheckOptions& options) {
  PROVCLOUD_REQUIRE_MSG(arch != Architecture::kS3Only,
                        "manifest rolls need a SimpleDB layout");
  // Small blocks so multi-block rolls exist and after_block_put fires more
  // than once -- the sweep then lands crashes both early and mid-sequence.
  const manifest::ManifestWriterConfig roll_cfg{.block_entries = 4};

  // Base: the mini workload, snapshot 1, then the mutable tail after it.
  // Injected: the next roll by the same writer.
  return sweep(arch, options, [&](Fixture& fx) -> Replay {
    drive(fx, mini_trace(options.seed, options.mini_files));
    settle(fx);
    auto writer = std::make_shared<manifest::ManifestWriter>(
        fx.services, fx.topology, roll_cfg);
    const auto first = writer->roll();
    PROVCLOUD_REQUIRE_MSG(first.has_value(), "first roll failed");
    const std::uint64_t first_id = first->snapshot_id;
    drive(fx, tail_trace(options.seed));
    settle(fx);

    // Ground truth from the pure per-shard SimpleDB scatter walk, taken
    // before any crash: the live manifest walk must match it afterwards.
    auto scatter = make_sdb_query_engine(fx.services, fx.topology);
    const AncestryResult want_tail = scatter->ancestry("data/late0", 1);
    const AncestryResult want_frozen = scatter->ancestry("data/derived1", 1);

    const auto check = [&fx, &roll_cfg, writer, first_id, want_tail,
                        want_frozen]() -> std::uint64_t {
      // The catalog must bind *some* committed snapshot -- never an
      // uncommitted torso, never nothing.
      manifest::ManifestReader reader(fx.services, fx.topology);
      if (!reader.open_current() || reader.snapshot_id() < first_id) return 1;
      std::uint64_t violations = 0;
      auto engine = make_manifest_query_engine(fx.services, fx.topology);
      // The live walk (snapshot + tail fallback) must be bit-identical to
      // the scatter walk wherever the roll died.
      if (!ancestry_equal(engine->ancestry("data/late0", 1), want_tail))
        ++violations;

      // Roll on with the same writer, then with a fresh one. The same
      // writer rolls incrementally from its last snapshot, except after a
      // crash at after_commit, where its memory and "current" disagree and
      // it fetches everything, as the fresh writer always does. Both
      // snapshots must hold the same entries.
      const auto again = writer->roll();
      settle(fx);
      manifest::ManifestWriter fresh(fx.services, fx.topology, roll_cfg);
      const auto full = fresh.roll();
      settle(fx);
      if (!again || !full) return violations + 1;
      const auto again_entries = snapshot_entries(fx.services, *again);
      if (!again_entries ||
          again_entries != snapshot_entries(fx.services, *full))
        ++violations;

      // Every committed snapshot must keep serving complete, correct
      // time-travel ancestry: nothing lost, nothing duplicated. Only the
      // first predates the tail. Ids burned by a crash before their history
      // row have none to travel to.
      manifest::Catalog catalog(fx.services);
      for (std::uint64_t id = first_id; id <= full->snapshot_id; ++id) {
        if (!catalog.history(id)) continue;
        const AncestryResult frozen =
            engine->ancestry_as_of(id, "data/derived1", 1);
        if (!frozen.missing.empty() || !ancestry_equal(frozen, want_frozen))
          ++violations;
        const AncestryResult tail = engine->ancestry_as_of(id, "data/late0", 1);
        const bool tail_ok =
            id == first_id
                ? tail.graph.nodes().empty() && tail.missing.size() == 1
                : ancestry_equal(tail, want_tail);
        if (!tail_ok) ++violations;
      }
      return violations;
    };
    return {[writer] { writer->roll(); }, check};
  });
}

CrashSweepReport check_lsb_crash_sweep(const PropertyCheckOptions& options) {
  // Base: the mini workload, then the tail plus a keeper close sealed as
  // ONE segment whatever the options' group size, fully settled and
  // checkpointed -- committed ground truth the crash must never touch.
  // Injected: the bare tail again, which leaves that segment more than half
  // garbage with the keeper still live in it, then a publication and a
  // cleaner pass, so the injected phase reaches every lsb.compact.* point,
  // a survivor's re-seal and republication included.
  constexpr Architecture arch = Architecture::kS3SegmentLog;
  return sweep(arch, options, [&options](Fixture& fx) -> Replay {
    drive(fx, mini_trace(options.seed, options.mini_files));
    settle(fx);
    const std::size_t group_size = fx.group_size;
    fx.group_size = 25;  // more than the closes it flushes: one group
    drive(fx, tail_with_keeper_trace(options.seed));
    fx.group_size = group_size;
    settle(fx);
    auto* lsb = static_cast<LsbBackend*>(fx.backend.get());
    lsb->publish_index();

    // Ground truth from objects the injected phase never re-stores: the
    // tail trace re-flushes data/derived1@1 (its observer saw only the
    // read), and a re-stored (object, version) replaces the record set --
    // by design, on every architecture -- so derived1 itself is not
    // crash-invariant. Its ancestor derived0 is, and so is the keeper,
    // whose entries the cleaner pass moves.
    std::vector<std::pair<std::string, AncestryResult>> want;
    for (const char* object : {"data/derived0", "data/keep0"})
      want.emplace_back(object, fetch_ancestry(*fx.backend, object, 1));

    const auto check = [&fx, &options, want]() -> std::uint64_t {
      // No torn index, no causal hole in the raw settled state.
      const StateViolations v =
          check_state(Architecture::kS3SegmentLog, fx.services, *fx.topology);
      std::uint64_t violations = v.atomicity + v.causal;
      // Client restart: a fresh backend over the same store recovers and
      // must serve the committed closure bit-identically -- and still after
      // an uninjected cleaner pass.
      LsbBackendConfig cfg;
      cfg.shard_count = options.shard_count;
      cfg.parallelism = options.parallelism;
      LsbBackend fresh(fx.services, cfg);
      fresh.recover();
      const auto walks_agree = [&want, &fresh] {
        for (const auto& [object, result] : want)
          if (!ancestry_equal(fetch_ancestry(fresh, object, 1), result))
            return false;
        return true;
      };
      if (!walks_agree()) ++violations;
      fresh.compact();
      if (!walks_agree()) ++violations;
      return violations;
    };
    return {[&fx, &options, lsb] {
              drive(fx, tail_trace(options.seed));
              lsb->publish_index();
              lsb->compact();
            },
            check};
  });
}

CrashSweepReport check_frontend_crash_sweep(
    Architecture arch, const PropertyCheckOptions& options) {
  // What the injected phase leaves the check: every close offered, with its
  // ticket, and which tickets were ok() when the crash fired.
  struct Tenants {
    std::unique_ptr<Frontend> frontend;
    std::vector<std::pair<FrontendTicket, pass::FlushUnit>> offered;
    std::vector<std::size_t> acknowledged;

    // Each close is a fresh object of 100-2,699 bytes from one of three
    // tenants in turn, so a read-back names exactly that close.
    void offer(std::size_t closes) {
      for (std::size_t i = 0; i < closes; ++i) {
        const std::size_t n = offered.size();
        const std::string tenant = "tenant" + std::to_string(n % 3);
        pass::FlushUnit unit;
        unit.object = tenant + "/f" + std::to_string(n);
        unit.version = 1;
        unit.data = util::make_shared_bytes(
            util::Bytes(100 + n * 97 % 2600, static_cast<char>('a' + n % 26)));
        unit.records = {pass::make_text_record("TYPE", "file"),
                        pass::make_text_record("NAME", unit.object)};
        auto ticket = frontend->offer(tenant, unit);
        PROVCLOUD_REQUIRE_MSG(ticket.has_value(),
                              "frontend refused: " + ticket.error().message);
        offered.emplace_back(*ticket, std::move(unit));
      }
    }
    void note_acknowledged() {
      for (std::size_t i = 0; i < offered.size(); ++i)
        if (offered[i].first.ok()) acknowledged.push_back(i);
    }
  };

  return sweep(arch, options, [&options, arch](Fixture& fx) -> Replay {
    FrontendConfig cfg;
    cfg.session_pool = 2;
    cfg.session.client_id = "frontend";
    cfg.session.max_group = options.group_size;
    cfg.session.flush_deadline = 200 * sim::kMillisecond;
    auto tenants = std::make_shared<Tenants>();
    tenants->frontend = std::make_unique<Frontend>(*fx.backend, fx.env, cfg);
    tenants->offer(39);
    const auto synced = tenants->frontend->sync_all();
    PROVCLOUD_REQUIRE_MSG(synced.has_value(),
                          "frontend sync failed: " + synced.error().message);

    const auto inject = [&fx, tenants] {
      try {
        for (int step = 0; step < 5; ++step) {
          tenants->offer(3);
          fx.env.clock().advance_by(100 * sim::kMillisecond);
          tenants->frontend->pump();
        }
        const auto done = tenants->frontend->sync_all();
        PROVCLOUD_REQUIRE_MSG(done.has_value(),
                              "frontend sync failed: " + done.error().message);
      } catch (const sim::CrashError&) {
        // The client died: what it acknowledged must be durable, and its
        // sessions drop what they still queue.
        tenants->note_acknowledged();
        tenants->frontend.reset();
        throw;
      }
      tenants->note_acknowledged();
    };
    const auto check = [&fx, tenants, arch]() -> std::uint64_t {
      if (arch == Architecture::kS3SimpleDbSqs) fx.backend->recover();
      settle(fx);
      std::uint64_t violations = 0;
      for (const std::size_t i : tenants->acknowledged) {
        const pass::FlushUnit& unit = tenants->offered[i].second;
        const auto got = fx.backend->read(unit.object);
        if (!got || !got->verified || got->version != unit.version ||
            got->data == nullptr || *got->data != *unit.data)
          ++violations;
      }
      return violations;
    };
    return {inject, check};
  });
}

}  // namespace provcloud::cloudprov
