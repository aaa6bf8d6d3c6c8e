// The manifest-backed ancestry read path: snapshot formats, the catalog
// commit point, reader equivalence with the pure SimpleDB scatter walk,
// time travel, AncestorCache behavior, the roll crash sweep, and the hints
// prefetcher consulting a shared AncestorCache.
//
// PROVCLOUD_SNAPSHOT_LAG (0..100, default 10) sets what percentage of the
// randomized workload is stored *after* the snapshot rolls -- the mutable
// tail the reader must serve via SimpleDB fallback. CI runs the suite at 0
// and 50.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "cloudprov/hints.hpp"
#include "cloudprov/manifest/ancestor_cache.hpp"
#include "cloudprov/manifest/catalog.hpp"
#include "cloudprov/manifest/format.hpp"
#include "cloudprov/manifest/reader.hpp"
#include "cloudprov/manifest/writer.hpp"
#include "cloudprov/properties.hpp"
#include "cloudprov/query.hpp"
#include "cloudprov/sdb_backend.hpp"
#include "cloudprov/serialize.hpp"
#include "pass/observer.hpp"
#include "util/require.hpp"
#include "workloads/compile.hpp"

namespace {

using namespace provcloud;
using namespace provcloud::cloudprov;
using namespace provcloud::cloudprov::manifest;
namespace pass = provcloud::pass;

/// Percentage of the workload stored after the roll (the mutable tail).
std::size_t snapshot_lag_percent() {
  if (const char* env = std::getenv("PROVCLOUD_SNAPSHOT_LAG")) {
    const long v = std::atol(env);
    if (v >= 0 && v <= 100) return static_cast<std::size_t>(v);
  }
  return 10;
}

/// Arch-2 world with a persistent observer, so a trace can be stored in two
/// parts (before and after a snapshot roll) without losing process state.
struct World {
  explicit World(std::size_t shards = 2, std::uint64_t seed = 71)
      : env(seed, aws::ConsistencyConfig::strong()), services(env) {
    auto sdb = std::make_unique<SdbBackend>(
        services, SdbBackendConfig{.shard_count = shards});
    topology = sdb->topology();
    backend = std::move(sdb);
    observer = std::make_unique<pass::PassObserver>(
        [this](const pass::FlushUnit& u) { backend->store(u); });
  }

  void store(const pass::SyscallTrace& t, std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end && i < t.size(); ++i)
      observer->apply(t[i]);
    if (end >= t.size()) observer->finish();
    settle();
  }

  void settle() {
    env.clock().drain();
    backend->quiesce();
    env.clock().drain();
  }

  ManifestList roll(std::size_t block_entries = 8) {
    ManifestWriter writer(services, topology,
                          ManifestWriterConfig{.block_entries = block_entries});
    auto rolled = writer.roll();
    EXPECT_TRUE(rolled.has_value());
    return rolled.has_value() ? *rolled : ManifestList{};
  }

  /// Every stored (object, version), from the coordinator view.
  std::vector<pass::ObjectVersion> all_ids() {
    std::vector<pass::ObjectVersion> ids;
    for (const std::string& domain : topology->domains())
      for (const std::string& item : services.sdb.peek_item_names(domain)) {
        std::string object;
        std::uint32_t version = 0;
        if (parse_item_name(item, object, version))
          ids.push_back({object, version});
      }
    std::sort(ids.begin(), ids.end());
    return ids;
  }

  aws::CloudEnv env;
  CloudServices services;
  std::unique_ptr<ProvenanceBackend> backend;
  std::shared_ptr<const DomainTopology> topology;
  std::unique_ptr<pass::PassObserver> observer;
};

/// a -> p1 -> b -> p2 -> c derivation chain.
pass::SyscallTrace chain_trace() {
  pass::SyscallTrace t;
  t.push_back(pass::ev_exec(1, "/bin/p1"));
  t.push_back(pass::ev_write(1, "a", "1"));
  t.push_back(pass::ev_close(1, "a"));
  t.push_back(pass::ev_exec(2, "/bin/p2"));
  t.push_back(pass::ev_read(2, "a"));
  t.push_back(pass::ev_write(2, "b", "2"));
  t.push_back(pass::ev_close(2, "b"));
  t.push_back(pass::ev_exec(3, "/bin/p3"));
  t.push_back(pass::ev_read(3, "b"));
  t.push_back(pass::ev_write(3, "c", "3"));
  t.push_back(pass::ev_close(3, "c"));
  return t;
}

/// The tail a late process appends after the roll.
pass::SyscallTrace late_trace() {
  pass::SyscallTrace t;
  t.push_back(pass::ev_exec(4, "/bin/p4"));
  t.push_back(pass::ev_read(4, "c"));
  t.push_back(pass::ev_write(4, "e", "late"));
  t.push_back(pass::ev_close(4, "e"));
  return t;
}

bool ancestry_equal(const AncestryResult& a, const AncestryResult& b) {
  if (a.missing != b.missing) return false;
  if (a.graph.nodes().size() != b.graph.nodes().size()) return false;
  for (const auto& [id, node] : a.graph.nodes()) {
    const AncestryNode* other = b.graph.find(id);
    if (other == nullptr || node.kind != other->kind ||
        node.records != other->records || node.ancestors != other->ancestors)
      return false;
  }
  return true;
}

// ---------------------------------------------------------------- format --

TEST(ManifestFormatTest, BlockRoundTripsArbitraryBytes) {
  std::vector<ManifestEntry> entries;
  entries.push_back(
      {{"a", 1},
       {pass::make_text_record("TYPE", "file"),
        pass::make_text_record("ENV", std::string("A=1\nB=\0x\n", 9)),
        pass::make_xref_record("INPUT", {"proc/1/1", 1})}});
  entries.push_back(
      {{"b", 3}, {pass::make_xref_record("PREV", {"b", 2})}});
  const std::string raw = encode_block(entries);
  const auto decoded = decode_block(raw);
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->size(), 2u);
  EXPECT_EQ((*decoded)[0].id, (pass::ObjectVersion{"a", 1}));
  EXPECT_EQ((*decoded)[0].records, entries[0].records);
  EXPECT_EQ((*decoded)[1].records, entries[1].records);
}

TEST(ManifestFormatTest, DecodeRejectsGarbage) {
  EXPECT_FALSE(decode_block("not a block").has_value());
  EXPECT_FALSE(decode_block("").has_value());
  EXPECT_FALSE(decode_manifest_list("PMB1\n").has_value());
  // A truncated but well-prefixed object must not decode.
  std::vector<ManifestEntry> entries;
  entries.push_back({{"a", 1}, {pass::make_text_record("TYPE", "file")}});
  const std::string raw = encode_block(entries);
  EXPECT_FALSE(decode_block(raw.substr(0, raw.size() - 3)).has_value());
}

TEST(ManifestFormatTest, ListRoundTripAndPruning) {
  ManifestList list;
  list.snapshot_id = 7;
  list.total_entries = 5;
  list.blocks.push_back({"snap-7/block-0", {"a", 1}, {"c", 2}, 3, 100});
  list.blocks.push_back({"snap-7/block-1", {"f", 1}, {"k", 9}, 2, 80});
  const auto decoded = decode_manifest_list(encode_manifest_list(list));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->snapshot_id, 7u);
  EXPECT_EQ(decoded->blocks.size(), 2u);
  EXPECT_EQ(decoded->blocks[1].max, (pass::ObjectVersion{"k", 9}));

  // min/max pruning: in-range ids map to their block, gaps and the space
  // above every range map to nothing.
  EXPECT_EQ(find_block(list, {"b", 1}), std::optional<std::size_t>{0});
  EXPECT_EQ(find_block(list, {"f", 1}), std::optional<std::size_t>{1});
  EXPECT_EQ(find_block(list, {"d", 1}), std::nullopt);  // gap between blocks
  EXPECT_EQ(find_block(list, {"z", 1}), std::nullopt);  // above all ranges
  EXPECT_EQ(find_block(list, {"a", 0}), std::nullopt);  // below all ranges
}

// --------------------------------------------------------------- catalog --

TEST(ManifestCatalogTest, CommitPointerSwapIsTheCommitPoint) {
  aws::CloudEnv env(5, aws::ConsistencyConfig::strong());
  CloudServices services(env);
  Catalog catalog(services);
  catalog.ensure_domain();
  EXPECT_FALSE(catalog.current().has_value());
  EXPECT_EQ(catalog.next_snapshot_id(), 1u);

  const CatalogPointer p1{1, manifest_list_key(1), 10};
  ASSERT_TRUE(catalog.publish_history(p1).has_value());
  // History row alone commits nothing...
  EXPECT_FALSE(catalog.current().has_value());
  EXPECT_FALSE(catalog.history(1).has_value());
  // ...but burns the id: a later roll must never overwrite snap-1 objects.
  EXPECT_EQ(catalog.next_snapshot_id(), 2u);

  ASSERT_TRUE(catalog.commit(p1).has_value());
  ASSERT_TRUE(catalog.current().has_value());
  EXPECT_EQ(catalog.current()->snapshot_id, 1u);
  EXPECT_TRUE(catalog.history(1).has_value());

  // An uncommitted successor stays invisible to history().
  const CatalogPointer p2{2, manifest_list_key(2), 12};
  ASSERT_TRUE(catalog.publish_history(p2).has_value());
  EXPECT_FALSE(catalog.history(2).has_value());
  EXPECT_EQ(catalog.next_snapshot_id(), 3u);
}

// ------------------------------------------------------------- read path --

TEST(ManifestReadPathTest, EquivalenceOnRandomizedWorkload) {
  const std::size_t lag = snapshot_lag_percent();
  workloads::WorkloadOptions wo;
  wo.seed = 17;
  wo.count_scale = 0.15;
  wo.size_scale = 0.02;
  const pass::SyscallTrace trace = workloads::CompileWorkload().generate(wo);
  const std::size_t cut = trace.size() * (100 - lag) / 100;

  World w(/*shards=*/4);
  w.store(trace, 0, cut);
  const ManifestList list = w.roll();
  EXPECT_GT(list.total_entries, 0u);
  w.store(trace, cut, trace.size());

  auto scatter = make_sdb_query_engine(w.services, w.topology);
  auto through_manifest = make_manifest_query_engine(w.services, w.topology);

  // Walk a spread of roots over everything stored (snapshot and tail) and
  // demand bit-identical answers from both engines.
  const std::vector<pass::ObjectVersion> ids = w.all_ids();
  ASSERT_FALSE(ids.empty());
  const std::size_t step = std::max<std::size_t>(1, ids.size() / 12);
  std::size_t walks = 0;
  const auto before = w.env.meter().snapshot();
  std::uint64_t scatter_sdb = 0, manifest_sdb = 0;
  for (std::size_t i = 0; i < ids.size(); i += step) {
    const auto s0 = w.env.meter().snapshot();
    const AncestryResult want =
        scatter->ancestry(ids[i].object, ids[i].version);
    const auto s1 = w.env.meter().snapshot();
    const AncestryResult got =
        through_manifest->ancestry(ids[i].object, ids[i].version);
    const auto s2 = w.env.meter().snapshot();
    scatter_sdb += s1.diff(s0).calls("sdb");
    manifest_sdb += s2.diff(s1).calls("sdb");
    EXPECT_TRUE(ancestry_equal(got, want)) << ids[i].to_string();
    ++walks;
  }
  (void)before;
  // The manifest path replaces per-node SimpleDB reads with block GETs; its
  // SimpleDB traffic is at most the catalog read per walk plus tail
  // fallbacks, never more than the scatter walk plus the catalog reads.
  EXPECT_LE(manifest_sdb, scatter_sdb + walks);
  if (lag == 0) {
    EXPECT_LT(manifest_sdb, scatter_sdb);
  }
}

TEST(ManifestReadPathTest, TailFallbackServesPostSnapshotWrites) {
  World w(/*shards=*/2);
  const pass::SyscallTrace part1 = chain_trace();
  w.store(part1, 0, part1.size());
  w.roll();
  const pass::SyscallTrace part2 = late_trace();
  w.store(part2, 0, part2.size());

  auto scatter = make_sdb_query_engine(w.services, w.topology);
  auto engine = make_manifest_query_engine(w.services, w.topology);
  // "e" lives above the snapshot; its ancestors live inside it.
  const AncestryResult got = engine->ancestry("e", 1);
  EXPECT_TRUE(ancestry_equal(got, scatter->ancestry("e", 1)));
  EXPECT_TRUE(got.missing.empty());
  EXPECT_NE(got.graph.find({"a", 1}), nullptr);
}

TEST(ManifestReadPathTest, NoSnapshotFallsBackToPureScatter) {
  World w(/*shards=*/2);
  const pass::SyscallTrace t = chain_trace();
  w.store(t, 0, t.size());
  auto scatter = make_sdb_query_engine(w.services, w.topology);
  auto engine = make_manifest_query_engine(w.services, w.topology);
  EXPECT_TRUE(
      ancestry_equal(engine->ancestry("c", 1), scatter->ancestry("c", 1)));
}

// ------------------------------------------------------------ time travel --

TEST(ManifestTimeTravelTest, AsOfServesTheOldSnapshotOnly) {
  World w(/*shards=*/2);
  const pass::SyscallTrace part1 = chain_trace();
  w.store(part1, 0, part1.size());
  const ManifestList snap1 = w.roll();
  const pass::SyscallTrace part2 = late_trace();
  w.store(part2, 0, part2.size());
  const ManifestList snap2 = w.roll();
  EXPECT_GT(snap2.snapshot_id, snap1.snapshot_id);

  auto engine = make_manifest_query_engine(w.services, w.topology);
  ASSERT_TRUE(engine->supports_time_travel());

  // The old snapshot serves its own contents completely...
  const AncestryResult old_c =
      engine->ancestry_as_of(snap1.snapshot_id, "c", 1);
  EXPECT_TRUE(old_c.missing.empty());
  EXPECT_NE(old_c.graph.find({"a", 1}), nullptr);
  // ...and refuses to leak the future: "e" did not exist at snapshot 1.
  const AncestryResult old_e =
      engine->ancestry_as_of(snap1.snapshot_id, "e", 1);
  EXPECT_EQ(old_e.graph.nodes().size(), 0u);
  ASSERT_EQ(old_e.missing.size(), 1u);
  EXPECT_EQ(old_e.missing[0], (pass::ObjectVersion{"e", 1}));
  // Snapshot 2 has it.
  EXPECT_NE(engine->ancestry_as_of(snap2.snapshot_id, "e", 1)
                .graph.find({"e", 1}),
            nullptr);
  // A never-committed snapshot id yields only a missing root.
  const AncestryResult bogus = engine->ancestry_as_of(99, "c", 1);
  EXPECT_EQ(bogus.graph.nodes().size(), 0u);
  ASSERT_EQ(bogus.missing.size(), 1u);
}

TEST(ManifestTimeTravelTest, ScatterEngineHasNoTimeTravel) {
  World w;
  auto scatter = make_sdb_query_engine(w.services, w.topology);
  EXPECT_FALSE(scatter->supports_time_travel());
  EXPECT_THROW(scatter->ancestry_as_of(1, "c", 1), util::LogicError);
}

// --------------------------------------------------------- ancestor cache --

TEST(AncestorCacheTest, LruEvictsAndCountsStats) {
  AncestorCache cache(2);
  cache.set_snapshot(1);
  cache.insert({"a", 1}, {pass::make_text_record("TYPE", "file")});
  cache.insert({"b", 1}, {});
  EXPECT_NE(cache.find({"a", 1}), nullptr);  // touches "a": "b" is now LRU
  cache.insert({"c", 1}, {});                // evicts "b"
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.find({"b", 1}), nullptr);
  EXPECT_NE(cache.find({"a", 1}), nullptr);
  EXPECT_EQ(cache.stats().insertions, 3u);
  EXPECT_GE(cache.stats().misses, 1u);
}

TEST(AncestorCacheTest, ForwardSnapshotRollKeepsFragments) {
  World w(/*shards=*/2);
  const pass::SyscallTrace part1 = chain_trace();
  w.store(part1, 0, part1.size());
  w.roll();

  auto reader = std::make_shared<ManifestReader>(w.services, w.topology);
  ASSERT_TRUE(reader->open_current().has_value());
  auto engine = make_manifest_query_engine(w.services, reader);
  engine->ancestry("c", 1);
  const std::size_t warmed = reader->cache()->size();
  const std::uint64_t hits_before = reader->cache()->stats().hits;
  EXPECT_GT(warmed, 0u);

  // A new snapshot lands. Fragments are per-version and immutable, so the
  // forward rebind keeps them all, and the overlap of the next walk is
  // served from cache -- the hit-rate regression this guards.
  const pass::SyscallTrace part2 = late_trace();
  w.store(part2, 0, part2.size());
  w.roll();
  const AncestryResult after = engine->ancestry("e", 1);
  EXPECT_EQ(reader->cache()->stats().invalidations, 0u);
  EXPECT_GE(reader->cache()->size(), warmed);
  EXPECT_GT(reader->cache()->stats().hits, hits_before);
  EXPECT_NE(after.graph.find({"e", 1}), nullptr);
  EXPECT_NE(after.graph.find({"a", 1}), nullptr);
}

TEST(AncestorCacheTest, TimeTravelRebindDropsNewerFragments) {
  AncestorCache cache(8);
  cache.set_snapshot(1);
  cache.insert({"a", 1}, {pass::make_text_record("TYPE", "file")});
  cache.set_snapshot(2);
  cache.insert({"b", 1}, {});
  // Binding an older snapshot drops only fragments decoded beyond it.
  cache.set_snapshot(1);
  EXPECT_NE(cache.find({"a", 1}), nullptr);
  EXPECT_EQ(cache.find({"b", 1}), nullptr);
  EXPECT_EQ(cache.stats().invalidations, 1u);
}

// ------------------------------------------------------------ crash sweep --

TEST(TableOneManifestRollTest, CrashSweepArch2) {
  PropertyCheckOptions options;
  options.shard_count = 2;
  const ManifestRollReport report =
      check_manifest_roll(Architecture::kS3SimpleDb, options);
  EXPECT_TRUE(report.crash_safe());
  EXPECT_GT(report.crash_scenarios, 0u);
  EXPECT_GT(report.crashed_rolls, 0u);
  EXPECT_EQ(report.violations, 0u);
}

TEST(TableOneManifestRollTest, CrashSweepArch3) {
  const ManifestRollReport report =
      check_manifest_roll(Architecture::kS3SimpleDbSqs, PropertyCheckOptions{});
  EXPECT_TRUE(report.crash_safe());
  EXPECT_GT(report.crashed_rolls, 0u);
  EXPECT_EQ(report.violations, 0u);
}

// ------------------------------------------------------------------ hints --

TEST(ManifestHintsTest, PrefetcherConsultsSharedAncestorCache) {
  World w(/*shards=*/1);
  const pass::SyscallTrace t = chain_trace();
  w.store(t, 0, t.size());
  w.roll();

  auto reader = std::make_shared<ManifestReader>(w.services, w.topology);
  ASSERT_TRUE(reader->open_current().has_value());
  auto engine = make_manifest_query_engine(w.services, reader);
  engine->ancestry("c", 1);  // warms the shared cache with c's fragment

  ProvenanceCache cache(w.services, PrefetchConfig{}, w.topology);
  cache.attach_ancestor_cache(reader->cache());
  const auto before = w.env.meter().snapshot();
  EXPECT_NE(cache.read("c"), nullptr);
  const auto diff = w.env.meter().snapshot().diff(before);
  // Hint mining served c's provenance from the AncestorCache: no per-item
  // GetAttributes was issued for it.
  EXPECT_GE(cache.stats().ancestor_cache_hits, 1u);
  EXPECT_EQ(diff.calls("sdb", "GetAttributes"), 0u);
}

}  // namespace
