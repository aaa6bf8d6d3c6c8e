// The manifest-backed ancestry read path: snapshot formats, the catalog
// commit point, reader equivalence with the pure SimpleDB scatter walk,
// time travel, incremental rolls, AncestorCache behavior, the roll crash
// sweep, and the hints prefetcher consulting a shared AncestorCache.
//
// PROVCLOUD_SNAPSHOT_LAG (0..100, default 10) sets what percentage of the
// randomized workload is stored *after* the snapshot rolls -- the mutable
// tail the reader must serve via SimpleDB fallback. CI runs the suite at 0
// and 50. PROVCLOUD_PROPERTIES_GROUP_SIZE sets the crash sweep's session
// group size, as in test_properties.cpp; CI runs it at 1, 8 and 25.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <iterator>
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

/// A committed snapshot as its S3 objects hold it (coordinator view, not
/// billed): the decoded list and its blocks' entries in order.
struct StoredSnapshot {
  ManifestList list;
  std::vector<ManifestEntry> entries;
};

StoredSnapshot stored_snapshot(World& w, std::uint64_t snapshot_id) {
  StoredSnapshot out;
  const auto list =
      w.services.s3.peek(kManifestBucket, manifest_list_key(snapshot_id));
  auto decoded = list ? decode_manifest_list(*list->data) : std::nullopt;
  EXPECT_TRUE(decoded.has_value()) << snapshot_id;
  if (!decoded) return out;
  out.list = std::move(*decoded);
  for (const BlockStats& b : out.list.blocks) {
    const auto block = w.services.s3.peek(kManifestBucket, b.key);
    auto entries = block ? decode_block(*block->data) : std::nullopt;
    EXPECT_TRUE(entries.has_value()) << b.key;
    if (entries)
      std::move(entries->begin(), entries->end(),
                std::back_inserter(out.entries));
  }
  return out;
}

/// The same entries, cut into the same blocks (min, max, entries, bytes);
/// only the block keys may differ, with the snapshot id.
void expect_same_snapshot(const StoredSnapshot& got,
                          const StoredSnapshot& want) {
  EXPECT_EQ(got.list.total_entries, want.list.total_entries);
  EXPECT_TRUE(got.entries == want.entries);
  ASSERT_EQ(got.list.blocks.size(), want.list.blocks.size());
  for (std::size_t i = 0; i < got.list.blocks.size(); ++i) {
    const BlockStats& g = got.list.blocks[i];
    const BlockStats& w = want.list.blocks[i];
    EXPECT_EQ(g.min, w.min) << i;
    EXPECT_EQ(g.max, w.max) << i;
    EXPECT_EQ(g.entries, w.entries) << i;
    EXPECT_EQ(g.bytes, w.bytes) << i;
  }
}

/// GetAttributes calls on the shard domains in `diff`: every call a roll
/// makes there is one of those or an enumeration Query page.
std::uint64_t shard_get_attributes(const World& w,
                                   const sim::MeterSnapshot& diff) {
  std::uint64_t calls = 0;
  for (const std::string& domain : w.topology->domains())
    calls += diff.detail_calls("sdb", domain);
  return calls - diff.calls("sdb", "Query");
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
  EXPECT_EQ(catalog.next_snapshot_id(catalog.current()), 1u);

  const CatalogPointer p1{1, manifest_list_key(1), 10};
  ASSERT_TRUE(catalog.publish_history(p1).has_value());
  // History row alone commits nothing...
  EXPECT_FALSE(catalog.current().has_value());
  EXPECT_FALSE(catalog.history(1).has_value());
  // ...but burns the id: a later roll must never overwrite snap-1 objects.
  EXPECT_EQ(catalog.next_snapshot_id(catalog.current()), 2u);

  ASSERT_TRUE(catalog.commit(p1).has_value());
  ASSERT_TRUE(catalog.current().has_value());
  EXPECT_EQ(catalog.current()->snapshot_id, 1u);
  EXPECT_TRUE(catalog.history(1).has_value());

  // An uncommitted successor stays invisible to history().
  const CatalogPointer p2{2, manifest_list_key(2), 12};
  ASSERT_TRUE(catalog.publish_history(p2).has_value());
  EXPECT_FALSE(catalog.history(2).has_value());
  EXPECT_EQ(catalog.next_snapshot_id(catalog.current()), 3u);
}

TEST(ManifestCatalogTest, OverflowingIdIsNotARow) {
  aws::CloudEnv env(5, aws::ConsistencyConfig::strong());
  CloudServices services(env);
  Catalog catalog(services);
  catalog.ensure_domain();
  const auto put_current = [&services](const std::string& id) {
    return services.sdb.put_attributes(
        kCatalogDomain, "current",
        {{"id", id, true},
         {"list-key", manifest_list_key(7), true},
         {"entries", "10", true}});
  };
  ASSERT_TRUE(put_current("7").has_value());
  ASSERT_TRUE(catalog.current().has_value());
  EXPECT_EQ(catalog.current()->snapshot_id, 7u);
  // 2^64 + 7: a parser that wraps would read it as snapshot 7.
  ASSERT_TRUE(put_current("18446744073709551623").has_value());
  EXPECT_FALSE(catalog.current().has_value());
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

TEST(ManifestReadPathTest, UndecodableBlockOrListIsCorrupt) {
  World w(/*shards=*/2);
  const pass::SyscallTrace t = chain_trace();
  w.store(t, 0, t.size());
  const ManifestList list = w.roll(/*block_entries=*/2);
  ASSERT_GE(list.blocks.size(), 2u);
  const StoredSnapshot stored = stored_snapshot(w, list.snapshot_id);
  ASSERT_TRUE(w.services.s3.put(kManifestBucket, list.blocks[0].key, "garbage")
                  .has_value());

  // Every id block 0 held fails as corrupt; the other blocks still serve.
  std::vector<pass::ObjectVersion> ids;
  for (const ManifestEntry& e : stored.entries) ids.push_back(e.id);
  ManifestReader reader(w.services, w.topology);
  ASSERT_TRUE(reader.open_current().has_value());
  const auto got = reader.get_provenance_many(ids);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i < list.blocks[0].entries) {
      ASSERT_FALSE(got[i].has_value()) << ids[i].to_string();
      EXPECT_EQ(got[i].error().code, BackendErrorCode::kCorrupt);
    } else {
      EXPECT_TRUE(got[i].has_value()) << ids[i].to_string();
    }
  }

  // An undecodable list fails the bind the same way.
  ASSERT_TRUE(w.services.s3
                  .put(kManifestBucket, manifest_list_key(list.snapshot_id),
                       "garbage")
                  .has_value());
  ManifestReader fresh(w.services, w.topology);
  const auto opened = fresh.open_current();
  ASSERT_FALSE(opened.has_value());
  EXPECT_EQ(opened.error().code, BackendErrorCode::kCorrupt);
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

// ------------------------------------------------------ incremental roll --

TEST(ManifestIncrementalRollTest, LongLivedWriterMatchesAFreshFullRoll) {
  workloads::WorkloadOptions wo;
  wo.seed = 23;
  wo.count_scale = 0.15;
  wo.size_scale = 0.02;
  const pass::SyscallTrace trace = workloads::CompileWorkload().generate(wo);
  const std::size_t cuts[] = {0, trace.size() / 3, 2 * trace.size() / 3,
                              trace.size()};

  // Twin stores fed the same trace in three parts. One long-lived writer
  // rolls `inc` after each part; a fresh writer rolls `full` each time, so
  // every one of its rolls fetches every item.
  World inc(/*shards=*/4), full(/*shards=*/4);
  ManifestWriter writer(inc.services, inc.topology,
                        ManifestWriterConfig{.block_entries = 8});
  std::size_t stored_before = 0;
  for (std::size_t part = 0; part < 3; ++part) {
    inc.store(trace, cuts[part], cuts[part + 1]);
    full.store(trace, cuts[part], cuts[part + 1]);
    const std::size_t stored = inc.all_ids().size();
    const sim::MeterSnapshot before = inc.env.meter().snapshot();
    const auto rolled = writer.roll();
    const sim::MeterSnapshot diff = inc.env.meter().snapshot().diff(before);
    ASSERT_TRUE(rolled.has_value());
    const ManifestList want = full.roll();
    ASSERT_EQ(rolled->snapshot_id, want.snapshot_id);

    // Only the items stored since the writer's last roll are fetched.
    EXPECT_GT(stored, stored_before);
    EXPECT_EQ(shard_get_attributes(inc, diff), stored - stored_before)
        << "roll " << part + 1;
    expect_same_snapshot(stored_snapshot(inc, rolled->snapshot_id),
                         stored_snapshot(full, want.snapshot_id));
    stored_before = stored;
  }
}

TEST(ManifestIncrementalRollTest, DeletedItemLeavesTheNextSnapshot) {
  World w(/*shards=*/2);
  ManifestWriter writer(w.services, w.topology,
                        ManifestWriterConfig{.block_entries = 2});
  const pass::SyscallTrace part1 = chain_trace();
  w.store(part1, 0, part1.size());
  const auto snap1 = writer.roll();
  ASSERT_TRUE(snap1.has_value());

  // Drop c@1's item the way SdbBackend::recover() drops an orphan, then
  // store more and roll again.
  const pass::ObjectVersion gone{"c", 1};
  ASSERT_TRUE(w.services.sdb
                  .delete_attributes(w.topology->domain_for_object(gone.object),
                                     item_name(gone.object, gone.version))
                  .has_value());
  const pass::SyscallTrace part2 = late_trace();
  w.store(part2, 0, part2.size());
  const auto snap2 = writer.roll();
  ASSERT_TRUE(snap2.has_value());

  const StoredSnapshot stored = stored_snapshot(w, snap2->snapshot_id);
  EXPECT_EQ(stored.list.total_entries, w.all_ids().size());
  EXPECT_TRUE(std::none_of(
      stored.entries.begin(), stored.entries.end(),
      [&gone](const ManifestEntry& e) { return e.id == gone; }));
  const ManifestList want = w.roll(/*block_entries=*/2);
  expect_same_snapshot(stored, stored_snapshot(w, want.snapshot_id));

  // Time travel to the earlier snapshot still serves it; the later one
  // does not hold it.
  ManifestReader old_reader(w.services, w.topology);
  ASSERT_TRUE(old_reader.open(snap1->snapshot_id).has_value());
  const auto then = old_reader.get_provenance_many({gone});
  ASSERT_TRUE(then[0].has_value());
  EXPECT_FALSE(then[0]->empty());
  ManifestReader new_reader(w.services, w.topology);
  ASSERT_TRUE(new_reader.open(snap2->snapshot_id).has_value());
  const auto now = new_reader.get_provenance_many({gone});
  ASSERT_FALSE(now[0].has_value());
  EXPECT_EQ(now[0].error().code, BackendErrorCode::kNotFound);
}

TEST(ManifestIncrementalRollTest, AnotherWritersSnapshotForcesAFullFetch) {
  World w(/*shards=*/2);
  const ManifestWriterConfig cfg{.block_entries = 2};
  ManifestWriter a(w.services, w.topology, cfg);
  const pass::SyscallTrace part1 = chain_trace();
  w.store(part1, 0, part1.size());
  ASSERT_TRUE(a.roll().has_value());
  const pass::SyscallTrace part2 = late_trace();
  w.store(part2, 0, part2.size());
  ManifestWriter b(w.services, w.topology, cfg);
  ASSERT_TRUE(b.roll().has_value());

  // B's snapshot is current, not A's last one: A fetches every item.
  const sim::MeterSnapshot before = w.env.meter().snapshot();
  const auto rolled = a.roll();
  const sim::MeterSnapshot diff = w.env.meter().snapshot().diff(before);
  ASSERT_TRUE(rolled.has_value());
  EXPECT_EQ(shard_get_attributes(w, diff), w.all_ids().size());
  const ManifestList want = w.roll(/*block_entries=*/2);
  expect_same_snapshot(stored_snapshot(w, rolled->snapshot_id),
                       stored_snapshot(w, want.snapshot_id));
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

/// The crash sweep's options at the session group size CI sets.
PropertyCheckOptions roll_sweep_options() {
  PropertyCheckOptions o;
  if (const char* env = std::getenv("PROVCLOUD_PROPERTIES_GROUP_SIZE"))
    o.group_size = static_cast<std::size_t>(std::strtoul(env, nullptr, 10));
  return o;
}

TEST(TableOneManifestRollTest, CrashSweepArch2) {
  PropertyCheckOptions options = roll_sweep_options();
  options.shard_count = 2;
  const CrashSweepReport report =
      check_manifest_roll(Architecture::kS3SimpleDb, options);
  EXPECT_TRUE(report.crash_safe());
  EXPECT_GT(report.crash_scenarios, 0u);
  EXPECT_GT(report.crashed_runs, 0u);
  EXPECT_EQ(report.violations, 0u);
}

TEST(TableOneManifestRollTest, CrashSweepArch3) {
  const CrashSweepReport report =
      check_manifest_roll(Architecture::kS3SimpleDbSqs, roll_sweep_options());
  EXPECT_TRUE(report.crash_safe());
  EXPECT_GT(report.crashed_runs, 0u);
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
