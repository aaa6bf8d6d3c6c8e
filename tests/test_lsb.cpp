// Architecture 4: segment wire format, group sealing, deferred index
// publication, recovery (rebuild + orphan replay), the cleaner, and the
// slow-but-not-crashed S3 seal path.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <set>

#include "cloudprov/ancestry.hpp"
#include "cloudprov/lsb/format.hpp"
#include "cloudprov/lsb/lsb_backend.hpp"
#include "cloudprov/query.hpp"
#include "cloudprov/session.hpp"
#include "sim/failure.hpp"
#include "util/rng.hpp"

namespace {

using namespace provcloud::cloudprov;
using namespace provcloud::pass;
namespace aws = provcloud::aws;
namespace obs = provcloud::obs;
namespace sim = provcloud::sim;
namespace util = provcloud::util;

FlushUnit file_unit(const std::string& object, std::uint32_t version,
                    const std::string& data,
                    std::vector<ProvenanceRecord> records = {}) {
  FlushUnit u;
  u.object = object;
  u.version = version;
  u.kind = PnodeKind::kFile;
  u.data = util::make_shared_bytes(data);
  if (records.empty())
    records = {make_text_record("TYPE", "file"),
               make_text_record("NAME", object)};
  u.records = std::move(records);
  return u;
}

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

// --- wire format ---

/// Seal `entries` into one segment object; `locations` gets each posting.
std::string seal_segment(std::uint64_t id,
                         const std::vector<lsb::SegmentEntry>& entries,
                         std::vector<lsb::EntryLocation>* locations = nullptr) {
  lsb::SegmentWriter writer(id);
  for (const lsb::SegmentEntry& e : entries)
    EXPECT_TRUE(writer.append(e, UINT64_MAX));
  std::string blob = writer.finish();
  if (locations != nullptr) *locations = writer.locations();
  return blob;
}

TEST(LsbFormatTest, EntryRoundTripsWithDataAndXrefs) {
  lsb::SegmentEntry in;
  in.id = ObjectVersion{"data/a", 3};
  in.kind = PnodeKind::kFile;
  in.data = util::make_shared_bytes(std::string(300, 'x'));
  in.records = {make_text_record("NAME", "data/a"),
                make_xref_record(attr::kInput, ObjectVersion{"proc:7", 1}),
                make_xref_record(attr::kPrev, ObjectVersion{"data/a", 2})};

  std::vector<lsb::EntryLocation> locs;
  const std::string blob = seal_segment(7, {in}, &locs);
  ASSERT_EQ(locs.size(), 1u);
  EXPECT_EQ(locs[0].data_bytes, 300u);
  // The posting's range holds the records part; it names the data.
  auto out = lsb::decode_entry(
      std::string_view(blob).substr(locs[0].offset, locs[0].length));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->id, in.id);
  EXPECT_EQ(out->kind, in.kind);
  EXPECT_EQ(out->records, in.records);
  ASSERT_TRUE(out->has_data);
  EXPECT_EQ(blob.substr(out->data_offset, out->data_length), *in.data);
  // The whole object decodes to the same entry, data included.
  auto seg = lsb::decode_segment(blob);
  ASSERT_TRUE(seg.has_value());
  ASSERT_EQ(seg->entries.size(), 1u);
  ASSERT_NE(seg->entries[0].entry.data, nullptr);
  EXPECT_EQ(*seg->entries[0].entry.data, *in.data);
  EXPECT_EQ(seg->entries[0].entry.records, in.records);
  EXPECT_EQ(seg->entries[0].location, locs[0]);
}

TEST(LsbFormatTest, TransientEntryCarriesNoData) {
  lsb::SegmentEntry in;
  in.id = ObjectVersion{"proc:9", 1};
  in.kind = PnodeKind::kProcess;
  in.records = {make_text_record("NAME", "/bin/sh")};
  std::vector<lsb::EntryLocation> locs;
  const std::string blob = seal_segment(9, {in}, &locs);
  auto out = lsb::decode_entry(
      std::string_view(blob).substr(locs[0].offset, locs[0].length));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->kind, PnodeKind::kProcess);
  EXPECT_FALSE(out->has_data);
  EXPECT_EQ(out->data_length, 0u);
  // Nothing in the data region: the header, then the records part.
  EXPECT_EQ(locs[0].data_bytes, 0u);
  EXPECT_EQ(locs[0].offset, lsb::segment_header_size(9));
  EXPECT_EQ(blob.size(), locs[0].offset + locs[0].length);
  auto seg = lsb::decode_segment(blob);
  ASSERT_TRUE(seg.has_value());
  EXPECT_EQ(seg->entries[0].entry.data, nullptr);
}

TEST(LsbFormatTest, SegmentPlacementsSupportRangeDecodes) {
  std::vector<lsb::SegmentEntry> entries;
  std::uint64_t data_total = 0;
  for (int i = 0; i < 5; ++i) {
    lsb::SegmentEntry e;
    e.id = ObjectVersion{"f" + std::to_string(i), 1};
    e.kind = PnodeKind::kFile;
    e.data = util::make_shared_bytes(std::string(40 + i, 'd'));
    e.records = {make_text_record("NAME", e.id.object)};
    data_total += e.data->size();
    entries.push_back(std::move(e));
  }
  std::vector<lsb::EntryLocation> locs;
  const std::string blob = seal_segment(42, entries, &locs);
  auto seg = lsb::decode_segment(blob);
  ASSERT_TRUE(seg.has_value());
  EXPECT_EQ(seg->id, 42u);
  ASSERT_EQ(seg->entries.size(), 5u);
  // The data region comes first, the records region after it.
  EXPECT_EQ(locs[0].offset, lsb::segment_header_size(42) + data_total);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(seg->entries[i].location, locs[i]);
    // The posting contract: a byte-range GET of (offset, length) decodes
    // the entry without the rest of the segment.
    auto ranged = lsb::decode_entry(
        std::string_view(blob).substr(locs[i].offset, locs[i].length));
    ASSERT_TRUE(ranged.has_value()) << i;
    EXPECT_EQ(ranged->id, entries[i].id);
    EXPECT_EQ(blob.substr(ranged->data_offset, ranged->data_length),
              *entries[i].data);
    // Records parts are back to back, so one GET spans any run of them.
    if (i > 0) {
      EXPECT_EQ(locs[i].offset, locs[i - 1].offset + locs[i - 1].length);
    }
  }
  EXPECT_EQ(blob.size(), locs[4].offset + locs[4].length);
}

TEST(LsbFormatTest, PostingsPackUnder1KbAndRoundTrip) {
  std::vector<lsb::Posting> in;
  for (int i = 0; i < 100; ++i) {
    lsb::EntryLocation loc;
    loc.segment = 9;
    loc.offset = 100 * i;
    loc.length = 90 + i;
    loc.data_bytes = i % 3 == 0 ? 0 : 64;
    in.emplace_back(ObjectVersion{"dir/file" + std::to_string(i), 1u + i % 4},
                    loc);
  }
  const std::vector<std::string> values = lsb::pack_postings(in);
  ASSERT_GT(values.size(), 1u);  // forced to split
  std::vector<lsb::Posting> out;
  for (const std::string& value : values) {
    EXPECT_LE(value.size(), 1024u);  // SimpleDB's per-value limit
    ASSERT_TRUE(lsb::unpack_postings(value, 9, out));
  }
  EXPECT_EQ(out, in);
}

// --- sealing and the read path ---

TEST(LsbBackendTest, GroupSealsIntoOneSegmentPut) {
  aws::CloudEnv env(21, aws::ConsistencyConfig::strong());
  CloudServices services(env);
  auto backend = make_lsb_backend(services);
  auto session = backend->open_session(SessionConfig{.max_group = 8});

  const sim::MeterSnapshot before = env.meter().snapshot();
  for (int i = 0; i < 8; ++i)
    session->submit(file_unit("f" + std::to_string(i), 1, "payload"));
  ASSERT_TRUE(session->sync().has_value());
  const sim::MeterSnapshot diff = env.meter().snapshot().diff(before);

  // Eight closes, ONE S3 PUT; the index publication is deferred, so no
  // SimpleDB write happened yet.
  EXPECT_EQ(diff.calls("s3", "PUT"), 1u);
  EXPECT_EQ(diff.calls("sdb", "PutAttributes"), 0u);
  EXPECT_EQ(diff.calls("sdb", "BatchPutAttributes"), 0u);

  for (int i = 0; i < 8; ++i) {
    auto got = backend->read("f" + std::to_string(i));
    ASSERT_TRUE(got.has_value()) << i;
    EXPECT_TRUE(got->verified);
    EXPECT_EQ(*got->data, "payload");
  }
}

TEST(LsbBackendTest, OversizedGroupSplitsAtTheSegmentCap) {
  aws::CloudEnv env(22, aws::ConsistencyConfig::strong());
  CloudServices services(env);
  LsbBackendConfig cfg;
  cfg.segment_cap_bytes = 2 * util::kKiB;
  auto backend = make_lsb_backend(services, cfg);
  auto session = backend->open_session(SessionConfig{.max_group = 6});

  const sim::MeterSnapshot before = env.meter().snapshot();
  for (int i = 0; i < 6; ++i)
    session->submit(
        file_unit("big" + std::to_string(i), 1, std::string(1024, 'b')));
  ASSERT_TRUE(session->sync().has_value());
  const sim::MeterSnapshot diff = env.meter().snapshot().diff(before);
  EXPECT_GT(diff.calls("s3", "PUT"), 1u);  // the cap split the run
  for (int i = 0; i < 6; ++i)
    ASSERT_TRUE(backend->read("big" + std::to_string(i)).has_value()) << i;
}

TEST(LsbBackendTest, ReadYourWritesSeesPendingSubmits) {
  aws::CloudEnv env(23, aws::ConsistencyConfig::strong());
  CloudServices services(env);
  auto backend = make_lsb_backend(services);
  auto session = backend->open_session(SessionConfig{.max_group = 16});
  const Ticket t = session->submit(file_unit("pending", 1, "notyet"));
  ASSERT_FALSE(t.done());
  auto got = session->read("pending");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->version, 1u);
  EXPECT_EQ(*got->data, "notyet");
}

TEST(LsbBackendTest, OldVersionProvenanceStaysRetrievable) {
  aws::CloudEnv env(24, aws::ConsistencyConfig::strong());
  CloudServices services(env);
  auto backend = make_lsb_backend(services);
  backend->store(file_unit("v", 1, "one"));
  backend->store(file_unit(
      "v", 2, "two", {make_xref_record(attr::kPrev, ObjectVersion{"v", 1})}));
  auto latest = backend->read("v");
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->version, 2u);
  // The log keeps every version's records (unlike Arch 1).
  auto old_prov = backend->get_provenance("v", 1);
  ASSERT_TRUE(old_prov.has_value());
  EXPECT_FALSE(old_prov->empty());
}

// --- the records-only read path ---

/// Ground truth for walks: every stored close's records.
using Truth = std::map<ObjectVersion, std::vector<ProvenanceRecord>>;

AncestryResult truth_walk(const Truth& truth, const ObjectVersion& root) {
  return walk_ancestry(
      [&truth](const std::vector<ObjectVersion>& ids) {
        std::vector<BackendResult<std::vector<ProvenanceRecord>>> out(
            ids.size(), backend_error(BackendErrorCode::kNotFound, ""));
        for (std::size_t i = 0; i < ids.size(); ++i)
          if (auto it = truth.find(ids[i]); it != truth.end())
            out[i] = it->second;
        return out;
      },
      root.object, root.version);
}

/// The classic walk: one get_provenance per node.
AncestryResult per_node_walk(ProvenanceBackend& backend,
                             const ObjectVersion& root) {
  return walk_ancestry(
      [&backend](const std::vector<ObjectVersion>& ids) {
        std::vector<BackendResult<std::vector<ProvenanceRecord>>> out;
        for (const ObjectVersion& id : ids)
          out.push_back(backend.get_provenance(id.object, id.version));
        return out;
      },
      root.object, root.version);
}

/// Store "hot" versions 1..`versions`, each 600 data bytes and derived from
/// the one before, each with a cold file derived from it. At a 1 KiB cap
/// each close is its own segment, so superseded hot versions leave their
/// segments mostly garbage.
Truth store_hot_chain(ProvenanceBackend& backend, std::uint32_t versions) {
  Truth truth;
  for (std::uint32_t v = 1; v <= versions; ++v) {
    std::vector<ProvenanceRecord> hot = {make_text_record("NAME", "hot")};
    if (v > 1)
      hot.push_back(make_xref_record(attr::kPrev, ObjectVersion{"hot", v - 1}));
    truth[ObjectVersion{"hot", v}] = hot;
    backend.store(file_unit("hot", v, std::string(600, 'h'), hot));
    const std::string cold = "cold/f" + std::to_string(v);
    std::vector<ProvenanceRecord> rec = {
        make_text_record("NAME", cold),
        make_xref_record(attr::kInput, ObjectVersion{"hot", v})};
    truth[ObjectVersion{cold, 1}] = rec;
    backend.store(file_unit(cold, 1, "c", rec));
  }
  return truth;
}

LsbBackendConfig one_close_per_segment() {
  LsbBackendConfig cfg;
  cfg.segment_cap_bytes = util::kKiB;
  cfg.auto_clean = false;
  return cfg;
}

TEST(LsbReadPathTest, FrontierInTwoSegmentsCostsTwoGetsOfRecordsOnly) {
  aws::CloudEnv env(40, aws::ConsistencyConfig::strong());
  CloudServices services(env);
  LsbBackend backend(services);
  Truth truth;
  for (int g = 0; g < 2; ++g) {
    auto session = backend.open_session(SessionConfig{.max_group = 3});
    for (int i = 0; i < 3; ++i) {
      const std::string name =
          "g" + std::to_string(g) + "/f" + std::to_string(i);
      FlushUnit u = file_unit(name, 1, std::string(4096, 'd'));
      truth[ObjectVersion{name, 1}] = u.records;
      session->submit(u);
    }
    ASSERT_TRUE(session->sync().has_value());
  }
  ASSERT_EQ(backend.stats().segment_count, 2u);
  // The records regions of both segments, which hold nothing else.
  std::uint64_t records_bytes = 0;
  for (std::uint64_t id : {1u, 2u}) {
    auto obj = services.s3.peek(lsb::kSegmentBucket, lsb::segment_key(id));
    ASSERT_TRUE(obj.has_value());
    records_bytes += obj->data->size() - lsb::segment_header_size(id) -
                     3 * 4096;
  }

  // One frontier, its ids interleaved across the two segments.
  std::vector<ObjectVersion> ids;
  for (int i = 0; i < 3; ++i)
    for (int g = 0; g < 2; ++g)
      ids.push_back({"g" + std::to_string(g) + "/f" + std::to_string(i), 1});
  const sim::MeterSnapshot before = env.meter().snapshot();
  const auto got = backend.get_provenance_many(ids);
  const sim::MeterSnapshot diff = env.meter().snapshot().diff(before);
  EXPECT_EQ(diff.calls("s3", "GET"), 2u);
  EXPECT_EQ(diff.bytes_out("s3", "GET"), records_bytes);
  EXPECT_LT(records_bytes, 4096u);  // not one file's worth of data
  ASSERT_EQ(got.size(), ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ASSERT_TRUE(got[i].has_value()) << i;
    EXPECT_EQ(*got[i], truth[ids[i]]) << i;
  }
}

TEST(LsbReadPathTest, ProvenanceOfAMebibyteFileMovesUnderOneKibibyte) {
  aws::CloudEnv env(41, aws::ConsistencyConfig::strong());
  CloudServices services(env);
  LsbBackend backend(services);
  backend.store(file_unit("big", 1, std::string(util::kMiB, 'b')));
  const sim::MeterSnapshot before = env.meter().snapshot();
  auto prov = backend.get_provenance("big", 1);
  const sim::MeterSnapshot diff = env.meter().snapshot().diff(before);
  ASSERT_TRUE(prov.has_value());
  EXPECT_FALSE(prov->empty());
  EXPECT_EQ(diff.calls("s3", "GET"), 1u);
  EXPECT_LT(diff.bytes_out("s3", "GET"), util::kKiB);
}

TEST(LsbReadPathTest, ReadMakesTwoGetsOrOneWithoutData) {
  aws::CloudEnv env(42, aws::ConsistencyConfig::strong());
  CloudServices services(env);
  LsbBackend backend(services);
  const FlushUnit file = file_unit("f", 1, "file bytes");
  backend.store(file);
  FlushUnit proc;
  proc.object = "proc:1";
  proc.version = 1;
  proc.kind = PnodeKind::kProcess;
  proc.records = {make_text_record(attr::kName, "/bin/cat")};
  backend.store(proc);

  sim::MeterSnapshot before = env.meter().snapshot();
  auto got = backend.read("f");
  sim::MeterSnapshot diff = env.meter().snapshot().diff(before);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got->data, "file bytes");
  EXPECT_EQ(got->records, file.records);
  EXPECT_EQ(diff.calls("s3", "GET"), 2u);  // records part, then data

  before = env.meter().snapshot();
  got = backend.read("proc:1");
  diff = env.meter().snapshot().diff(before);
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->data->empty());
  EXPECT_EQ(got->records, proc.records);
  EXPECT_EQ(diff.calls("s3", "GET"), 1u);  // no data to fetch
}

TEST(LsbReadPathTest, CorruptEntryFailsAfterOneGet) {
  // A whole slice that does not decode to the id asked for cannot be a
  // propagation race: the segment is immutable, so both read paths give up
  // after the one GET instead of spending the retry budget.
  aws::CloudEnv env(43, aws::ConsistencyConfig::strong());
  CloudServices services(env);
  LsbBackend backend(services);
  backend.store(file_unit("big", 1, std::string(util::kMiB, 'b')));
  backend.store(file_unit("other", 1, "x"));
  // Overwrite the bytes at `skip` past the start of segment `segment`'s
  // only records part.
  const auto corrupt = [&](std::uint64_t segment, std::size_t skip,
                           const std::string& with) {
    const std::string key = lsb::segment_key(segment);
    std::string bytes = *services.s3.peek(lsb::kSegmentBucket, key)->data;
    const std::size_t entry = bytes.rfind("E2 ");
    ASSERT_NE(entry, std::string::npos);
    bytes.replace(entry + skip, with.size(), with);
    ASSERT_TRUE(services.s3.put(lsb::kSegmentBucket, key, bytes).has_value());
  };
  const auto expect_corrupt_after_one_get = [&](const auto& fetch) {
    const sim::MeterSnapshot before = env.meter().snapshot();
    const BackendErrorCode code = fetch();
    const sim::MeterSnapshot diff = env.meter().snapshot().diff(before);
    EXPECT_EQ(code, BackendErrorCode::kCorrupt);
    EXPECT_EQ(diff.calls("s3", "GET"), 1u);
    EXPECT_LT(diff.bytes_out("s3", "GET"), util::kKiB);
  };

  corrupt(1, 0, "X");  // the entry magic
  expect_corrupt_after_one_get(
      [&] { return backend.get_provenance("big", 1).error().code; });
  expect_corrupt_after_one_get(
      [&] { return backend.read("big").error().code; });
  // A well-formed entry of another object where the posting points: the
  // object name follows the entry's header line, "E2 5 1 0 1 <offset> 1 2".
  const std::string line = "E2 5 1 0 1 " +
                           std::to_string(lsb::segment_header_size(2)) +
                           " 1 2\n";
  ASSERT_EQ(services.s3.peek(lsb::kSegmentBucket, lsb::segment_key(2))
                ->data->substr(lsb::segment_header_size(2) + 1, line.size()),
            line);
  corrupt(2, line.size(), "OTHER");
  expect_corrupt_after_one_get([&] {
    return backend.get_provenance_many({{"other", 1}}).front().error().code;
  });
}

TEST(LsbReadPathTest, BatchedWalkMatchesPerNodeWalkAndGroundTruth) {
  aws::CloudEnv env(44, aws::ConsistencyConfig::strong());
  CloudServices services(env);
  auto backend =
      std::make_unique<LsbBackend>(services, one_close_per_segment());
  const Truth truth = store_hot_chain(*backend, 8);
  backend->quiesce();
  const std::vector<ObjectVersion> roots = {
      {"hot", 8}, {"cold/f8", 1}, {"cold/f4", 1}, {"hot", 1}};
  const auto agrees = [&](ProvenanceBackend& b, const char* when) {
    for (const ObjectVersion& root : roots) {
      const AncestryResult batched =
          fetch_ancestry(b, root.object, root.version);
      EXPECT_TRUE(batched.missing.empty()) << when << " " << root.to_string();
      EXPECT_TRUE(ancestry_equal(batched, per_node_walk(b, root)))
          << when << " " << root.to_string();
      EXPECT_TRUE(ancestry_equal(batched, truth_walk(truth, root)))
          << when << " " << root.to_string();
    }
  };
  EXPECT_EQ(fetch_ancestry(*backend, "hot", 8).graph.nodes().size(), 8u);
  agrees(*backend, "before cleaning");
  ASSERT_GT(backend->compact(), 0u);
  agrees(*backend, "after cleaning");
  LsbBackend fresh(services, one_close_per_segment());
  fresh.recover();
  agrees(fresh, "after recover");
}

TEST(LsbReadPathTest, InvisibleSegmentsAreRetriedUntilTheWalkCompletes) {
  // Three replicas and nothing propagated yet: a segment GET sees the
  // segment only on the coordinator, so most first attempts miss.
  aws::CloudEnv env(45);
  CloudServices services(env);
  LsbBackend backend(services, one_close_per_segment());
  const Truth truth = store_hot_chain(backend, 6);
  const std::uint64_t retries_before =
      env.metrics().counter("read.retries").value();
  const AncestryResult walked = fetch_ancestry(backend, "cold/f6", 1);
  EXPECT_TRUE(ancestry_equal(walked, truth_walk(truth, {"cold/f6", 1})));
  EXPECT_EQ(walked.graph.nodes().size(), 7u);
  EXPECT_GT(env.metrics().counter("read.retries").value(), retries_before);

  // Unknown ids fail in their own slots; the others still resolve.
  const auto got = backend.get_provenance_many(
      {{"hot", 2}, {"nope", 1}, {"cold/f3", 1}, {"hot", 99}});
  ASSERT_EQ(got.size(), 4u);
  ASSERT_TRUE(got[0].has_value());
  EXPECT_EQ(*got[0], truth.at({"hot", 2}));
  ASSERT_FALSE(got[1].has_value());
  EXPECT_EQ(got[1].error().code, BackendErrorCode::kNotFound);
  ASSERT_TRUE(got[2].has_value());
  EXPECT_EQ(*got[2], truth.at({"cold/f3", 1}));
  ASSERT_FALSE(got[3].has_value());
  EXPECT_EQ(got[3].error().code, BackendErrorCode::kNotFound);
}

/// Runs `on_retry` once, at the first consistency-retry backoff a read
/// charges: between two attempts of the same fetch.
class FirstRetryHook final : public sim::LedgerObserver {
 public:
  explicit FirstRetryHook(std::function<void()> on_retry)
      : on_retry_(std::move(on_retry)) {}
  void on_charge(const void*, sim::SimTime, sim::SimTime,
                 std::string_view service) override {
    if (fired_ || service != "idle") return;
    fired_ = true;
    on_retry_();
  }
  void on_scope_open(const void*, bool) override {}
  void on_scope_close(const void*, bool) override {}
  bool fired() const { return fired_; }

 private:
  std::function<void()> on_retry_;
  bool fired_ = false;
};

TEST(LsbReadPathTest, EntriesTheCleanerMovesBetweenAttemptsReResolve) {
  aws::CloudEnv env(46);
  CloudServices services(env);
  LsbBackend backend(services, one_close_per_segment());
  const Truth truth = store_hot_chain(backend, 6);
  backend.quiesce();  // publish the index: superseded hot segments are victims

  std::set<std::string> keys_before;
  for (const std::string& key : services.s3.peek_keys(lsb::kSegmentBucket))
    keys_before.insert(key);
  std::size_t cleaned = 0;
  FirstRetryHook hook([&] { cleaned = backend.compact(); });
  env.latency_ledger().set_observer(&hook);
  std::vector<ObjectVersion> ids;
  for (std::uint32_t v = 1; v <= 5; ++v) ids.push_back({"hot", v});
  const auto got = backend.get_provenance_many(ids);
  env.latency_ledger().set_observer(nullptr);

  // The cleaner ran between two attempts and moved the superseded
  // versions out of the segments the first attempt resolved them to.
  ASSERT_TRUE(hook.fired());
  EXPECT_GT(cleaned, 0u);
  std::size_t deleted = 0;
  const auto keys_after = services.s3.peek_keys(lsb::kSegmentBucket);
  for (const std::string& key : keys_before)
    deleted += std::count(keys_after.begin(), keys_after.end(), key) == 0;
  EXPECT_GT(deleted, 0u);
  ASSERT_EQ(got.size(), ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ASSERT_TRUE(got[i].has_value()) << ids[i].to_string();
    EXPECT_EQ(*got[i], truth.at(ids[i])) << ids[i].to_string();
  }
}

// --- deferred publication and recovery ---

TEST(LsbBackendTest, FreshBackendRebuildsFromPublishedIndex) {
  aws::CloudEnv env(25, aws::ConsistencyConfig::strong());
  CloudServices services(env);
  {
    auto backend = make_lsb_backend(services);
    auto session = backend->open_session(SessionConfig{.max_group = 4});
    for (int i = 0; i < 12; ++i)
      session->submit(file_unit("r" + std::to_string(i), 1, "rebuilt"));
    ASSERT_TRUE(session->sync().has_value());
    backend->quiesce();  // publish the index checkpoint
  }
  // Client restart: only the durable postings + meta exist to go on.
  auto fresh = make_lsb_backend(services);
  fresh->recover();
  const sim::MeterSnapshot before = env.meter().snapshot();
  for (int i = 0; i < 12; ++i) {
    auto got = fresh->read("r" + std::to_string(i));
    ASSERT_TRUE(got.has_value()) << i;
    EXPECT_EQ(*got->data, "rebuilt");
  }
  // Reads resolve through the rebuilt index: byte-range GETs, no scans.
  const sim::MeterSnapshot diff = env.meter().snapshot().diff(before);
  EXPECT_EQ(diff.calls("s3", "LIST"), 0u);
}

TEST(LsbBackendTest, RecoveredSegmentAccountingEqualsTheLiveAccounting) {
  // A fresh recover() rebuilds each segment's size from its postings: the
  // header plus every entry's records and data. Overwrites leave garbage
  // in the first two segments, so live bytes must agree too.
  aws::CloudEnv env(47, aws::ConsistencyConfig::strong());
  CloudServices services(env);
  LsbBackendConfig cfg;
  cfg.auto_clean = false;
  LsbBackend live(services, cfg);
  for (std::uint32_t group = 1; group <= 3; ++group) {
    auto session = live.open_session(SessionConfig{.max_group = 3});
    session->submit(file_unit("a", group, std::string(300 * group, 'a')));
    session->submit(file_unit("b" + std::to_string(group), 1, "bee"));
    FlushUnit proc;
    proc.object = "proc:" + std::to_string(group);
    proc.version = 1;
    proc.kind = PnodeKind::kProcess;
    proc.records = {make_text_record(attr::kName, "/bin/tee")};
    session->submit(proc);
    ASSERT_TRUE(session->sync().has_value());
  }
  live.quiesce();
  const LsbBackend::SegmentStats want = live.stats();
  ASSERT_EQ(want.segment_count, 3u);
  ASSERT_GT(want.garbage_ratio, 0.0);
  std::uint64_t stored = 0;
  for (const std::string& key : services.s3.peek_keys(lsb::kSegmentBucket))
    stored += services.s3.peek(lsb::kSegmentBucket, key)->data->size();
  EXPECT_EQ(want.total_bytes, stored);

  LsbBackend fresh(services, cfg);
  fresh.recover();
  const LsbBackend::SegmentStats got = fresh.stats();
  EXPECT_EQ(got.segment_count, want.segment_count);
  EXPECT_EQ(got.total_bytes, want.total_bytes);
  EXPECT_EQ(got.live_bytes, want.live_bytes);
  EXPECT_EQ(got.garbage_ratio, want.garbage_ratio);
  EXPECT_EQ(got.delete_to, want.delete_to);
  EXPECT_EQ(got.indexed_to, want.indexed_to);
  EXPECT_EQ(got.pending_postings, want.pending_postings);
}

TEST(LsbBackendTest, UnpublishedSegmentsReplayAsOrphans) {
  aws::CloudEnv env(26, aws::ConsistencyConfig::strong());
  CloudServices services(env);
  {
    auto backend = make_lsb_backend(services);
    auto session = backend->open_session(SessionConfig{.max_group = 3});
    for (int i = 0; i < 3; ++i)
      session->submit(file_unit("o" + std::to_string(i), 1, "orphaned"));
    ASSERT_TRUE(session->sync().has_value());
    // No quiesce: the backend dies with its postings unpublished -- the
    // segment is durable, the index knows nothing about it.
  }
  auto fresh = make_lsb_backend(services);
  fresh->recover();
  for (int i = 0; i < 3; ++i) {
    auto got = fresh->read("o" + std::to_string(i));
    ASSERT_TRUE(got.has_value()) << i;
    EXPECT_EQ(*got->data, "orphaned");
  }
}

TEST(LsbBackendTest, RecoverySkipsACorruptSegmentAndNeverReusesItsId) {
  // One segment that does not decode must not cost the intact ones beside
  // it: recovery skips it, counts it, and seals past its id.
  aws::CloudEnv env(29, aws::ConsistencyConfig::strong());
  CloudServices services(env);
  {
    LsbBackend backend(services);
    for (int i = 1; i <= 3; ++i)
      backend.store(file_unit("s" + std::to_string(i), 1, "unpublished"));
    // No quiesce: three one-close segments, none published.
  }
  const std::string key = lsb::segment_key(2);
  std::string bytes = *services.s3.peek(lsb::kSegmentBucket, key)->data;
  bytes[0] = static_cast<char>(~bytes[0]);
  ASSERT_TRUE(services.s3.put(lsb::kSegmentBucket, key, bytes).has_value());

  LsbBackend fresh(services);
  fresh.recover();
  EXPECT_TRUE(fresh.read("s1").has_value());
  EXPECT_TRUE(fresh.read("s3").has_value());
  EXPECT_FALSE(fresh.read("s2").has_value());
  const obs::Counter* corrupt =
      env.metrics().find_counter("lsb.recover.corrupt_segments");
  ASSERT_NE(corrupt, nullptr);
  EXPECT_EQ(corrupt->value(), 1u);
  fresh.recover();  // a known corrupt segment is not read or counted again
  EXPECT_EQ(corrupt->value(), 1u);

  const std::vector<std::string> before =
      services.s3.peek_keys(lsb::kSegmentBucket);
  fresh.store(file_unit("s4", 1, "next"));
  std::vector<std::string> sealed;
  for (const std::string& k : services.s3.peek_keys(lsb::kSegmentBucket))
    if (std::find(before.begin(), before.end(), k) == before.end())
      sealed.push_back(k);
  ASSERT_EQ(sealed.size(), 1u);
  std::uint64_t id = 0;
  ASSERT_TRUE(lsb::parse_segment_key(sealed[0], id));
  EXPECT_GT(id, 3u);
  EXPECT_EQ(*services.s3.peek(lsb::kSegmentBucket, key)->data, bytes);
}

TEST(LsbBackendTest, CrashedPublicationNeverTearsTheIndex) {
  aws::CloudEnv env(27, aws::ConsistencyConfig::strong());
  CloudServices services(env);
  LsbBackendConfig cfg;
  cfg.shard_count = 3;  // publication spans several batched domain calls
  {
    auto backend = std::make_unique<LsbBackend>(services, cfg);
    auto session = backend->open_session(SessionConfig{.max_group = 8});
    for (int i = 0; i < 24; ++i)
      session->submit(file_unit("t" + std::to_string(i), 1, "torn?"));
    ASSERT_TRUE(session->sync().has_value());
    env.failures().arm_crash("lsb.index.mid_publish", 1);
    EXPECT_THROW(backend->quiesce(), sim::CrashError);
    env.failures().disarm("lsb.index.mid_publish");
  }
  // Some chunk items may be durable, but indexed-to was never advanced:
  // recovery replays the segments whole and every close survives.
  auto fresh = std::make_unique<LsbBackend>(services, cfg);
  fresh->recover();
  for (int i = 0; i < 24; ++i)
    ASSERT_TRUE(fresh->read("t" + std::to_string(i)).has_value()) << i;
}

// --- the cleaner ---

TEST(LsbBackendTest, SealCrashPointFiresBeforeAnyBookkeeping) {
  // One sealer writes the segments of a flush group and of the cleaner;
  // its crash point sits between the durable PUT and every in-memory
  // update, so a client that dies there has indexed nothing.
  aws::CloudEnv env(28, aws::ConsistencyConfig::strong());
  CloudServices services(env);
  LsbBackend backend(services);
  env.failures().arm_crash("lsb.seal.after_put");
  EXPECT_THROW(backend.store(file_unit("lost", 1, "sealed")), sim::CrashError);
  env.failures().disarm("lsb.seal.after_put");
  EXPECT_FALSE(backend.read("lost").has_value());
  EXPECT_EQ(backend.stats().segment_count, 0u);

  for (int i = 0; i < 3; ++i)
    backend.store(
        file_unit("kept" + std::to_string(i), 1, std::string(512, 'k')));
  // kept0@1's segment is now mostly superseded data: a victim whose
  // records the cleaner must re-seal.
  backend.store(file_unit("kept0", 2, "newer"));
  backend.quiesce();
  const std::uint64_t segments = backend.stats().segment_count;
  env.failures().arm_crash("lsb.compact.after_put");
  EXPECT_THROW(backend.compact(), sim::CrashError);
  env.failures().disarm("lsb.compact.after_put");
  EXPECT_EQ(backend.stats().segment_count, segments);

  // Replay finds both durable orphans; nothing was lost.
  backend.recover();
  auto lost = backend.read("lost");
  ASSERT_TRUE(lost.has_value());
  EXPECT_EQ(*lost->data, "sealed");
  for (int i = 0; i < 3; ++i)
    ASSERT_TRUE(backend.read("kept" + std::to_string(i)).has_value()) << i;
  EXPECT_FALSE(backend.get_provenance("kept0", 1)->empty());
}

TEST(LsbBackendTest, CompactionReclaimsGarbageAndPreservesAncestry) {
  aws::CloudEnv env(28, aws::ConsistencyConfig::strong());
  CloudServices services(env);
  LsbBackendConfig cfg;
  cfg.auto_clean = false;  // manual cleaning only
  auto backend = std::make_unique<LsbBackend>(services, cfg);

  // A chain with superseded versions: v1/v2 of "hot" become garbage once
  // v3 lands; "cold" depends on hot@2, so its records must survive the
  // cleaner dropping hot@2's data bytes.
  backend->store(file_unit("hot", 1, std::string(512, '1')));
  backend->store(file_unit(
      "hot", 2, std::string(512, '2'),
      {make_xref_record(attr::kPrev, ObjectVersion{"hot", 1})}));
  backend->store(file_unit(
      "cold", 1, "c",
      {make_xref_record(attr::kInput, ObjectVersion{"hot", 2})}));
  backend->store(file_unit(
      "hot", 3, std::string(512, '3'),
      {make_xref_record(attr::kPrev, ObjectVersion{"hot", 2})}));
  backend->quiesce();

  const auto before = backend->stats();
  EXPECT_GE(before.segment_count, 4u);
  EXPECT_GT(before.garbage_ratio, 0.0);
  const AncestryResult want = fetch_ancestry(*backend, "cold", 1);
  const AncestryResult want_hot = fetch_ancestry(*backend, "hot", 3);

  // Only the segments at least half garbage (hot@1 and hot@2, whose data
  // was superseded) are victims; the all-live cold@1 and hot@3 segments are
  // left alone.
  const std::size_t reclaimed = backend->compact();
  EXPECT_GE(reclaimed, 2u);

  const auto after = backend->stats();
  EXPECT_LT(after.segment_count, before.segment_count);
  EXPECT_LT(after.total_bytes, before.total_bytes);
  EXPECT_LT(after.garbage_ratio, before.garbage_ratio);
  EXPECT_GT(after.delete_to, 1u);

  // Dead segment objects are really gone.
  for (const std::string& key : services.s3.peek_keys(lsb::kSegmentBucket)) {
    std::uint64_t id = 0;
    ASSERT_TRUE(lsb::parse_segment_key(key, id));
    EXPECT_GE(id, after.delete_to) << key;
  }

  // Query results are bit-identical across the cleaner pass.
  EXPECT_TRUE(ancestry_equal(fetch_ancestry(*backend, "cold", 1), want));
  EXPECT_TRUE(ancestry_equal(fetch_ancestry(*backend, "hot", 3), want_hot));
  // Latest data still served; superseded data bytes dropped, records kept.
  auto hot = backend->read("hot");
  ASSERT_TRUE(hot.has_value());
  EXPECT_EQ(hot->version, 3u);
  auto old_prov = backend->get_provenance("hot", 2);
  ASSERT_TRUE(old_prov.has_value());
  EXPECT_FALSE(old_prov->empty());

  // A fresh backend over the compacted store agrees.
  auto fresh = make_lsb_backend(services);
  fresh->recover();
  EXPECT_TRUE(ancestry_equal(fetch_ancestry(*fresh, "cold", 1), want));
}

TEST(LsbBackendTest, CleanerLeavesACorruptVictimInPlace) {
  aws::CloudEnv env(32, aws::ConsistencyConfig::strong());
  CloudServices services(env);
  LsbBackendConfig cfg;
  cfg.auto_clean = false;  // manual cleaning only
  LsbBackend backend(services, cfg);
  // hot@1's and hot@2's segments are mostly superseded data: both victims.
  backend.store(file_unit("hot", 1, std::string(512, '1')));
  backend.store(file_unit(
      "hot", 2, std::string(512, '2'),
      {make_xref_record(attr::kPrev, ObjectVersion{"hot", 1})}));
  backend.store(file_unit(
      "hot", 3, std::string(512, '3'),
      {make_xref_record(attr::kPrev, ObjectVersion{"hot", 2})}));
  backend.quiesce();
  const std::string key = lsb::segment_key(1);
  std::string bytes = *services.s3.peek(lsb::kSegmentBucket, key)->data;
  bytes[0] = static_cast<char>(~bytes[0]);
  ASSERT_TRUE(services.s3.put(lsb::kSegmentBucket, key, bytes).has_value());

  // The pass reclaims hot@2's segment and leaves the corrupt one as it is,
  // so hot@1's records part, which the flipped header byte spares, still
  // serves a range read.
  EXPECT_EQ(backend.compact(), 1u);
  ASSERT_TRUE(services.s3.peek(lsb::kSegmentBucket, key).has_value());
  EXPECT_EQ(*services.s3.peek(lsb::kSegmentBucket, key)->data, bytes);
  EXPECT_FALSE(
      services.s3.peek(lsb::kSegmentBucket, lsb::segment_key(2)).has_value());
  EXPECT_TRUE(backend.get_provenance("hot", 1).has_value());
  EXPECT_TRUE(backend.get_provenance("hot", 2).has_value());
  EXPECT_EQ(backend.read("hot")->version, 3u);

  // No later pass picks it again.
  const sim::MeterSnapshot before = env.meter().snapshot();
  EXPECT_EQ(backend.compact(), 0u);
  EXPECT_EQ(env.meter().snapshot().diff(before).calls("s3", "GET"), 0u);
}

TEST(LsbBackendTest, CleanerSkipsTheAllLivePrefixAndReclaimsTheHotTail) {
  // Garbage concentrated in LATE segments: a live prefix of never-
  // overwritten objects, then repeated overwrites of one hot object. The
  // cleaner never copies the prefix and reclaims all of the tail's garbage.
  aws::CloudEnv env(31, aws::ConsistencyConfig::strong());
  CloudServices services(env);
  LsbBackendConfig cfg;
  cfg.auto_clean = false;  // manual cleaning only
  cfg.compact_max_segments = 4;
  auto backend = std::make_unique<LsbBackend>(services, cfg);
  for (int i = 0; i < 8; ++i)
    backend->store(file_unit("cold/f" + std::to_string(i), 1,
                             std::string(256, 'c')));
  for (int v = 1; v <= 8; ++v)
    backend->store(file_unit("hot", v, std::string(256, 'h')));
  backend->quiesce();
  ASSERT_GT(backend->stats().garbage_ratio, 0.0);

  std::size_t passes = 0;
  while (backend->compact() > 0) ++passes;
  EXPECT_EQ(passes, 2u);  // hot@1..7 at 4 victims a pass

  // The prefix's segments (ids 1-8) were never victims: every object is
  // still there, and delete-to never moved past them.
  for (std::uint64_t id = 1; id <= 8; ++id) {
    const std::string key = lsb::segment_key(id);
    EXPECT_TRUE(services.s3.peek(lsb::kSegmentBucket, key).has_value()) << id;
  }
  const auto after = backend->stats();
  EXPECT_EQ(after.delete_to, 1u);
  // The tail's garbage is gone, and copying its records cost less than it
  // freed.
  EXPECT_EQ(after.garbage_ratio, 0.0);
  const std::uint64_t rewritten =
      env.metrics().counter("lsb.compact.rewritten_bytes").value();
  const std::uint64_t reclaimed =
      env.metrics().counter("lsb.compact.reclaimed_bytes").value();
  EXPECT_GE(reclaimed, 7u * 256u);
  EXPECT_LT(rewritten, reclaimed);
  for (int i = 0; i < 8; ++i)
    ASSERT_TRUE(backend->read("cold/f" + std::to_string(i)).has_value()) << i;
  auto hot = backend->read("hot");
  ASSERT_TRUE(hot.has_value());
  EXPECT_EQ(hot->version, 8u);
}

TEST(LsbBackendTest, MidLogCompactionKeepsWatermarkBehindSurvivors) {
  aws::CloudEnv env(32, aws::ConsistencyConfig::strong());
  CloudServices services(env);
  LsbBackendConfig cfg;
  cfg.auto_clean = false;
  cfg.compact_max_segments = 2;
  auto backend = std::make_unique<LsbBackend>(services, cfg);
  // Segment 1: live forever. Segments 2-3: superseded by segment 4.
  backend->store(file_unit("keep", 1, std::string(64, 'k')));
  backend->store(file_unit("churn", 1, std::string(512, 'a')));
  backend->store(file_unit("churn", 2, std::string(512, 'b')));
  backend->store(file_unit("churn", 3, std::string(64, 'z')));
  backend->quiesce();

  ASSERT_GT(backend->compact(), 0u);
  const auto stats = backend->stats();
  // Victims were the mid-log garbage segments; segment 1 survives, so the
  // delete-to watermark must not advance past it.
  EXPECT_EQ(stats.delete_to, 1u);
  auto keep = backend->read("keep");
  ASSERT_TRUE(keep.has_value());
  EXPECT_EQ(keep->version, 1u);
  auto churn = backend->read("churn");
  ASSERT_TRUE(churn.has_value());
  EXPECT_EQ(churn->version, 3u);

  // A fresh backend over the store (client restart) agrees: nothing was
  // purged that a surviving segment still needs.
  auto fresh = make_lsb_backend(services);
  fresh->recover();
  auto again = fresh->read("keep");
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->version, 1u);
}

TEST(LsbBackendTest, AutomaticCleaningTriggersOnTheWritePath) {
  // At a 1 KiB cap each 600-byte close is its own segment, and each
  // overwrite leaves the previous one mostly garbage: once two such
  // victims are indexed, pump() cleans without anyone calling compact().
  aws::CloudEnv env(29, aws::ConsistencyConfig::strong());
  CloudServices services(env);
  LsbBackendConfig cfg;
  cfg.segment_cap_bytes = util::kKiB;
  cfg.index_publish_entries = 4;
  auto backend = std::make_unique<LsbBackend>(services, cfg);
  for (int i = 0; i < 24; ++i) {
    const std::string data(600, static_cast<char>('a' + i));
    backend->store(file_unit("auto", 1 + i, data));
  }
  EXPECT_GT(env.metrics().counter("lsb.compactions").value(), 0u);
  EXPECT_GT(backend->stats().delete_to, 1u);
  backend->quiesce();
  // What garbage is left is less than a pass would free.
  const auto stats = backend->stats();
  EXPECT_LT(stats.total_bytes - stats.live_bytes, cfg.segment_cap_bytes);
  auto got = backend->read("auto");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->version, 24u);
  EXPECT_EQ(*got->data, std::string(600, static_cast<char>('a' + 23)));
  for (std::uint32_t v = 1; v <= 24; ++v)
    EXPECT_FALSE(backend->get_provenance("auto", v)->empty()) << v;
}

TEST(LsbBackendTest, GarbageFreeStoreIsNeverCleaned) {
  // Seventy small segments, none holding garbage: however many segments
  // there are, there is nothing to reclaim, so quiesce() copies nothing.
  aws::CloudEnv env(33, aws::ConsistencyConfig::strong());
  CloudServices services(env);
  LsbBackend backend(services);
  for (int i = 0; i < 70; ++i)
    backend.store(file_unit("live/f" + std::to_string(i), 1, "payload"));
  backend.quiesce();
  EXPECT_EQ(env.metrics().counter("lsb.compactions").value(), 0u);
  EXPECT_EQ(env.metrics().counter("lsb.compact.rewritten_bytes").value(), 0u);
  EXPECT_EQ(backend.stats().segment_count, 70u);
  EXPECT_EQ(backend.stats().garbage_ratio, 0.0);
}

TEST(LsbBackendTest, QuiesceEndsWithManyLiveSegmentsAndGarbageLeft) {
  // At a 1 KiB cap: over 64 live segments, hot overwrites the cleaner
  // reclaims, and thin garbage it must leave alone; quiesce() returns
  // however many segments there are. A twin store that never cleans is the
  // reference: every read and ancestry walk is bit-identical to it, and a
  // fresh recover() over the cleaned store agrees.
  const auto fill = [](LsbBackend& backend) {
    std::uint32_t hot = 0;
    const auto store_hot = [&] {
      std::vector<ProvenanceRecord> records = {make_text_record("NAME", "hot")};
      if (hot > 0)
        records.push_back(
            make_xref_record(attr::kPrev, ObjectVersion{"hot", hot}));
      ++hot;
      const std::string data(600, static_cast<char>('0' + hot));
      backend.store(file_unit("hot", hot, data, std::move(records)));
    };
    store_hot();
    for (std::uint32_t i = 0; i < 70; ++i) {
      // A live segment per file, each derived from the current hot version.
      const std::string name = "cold/f" + std::to_string(i);
      backend.store(file_unit(
          name, 1, std::string(500, 'c'),
          {make_text_record("NAME", name),
           make_xref_record(attr::kInput, ObjectVersion{"hot", hot})}));
      if (i % 8 == 7) store_hot();
      // Thin garbage: 8 superseded data bytes in a segment of ~100.
      if (i % 10 == 9)
        backend.store(file_unit("notes", 1 + i / 10, std::string(8, 'n')));
    }
  };
  const auto make = [](CloudServices& services, bool clean) {
    LsbBackendConfig cfg;
    cfg.segment_cap_bytes = util::kKiB;
    cfg.index_publish_entries = 4;
    cfg.auto_clean = clean;
    return std::make_unique<LsbBackend>(services, cfg);
  };
  aws::CloudEnv env(34, aws::ConsistencyConfig::strong());
  CloudServices services(env);
  auto cleaned = make(services, true);
  fill(*cleaned);
  cleaned->quiesce();
  aws::CloudEnv ref_env(34, aws::ConsistencyConfig::strong());
  CloudServices ref_services(ref_env);
  auto reference = make(ref_services, false);
  fill(*reference);
  reference->quiesce();

  EXPECT_GT(env.metrics().counter("lsb.compactions").value(), 0u);
  const auto stats = cleaned->stats();
  EXPECT_GT(stats.segment_count, 64u);
  EXPECT_GT(stats.garbage_ratio, 0.0);

  const auto agrees = [&](ProvenanceBackend& backend) {
    for (std::uint32_t i = 0; i < 70; ++i) {
      const std::string name = "cold/f" + std::to_string(i);
      auto got = backend.read(name);
      auto want = reference->read(name);
      ASSERT_TRUE(got.has_value() && want.has_value()) << name;
      EXPECT_EQ(*got->data, *want->data) << name;
      EXPECT_EQ(got->records, want->records) << name;
      EXPECT_TRUE(ancestry_equal(fetch_ancestry(backend, name, 1),
                                 fetch_ancestry(*reference, name, 1)))
          << name;
    }
    for (const char* name : {"hot", "notes"}) {
      auto got = backend.read(name);
      auto want = reference->read(name);
      ASSERT_TRUE(got.has_value() && want.has_value()) << name;
      EXPECT_EQ(got->version, want->version) << name;
      EXPECT_EQ(*got->data, *want->data) << name;
      for (std::uint32_t v = 1; v <= want->version; ++v)
        EXPECT_EQ(*backend.get_provenance(name, v),
                  *reference->get_provenance(name, v))
            << name << "@" << v;
    }
    EXPECT_TRUE(ancestry_equal(fetch_ancestry(backend, "hot", 1),
                               fetch_ancestry(*reference, "hot", 1)));
  };
  agrees(*cleaned);
  auto fresh = make(services, true);
  fresh->recover();
  agrees(*fresh);
}

TEST(LsbBackendTest, NoCleanerPassCopiesMoreThanItFrees) {
  // Seeded churn at a 1 KiB cap: groups of one to four closes over a few
  // objects, data from empty to 800 bytes, and repeated (object, version)
  // submits, so victims mix whole dead copies, superseded data and live
  // records. Every pass, whatever it picks, rewrites no more bytes than
  // it reclaims.
  aws::CloudEnv env(35, aws::ConsistencyConfig::strong());
  CloudServices services(env);
  LsbBackendConfig cfg;
  cfg.segment_cap_bytes = util::kKiB;
  cfg.auto_clean = false;
  cfg.compact_max_segments = 3;
  LsbBackend backend(services, cfg);
  util::Rng rng(35);
  std::map<std::string, std::uint32_t> versions;
  for (int g = 0; g < 60; ++g) {
    auto session = backend.open_session(SessionConfig{.max_group = 4});
    const std::uint64_t closes = rng.next_in(1, 4);
    for (std::uint64_t c = 0; c < closes; ++c) {
      const std::string object = "obj" + std::to_string(rng.next_below(6));
      std::uint32_t& version = versions[object];
      if (version == 0 || !rng.next_bool(0.2)) ++version;  // else a re-store
      session->submit(file_unit(object, version,
                                std::string(rng.next_in(0, 800), 'd')));
    }
    ASSERT_TRUE(session->sync().has_value());
  }
  backend.quiesce();

  obs::Counter& rewritten =
      env.metrics().counter("lsb.compact.rewritten_bytes");
  obs::Counter& reclaimed =
      env.metrics().counter("lsb.compact.reclaimed_bytes");
  std::size_t passes = 0;
  for (;;) {
    const std::uint64_t rewritten_before = rewritten.value();
    const std::uint64_t reclaimed_before = reclaimed.value();
    if (backend.compact() == 0) break;
    ++passes;
    EXPECT_LE(rewritten.value() - rewritten_before,
              reclaimed.value() - reclaimed_before)
        << "pass " << passes;
  }
  EXPECT_GT(passes, 2u);
  for (const auto& [object, version] : versions) {
    auto got = backend.read(object);
    ASSERT_TRUE(got.has_value()) << object;
    EXPECT_EQ(got->version, version) << object;
  }
}

// --- satellite: slow-but-not-crashed S3 on the seal path ---

TEST(LsbBackendTest, SlowS3StallsSealingWithoutCorruptingTheIndex) {
  aws::CloudEnv env(30, aws::ConsistencyConfig::strong());
  CloudServices services(env);
  auto backend = make_lsb_backend(services);

  // Brown-out: every S3 request takes 2 extra virtual seconds. Seals must
  // stall (visible as S3 ledger time), not fail or tear anything.
  const sim::SimTime extra = 2 * sim::kSecond;
  env.set_service_slowdown("s3", extra);
  const sim::SimTime s3_before = env.elapsed_by_service()["s3"];

  auto session = backend->open_session(SessionConfig{.max_group = 5});
  for (int i = 0; i < 5; ++i)
    session->submit(file_unit("slow" + std::to_string(i), 1, "molasses"));
  ASSERT_TRUE(session->sync().has_value());

  // One seal PUT, at least one injected delay, all on the S3 account.
  const sim::SimTime s3_after = env.elapsed_by_service()["s3"];
  EXPECT_GE(s3_after - s3_before, extra);

  env.set_service_slowdown("s3", 0);
  backend->quiesce();
  for (int i = 0; i < 5; ++i) {
    auto got = backend->read("slow" + std::to_string(i));
    ASSERT_TRUE(got.has_value()) << i;
    EXPECT_TRUE(got->verified);
    EXPECT_EQ(*got->data, "molasses");
  }
  // The stalled seal published a sound index: a fresh backend agrees.
  auto fresh = make_lsb_backend(services);
  fresh->recover();
  for (int i = 0; i < 5; ++i)
    ASSERT_TRUE(fresh->read("slow" + std::to_string(i)).has_value()) << i;
}

// --- the scan query engine ---

TEST(LsbQueryTest, ScanEngineAnswersLikeTheBackend) {
  aws::CloudEnv env(31, aws::ConsistencyConfig::strong());
  CloudServices services(env);
  auto backend = make_lsb_backend(services);

  FlushUnit proc;
  proc.object = "proc:5";
  proc.version = 1;
  proc.kind = PnodeKind::kProcess;
  proc.records = {make_text_record(attr::kName, "/usr/bin/blast")};
  backend->store(proc);
  backend->store(file_unit(
      "out/hits", 1, "hits",
      {make_xref_record(attr::kInput, ObjectVersion{"proc:5", 1})}));
  backend->store(file_unit(
      "out/summary", 1, "sum",
      {make_xref_record(attr::kInput, ObjectVersion{"out/hits", 1})}));
  backend->quiesce();

  auto engine = make_lsb_query_engine(services);
  const auto q1 = engine->q1_all_provenance();
  EXPECT_EQ(q1.object_versions, 3u);
  EXPECT_EQ(engine->q2_outputs_of("/usr/bin/blast"),
            (std::set<std::string>{"out/hits"}));
  EXPECT_EQ(engine->q3_descendants_of("/usr/bin/blast"),
            (std::set<std::string>{"out/hits", "out/summary"}));
  const AncestryResult walked = engine->ancestry("out/summary", 1);
  EXPECT_TRUE(walked.missing.empty());
  EXPECT_EQ(walked.graph.nodes().size(), 3u);
}

}  // namespace
