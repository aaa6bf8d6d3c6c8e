// Architecture 4: log-structured segments on S3, compact index in SimpleDB.
//
// Every group commit is sealed into one immutable S3 segment object (one
// PUT amortized over the whole group; an oversized group splits at the
// segment size cap), so a close's data and provenance are durable -- and
// atomic -- the moment its segment lands. The SimpleDB side stores only
// postings, (object, version) -> (segment, offset, length), packed many per
// attribute value and published lazily in batched, sharded writes over the
// DomainTopology once enough accumulate: the log is the truth, the index is
// a rebuildable checkpoint (classic LFS). recover() replays any segment
// above the indexed-to watermark, so a crashed publication can never tear
// the index, and a crashed seal leaves only an ignorable orphan object.
//
// Index publication and a background cleaner run in pump(), which the
// session's commit daemon calls after every flush group on its own
// maintenance timeline (never a thread of its own, and never on a close's
// timeline). The cleaner reclaims garbage: superseded copies of a close and
// the data bytes of superseded file versions, whose records alone stay
// retrievable, exactly the retention Arch 1-3 offer. Cleaning a segment at
// utilization u reads 1 and writes u to free 1 - u (Rosenblum & Ousterhout,
// TOCS 1992), so its victims are the indexed segments that are at least
// half garbage, richest first: a pass never copies more live bytes than it
// frees, and a segment with no or thin garbage is never rewritten. It runs
// once its victims hold a segment's worth of garbage (segment_cap_bytes),
// rewrites their live entries into fresh segments, republishes their
// postings, advances the durable delete-to watermark (kivaloo deleteto.c
// style) and deletes the dead objects. A pass seals only live entries, so
// every segment it writes starts garbage-free: the victims' garbage falls
// strictly with each pass, and quiesce()'s cleaning loop ends. Ancestry
// walks are bit-identical before and after.
//
// One sealer writes every segment, for a commit group and for the cleaner
// alike: it cuts the entries into runs at segment_cap_bytes (data plus
// records bytes), encoding each run as it goes, PUTs the run, fires the
// caller's crash point, and only then hands the durable run to the
// caller's bookkeeping (tickets and the publish buffer for a group;
// re-homing and republication for the cleaner).
//
// Reads never move data they do not return. A segment keeps its entries'
// data and their records in two regions (lsb/format.hpp), and a posting
// points at an entry's records part. get_provenance_many, which
// fetch_ancestry calls once per BFS frontier, resolves every id under the
// lock, groups the ids by segment and makes one range GET per segment,
// from the first wanted records part to the end of the last, so a walk
// reads records only, as an Arch 1 HEAD does. read() makes two range GETs,
// the records part and then the data (one for an entry without data), the
// round trips of an Arch 2 read. Both re-resolve pending entries on every
// retry, because the cleaner may move them, and a whole slice that does
// not decode to the id asked for fails at once as kCorrupt.
#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cloudprov/backend.hpp"
#include "cloudprov/domain_topology.hpp"
#include "cloudprov/lsb/format.hpp"

namespace provcloud::cloudprov {

/// Storage-path knobs of the log-structured backend.
struct LsbBackendConfig {
  /// Seal the open segment early once its encoding would exceed this. Also
  /// the cleaner's threshold: it runs once a pass would free this much.
  std::size_t segment_cap_bytes = 4 * util::kMiB;
  /// Postings buffered in memory before a SimpleDB index publication (the
  /// LFS checkpoint interval, in closes). quiesce() always drains.
  std::size_t index_publish_entries = 512;
  /// Clean in pump() and quiesce() once the victims hold segment_cap_bytes
  /// of garbage; false leaves cleaning to explicit compact() calls.
  bool auto_clean = true;
  /// Most segments one cleaner pass rewrites.
  std::size_t compact_max_segments = 32;
  /// SimpleDB domains the index postings are hashed across (published in
  /// BatchPutAttributes calls of 25 items).
  std::size_t shard_count = 1;
  /// Concurrent shard requests (index publication, read_many fan-out).
  std::size_t parallelism = 1;
};

class LsbBackend final : public ProvenanceBackend {
 public:
  explicit LsbBackend(CloudServices& services, LsbBackendConfig config = {});

  Architecture architecture() const override {
    return Architecture::kS3SegmentLog;
  }
  std::string name() const override { return "S3-segments+SimpleDB"; }

  bool supports_group_commit() const override { return true; }

  /// Seal the group into segment objects (one PUT per cap-sized run; each
  /// ticket is done once its segment is durable) and buffer the postings
  /// for pump() to publish.
  void commit_group(const std::vector<TicketState*>& group) override;

  /// Latest data + provenance of `object`: a byte-range GET of its records
  /// part, then one of its data (skipped when it has none). Segments are
  /// immutable, so only propagation visibility can race; retries are
  /// charged like every consistency loop.
  BackendResult<ReadResult> read(const std::string& object,
                                 std::uint32_t max_retries = 64) override;
  /// A batch of one get_provenance_many.
  BackendResult<std::vector<pass::ProvenanceRecord>> get_provenance(
      const std::string& object, std::uint32_t version) override;
  /// One range GET per segment per attempt, spanning records only; unknown
  /// ids get kNotFound in their slots. Ids still pending re-resolve and
  /// retry (64 times, then kConsistencyExhausted). Traced as the span
  /// lsb.get_provenance_many (args: ids, segments = range GETs, bytes).
  std::vector<BackendResult<std::vector<pass::ProvenanceRecord>>>
  get_provenance_many(const std::vector<pass::ObjectVersion>& ids) override;

  /// Client-restart recovery: rebuild the in-memory index from the durable
  /// postings, replay unindexed (orphan) segments, and delete segments
  /// below the delete-to watermark. Idempotent; cheap on a live backend.
  /// A segment that does not decode is skipped, counted in the registry
  /// counter lsb.recover.corrupt_segments, and its id is never reused; the
  /// segments beside it recover as usual.
  void recover() override;

  /// Publish a due index checkpoint and run the cleaner if it is due.
  void pump() override;

  PropertyClaims claims() const override {
    // Efficient query is the LFS trade-off: postings index *locations*,
    // not attribute values, so Q2-style searches scan the log (linear,
    // like Arch 1). Roll a manifest snapshot for indexed deep queries.
    return PropertyClaims{.atomicity = true,
                          .consistency = true,
                          .causal_ordering = true,
                          .efficient_query = false};
  }

  const LsbBackendConfig& config() const { return config_; }

  /// Force an index publication now (bench/test hook).
  void publish_index();

  /// One cleaner pass over up to `compact_max_segments` victims: indexed
  /// segments at least half garbage, richest first. A victim that does not
  /// decode stays in place and is never picked again. Returns the number
  /// of segments reclaimed (0 = no victim).
  std::size_t compact();

  /// Cleaner-effectiveness counters (in-memory view; exact after quiesce).
  struct SegmentStats {
    std::uint64_t segment_count = 0;  // live segment objects
    std::uint64_t total_bytes = 0;    // bytes stored in them
    std::uint64_t live_bytes = 0;     // total - superseded data bytes
    double garbage_ratio = 0.0;       // 1 - live/total
    std::uint64_t delete_to = 0;
    std::uint64_t indexed_to = 0;
    std::uint64_t pending_postings = 0;
  };
  SegmentStats stats() const;

 protected:
  /// Drain: publish every buffered posting, then clean while due (each pass
  /// strictly lowers the victims' garbage, so the loop ends).
  void do_quiesce() override;

 private:
  /// In-memory image of one live segment (accounting only; entry payloads
  /// stay in S3).
  struct SegmentInfo {
    std::uint64_t bytes = 0;  // the object's size, header included
    std::uint64_t garbage_bytes = 0;
    std::uint64_t entries = 0;
    /// Published index chunk items ("idx-<seg>-0" .. "-<chunks-1>"), so the
    /// cleaner can delete them when the segment dies.
    std::uint64_t chunk_items = 0;
    /// The object does not decode: left in place, never cleaned or
    /// replayed, and its id is never sealed again.
    bool corrupt = false;
  };

  /// One durable segment the sealer wrote: entries [begin, end) of its
  /// input, at `postings`.
  struct SealedRun {
    std::uint64_t id = 0;
    std::size_t begin = 0;
    std::size_t end = 0;
    std::uint64_t bytes = 0;  // the segment object's size
    std::vector<lsb::Posting> postings;
  };
  /// The sealer: cut `entries` into segment_cap_bytes runs, PUT each as a
  /// fresh segment, hit `crash_point`, then record its SegmentInfo and run
  /// `on_sealed` under the same lock, so readers see the segment and its
  /// index entries together.
  void seal_runs(const std::vector<lsb::SegmentEntry>& entries,
                 const char* crash_point,
                 const std::function<void(SealedRun&)>& on_sealed);

  /// A whole segment object as the cleaner and replay read it.
  struct LoadedSegment {
    std::vector<lsb::PlacedEntry> entries;
    std::uint64_t bytes = 0;  // the object's size
  };
  /// GET and decode segment `id`, retrying propagation races 64 times
  /// (each charged like every consistency loop). kConsistencyExhausted if
  /// it never shows, kCorrupt if it does not decode as segment `id`.
  BackendResult<LoadedSegment> load_segment(std::uint64_t id);

  /// Record a durable entry in the in-memory index + latest/garbage
  /// bookkeeping. Later copies of the same (object, version) win.
  void index_entry_locked(const pass::ObjectVersion& id,
                          const lsb::EntryLocation& loc);
  /// Fetch one close by identity: per-attempt index lookup (compaction may
  /// move it), then range GETs of its records part and its data, retrying
  /// propagation races.
  BackendResult<ReadResult> fetch_entry(const pass::ObjectVersion& id,
                                        std::uint32_t max_retries);
  /// Publish packed postings as chunk items (batched per shard domain),
  /// hitting `crash_name` between calls. Records chunk_items per segment.
  void publish_postings(
      const std::map<std::uint64_t, std::vector<lsb::Posting>>& by_segment,
      const char* crash_name);
  /// The durable watermarks: one PutAttributes on the meta item.
  void write_meta(
      std::initializer_list<std::pair<const char*, std::uint64_t>> marks);
  /// Full index rebuild from SimpleDB (fresh instance over a used store).
  void rebuild_from_index();
  /// Replay segments the index does not know / purge below delete-to.
  void replay_orphans();
  /// The cleaner's victims (at most compact_max_segments, in id order) and
  /// the garbage bytes they hold.
  struct Victims {
    std::vector<std::uint64_t> ids;
    std::uint64_t garbage = 0;
  };
  Victims pick_victims_locked() const;
  /// auto_clean, and a pass would free at least segment_cap_bytes.
  bool clean_due() const;

  LsbBackendConfig config_;

  /// Guards every in-memory structure below. Cloud calls happen outside.
  mutable std::mutex mu_;
  /// (object, version) -> location, the authoritative live index.
  std::map<pass::ObjectVersion, lsb::EntryLocation> index_;
  /// object -> latest indexed version (read path entry point).
  std::map<std::string, std::uint32_t, std::less<>> latest_;
  std::map<std::uint64_t, SegmentInfo> segments_;
  /// Durable-but-unpublished postings, grouped by segment.
  std::map<std::uint64_t, std::vector<lsb::Posting>> pending_postings_;
  std::uint64_t pending_posting_count_ = 0;
  std::uint64_t next_segment_id_ = 1;
  std::uint64_t indexed_to_ = 0;
  std::uint64_t delete_to_ = 1;
  bool hydrated_ = false;

  obs::Counter* seal_count_ = nullptr;
  obs::Counter* seal_bytes_ = nullptr;
  obs::Counter* publish_count_ = nullptr;
  obs::Counter* publish_postings_ = nullptr;
  obs::Counter* compact_count_ = nullptr;
  obs::Counter* compact_reclaimed_bytes_ = nullptr;
  obs::Counter* compact_rewritten_bytes_ = nullptr;
  obs::Counter* recover_corrupt_segments_ = nullptr;
  obs::Histogram* seal_entries_ = nullptr;
};

}  // namespace provcloud::cloudprov
