// Log-structured segment wire format (Architecture 4).
//
// A segment is one immutable S3 object holding many closes. Data and
// provenance of a close travel in the same object, so they are atomic by
// construction (the LFS answer to the Arch-2 atomicity hole). Within the
// object they are kept apart, the way an LFS segment keeps its summary
// apart from its data blocks (Rosenblum & Ousterhout, TOCS 1992):
//
//   PSG2\n<id> <records_at>\n     header; records_at is 20 digits wide
//   <data region>                  every entry's data bytes, back to back
//   <records region>               from records_at to the end: every
//                                  entry's header, object and records
//
// Each entry's records part names the absolute offset and length of its
// data, so one byte-range GET of a records part answers get_provenance
// without moving a data byte (read() makes a second GET, of the data), and
// the records parts of any run of entries are contiguous: one GET from the
// first to the end of the last fetches them all. The data region comes
// first so the sealer can write each entry's data offset as it encodes;
// the fixed-width records_at lets it size the header before it knows
// where the run ends.
//
// The SimpleDB index stores only postings: (object, version) -> (segment
// id, offset, length, data bytes), where (offset, length) delimits the
// entry's records part. They are packed many per attribute value, kivaloo
// lbs-dynamodb style, so hundreds of closes cost one segment PUT plus a
// fraction of one BatchPutAttributes call.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "pass/local_cache.hpp"
#include "pass/pnode.hpp"
#include "pass/record.hpp"
#include "util/bytes.hpp"

namespace provcloud::cloudprov::lsb {

/// Bucket all segment objects live in (separate from kDataBucket: segments
/// are write-once log objects, not per-object latest-data keys).
inline constexpr const char* kSegmentBucket = "pass-segments";
/// Key prefix of segment objects; ids are zero-padded so LIST order is id
/// order and the delete-to watermark is a key-range cutoff.
inline constexpr const char* kSegmentPrefix = "seg/";
/// Base name of the sharded SimpleDB index domains.
inline constexpr const char* kIndexDomainBase = "lsb-index";
/// Item (in the first shard domain) holding the durable watermarks.
inline constexpr const char* kMetaItem = "lsb-meta";
/// Every segment with id < delete-to is dead: its live entries were
/// rewritten into a younger segment (kivaloo deleteto.c semantics).
inline constexpr const char* kDeleteToAttr = "delete-to";
/// Every segment with id <= indexed-to has its postings published; younger
/// segments are durable but pending publication (recover() replays them).
inline constexpr const char* kIndexedToAttr = "indexed-to";
/// Index items are named "idx-<segment id>-<chunk>".
inline constexpr const char* kIndexItemPrefix = "idx-";

std::string segment_key(std::uint64_t id);
bool parse_segment_key(const std::string& key, std::uint64_t& id);

std::string index_item_name(std::uint64_t segment_id, std::size_t chunk);
bool parse_index_item_name(const std::string& item, std::uint64_t& segment_id,
                           std::uint64_t& chunk);

/// One close inside a segment, as the sealer writes it and decode_segment
/// returns it.
struct SegmentEntry {
  pass::ObjectVersion id;
  pass::PnodeKind kind = pass::PnodeKind::kFile;
  /// Null for transient objects (processes, pipes) and for superseded file
  /// versions whose data the cleaner dropped (provenance is kept forever;
  /// only the latest version's data is retrievable, as in Arch 1-3).
  util::SharedBytes data;
  std::vector<pass::ProvenanceRecord> records;
};

/// Where one close lives in the log.
struct EntryLocation {
  std::uint64_t segment = 0;
  /// The entry's records part, inside the segment's records region.
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
  /// Data bytes of the entry, inside the data region: what becomes garbage
  /// when a newer version of the object supersedes this one.
  std::uint64_t data_bytes = 0;

  /// Bytes the entry occupies in its segment, records and data.
  std::uint64_t footprint() const { return length + data_bytes; }

  bool operator==(const EntryLocation&) const = default;
};

/// One entry's records part, decoded from a posting's byte range without
/// the rest of the segment: everything but the data, plus where the data
/// sits.
struct EntryRecords {
  pass::ObjectVersion id;
  pass::PnodeKind kind = pass::PnodeKind::kFile;
  std::vector<pass::ProvenanceRecord> records;
  /// False for transient objects and for data the cleaner dropped.
  bool has_data = false;
  /// Absolute position of the data inside the segment (0, 0 without data).
  std::uint64_t data_offset = 0;
  std::uint64_t data_length = 0;
};
std::optional<EntryRecords> decode_entry(std::string_view records_part);

/// Size of segment `id`'s header: where its data region starts.
std::uint64_t segment_header_size(std::uint64_t id);

/// Encodes one segment incrementally, so the sealer can cut runs at the
/// segment cap while it encodes. Each entry's data is copied once.
class SegmentWriter {
 public:
  explicit SegmentWriter(std::uint64_t id);

  std::uint64_t id() const { return id_; }

  /// Append `entry`, unless the writer already holds an entry and its data
  /// plus records bytes would then exceed `cap`.
  bool append(const SegmentEntry& entry, std::uint64_t cap);

  /// The segment object. Afterwards locations() holds every appended
  /// entry's posting, in append order; the writer is spent.
  std::string finish();
  const std::vector<EntryLocation>& locations() const { return locations_; }

 private:
  std::uint64_t id_ = 0;
  std::string blob_;     // header, then the data region
  std::string records_;  // the records region
  std::uint64_t data_bytes_ = 0;  // the data region's size
  /// Offsets relative to the records region until finish().
  std::vector<EntryLocation> locations_;
};

/// One entry with its posting, as decoded from a whole segment object.
struct PlacedEntry {
  SegmentEntry entry;
  EntryLocation location;
};
struct DecodedSegment {
  std::uint64_t id = 0;
  std::vector<PlacedEntry> entries;
};
/// nullopt unless the whole object is one well-formed segment whose data
/// region is exactly the entries' data, back to back.
std::optional<DecodedSegment> decode_segment(std::string_view blob);

/// One index posting.
using Posting = std::pair<pass::ObjectVersion, EntryLocation>;

/// Pack postings of ONE segment into <= 1 KB SimpleDB attribute values
/// (the segment id rides in the item name, not the values). Order is
/// preserved across the returned values.
std::vector<std::string> pack_postings(const std::vector<Posting>& postings);

/// Unpack one attribute value; `segment_id` (from the item name) fills each
/// location's segment. Returns false on framing violations.
bool unpack_postings(const std::string& value, std::uint64_t segment_id,
                     std::vector<Posting>& out);

}  // namespace provcloud::cloudprov::lsb
