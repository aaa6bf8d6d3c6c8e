#include "cloudprov/manifest/format.hpp"

#include <algorithm>

#include "cloudprov/wire_codec.hpp"

namespace provcloud::cloudprov::manifest {

using wire::append_u64;
using wire::Cursor;

namespace {

constexpr const char* kBlockMagic = "PMB1\n";
constexpr const char* kListMagic = "PML1\n";

/// Shortest encodings, bounding counts read from untrusted bytes: an
/// entry line "0 0 0\n", a block line of seven numbers.
constexpr std::size_t kMinEntryBytes = 6;
constexpr std::size_t kMinBlockBytes = 14;

}  // namespace

std::string manifest_list_key(std::uint64_t snapshot_id) {
  return "snap-" + std::to_string(snapshot_id) + "/manifest-list";
}

std::string manifest_block_key(std::uint64_t snapshot_id, std::size_t block) {
  return "snap-" + std::to_string(snapshot_id) + "/block-" +
         std::to_string(block);
}

std::string encode_block(std::span<const ManifestEntry> entries) {
  std::string out = kBlockMagic;
  append_u64(out, entries.size());
  out += '\n';
  for (const ManifestEntry& e : entries) {
    append_u64(out, e.id.object.size());
    out += ' ';
    append_u64(out, e.id.version);
    out += ' ';
    append_u64(out, e.records.size());
    out += '\n';
    out += e.id.object;
    for (const pass::ProvenanceRecord& r : e.records)
      wire::encode_record(out, r);
  }
  return out;
}

std::optional<std::vector<ManifestEntry>> decode_block(const std::string& raw) {
  Cursor c{raw};
  if (!c.expect(kBlockMagic)) return std::nullopt;
  std::uint64_t count = 0;
  if (!c.read_count(count, kMinEntryBytes) || !c.read_nl())
    return std::nullopt;
  std::vector<ManifestEntry> out;
  out.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t object_len = 0, records = 0;
    ManifestEntry e;
    if (!c.read_u64(object_len) || !c.read_sep() ||
        !c.read_u32(e.id.version) || !c.read_sep() || !c.read_u64(records) ||
        !c.read_nl() || !c.read_bytes(object_len, e.id.object) ||
        !wire::decode_records(c, records, e.records))
      return std::nullopt;
    out.push_back(std::move(e));
  }
  if (!c.done()) return std::nullopt;
  return out;
}

std::string encode_manifest_list(const ManifestList& list) {
  std::string out = kListMagic;
  append_u64(out, list.snapshot_id);
  out += ' ';
  append_u64(out, list.total_entries);
  out += ' ';
  append_u64(out, list.blocks.size());
  out += '\n';
  for (const BlockStats& b : list.blocks) {
    append_u64(out, b.key.size());
    out += ' ';
    append_u64(out, b.min.object.size());
    out += ' ';
    append_u64(out, b.min.version);
    out += ' ';
    append_u64(out, b.max.object.size());
    out += ' ';
    append_u64(out, b.max.version);
    out += ' ';
    append_u64(out, b.entries);
    out += ' ';
    append_u64(out, b.bytes);
    out += '\n';
    out += b.key;
    out += b.min.object;
    out += b.max.object;
  }
  return out;
}

std::optional<ManifestList> decode_manifest_list(const std::string& raw) {
  Cursor c{raw};
  if (!c.expect(kListMagic)) return std::nullopt;
  ManifestList list;
  std::uint64_t block_count = 0;
  if (!c.read_u64(list.snapshot_id) || !c.read_sep() ||
      !c.read_u64(list.total_entries) || !c.read_sep() ||
      !c.read_count(block_count, kMinBlockBytes) || !c.read_nl())
    return std::nullopt;
  list.blocks.reserve(block_count);
  for (std::uint64_t i = 0; i < block_count; ++i) {
    std::uint64_t key_len = 0, min_len = 0, max_len = 0;
    BlockStats b;
    if (!c.read_u64(key_len) || !c.read_sep() || !c.read_u64(min_len) ||
        !c.read_sep() || !c.read_u32(b.min.version) || !c.read_sep() ||
        !c.read_u64(max_len) || !c.read_sep() || !c.read_u32(b.max.version) ||
        !c.read_sep() || !c.read_u64(b.entries) || !c.read_sep() ||
        !c.read_u64(b.bytes) || !c.read_nl())
      return std::nullopt;
    if (!c.read_bytes(key_len, b.key) ||
        !c.read_bytes(min_len, b.min.object) ||
        !c.read_bytes(max_len, b.max.object))
      return std::nullopt;
    list.blocks.push_back(std::move(b));
  }
  if (!c.done()) return std::nullopt;
  return list;
}

std::optional<std::size_t> find_block(const ManifestList& list,
                                      const pass::ObjectVersion& id) {
  // Blocks are sorted and disjoint: binary search the first block whose max
  // is >= id, then confirm its min is <= id (min/max pruning).
  const auto it = std::lower_bound(
      list.blocks.begin(), list.blocks.end(), id,
      [](const BlockStats& b, const pass::ObjectVersion& v) {
        return b.max < v;
      });
  if (it == list.blocks.end() || id < it->min) return std::nullopt;
  return static_cast<std::size_t>(it - list.blocks.begin());
}

}  // namespace provcloud::cloudprov::manifest
