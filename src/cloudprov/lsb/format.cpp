#include "cloudprov/lsb/format.hpp"

#include <cstring>

#include "cloudprov/wire_codec.hpp"

namespace provcloud::cloudprov::lsb {

using wire::append_u64;
using wire::Cursor;

namespace {

constexpr std::string_view kSegmentMagic = "PSG2\n";
constexpr std::string_view kEntryMagic = "E2 ";
/// records_at is written zero-padded to this many digits.
constexpr std::size_t kRecordsAtDigits = 20;
/// Stay under SimpleDB's 1 KB attribute-value limit with margin.
constexpr std::size_t kPostingValueCap = 960;

std::uint64_t kind_code(pass::PnodeKind kind) {
  switch (kind) {
    case pass::PnodeKind::kFile: return 0;
    case pass::PnodeKind::kProcess: return 1;
    case pass::PnodeKind::kPipe: return 2;
  }
  return 0;
}

bool kind_from_code(std::uint64_t code, pass::PnodeKind& out) {
  switch (code) {
    case 0: out = pass::PnodeKind::kFile; return true;
    case 1: out = pass::PnodeKind::kProcess; return true;
    case 2: out = pass::PnodeKind::kPipe; return true;
  }
  return false;
}

/// "E2 <object len> <version> <kind> <has data> <data offset> <data len>
/// <record count>\n<object><records>".
void encode_records_part(std::string& out, const SegmentEntry& entry,
                         std::uint64_t data_offset) {
  const bool has_data = entry.data != nullptr;
  out += kEntryMagic;
  append_u64(out, entry.id.object.size());
  out += ' ';
  append_u64(out, entry.id.version);
  out += ' ';
  append_u64(out, kind_code(entry.kind));
  out += ' ';
  out += has_data ? '1' : '0';
  out += ' ';
  append_u64(out, has_data ? data_offset : 0);
  out += ' ';
  append_u64(out, has_data ? entry.data->size() : 0);
  out += ' ';
  append_u64(out, entry.records.size());
  out += '\n';
  out += entry.id.object;
  for (const pass::ProvenanceRecord& r : entry.records)
    wire::encode_record(out, r);
}

bool decode_records_part(Cursor& c, EntryRecords& out) {
  std::uint64_t object_len = 0, kind = 0, has_data = 0, record_count = 0;
  if (!c.expect(kEntryMagic) || !c.read_u64(object_len) || !c.read_sep() ||
      !c.read_u32(out.id.version) || !c.read_sep() || !c.read_u64(kind) ||
      !c.read_sep() || !c.read_u64(has_data) || !c.read_sep() ||
      !c.read_u64(out.data_offset) || !c.read_sep() ||
      !c.read_u64(out.data_length) || !c.read_sep() ||
      !c.read_u64(record_count) || !c.read_nl())
    return false;
  if (has_data > 1 || !kind_from_code(kind, out.kind)) return false;
  out.has_data = has_data == 1;
  if (!out.has_data && (out.data_offset != 0 || out.data_length != 0))
    return false;
  return c.read_bytes(object_len, out.id.object) &&
         wire::decode_records(c, record_count, out.records);
}

}  // namespace

std::string segment_key(std::uint64_t id) {
  std::string digits = std::to_string(id);
  std::string out = kSegmentPrefix;
  if (digits.size() < 20) out.append(20 - digits.size(), '0');
  out += digits;
  return out;
}

bool parse_segment_key(const std::string& key, std::uint64_t& id) {
  const std::size_t prefix_len = std::strlen(kSegmentPrefix);
  if (key.rfind(kSegmentPrefix, 0) != 0 || key.size() <= prefix_len)
    return false;
  std::uint64_t v = 0;
  for (std::size_t i = prefix_len; i < key.size(); ++i) {
    if (key[i] < '0' || key[i] > '9') return false;
    v = v * 10 + static_cast<std::uint64_t>(key[i] - '0');
  }
  id = v;
  return true;
}

std::string index_item_name(std::uint64_t segment_id, std::size_t chunk) {
  return std::string(kIndexItemPrefix) + std::to_string(segment_id) + "-" +
         std::to_string(chunk);
}

bool parse_index_item_name(const std::string& item, std::uint64_t& segment_id,
                           std::uint64_t& chunk) {
  const std::size_t prefix_len = std::strlen(kIndexItemPrefix);
  if (item.rfind(kIndexItemPrefix, 0) != 0) return false;
  std::uint64_t v = 0;
  std::size_t i = prefix_len;
  if (i >= item.size() || item[i] < '0' || item[i] > '9') return false;
  for (; i < item.size() && item[i] >= '0' && item[i] <= '9'; ++i)
    v = v * 10 + static_cast<std::uint64_t>(item[i] - '0');
  if (i >= item.size() || item[i] != '-') return false;
  ++i;
  std::uint64_t c = 0;
  if (i >= item.size() || item[i] < '0' || item[i] > '9') return false;
  for (; i < item.size() && item[i] >= '0' && item[i] <= '9'; ++i)
    c = c * 10 + static_cast<std::uint64_t>(item[i] - '0');
  if (i != item.size()) return false;
  segment_id = v;
  chunk = c;
  return true;
}

std::optional<EntryRecords> decode_entry(std::string_view records_part) {
  Cursor c{records_part};
  EntryRecords out;
  if (!decode_records_part(c, out) || !c.done()) return std::nullopt;
  return out;
}

std::uint64_t segment_header_size(std::uint64_t id) {
  return kSegmentMagic.size() + std::to_string(id).size() + 1 +
         kRecordsAtDigits + 1;
}

SegmentWriter::SegmentWriter(std::uint64_t id) : id_(id) {
  blob_ = kSegmentMagic;
  append_u64(blob_, id);
  blob_ += ' ';
  blob_.append(kRecordsAtDigits, '0');  // records_at, patched by finish()
  blob_ += '\n';
}

bool SegmentWriter::append(const SegmentEntry& entry, std::uint64_t cap) {
  const std::size_t start = records_.size();
  encode_records_part(records_, entry, blob_.size());
  const std::uint64_t data_bytes =
      entry.data != nullptr ? entry.data->size() : 0;
  if (!locations_.empty() &&
      data_bytes_ + data_bytes + records_.size() > cap) {
    records_.resize(start);
    return false;
  }
  if (entry.data != nullptr) blob_ += *entry.data;
  data_bytes_ += data_bytes;
  locations_.push_back(
      EntryLocation{id_, start, records_.size() - start, data_bytes});
  return true;
}

std::string SegmentWriter::finish() {
  const std::string records_at = std::to_string(blob_.size());
  const std::size_t header = segment_header_size(id_);
  blob_.replace(header - 1 - records_at.size(), records_at.size(),
                records_at);
  for (EntryLocation& loc : locations_) loc.offset += blob_.size();
  blob_ += records_;
  records_.clear();
  return std::move(blob_);
}

std::optional<DecodedSegment> decode_segment(std::string_view blob) {
  Cursor c{blob};
  DecodedSegment out;
  std::uint64_t records_at = 0;
  if (!c.expect(kSegmentMagic) || !c.read_u64(out.id) || !c.read_sep() ||
      !c.read_u64(records_at) || !c.read_nl())
    return std::nullopt;
  const std::uint64_t data_at = c.pos();
  if (data_at != segment_header_size(out.id) || records_at < data_at ||
      !c.skip(records_at - data_at))
    return std::nullopt;
  // The data region must be exactly the entries' data, in entry order.
  std::uint64_t next_data = data_at;
  while (!c.done()) {
    PlacedEntry placed;
    placed.location.segment = out.id;
    placed.location.offset = c.pos();
    EntryRecords rec;
    if (!decode_records_part(c, rec)) return std::nullopt;
    placed.location.length = c.pos() - placed.location.offset;
    if (rec.has_data) {
      if (rec.data_offset != next_data ||
          rec.data_length > records_at - next_data)
        return std::nullopt;
      placed.entry.data = util::make_shared_bytes(
          blob.substr(rec.data_offset, rec.data_length));
      placed.location.data_bytes = rec.data_length;
      next_data += rec.data_length;
    }
    placed.entry.id = std::move(rec.id);
    placed.entry.kind = rec.kind;
    placed.entry.records = std::move(rec.records);
    out.entries.push_back(std::move(placed));
  }
  if (next_data != records_at) return std::nullopt;
  return out;
}

std::vector<std::string> pack_postings(const std::vector<Posting>& postings) {
  std::vector<std::string> values;
  std::string current;
  for (const auto& [id, loc] : postings) {
    std::string line;
    append_u64(line, id.object.size());
    line += ' ';
    append_u64(line, id.version);
    line += ' ';
    append_u64(line, loc.offset);
    line += ' ';
    append_u64(line, loc.length);
    line += ' ';
    append_u64(line, loc.data_bytes);
    line += '\n';
    line += id.object;
    line += '\n';
    if (!current.empty() && current.size() + line.size() > kPostingValueCap) {
      values.push_back(std::move(current));
      current.clear();
    }
    current += line;
  }
  if (!current.empty()) values.push_back(std::move(current));
  return values;
}

bool unpack_postings(const std::string& value, std::uint64_t segment_id,
                     std::vector<Posting>& out) {
  Cursor c{value};
  while (!c.done()) {
    std::uint64_t object_len = 0, offset = 0, length = 0, data_bytes = 0;
    std::uint32_t version = 0;
    if (!c.read_u64(object_len) || !c.read_sep() || !c.read_u32(version) ||
        !c.read_sep() || !c.read_u64(offset) || !c.read_sep() ||
        !c.read_u64(length) || !c.read_sep() || !c.read_u64(data_bytes) ||
        !c.read_nl())
      return false;
    std::string object;
    if (!c.read_bytes(object_len, object) || !c.read_nl()) return false;
    out.emplace_back(pass::ObjectVersion{std::move(object), version},
                     EntryLocation{segment_id, offset, length, data_bytes});
  }
  return true;
}

}  // namespace provcloud::cloudprov::lsb
