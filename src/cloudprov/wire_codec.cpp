#include "cloudprov/wire_codec.hpp"

#include "cloudprov/serialize.hpp"

namespace provcloud::cloudprov::wire {

namespace {

/// The shortest record encoding: "0 0 0\n".
constexpr std::size_t kMinRecordBytes = 6;

}  // namespace

void append_u64(std::string& out, std::uint64_t v) {
  out += std::to_string(v);
}

void encode_record(std::string& out, const pass::ProvenanceRecord& r) {
  const std::string value = r.value_string();
  append_u64(out, r.attribute.size());
  out += ' ';
  append_u64(out, value.size());
  out += ' ';
  out += r.is_xref() ? '1' : '0';
  out += '\n';
  out += r.attribute;
  out += value;
}

bool decode_record(Cursor& c, pass::ProvenanceRecord& out) {
  std::uint64_t attr_len = 0, value_len = 0, xref = 0;
  if (!c.read_u64(attr_len) || !c.read_sep() || !c.read_u64(value_len) ||
      !c.read_sep() || !c.read_u64(xref) || !c.read_nl() || xref > 1)
    return false;
  std::string attribute, value;
  if (!c.read_bytes(attr_len, attribute) || !c.read_bytes(value_len, value))
    return false;
  if (xref == 1) {
    std::string object;
    std::uint32_t version = 0;
    if (!parse_item_name(value, object, version)) return false;
    out = pass::make_xref_record(std::move(attribute),
                                 pass::ObjectVersion{object, version});
  } else {
    out = pass::make_text_record(std::move(attribute), std::move(value));
  }
  return true;
}

bool decode_records(Cursor& c, std::uint64_t count,
                    std::vector<pass::ProvenanceRecord>& out) {
  if (count > c.remaining() / kMinRecordBytes) return false;
  out.resize(count);
  for (pass::ProvenanceRecord& r : out)
    if (!decode_record(c, r)) return false;
  return true;
}

}  // namespace provcloud::cloudprov::wire
