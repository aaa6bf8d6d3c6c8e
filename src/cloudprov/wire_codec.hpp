// The length-prefixed text codec under the segment log (lsb/format) and the
// manifest snapshots (manifest/format): one cursor and one provenance-record
// encoding, shared so both wire formats get the same bounds checks.
//
// Every count and length a decoder reads comes from bytes it cannot trust
// (a torn, truncated or corrupt object), so the cursor never lets a length
// wrap its position, never admits a count the remaining bytes could not
// encode (so a reserve() sized by it is bounded by the input), and never
// narrows a version silently. Each read_* returns false instead, which the
// decoders surface as nullopt.
//
// parse_u32/parse_u64 are the one parser for a number stored as a whole
// field (S3 metadata, SimpleDB attributes, WAL fields, catalog rows): the
// writers emit plain decimals, so a sign, a space, trailing bytes or an
// overflow marks the field malformed -- never a different number.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "pass/record.hpp"

namespace provcloud::cloudprov::wire {

void append_u64(std::string& out, std::uint64_t v);

/// Every method is defined here so the decoders' hot loops inline it.
class Cursor {
 public:
  explicit Cursor(std::string_view buf) : buf_(buf) {}

  std::size_t pos() const { return pos_; }
  std::size_t remaining() const { return buf_.size() - pos_; }
  bool done() const { return pos_ == buf_.size(); }

  bool expect(std::string_view literal) {
    if (buf_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  /// Decimal digits; false on no digit or a value above UINT64_MAX.
  bool read_u64(std::uint64_t& out) {
    constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
    if (pos_ >= buf_.size() || buf_[pos_] < '0' || buf_[pos_] > '9')
      return false;
    std::uint64_t v = 0;
    while (pos_ < buf_.size() && buf_[pos_] >= '0' && buf_[pos_] <= '9') {
      const auto digit = static_cast<std::uint64_t>(buf_[pos_] - '0');
      if (v > kMax / 10 || (v == kMax / 10 && digit > kMax % 10)) return false;
      v = v * 10 + digit;
      ++pos_;
    }
    out = v;
    return true;
  }

  /// A version: decimal, false above UINT32_MAX.
  bool read_u32(std::uint32_t& out) {
    std::uint64_t v = 0;
    if (!read_u64(v) || v > std::numeric_limits<std::uint32_t>::max())
      return false;
    out = static_cast<std::uint32_t>(v);
    return true;
  }

  /// An element count, each element at least `min_bytes` long when
  /// encoded: false when the remaining bytes could not hold that many.
  bool read_count(std::uint64_t& out, std::size_t min_bytes) {
    return read_u64(out) && out <= remaining() / min_bytes;
  }

  bool read_sep() { return read_char(' '); }
  bool read_nl() { return read_char('\n'); }

  bool read_bytes(std::uint64_t n, std::string& out) {
    if (n > remaining()) return false;
    out.assign(buf_.data() + pos_, n);
    pos_ += n;
    return true;
  }

  bool skip(std::uint64_t n) {
    if (n > remaining()) return false;
    pos_ += n;
    return true;
  }

 private:
  bool read_char(char want) {
    if (pos_ >= buf_.size() || buf_[pos_] != want) return false;
    ++pos_;
    return true;
  }

  std::string_view buf_;
  std::size_t pos_ = 0;
};

/// The whole of `field` as one decimal no larger than UINT64_MAX (or
/// UINT32_MAX). False on anything else, `out` then left as it was.
inline bool parse_u64(std::string_view field, std::uint64_t& out) {
  Cursor c(field);
  std::uint64_t v = 0;
  if (!c.read_u64(v) || !c.done()) return false;
  out = v;
  return true;
}
inline bool parse_u32(std::string_view field, std::uint32_t& out) {
  Cursor c(field);
  std::uint32_t v = 0;
  if (!c.read_u32(v) || !c.done()) return false;
  out = v;
  return true;
}

/// One record: "<attribute len> <value len> <xref 0|1>\n<attribute><value>",
/// an xref's value being its "<object>:<version>" item name.
void encode_record(std::string& out, const pass::ProvenanceRecord& r);
bool decode_record(Cursor& c, pass::ProvenanceRecord& out);

/// Decode `count` records into `out` (replacing it); false when the
/// remaining bytes could not hold `count` records or any record is bad.
bool decode_records(Cursor& c, std::uint64_t count,
                    std::vector<pass::ProvenanceRecord>& out);

}  // namespace provcloud::cloudprov::wire
