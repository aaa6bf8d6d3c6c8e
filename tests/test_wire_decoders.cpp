// The wire decoders against bytes they cannot trust: the segment log's
// PSG2 segments, entry records parts and packed postings, the manifest's
// PMB1 blocks and PML1 lists, Architecture 1's S3 metadata and
// Architecture 3's WAL message bodies. Crafted inputs that used to throw
// or run out of memory decode to nothing, and a seeded mutation sweep
// (truncation at every byte, bit flips, length fields that lie) shows that
// no decoder throws, reads past its input, or loops.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "cloudprov/lsb/format.hpp"
#include "cloudprov/manifest/format.hpp"
#include "cloudprov/serialize.hpp"
#include "cloudprov/txn.hpp"
#include "cloudprov/wire_codec.hpp"
#include "util/rng.hpp"

namespace {

using namespace provcloud::cloudprov;
using namespace provcloud::pass;
namespace util = provcloud::util;

constexpr const char* kPeta = "1000000000000000";          // 10^15
constexpr const char* kMaxU64 = "18446744073709551615";    // 2^64 - 1
constexpr const char* kAboveU32 = "4294967296";            // 2^32

/// `blob` with the `token`-th space-separated field of its `line`-th line
/// (both 0-based) replaced by `value`. Only for lines before any payload.
std::string with_field(const std::string& blob, std::size_t line,
                       std::size_t token, const std::string& value) {
  std::size_t begin = 0;
  for (std::size_t l = 0; l < line; ++l) begin = blob.find('\n', begin) + 1;
  for (std::size_t t = 0; t < token; ++t) begin = blob.find(' ', begin) + 1;
  const std::size_t end = blob.find_first_of(" \n", begin);
  return blob.substr(0, begin) + value + blob.substr(end);
}

lsb::SegmentEntry file_entry(const std::string& object, std::uint32_t version,
                             std::string data) {
  lsb::SegmentEntry e;
  e.id = ObjectVersion{object, version};
  e.kind = PnodeKind::kFile;
  e.data = util::make_shared_bytes(std::move(data));
  e.records = {make_text_record("NAME", object),
               make_text_record("ENV", "A=1\nB=2 3"),
               make_xref_record(attr::kInput, ObjectVersion{"proc:3", 1})};
  return e;
}

/// A segment of a process entry and three file entries, the last with
/// data, so every proper prefix of it is missing some data.
std::string sample_segment(std::vector<lsb::EntryLocation>* locations) {
  lsb::SegmentWriter writer(12);
  lsb::SegmentEntry proc;
  proc.id = ObjectVersion{"proc:3", 1};
  proc.kind = PnodeKind::kProcess;
  proc.records = {make_text_record("NAME", "/bin/sort")};
  EXPECT_TRUE(writer.append(proc, UINT64_MAX));
  EXPECT_TRUE(writer.append(file_entry("out/a", 1, "alpha"), UINT64_MAX));
  EXPECT_TRUE(writer.append(file_entry("out/b", 2, ""), UINT64_MAX));
  EXPECT_TRUE(
      writer.append(file_entry("out/c", 7, std::string(40, 'c')), UINT64_MAX));
  std::string blob = writer.finish();
  *locations = writer.locations();
  return blob;
}

std::string sample_records_part() {
  std::vector<lsb::EntryLocation> locs;
  const std::string blob = sample_segment(&locs);
  return blob.substr(locs[1].offset, locs[1].length);
}

std::vector<lsb::Posting> sample_postings() {
  std::vector<lsb::Posting> postings;
  for (std::uint32_t i = 0; i < 6; ++i)
    postings.emplace_back(ObjectVersion{"dir/f" + std::to_string(i), i + 1},
                          lsb::EntryLocation{5, 100 + 40 * i, 40, 9 * i});
  return postings;
}

std::vector<manifest::ManifestEntry> sample_block_entries() {
  std::vector<manifest::ManifestEntry> entries;
  for (std::uint32_t i = 0; i < 4; ++i)
    entries.push_back(
        {ObjectVersion{"obj" + std::to_string(i), i + 1},
         {make_text_record("TYPE", "file"),
          make_xref_record(attr::kPrev, ObjectVersion{"obj", i + 7})}});
  return entries;
}

manifest::ManifestList sample_list() {
  manifest::ManifestList list;
  list.snapshot_id = 3;
  list.total_entries = 9;
  for (std::size_t b = 0; b < 3; ++b)
    list.blocks.push_back({manifest::manifest_block_key(3, b),
                           ObjectVersion{"a" + std::to_string(b), 1},
                           ObjectVersion{"b" + std::to_string(b), 2}, 3,
                           100 + b});
  return list;
}

/// S3 metadata as the mutation sweep sees it: one "<key>\t<value>" line
/// per entry. Any mutant parses back into some metadata map (a line without
/// a tab is a key with an empty value).
std::string flatten(const provcloud::aws::S3Metadata& metadata) {
  std::string out;
  for (const auto& [key, value] : metadata) out += key + '\t' + value + '\n';
  return out;
}

provcloud::aws::S3Metadata unflatten(const std::string& bytes) {
  provcloud::aws::S3Metadata out;
  std::size_t begin = 0;
  while (begin < bytes.size()) {
    std::size_t end = bytes.find('\n', begin);
    if (end == std::string::npos) end = bytes.size();
    const std::string line = bytes.substr(begin, end - begin);
    const std::size_t tab = line.find('\t');
    out[line.substr(0, tab)] =
        tab == std::string::npos ? "" : line.substr(tab + 1);
    begin = end + 1;
  }
  return out;
}

/// A unit with an xref, a record whose value needs escaping and one that
/// S3 metadata spills.
FlushUnit sample_unit() {
  FlushUnit unit;
  unit.object = "out/a;b";
  unit.version = 12;
  unit.kind = PnodeKind::kFile;
  unit.records = {make_text_record("NAME", "out/a;b"),
                  make_text_record("ENV", "A=1,B=2|3"),
                  make_xref_record(attr::kInput, ObjectVersion{"proc:3", 1}),
                  make_text_record("ARGV", std::string(1100, 'v'))};
  return unit;
}

/// The WAL transaction of sample_unit(), one message body per record.
std::vector<std::string> sample_wal_bodies() {
  std::vector<std::string> out;
  for (const WalRecord& r :
       build_transaction("tx-9", sample_unit(), ".tmp/x", "n0", "ab12"))
    out.push_back(encode_wal_record(r));
  return out;
}

// --- crafted inputs: each decodes to nothing instead of throwing ---

TEST(WireDecoderTest, EntryClaimingPetaRecordsDecodesToNothing) {
  const std::string part = with_field(sample_records_part(), 0, 7, kPeta);
  EXPECT_FALSE(lsb::decode_entry(part).has_value());
}

TEST(WireDecoderTest, EntryClaimingMaxU64RecordsDecodesToNothing) {
  const std::string part = with_field(sample_records_part(), 0, 7, kMaxU64);
  EXPECT_FALSE(lsb::decode_entry(part).has_value());
}

TEST(WireDecoderTest, SegmentWhoseLengthWrapsTheCursorDecodesToNothing) {
  // One entry with no data and an object length that, added to the cursor
  // past the entry's header line, wraps it back to the entry's start: a
  // cursor that tested pos + n > size would decode the entry forever.
  lsb::SegmentWriter writer(1);
  lsb::SegmentEntry proc;
  proc.id = ObjectVersion{"p", 1};
  proc.kind = PnodeKind::kProcess;
  ASSERT_TRUE(writer.append(proc, UINT64_MAX));
  const std::string blob = writer.finish();
  const std::string line = "E2 1 1 1 0 0 0 0\n";
  ASSERT_EQ(blob.substr(writer.locations()[0].offset), line + "p");
  // The lie has 20 digits, so the header line grows by 19 bytes.
  const std::uint64_t wrap = 0 - static_cast<std::uint64_t>(line.size() + 19);
  const std::string bad_line = with_field(line, 0, 1, std::to_string(wrap));
  ASSERT_EQ(bad_line.size(), line.size() + 19);
  const std::string bad =
      blob.substr(0, writer.locations()[0].offset) + bad_line + "p";
  EXPECT_FALSE(lsb::decode_segment(bad).has_value());
}

TEST(WireDecoderTest, PmbBlockClaimingPetaEntriesDecodesToNothing) {
  const std::string block = with_field(
      manifest::encode_block(sample_block_entries()), 1, 0, kPeta);
  EXPECT_FALSE(manifest::decode_block(block).has_value());
}

TEST(WireDecoderTest, PmbEntryClaimingPetaRecordsDecodesToNothing) {
  const std::string block = with_field(
      manifest::encode_block(sample_block_entries()), 2, 2, kPeta);
  EXPECT_FALSE(manifest::decode_block(block).has_value());
}

TEST(WireDecoderTest, PmlListClaimingPetaBlocksDecodesToNothing) {
  const std::string list =
      with_field(manifest::encode_manifest_list(sample_list()), 1, 2, kPeta);
  EXPECT_FALSE(manifest::decode_manifest_list(list).has_value());
}

TEST(WireDecoderTest, VersionAboveUint32IsRejectedNotTruncated) {
  EXPECT_FALSE(
      lsb::decode_entry(with_field(sample_records_part(), 0, 2, kAboveU32))
          .has_value());
  const std::string postings = lsb::pack_postings(sample_postings()).front();
  std::vector<lsb::Posting> out;
  EXPECT_FALSE(
      lsb::unpack_postings(with_field(postings, 0, 1, kAboveU32), 5, out));
  EXPECT_FALSE(manifest::decode_block(
                   with_field(manifest::encode_block(sample_block_entries()),
                              2, 1, kAboveU32))
                   .has_value());
  EXPECT_FALSE(manifest::decode_manifest_list(
                   with_field(manifest::encode_manifest_list(sample_list()), 2,
                              2, kAboveU32))
                   .has_value());
}

TEST(WireDecoderTest, WalNumbersAreWholeDecimalU32s) {
  // A count, version or chunk index with a sign, a space, trailing bytes
  // or a value above UINT32_MAX is corrupt, not a different number.
  for (const char* bad : {"B;tx-1;4294967297", "B;tx-1;-1", "B;tx-1;7x",
                          "B;tx-1; 7"})
    EXPECT_FALSE(decode_wal_record(bad).has_value()) << bad;
  ASSERT_TRUE(decode_wal_record("B;tx-1;7").has_value());
  EXPECT_EQ(decode_wal_record("B;tx-1;7")->record_count, 7u);

  WalRecord data;
  data.kind = WalRecord::Kind::kData;
  data.txid = "tx-1";
  data.temp_key = ".tmp/q/tx-1";
  data.object = "f";
  data.version = 2;
  data.nonce = "2";
  data.pnode_kind = PnodeKind::kFile;
  std::string body = encode_wal_record(data);
  ASSERT_TRUE(decode_wal_record(body).has_value());
  const std::size_t at = body.find(";2;");
  ASSERT_NE(at, std::string::npos);
  body.replace(at + 1, 1, "4294967298");  // 2^32 + 2
  EXPECT_FALSE(decode_wal_record(body).has_value()) << body;
}

TEST(WireDecoderTest, WholeFieldParsersAcceptOnlyPlainDecimals) {
  // A number stored as a whole field (S3 metadata, SimpleDB attributes,
  // catalog rows) parses only as the decimal its writer emitted: a sign, a
  // space, trailing bytes or an overflow is malformed, and `out` is left as
  // it was.
  struct Case {
    const char* field;
    bool u32_ok;
    bool u64_ok;
  };
  const Case cases[] = {
      {"", false, false},
      {"7x", false, false},
      {" 7", false, false},
      {"+7", false, false},
      {"-1", false, false},
      {"0", true, true},
      {"4294967295", true, true},
      {kAboveU32, false, true},
      {kMaxU64, false, true},
      {"18446744073709551616", false, false},  // 2^64
  };
  for (const Case& c : cases) {
    std::uint32_t u32 = 99;
    std::uint64_t u64 = 99;
    EXPECT_EQ(wire::parse_u32(c.field, u32), c.u32_ok) << '"' << c.field << '"';
    EXPECT_EQ(wire::parse_u64(c.field, u64), c.u64_ok) << '"' << c.field << '"';
    if (!c.u32_ok) EXPECT_EQ(u32, 99u) << '"' << c.field << '"';
    if (!c.u64_ok) EXPECT_EQ(u64, 99u) << '"' << c.field << '"';
    if (c.u64_ok) EXPECT_EQ(std::to_string(u64), c.field);
    if (c.u32_ok) EXPECT_EQ(std::to_string(u32), c.field);
  }
}

// --- the mutation sweep ---

/// One decoder under test: decodes `bytes` and returns whether it accepted
/// them. Each checks that what it accepted stays inside the input.
struct Subject {
  const char* name;
  std::string bytes;
  std::function<bool(const std::string&)> decode;
  /// Whether a proper prefix may decode (a sequence with no count).
  std::function<bool(const std::string& prefix)> prefix_may_decode;
};

std::vector<Subject> subjects() {
  std::vector<Subject> out;
  std::vector<lsb::EntryLocation> locs;
  const std::string segment = sample_segment(&locs);
  out.push_back(
      {"PSG2 segment", segment,
       [](const std::string& b) {
         auto seg = lsb::decode_segment(b);
         if (!seg) return false;
         for (const lsb::PlacedEntry& p : seg->entries) {
           EXPECT_LE(p.location.offset + p.location.length, b.size());
           EXPECT_LE(p.location.data_bytes, p.location.offset);
         }
         return true;
       },
       [](const std::string&) { return false; }});
  out.push_back({"entry records part", segment.substr(locs[1].offset,
                                                      locs[1].length),
                 [](const std::string& b) {
                   auto e = lsb::decode_entry(b);
                   if (!e) return false;
                   EXPECT_LE(e->id.object.size(), b.size());
                   EXPECT_LE(e->records.size(), b.size());
                   return true;
                 },
                 [](const std::string&) { return false; }});
  const std::vector<lsb::Posting> postings = sample_postings();
  const std::string packed = lsb::pack_postings(postings).front();
  out.push_back({"packed postings", packed,
                 [](const std::string& b) {
                   std::vector<lsb::Posting> got;
                   if (!lsb::unpack_postings(b, 5, got)) return false;
                   EXPECT_LE(got.size(), b.size());
                   return true;
                 },
                 [postings](const std::string& prefix) {
                   // A cut between two postings is a shorter valid value.
                   std::vector<lsb::Posting> head;
                   for (const lsb::Posting& p : postings) {
                     head.push_back(p);
                     if (lsb::pack_postings(head).front() == prefix)
                       return true;
                   }
                   return prefix.empty();
                 }});
  out.push_back({"PMB1 block", manifest::encode_block(sample_block_entries()),
                 [](const std::string& b) {
                   auto got = manifest::decode_block(b);
                   if (!got) return false;
                   EXPECT_LE(got->size(), b.size());
                   return true;
                 },
                 [](const std::string&) { return false; }});
  out.push_back({"PML1 list", manifest::encode_manifest_list(sample_list()),
                 [](const std::string& b) {
                   auto got = manifest::decode_manifest_list(b);
                   if (!got) return false;
                   EXPECT_LE(got->blocks.size(), b.size());
                   return true;
                 },
                 [](const std::string&) { return false; }});
  out.push_back(
      {"S3 metadata",
       flatten(encode_unit_as_metadata(sample_unit()).metadata),
       [](const std::string& b) {
         auto got = decode_metadata(unflatten(b));
         if (!got) return false;
         EXPECT_LE(got->records.size(), b.size());
         return true;
       },
       // No count: dropping entries or shortening a value still decodes.
       [](const std::string&) { return true; }});
  const auto wal_subject = [](const char* name, const std::string& body) {
    return Subject{
        name, body,
        [](const std::string& b) {
          auto got = decode_wal_record(b);
          if (!got) return false;
          EXPECT_LE(got->records.size(), b.size());
          return true;
        },
        // Only a provenance chunk cut inside its records may decode.
        [](const std::string& prefix) {
          return prefix.starts_with("P;") &&
                 std::count(prefix.begin(), prefix.end(), ';') == 5;
        }};
  };
  for (const std::string& body : sample_wal_bodies()) {
    if (body[0] == 'D') out.push_back(wal_subject("WAL data record", body));
    if (body[0] == 'P')
      out.push_back(wal_subject("WAL provenance chunk", body));
  }
  return out;
}

/// Every run of decimal digits in `bytes`, as (offset, length).
std::vector<std::pair<std::size_t, std::size_t>> number_fields(
    const std::string& bytes) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  for (std::size_t i = 0; i < bytes.size();) {
    if (bytes[i] < '0' || bytes[i] > '9') {
      ++i;
      continue;
    }
    std::size_t j = i;
    while (j < bytes.size() && bytes[j] >= '0' && bytes[j] <= '9') ++j;
    out.emplace_back(i, j - i);
    i = j;
  }
  return out;
}

TEST(WireDecoderTest, MutatedInputsNeverThrowOverreadOrLoop) {
  // A looping decoder would hang this test, and one that trusted a length
  // would throw bad_alloc or length_error; every outcome here must be a
  // plain accept or reject.
  util::Rng rng(2024);
  for (const Subject& s : subjects()) {
    SCOPED_TRACE(s.name);
    ASSERT_TRUE(s.decode(s.bytes));

    for (std::size_t cut = 0; cut < s.bytes.size(); ++cut) {
      const std::string prefix = s.bytes.substr(0, cut);
      bool accepted = false;
      ASSERT_NO_THROW(accepted = s.decode(prefix)) << "cut at " << cut;
      if (accepted) {
        EXPECT_TRUE(s.prefix_may_decode(prefix)) << "cut at " << cut;
      }
    }

    for (int flip = 0; flip < 3000; ++flip) {
      std::string bytes = s.bytes;
      const std::size_t at = rng.next_below(bytes.size());
      bytes[at] = static_cast<char>(bytes[at] ^ (1 << rng.next_below(8)));
      ASSERT_NO_THROW(s.decode(bytes)) << "bit flip at " << at;
    }

    for (const auto& [at, len] : number_fields(s.bytes)) {
      const std::uint64_t was = std::stoull(s.bytes.substr(at, len));
      const std::uint64_t tail = s.bytes.size() - at;
      for (const std::string& lie :
           {std::to_string(was + 1), std::to_string(was > 0 ? was - 1 : 7),
            std::to_string(2 * was + 13), std::to_string(tail),
            std::to_string(0 - tail), std::string(kAboveU32),
            std::string(kPeta), std::string(kMaxU64),
            std::string("18446744073709551616"),
            std::string("99999999999999999999999")}) {
        const std::string bytes =
            s.bytes.substr(0, at) + lie + s.bytes.substr(at + len);
        ASSERT_NO_THROW(s.decode(bytes)) << "field at " << at << " = " << lie;
      }
    }
  }
}

}  // namespace
