// Wire formats: record <-> S3 metadata / SimpleDB attributes, spill
// pointers, item names -- including hostile object names.
#include <gtest/gtest.h>

#include "cloudprov/serialize.hpp"

namespace {

using namespace provcloud::cloudprov;
using namespace provcloud::pass;

TEST(ItemNameTest, RoundTrip) {
  const std::string item = item_name("dir/foo.c", 3);
  EXPECT_EQ(item, "dir/foo.c:3");
  std::string object;
  std::uint32_t version = 0;
  ASSERT_TRUE(parse_item_name(item, object, version));
  EXPECT_EQ(object, "dir/foo.c");
  EXPECT_EQ(version, 3u);
}

TEST(ItemNameTest, RejectsMalformed) {
  std::string object;
  std::uint32_t version = 0;
  EXPECT_FALSE(parse_item_name("no-version", object, version));
  EXPECT_FALSE(parse_item_name("trailing:", object, version));
  EXPECT_FALSE(parse_item_name("bad:1x", object, version));
}

TEST(ItemNameTest, LastColonWins) {
  // Object names may not contain ':' in our PASS namespace, but parse must
  // still split on the LAST colon for robustness.
  std::string object;
  std::uint32_t version = 0;
  ASSERT_TRUE(parse_item_name("a:b:7", object, version));
  EXPECT_EQ(object, "a:b");
  EXPECT_EQ(version, 7u);
}

TEST(RecordCodecTest, TextRoundTrip) {
  const ProvenanceRecord r = make_text_record("ENV", "PATH=/bin;HOME=/root");
  const ProvenanceRecord back = parse_record(serialize_record(r)).value();
  EXPECT_EQ(back, r);
}

TEST(RecordCodecTest, XrefRoundTrip) {
  const ProvenanceRecord r = make_xref_record("INPUT", {"blast/nr.psq", 4});
  const ProvenanceRecord back = parse_record(serialize_record(r)).value();
  ASSERT_TRUE(back.is_xref());
  EXPECT_EQ(back.xref().object, "blast/nr.psq");
  EXPECT_EQ(back.xref().version, 4u);
}

TEST(RecordCodecTest, HostileCharactersSurvive) {
  const ProvenanceRecord r =
      make_text_record("ARGV", "gcc -DX='a;b=c' file\nnewline%percent");
  EXPECT_EQ(parse_record(serialize_record(r)), r);
}

TEST(RecordCodecTest, NonXrefAttributeStaysText) {
  // "NAME" is not an xref attribute: a value that looks like obj:1 must not
  // be decoded as a cross-reference.
  const ProvenanceRecord r = make_text_record("NAME", "weird:1");
  const ProvenanceRecord back = parse_record(serialize_record(r)).value();
  EXPECT_FALSE(back.is_xref());
  EXPECT_EQ(back.text(), "weird:1");
}

TEST(RecordCodecTest, ValueWithoutEqualsIsRejected) {
  EXPECT_FALSE(parse_record("TYPEfile").has_value());
  EXPECT_FALSE(parse_record("").has_value());
}

TEST(MetadataCodecTest, RoundTrip) {
  FlushUnit unit;
  unit.object = "data/foo";
  unit.version = 2;
  unit.kind = PnodeKind::kFile;
  unit.records = {make_text_record("TYPE", "file"),
                  make_text_record("NAME", "data/foo"),
                  make_xref_record("INPUT", {"proc/9/1", 3})};
  const S3MetadataEncoding enc = encode_unit_as_metadata(unit);
  EXPECT_TRUE(enc.spilled_indexes.empty());

  const DecodedMetadata decoded = decode_metadata(enc.metadata).value();
  EXPECT_EQ(decoded.object, "data/foo");
  EXPECT_EQ(decoded.version, 2u);
  EXPECT_EQ(decoded.kind, "file");
  ASSERT_EQ(decoded.records.size(), 3u);
  for (const auto& r : unit.records) {
    bool found = false;
    for (const auto& d : decoded.records) found = found || d == r;
    EXPECT_TRUE(found) << r.attribute;
  }
  EXPECT_TRUE(decoded.spill_keys.empty());
}

TEST(MetadataCodecTest, OversizedRecordSpills) {
  FlushUnit unit;
  unit.object = "f";
  unit.version = 1;
  unit.records = {make_text_record("ENV", std::string(1500, 'e')),
                  make_text_record("TYPE", "file")};
  const S3MetadataEncoding enc = encode_unit_as_metadata(unit);
  ASSERT_EQ(enc.spilled_indexes.size(), 1u);
  EXPECT_EQ(enc.spilled_indexes[0], 0u);
  // The in-place value is a pointer.
  const DecodedMetadata decoded = decode_metadata(enc.metadata).value();
  ASSERT_EQ(decoded.spill_keys.size(), 1u);
  EXPECT_EQ(decoded.spill_keys[0], overflow_key("f", 1, 0));
  // Total metadata fits S3's 2 KB limit despite the 1.5 KB record.
  EXPECT_LE(provcloud::aws::metadata_size(enc.metadata), 2048u);
}

TEST(MetadataCodecTest, TotalBudgetForcesSpillsOfSmallRecords) {
  // Many records individually under the 1KB threshold can still overflow
  // S3's 2KB *total* metadata budget; the encoder must spill the largest
  // ones until the envelope fits.
  FlushUnit unit;
  unit.object = "gcc-proc";
  unit.version = 1;
  for (int i = 0; i < 6; ++i)
    unit.records.push_back(
        make_text_record("R" + std::to_string(i), std::string(600, 'r')));
  const S3MetadataEncoding enc = encode_unit_as_metadata(unit);
  EXPECT_LE(provcloud::aws::metadata_size(enc.metadata),
            provcloud::aws::kS3MaxMetadataBytes);
  EXPECT_GE(enc.spilled_indexes.size(), 2u);
  // Spilled + inline still covers every record.
  const DecodedMetadata decoded = decode_metadata(enc.metadata).value();
  EXPECT_EQ(decoded.records.size(), unit.records.size());
}

TEST(MetadataCodecTest, ManyTinyRecordsStayInline) {
  FlushUnit unit;
  unit.object = "o";
  unit.version = 1;
  for (int i = 0; i < 40; ++i)
    unit.records.push_back(make_xref_record("INPUT", {"in" + std::to_string(i), 1}));
  const S3MetadataEncoding enc = encode_unit_as_metadata(unit);
  EXPECT_TRUE(enc.spilled_indexes.empty());
  EXPECT_LE(provcloud::aws::metadata_size(enc.metadata),
            provcloud::aws::kS3MaxMetadataBytes);
}

TEST(MetadataCodecTest, DecodeIgnoresForeignKeys) {
  provcloud::aws::S3Metadata meta{{"x-object", "o"},
                                  {"x-version", "1"},
                                  {"x-kind", "file"},
                                  {"unrelated", "junk"},
                                  {"p0", "TYPE=file"}};
  const DecodedMetadata decoded = decode_metadata(meta).value();
  EXPECT_EQ(decoded.records.size(), 1u);
}

TEST(MetadataCodecTest, CorruptMetadataDecodesToNothing) {
  const provcloud::aws::S3Metadata good{
      {"x-object", "o"}, {"x-version", "4294967295"}, {"p0", "TYPE=file"}};
  ASSERT_TRUE(decode_metadata(good).has_value());
  EXPECT_EQ(decode_metadata(good)->version, 4294967295u);
  const auto with = [&good](const std::string& key, const std::string& value) {
    provcloud::aws::S3Metadata meta = good;
    meta[key] = value;
    return meta;
  };
  EXPECT_FALSE(decode_metadata(with("p0", "TYPEfile")).has_value());
  EXPECT_FALSE(decode_metadata(with("x-version", "abc")).has_value());
  EXPECT_FALSE(decode_metadata(with("x-version", "4294967296")).has_value());
  EXPECT_FALSE(decode_metadata(with("x-version", "")).has_value());
  EXPECT_FALSE(decode_metadata(with("x-version", "7 ")).has_value());
}

TEST(SdbCodecTest, RoundTrip) {
  FlushUnit unit;
  unit.object = "data/out";
  unit.version = 5;
  unit.kind = PnodeKind::kProcess;
  unit.records = {make_text_record("TYPE", "process"),
                  make_xref_record("INPUT", {"a", 1}),
                  make_xref_record("INPUT", {"b", 2})};
  const SdbEncoding enc = encode_unit_as_attributes(unit);
  // x-kind + 3 records.
  EXPECT_EQ(enc.attributes.size(), 4u);

  // Apply to an item the way the backend does, then decode.
  provcloud::aws::SdbItem item;
  for (const auto& a : enc.attributes) item[a.name].insert(a.value);
  const std::vector<ProvenanceRecord> decoded = decode_attributes(item);
  EXPECT_EQ(decoded.size(), 3u);  // x-kind excluded
  for (const auto& r : unit.records) {
    bool found = false;
    for (const auto& d : decoded) found = found || d == r;
    EXPECT_TRUE(found) << r.attribute << "=" << r.value_string();
  }
}

TEST(SdbCodecTest, MultiValuedInputsDoNotReplace) {
  FlushUnit unit;
  unit.object = "o";
  unit.version = 1;
  unit.records = {make_xref_record("INPUT", {"a", 1}),
                  make_xref_record("INPUT", {"b", 1})};
  const SdbEncoding enc = encode_unit_as_attributes(unit);
  for (const auto& a : enc.attributes) {
    if (a.name == "INPUT") {
      EXPECT_FALSE(a.replace);
    }
  }
}

TEST(SdbCodecTest, OversizedValueSpills) {
  FlushUnit unit;
  unit.object = "o";
  unit.version = 1;
  unit.records = {make_text_record("ENV", std::string(2000, 'x'))};
  const SdbEncoding enc = encode_unit_as_attributes(unit);
  ASSERT_EQ(enc.spilled_indexes.size(), 1u);
  bool found_pointer = false;
  for (const auto& a : enc.attributes) {
    EXPECT_LE(a.value.size(), 1024u) << a.name;
    if (a.name == "ENV") {
      EXPECT_EQ(a.value.rfind(kSpillMarker, 0), 0u);
      found_pointer = true;
    }
  }
  EXPECT_TRUE(found_pointer);
}

TEST(SdbCodecTest, Md5AttributeExcludedFromDecode) {
  provcloud::aws::SdbItem item;
  item["MD5"].insert("abcdef");
  item["x-kind"].insert("file");
  item["TYPE"].insert("file");
  EXPECT_EQ(decode_attributes(item).size(), 1u);
}

TEST(SpillTest, OverflowKeyIsDistinctPerRecord) {
  EXPECT_NE(overflow_key("a", 1, 0), overflow_key("a", 1, 1));
  EXPECT_NE(overflow_key("a", 1, 0), overflow_key("a", 2, 0));
  EXPECT_NE(overflow_key("a", 1, 0), overflow_key("b", 1, 0));
  EXPECT_EQ(overflow_key("a", 1, 0).rfind(kOverflowPrefix, 0), 0u);
}

TEST(SpillTest, XrefAttributeDetection) {
  EXPECT_TRUE(is_xref_attribute("INPUT"));
  EXPECT_TRUE(is_xref_attribute("PREV"));
  EXPECT_TRUE(is_xref_attribute("FORKPARENT"));
  EXPECT_FALSE(is_xref_attribute("NAME"));
  EXPECT_FALSE(is_xref_attribute("ENV"));
}

}  // namespace
