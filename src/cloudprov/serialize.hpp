// Wire formats: provenance records <-> S3 metadata, SimpleDB attributes,
// and the overflow-spill pointer convention.
//
// Spills: S3 metadata values and SimpleDB values are limited (2 KB total /
// 1 KB each). Following the paper, any record whose serialized payload
// exceeds the spill threshold (1 KB) is stored as its own S3 object and the
// in-place value becomes a pointer "@s3:<key>".
//
// record_from is the one decoder of a stored value, in place or spilled: an
// xref attribute's "object:version" becomes an xref, anything else text.
// Every reader that resolves a spill pointer hands the fetched object to it,
// so a spilled xref reads back as the xref it was.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "aws/s3/s3.hpp"
#include "aws/simpledb/types.hpp"
#include "pass/local_cache.hpp"
#include "pass/record.hpp"

namespace provcloud::cloudprov {

/// Bucket/domain layout shared by the three architectures.
inline constexpr const char* kDataBucket = "pass-data";
inline constexpr const char* kProvenanceDomain = "provenance";
inline constexpr const char* kOverflowPrefix = ".prov-overflow/";
inline constexpr const char* kTempPrefix = ".tmp/";
/// Records above this serialized size are spilled to their own S3 object.
inline constexpr std::size_t kSpillThreshold = util::kKiB;
/// Marker prefix identifying a spilled value.
inline constexpr const char* kSpillMarker = "@s3:";

/// Item name of (object, version) in the provenance domain: "object:version"
/// -- the paper's "concatenation of the object name and the version".
std::string item_name(const std::string& object, std::uint32_t version);

/// Inverse of item_name; returns false on malformed input, including a
/// version above UINT32_MAX.
bool parse_item_name(const std::string& item, std::string& object,
                     std::uint32_t& version);

/// Overflow object key for record #index of (object, version).
std::string overflow_key(const std::string& object, std::uint32_t version,
                         std::size_t index);

/// One serialized record: attribute plus value rendered as a string (xrefs
/// as "object:version"), fields escaped.
std::string serialize_record(const pass::ProvenanceRecord& record);

/// Parse "attribute=value" back into a record; nullopt without the '='.
/// Values that look like cross-references ("name:digits" with a known xref
/// attribute) are decoded as xrefs.
std::optional<pass::ProvenanceRecord> parse_record(
    const std::string& serialized);

/// True when `attribute` carries cross-references (INPUT, PREV, FORKPARENT).
bool is_xref_attribute(const std::string& attribute);

/// One stored value (already unescaped) back into a record: an xref when
/// `attribute` carries cross-references and `value` is an item name, text
/// otherwise (a spill pointer stays text, for the caller to resolve).
pass::ProvenanceRecord record_from(const std::string& attribute,
                                   const std::string& value);

// --- Architecture 1: records as S3 metadata -------------------------------

/// Metadata rendering of a flush unit. Record i becomes key "p<i>" holding
/// "attribute=value"; bookkeeping keys "x-object", "x-version" and "x-kind"
/// identify the unit. `spills[i]` (parallel to records) is set when record i
/// must go to its own S3 object, in which case the metadata value is the
/// spill pointer.
struct S3MetadataEncoding {
  aws::S3Metadata metadata;
  std::vector<std::size_t> spilled_indexes;  // records needing overflow PUTs
};

S3MetadataEncoding encode_unit_as_metadata(const pass::FlushUnit& unit);

/// Decoded metadata; spill pointers are returned verbatim (value
/// "@s3:<key>") for the caller to resolve.
struct DecodedMetadata {
  std::string object;
  std::uint32_t version = 0;
  std::string kind;
  std::vector<pass::ProvenanceRecord> records;
  std::vector<std::string> spill_keys;  // unresolved overflow pointers
};

/// nullopt when the metadata is corrupt: a record without its '=', or an
/// "x-version" that is not a decimal no larger than UINT32_MAX.
std::optional<DecodedMetadata> decode_metadata(const aws::S3Metadata& metadata);

// --- Architectures 2 & 3: records as SimpleDB attributes ------------------

/// SimpleDB rendering: each record becomes an attribute (name = record
/// attribute, value = serialized value); values above the threshold are
/// replaced by spill pointers. Multi-valued attributes (several INPUTs) are
/// naturally supported by the SimpleDB data model.
struct SdbEncoding {
  std::vector<aws::SdbReplaceableAttribute> attributes;
  std::vector<std::size_t> spilled_indexes;  // indexes into unit.records
};

SdbEncoding encode_unit_as_attributes(const pass::FlushUnit& unit);

/// Decode a SimpleDB item back into records. Spill pointers come back as
/// text records with the "@s3:" value for the caller to resolve.
std::vector<pass::ProvenanceRecord> decode_attributes(const aws::SdbItem& item);

}  // namespace provcloud::cloudprov
