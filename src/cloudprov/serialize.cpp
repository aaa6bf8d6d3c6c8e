#include "cloudprov/serialize.hpp"

#include <cstring>

#include "cloudprov/wire_codec.hpp"
#include "util/require.hpp"
#include "util/string_utils.hpp"

namespace provcloud::cloudprov {

using pass::ProvenanceRecord;

std::string item_name(const std::string& object, std::uint32_t version) {
  return object + ":" + std::to_string(version);
}

bool parse_item_name(const std::string& item, std::string& object,
                     std::uint32_t& version) {
  const std::size_t pos = item.rfind(':');
  if (pos == std::string::npos ||
      !wire::parse_u32(std::string_view(item).substr(pos + 1), version))
    return false;
  object = item.substr(0, pos);
  return true;
}

std::string overflow_key(const std::string& object, std::uint32_t version,
                         std::size_t index) {
  return std::string(kOverflowPrefix) + object + ":" +
         std::to_string(version) + ":" + std::to_string(index);
}

bool is_xref_attribute(const std::string& attribute) {
  return attribute == pass::attr::kInput || attribute == pass::attr::kPrev ||
         attribute == pass::attr::kForkParent;
}

std::string serialize_record(const ProvenanceRecord& record) {
  return util::field_escape(record.attribute) + "=" +
         util::field_escape(record.value_string());
}

ProvenanceRecord record_from(const std::string& attribute,
                             const std::string& value) {
  if (is_xref_attribute(attribute) &&
      value.rfind(kSpillMarker, 0) != 0) {
    std::string object;
    std::uint32_t version = 0;
    if (parse_item_name(value, object, version))
      return pass::make_xref_record(attribute,
                                    pass::ObjectVersion{object, version});
  }
  return pass::make_text_record(attribute, value);
}

std::optional<ProvenanceRecord> parse_record(const std::string& serialized) {
  const std::size_t eq = serialized.find('=');
  if (eq == std::string::npos) return std::nullopt;
  const std::string attribute = util::field_unescape(serialized.substr(0, eq));
  const std::string value = util::field_unescape(serialized.substr(eq + 1));
  return record_from(attribute, value);
}

// --- Architecture 1 --------------------------------------------------------

S3MetadataEncoding encode_unit_as_metadata(const pass::FlushUnit& unit) {
  S3MetadataEncoding out;
  out.metadata["x-object"] = unit.object;
  out.metadata["x-version"] = std::to_string(unit.version);
  out.metadata["x-kind"] = pass::to_string(unit.kind);

  const auto spill_pointer = [&unit](std::size_t i) {
    return util::field_escape(unit.records[i].attribute) + "=" + kSpillMarker +
           overflow_key(unit.object, unit.version, i);
  };

  std::vector<bool> spilled(unit.records.size(), false);
  for (std::size_t i = 0; i < unit.records.size(); ++i) {
    const ProvenanceRecord& r = unit.records[i];
    const std::string key = "p" + std::to_string(i);
    const std::string serialized = serialize_record(r);
    if (serialized.size() > kSpillThreshold) {
      out.metadata[key] = spill_pointer(i);
      spilled[i] = true;
    } else {
      out.metadata[key] = serialized;
    }
  }

  // The per-record threshold is not sufficient: S3 caps the *total* user
  // metadata at 2 KB. Spill the largest remaining records until the whole
  // envelope fits ("We might address this problem by storing provenance
  // overflowing the 2KB limit in separate S3 objects", section 4.1).
  while (aws::metadata_size(out.metadata) > aws::kS3MaxMetadataBytes) {
    std::size_t victim = unit.records.size();
    std::size_t victim_size = 0;
    for (std::size_t i = 0; i < unit.records.size(); ++i) {
      if (spilled[i]) continue;
      const std::size_t s = unit.records[i].payload_size();
      if (victim == unit.records.size() || s > victim_size) {
        victim = i;
        victim_size = s;
      }
    }
    PROVCLOUD_REQUIRE_MSG(victim < unit.records.size(),
                          "metadata cannot fit 2KB even fully spilled: " +
                              unit.object);
    out.metadata["p" + std::to_string(victim)] = spill_pointer(victim);
    spilled[victim] = true;
  }
  for (std::size_t i = 0; i < unit.records.size(); ++i)
    if (spilled[i]) out.spilled_indexes.push_back(i);
  return out;
}

std::optional<DecodedMetadata> decode_metadata(
    const aws::S3Metadata& metadata) {
  DecodedMetadata out;
  for (const auto& [key, value] : metadata) {
    if (key == "x-object") {
      out.object = value;
    } else if (key == "x-version") {
      if (!wire::parse_u32(value, out.version)) return std::nullopt;
    } else if (key == "x-kind") {
      out.kind = value;
    } else if (!key.empty() && key[0] == 'p') {
      std::optional<ProvenanceRecord> r = parse_record(value);
      if (!r) return std::nullopt;
      if (!r->is_xref() && r->text().rfind(kSpillMarker, 0) == 0)
        out.spill_keys.push_back(r->text().substr(std::strlen(kSpillMarker)));
      out.records.push_back(std::move(*r));
    }
  }
  return out;
}

// --- Architectures 2 & 3 ---------------------------------------------------

SdbEncoding encode_unit_as_attributes(const pass::FlushUnit& unit) {
  SdbEncoding out;
  out.attributes.push_back(
      aws::SdbReplaceableAttribute{"x-kind", pass::to_string(unit.kind), true});
  for (std::size_t i = 0; i < unit.records.size(); ++i) {
    const ProvenanceRecord& r = unit.records[i];
    std::string value = r.value_string();
    if (r.attribute.size() + value.size() > kSpillThreshold) {
      value = std::string(kSpillMarker) +
              overflow_key(unit.object, unit.version, i);
      out.spilled_indexes.push_back(i);
    }
    // Multi-valued attributes (several INPUT records) must not replace each
    // other; replace=false and SimpleDB's set semantics keep this idempotent.
    out.attributes.push_back(
        aws::SdbReplaceableAttribute{r.attribute, std::move(value), false});
  }
  return out;
}

std::vector<ProvenanceRecord> decode_attributes(const aws::SdbItem& item) {
  std::vector<ProvenanceRecord> out;
  for (const auto& [name, values] : item) {
    if (name == "x-kind" || name == pass::attr::kMd5) continue;
    for (const std::string& value : values)
      out.push_back(record_from(name, value));
  }
  return out;
}

}  // namespace provcloud::cloudprov
