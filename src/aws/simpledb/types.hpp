// SimpleDB data model (January 2009 snapshot).
//
// A *domain* holds *items*; an item is a named set of attribute-value pairs.
// Attributes are multi-valued and set-semantic: storing the same (name,
// value) pair twice yields one pair, which is what makes PutAttributes
// idempotent (section 2.2 of the paper). Everything is a string; comparisons
// in the query language are lexicographic.
//
// Limits the paper leans on:
//   * names and values at most 1 KB  -> provenance values above 1 KB must be
//     spilled to S3 (Architectures 2 and 3);
//   * at most 256 attribute pairs per item;
//   * at most 100 attributes per PutAttributes call -> storing a big
//     provenance record takes multiple calls;
//   * at most 20 comparisons per Select expression -> a batched read of
//     `itemName() in (...)` names at most 20 items per call.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "util/bytes.hpp"

namespace provcloud::aws {

inline constexpr std::size_t kSdbMaxNameValueBytes = util::kKiB;
inline constexpr std::size_t kSdbMaxPairsPerItem = 256;
inline constexpr std::size_t kSdbMaxAttrsPerCall = 100;
inline constexpr std::size_t kSdbMaxItemsPerBatch = 25;
inline constexpr std::size_t kSdbMaxQueryResults = 250;
inline constexpr std::size_t kSdbDefaultQueryResults = 100;
inline constexpr std::size_t kSdbMaxSelectComparisons = 20;

struct SdbAttribute {
  std::string name;
  std::string value;

  bool operator==(const SdbAttribute&) const = default;
  auto operator<=>(const SdbAttribute&) const = default;
};

/// Attribute as sent to PutAttributes: `replace` discards existing values of
/// the same name first (SimpleDB's Replace flag).
struct SdbReplaceableAttribute {
  std::string name;
  std::string value;
  bool replace = false;
};

/// One item's puts inside a BatchPutAttributes call. Unlike PutAttributes'
/// 100-attribute-per-call ceiling, a batch entry may carry attributes up to
/// the full 256-pair item limit, so a record that used to take several
/// PutAttributes round trips fits one batch entry.
struct SdbBatchEntry {
  std::string item;
  std::vector<SdbReplaceableAttribute> attrs;
};

/// An item's attributes: name -> set of values.
using SdbItem = std::map<std::string, std::set<std::string>>;

/// Number of (name, value) pairs in an item.
std::size_t sdb_pair_count(const SdbItem& item);

/// Bytes of attribute payload in an item (sum of name+value sizes per pair).
std::uint64_t sdb_item_bytes(const SdbItem& item);

/// One replica's view of a domain: the items plus the automatic index
/// SimpleDB maintains ("SimpleDB automatically indexes data as it is
/// inserted"). The index maps attribute name -> value -> item names and is
/// what makes Query selective instead of a scan.
struct SdbDomainData {
  std::map<std::string, SdbItem> items;
  std::map<std::string, std::map<std::string, std::set<std::string>>> index;

  void apply_put(const std::string& item,
                 const std::vector<SdbReplaceableAttribute>& attrs);
  /// Empty `attrs` deletes the whole item.
  void apply_delete(const std::string& item,
                    const std::vector<SdbAttribute>& attrs);

 private:
  void index_add(const std::string& item, const std::string& name,
                 const std::string& value);
  void index_remove(const std::string& item, const std::string& name,
                    const std::string& value);
};

}  // namespace provcloud::aws
