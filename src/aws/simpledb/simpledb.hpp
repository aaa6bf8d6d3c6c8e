// Amazon SimpleDB simulator (January 2009 feature snapshot).
//
// Provides indexing and querying over items of attribute-value pairs.
// Reads (GetAttributes, Query, QueryWithAttributes, Select) are eventually
// consistent: they are served by a random replica, so "an item inserted
// might not be returned in a query that is run immediately after the
// insert". Writes are idempotent (attribute pairs are sets).
//
// Billing: ops metered on service "sdb". Real SimpleDB billed machine-hours;
// the paper normalizes to operation counts, which is what the meter records
// (src/cost can convert both ways).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "aws/common/env.hpp"
#include "aws/common/errors.hpp"
#include "aws/simpledb/query_language.hpp"
#include "aws/simpledb/types.hpp"
#include "util/spinlock.hpp"

namespace provcloud::aws {

class SimpleDbService {
 public:
  explicit SimpleDbService(CloudEnv& env) : env_(&env) {}
  SimpleDbService(const SimpleDbService&) = delete;
  SimpleDbService& operator=(const SimpleDbService&) = delete;

  AwsResult<void> create_domain(const std::string& domain);
  AwsResult<void> delete_domain(const std::string& domain);
  std::vector<std::string> list_domains();

  /// Insert or modify attributes of an item. At most 100 attributes per
  /// call; the resulting item must stay within 256 pairs; names and values
  /// within 1 KB. Idempotent.
  AwsResult<void> put_attributes(const std::string& domain,
                                 const std::string& item,
                                 const std::vector<SdbReplaceableAttribute>& attrs);

  /// Per-item failure from BatchPutAttributes: `index` of the submitted
  /// entry plus the error the entry would have produced standalone.
  struct BatchItemError {
    std::size_t index = 0;
    AwsError error;
  };
  struct BatchPutResult {
    std::vector<BatchItemError> failed;
    bool ok() const { return failed.empty(); }
  };
  /// Insert or modify up to 25 items in one round trip (one billed call).
  /// Whole-call problems -- missing domain, empty batch, more than 25
  /// entries, duplicate item names -- fail the call and nothing is applied.
  /// Per-item validation failures (oversized names/values, the 256-pair
  /// limit) skip only that entry; the rest apply, and every skipped entry is
  /// reported so the caller can retry or split it.
  AwsResult<BatchPutResult> batch_put_attributes(
      const std::string& domain, const std::vector<SdbBatchEntry>& entries);

  /// Delete specific attribute pairs, all values of named attributes
  /// (empty value), or the whole item (empty list). Idempotent.
  AwsResult<void> delete_attributes(const std::string& domain,
                                    const std::string& item,
                                    const std::vector<SdbAttribute>& attrs = {});

  /// All attributes of an item (or the named subset). A missing item yields
  /// an empty result, as the real service does.
  AwsResult<SdbItem> get_attributes(const std::string& domain,
                                    const std::string& item,
                                    const std::vector<std::string>& names = {});

  struct QueryResult {
    std::vector<std::string> item_names;
    std::optional<std::string> next_token;
  };
  /// Bracket-language query returning item names. Empty expression matches
  /// every item.
  AwsResult<QueryResult> query(const std::string& domain,
                               const std::string& expression,
                               std::size_t max_results = kSdbDefaultQueryResults,
                               const std::string& next_token = "");

  struct ItemWithAttributes {
    std::string name;
    SdbItem attributes;
  };
  struct QueryWithAttributesResult {
    std::vector<ItemWithAttributes> items;
    std::optional<std::string> next_token;
  };
  /// Query returning the matching items *with* their attributes, optionally
  /// restricted to `attribute_filter`.
  AwsResult<QueryWithAttributesResult> query_with_attributes(
      const std::string& domain, const std::string& expression,
      const std::vector<std::string>& attribute_filter = {},
      std::size_t max_results = kSdbDefaultQueryResults,
      const std::string& next_token = "");

  struct SelectResult {
    std::vector<ItemWithAttributes> items;
    std::optional<std::uint64_t> count;  // set for count(*)
    std::optional<std::string> next_token;
  };
  /// SQL-form query ("SELECT provides functionality similar to
  /// QueryWithAttributes"). A WHERE of exactly `itemName() = '...'` or
  /// `itemName() in (...)` looks the listed names up instead of scanning
  /// the domain; an IN list of more than 20 values is an
  /// InvalidQueryExpression.
  AwsResult<SelectResult> select(const std::string& expression,
                                 const std::string& next_token = "");

  /// --- test/verification access (not billed, coordinator view) ---
  std::optional<SdbItem> peek_item(const std::string& domain,
                                   const std::string& item) const;
  std::vector<std::string> peek_item_names(const std::string& domain) const;
  std::uint64_t item_count(const std::string& domain) const;
  std::uint64_t stored_bytes() const { return stored_bytes_; }

 private:
  struct Domain {
    std::vector<SdbDomainData> replicas;  // [0] is the coordinator
    /// Earliest time the next op may apply on each replica: write ops must
    /// apply in issue order (FIFO per replica) or replace-semantics writes
    /// would leave replicas permanently divergent instead of *eventually*
    /// consistent.
    std::vector<sim::SimTime> apply_floor;
    /// Per-domain lock: SimpleDB throttles (and here, serializes) per
    /// domain, so scatter/gather over distinct shard domains runs truly in
    /// parallel while ops on one domain stay linearized. Heap-held to keep
    /// Domain movable into the map; propagation callbacks retake it.
    std::unique_ptr<std::mutex> mu = std::make_unique<std::mutex>();
  };

  Domain* find_domain(const std::string& name);
  const Domain* find_domain(const std::string& name) const;
  /// Shared PutAttributes / BatchPutAttributes validation of one item's
  /// attributes: `max_attrs` per call (100 single, 256 batched), 1 KB
  /// name/value limits and the 256-pair item limit against the coordinator.
  static AwsResult<void> validate_put(
      const Domain& d, const std::string& item,
      const std::vector<SdbReplaceableAttribute>& attrs, std::size_t max_attrs);
  SdbDomainData& pick_replica(Domain& d);
  /// Apply a write op to the coordinator now and to the other replicas
  /// after propagation delays (FIFO per replica). `item` is the touched
  /// item, used for incremental storage accounting.
  void replicate(Domain& d, const std::string& item,
                 std::function<void(SdbDomainData&)> op);
  /// Coordinator-view stored bytes of one item (name + attribute payload).
  static std::uint64_t item_stored_bytes(const SdbDomainData& replica,
                                         const std::string& item);
  void recompute_storage_gauge();

  /// Shared pagination helper: token is a decimal offset.
  static std::size_t token_offset(const std::string& token);

  CloudEnv* env_;
  // Guards the domain map structure only (shared for the per-call domain
  // lookup on every request; exclusive for create/delete).
  mutable std::shared_mutex domains_mu_;
  std::map<std::string, Domain> domains_;
  /// Orders concurrent cross-domain gauge updates and their meter publish.
  util::Spinlock storage_gauge_mu_;
  std::atomic<std::uint64_t> stored_bytes_{0};
};

}  // namespace provcloud::aws
