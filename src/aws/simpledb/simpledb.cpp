#include "aws/simpledb/simpledb.hpp"

#include <algorithm>

#include "util/require.hpp"

namespace provcloud::aws {

namespace {
constexpr const char* kService = "sdb";

std::uint64_t attrs_bytes(const std::vector<SdbReplaceableAttribute>& attrs) {
  std::uint64_t total = 0;
  for (const auto& a : attrs) total += a.name.size() + a.value.size();
  return total;
}

std::uint64_t item_subset_bytes(const SdbItem& item) {
  std::uint64_t total = 0;
  for (const auto& [name, values] : item)
    for (const auto& v : values) total += name.size() + v.size();
  return total;
}
}  // namespace

// ---------------------------------------------------------------------------
// SdbDomainData (types.hpp)
// ---------------------------------------------------------------------------

std::size_t sdb_pair_count(const SdbItem& item) {
  std::size_t n = 0;
  for (const auto& [name, values] : item) n += values.size();
  return n;
}

std::uint64_t sdb_item_bytes(const SdbItem& item) {
  return item_subset_bytes(item);
}

void SdbDomainData::index_add(const std::string& item, const std::string& name,
                              const std::string& value) {
  index[name][value].insert(item);
}

void SdbDomainData::index_remove(const std::string& item,
                                 const std::string& name,
                                 const std::string& value) {
  auto name_it = index.find(name);
  if (name_it == index.end()) return;
  auto value_it = name_it->second.find(value);
  if (value_it == name_it->second.end()) return;
  value_it->second.erase(item);
  if (value_it->second.empty()) name_it->second.erase(value_it);
  if (name_it->second.empty()) index.erase(name_it);
}

void SdbDomainData::apply_put(const std::string& item,
                              const std::vector<SdbReplaceableAttribute>& attrs) {
  SdbItem& target = items[item];
  for (const auto& attr : attrs) {
    auto& values = target[attr.name];
    if (attr.replace) {
      for (const auto& old : values) index_remove(item, attr.name, old);
      values.clear();
    }
    if (values.insert(attr.value).second)
      index_add(item, attr.name, attr.value);
  }
}

void SdbDomainData::apply_delete(const std::string& item,
                                 const std::vector<SdbAttribute>& attrs) {
  auto item_it = items.find(item);
  if (item_it == items.end()) return;  // idempotent
  SdbItem& target = item_it->second;

  if (attrs.empty()) {  // delete the whole item
    for (const auto& [name, values] : target)
      for (const auto& v : values) index_remove(item, name, v);
    items.erase(item_it);
    return;
  }
  for (const auto& attr : attrs) {
    auto name_it = target.find(attr.name);
    if (name_it == target.end()) continue;
    if (attr.value.empty()) {  // all values of this attribute
      for (const auto& v : name_it->second) index_remove(item, attr.name, v);
      target.erase(name_it);
    } else if (name_it->second.erase(attr.value) > 0) {
      index_remove(item, attr.name, attr.value);
      if (name_it->second.empty()) target.erase(name_it);
    }
  }
  if (target.empty()) items.erase(item_it);
}

// ---------------------------------------------------------------------------
// SimpleDbService
// ---------------------------------------------------------------------------

SimpleDbService::Domain* SimpleDbService::find_domain(const std::string& name) {
  std::shared_lock<std::shared_mutex> lock(domains_mu_);
  auto it = domains_.find(name);
  return it == domains_.end() ? nullptr : &it->second;
}

const SimpleDbService::Domain* SimpleDbService::find_domain(
    const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(domains_mu_);
  auto it = domains_.find(name);
  return it == domains_.end() ? nullptr : &it->second;
}

SdbDomainData& SimpleDbService::pick_replica(Domain& d) {
  if (d.replicas.size() == 1) return d.replicas[0];
  return d.replicas[env_->rng_below(d.replicas.size())];
}

std::uint64_t SimpleDbService::item_stored_bytes(const SdbDomainData& replica,
                                                 const std::string& item) {
  auto it = replica.items.find(item);
  if (it == replica.items.end()) return 0;
  return item.size() + item_subset_bytes(it->second);
}

void SimpleDbService::replicate(Domain& d, const std::string& item,
                                std::function<void(SdbDomainData&)> op) {
  // Caller holds d.mu: the coordinator apply and the apply_floor update are
  // covered by it. Replica callbacks retake the lock when the clock fires
  // them (the clock never runs callbacks while holding its own lock).
  const std::uint64_t before = item_stored_bytes(d.replicas[0], item);
  op(d.replicas[0]);  // coordinator applies immediately (durability)
  const std::uint64_t after = item_stored_bytes(d.replicas[0], item);
  {
    // Cross-domain writers share the gauge: update and publish under one
    // lock so a slower thread cannot overwrite a newer total with a stale
    // one (the per-domain mutex orders writes within a domain only).
    std::lock_guard<util::Spinlock> gauge_lock(storage_gauge_mu_);
    stored_bytes_ += after;
    stored_bytes_ -= before;
    env_->meter().set_storage(kService, stored_bytes_.load());
  }
  for (std::size_t i = 1; i < d.replicas.size(); ++i) {
    SdbDomainData* replica = &d.replicas[i];
    std::mutex* mu = d.mu.get();
    // FIFO per replica: an op never applies before an earlier op (equal
    // times fire in schedule order on the event queue).
    sim::SimTime when =
        env_->clock().now() + env_->sample_propagation_delay();
    when = std::max(when, d.apply_floor[i]);
    d.apply_floor[i] = when;
    env_->clock().schedule_at(when, [replica, mu, op] {
      std::lock_guard<std::mutex> lock(*mu);
      op(*replica);
    });
  }
}

void SimpleDbService::recompute_storage_gauge() {
  std::uint64_t total = 0;
  {
    std::shared_lock<std::shared_mutex> map_lock(domains_mu_);
    for (const auto& [name, d] : domains_) {
      std::lock_guard<std::mutex> lock(*d.mu);
      for (const auto& [item, attrs] : d.replicas[0].items)
        total += item.size() + item_subset_bytes(attrs);
    }
  }
  std::lock_guard<util::Spinlock> gauge_lock(storage_gauge_mu_);
  stored_bytes_ = total;
  env_->meter().set_storage(kService, total);
}

AwsResult<void> SimpleDbService::create_domain(const std::string& domain) {
  env_->charge(kService, "CreateDomain", domain.size(), 0, domain);
  std::unique_lock<std::shared_mutex> lock(domains_mu_);
  if (domains_.find(domain) == domains_.end()) {
    Domain d;
    d.replicas.resize(std::max(1u, env_->consistency().replicas));
    d.apply_floor.assign(d.replicas.size(), 0);
    domains_.emplace(domain, std::move(d));
  }
  return {};  // idempotent, like the real call
}

AwsResult<void> SimpleDbService::delete_domain(const std::string& domain) {
  env_->charge(kService, "DeleteDomain", domain.size(), 0, domain);
  {
    std::unique_lock<std::shared_mutex> lock(domains_mu_);
    domains_.erase(domain);
  }
  recompute_storage_gauge();
  return {};
}

std::vector<std::string> SimpleDbService::list_domains() {
  env_->charge(kService, "ListDomains", 0, 0);
  std::shared_lock<std::shared_mutex> lock(domains_mu_);
  std::vector<std::string> out;
  out.reserve(domains_.size());
  for (const auto& [name, d] : domains_) out.push_back(name);
  return out;
}

AwsResult<void> SimpleDbService::validate_put(
    const Domain& d, const std::string& item,
    const std::vector<SdbReplaceableAttribute>& attrs, std::size_t max_attrs) {
  if (attrs.empty())
    return aws_error(AwsErrorCode::kInvalidArgument, "no attributes");
  if (attrs.size() > max_attrs)
    return aws_error(AwsErrorCode::kTooManyAttributes,
                     "more than " + std::to_string(max_attrs) +
                         " attributes for item: " + item);
  if (item.size() > kSdbMaxNameValueBytes)
    return aws_error(AwsErrorCode::kAttributeTooLarge, "item name over 1KB");
  for (const auto& a : attrs) {
    if (a.name.size() > kSdbMaxNameValueBytes ||
        a.value.size() > kSdbMaxNameValueBytes)
      return aws_error(AwsErrorCode::kAttributeTooLarge,
                       "attribute name/value over 1KB: " + a.name);
  }
  // Enforce the 256-pair item limit against the freshest (coordinator) view.
  SdbDomainData preview = {};
  auto it = d.replicas[0].items.find(item);
  SdbItem merged = it == d.replicas[0].items.end() ? SdbItem{} : it->second;
  preview.items[item] = std::move(merged);
  preview.apply_put(item, attrs);
  if (sdb_pair_count(preview.items[item]) > kSdbMaxPairsPerItem)
    return aws_error(AwsErrorCode::kTooManyAttributes,
                     "item would exceed 256 attribute pairs: " + item);
  return {};
}

AwsResult<void> SimpleDbService::put_attributes(
    const std::string& domain, const std::string& item,
    const std::vector<SdbReplaceableAttribute>& attrs) {
  env_->charge(kService, "PutAttributes", attrs_bytes(attrs), 0, domain);
  Domain* d = find_domain(domain);
  if (d == nullptr) return aws_error(AwsErrorCode::kNoSuchDomain, domain);
  std::lock_guard<std::mutex> lock(*d->mu);
  auto valid = validate_put(*d, item, attrs, kSdbMaxAttrsPerCall);
  if (!valid) return valid;
  replicate(*d, item,
            [item, attrs](SdbDomainData& r) { r.apply_put(item, attrs); });
  return {};
}

AwsResult<SimpleDbService::BatchPutResult>
SimpleDbService::batch_put_attributes(const std::string& domain,
                                      const std::vector<SdbBatchEntry>& entries) {
  // Billed like PutAttributes (attribute payload only) so batched and
  // legacy writes of the same record meter identical bytes.
  std::uint64_t bytes = 0;
  for (const auto& e : entries) bytes += attrs_bytes(e.attrs);
  env_->charge(kService, "BatchPutAttributes", bytes, 0, domain);
  Domain* d = find_domain(domain);
  if (d == nullptr) return aws_error(AwsErrorCode::kNoSuchDomain, domain);
  if (entries.empty())
    return aws_error(AwsErrorCode::kInvalidArgument, "empty batch");
  if (entries.size() > kSdbMaxItemsPerBatch)
    return aws_error(AwsErrorCode::kTooManySubmittedItems,
                     "more than 25 items in one BatchPutAttributes");
  {
    std::set<std::string> seen;
    for (const auto& e : entries)
      if (!seen.insert(e.item).second)
        return aws_error(AwsErrorCode::kDuplicateItemName, e.item);
  }
  std::lock_guard<std::mutex> lock(*d->mu);
  BatchPutResult result;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const SdbBatchEntry& e = entries[i];
    auto valid = validate_put(*d, e.item, e.attrs, kSdbMaxPairsPerItem);
    if (!valid) {
      result.failed.push_back(BatchItemError{i, valid.error()});
      continue;
    }
    replicate(*d, e.item, [item = e.item, attrs = e.attrs](SdbDomainData& r) {
      r.apply_put(item, attrs);
    });
  }
  return result;
}

AwsResult<void> SimpleDbService::delete_attributes(
    const std::string& domain, const std::string& item,
    const std::vector<SdbAttribute>& attrs) {
  std::uint64_t bytes = 0;
  for (const auto& a : attrs) bytes += a.name.size() + a.value.size();
  env_->charge(kService, "DeleteAttributes", bytes, 0, domain);
  Domain* d = find_domain(domain);
  if (d == nullptr) return aws_error(AwsErrorCode::kNoSuchDomain, domain);
  std::lock_guard<std::mutex> lock(*d->mu);
  replicate(*d, item,
            [item, attrs](SdbDomainData& r) { r.apply_delete(item, attrs); });
  return {};
}

AwsResult<SdbItem> SimpleDbService::get_attributes(
    const std::string& domain, const std::string& item,
    const std::vector<std::string>& names) {
  Domain* d = find_domain(domain);
  if (d == nullptr) {
    env_->charge(kService, "GetAttributes", 0, 0, domain);
    return aws_error(AwsErrorCode::kNoSuchDomain, domain);
  }
  SdbItem out;
  {
    std::lock_guard<std::mutex> lock(*d->mu);
    const SdbDomainData& replica = pick_replica(*d);
    auto it = replica.items.find(item);
    if (it != replica.items.end()) {
      if (names.empty()) {
        out = it->second;
      } else {
        for (const std::string& n : names) {
          auto attr_it = it->second.find(n);
          if (attr_it != it->second.end()) out[n] = attr_it->second;
        }
      }
    }
  }
  env_->charge(kService, "GetAttributes", 0, item_subset_bytes(out), domain);
  return out;
}

std::size_t SimpleDbService::token_offset(const std::string& token) {
  if (token.empty()) return 0;
  try {
    return std::stoul(token);
  } catch (...) {
    return 0;
  }
}

AwsResult<SimpleDbService::QueryResult> SimpleDbService::query(
    const std::string& domain, const std::string& expression,
    std::size_t max_results, const std::string& next_token) {
  Domain* d = find_domain(domain);
  if (d == nullptr) {
    env_->charge(kService, "Query", expression.size(), 0, domain);
    return aws_error(AwsErrorCode::kNoSuchDomain, domain);
  }
  max_results = std::min(std::max<std::size_t>(1, max_results),
                         kSdbMaxQueryResults);
  std::unique_lock<std::mutex> lock(*d->mu);
  const SdbDomainData& replica = pick_replica(*d);

  std::set<std::string> matches;
  if (expression.empty()) {
    for (const auto& [name, item] : replica.items) matches.insert(name);
  } else {
    auto parsed = sdbql::parse_query(expression);
    if (!parsed) {
      lock.unlock();
      env_->charge(kService, "Query", expression.size(), 0, domain);
      return aws_error(AwsErrorCode::kInvalidQueryExpression, parsed.error());
    }
    matches = sdbql::evaluate(*parsed, replica);
  }

  QueryResult out;
  const std::size_t offset = token_offset(next_token);
  std::size_t i = 0;
  std::uint64_t bytes_out = 0;
  for (const std::string& name : matches) {
    if (i++ < offset) continue;
    if (out.item_names.size() == max_results) {
      out.next_token = std::to_string(offset + max_results);
      break;
    }
    bytes_out += name.size();
    out.item_names.push_back(name);
  }
  lock.unlock();
  env_->charge(kService, "Query", expression.size(), bytes_out, domain);
  return out;
}

AwsResult<SimpleDbService::QueryWithAttributesResult>
SimpleDbService::query_with_attributes(
    const std::string& domain, const std::string& expression,
    const std::vector<std::string>& attribute_filter, std::size_t max_results,
    const std::string& next_token) {
  Domain* d = find_domain(domain);
  if (d == nullptr) {
    env_->charge(kService, "QueryWithAttributes", expression.size(), 0, domain);
    return aws_error(AwsErrorCode::kNoSuchDomain, domain);
  }
  max_results = std::min(std::max<std::size_t>(1, max_results),
                         kSdbMaxQueryResults);
  std::unique_lock<std::mutex> lock(*d->mu);
  const SdbDomainData& replica = pick_replica(*d);

  std::set<std::string> matches;
  if (expression.empty()) {
    for (const auto& [name, item] : replica.items) matches.insert(name);
  } else {
    auto parsed = sdbql::parse_query(expression);
    if (!parsed) {
      lock.unlock();
      env_->charge(kService, "QueryWithAttributes", expression.size(), 0,
                   domain);
      return aws_error(AwsErrorCode::kInvalidQueryExpression, parsed.error());
    }
    matches = sdbql::evaluate(*parsed, replica);
  }

  QueryWithAttributesResult out;
  const std::size_t offset = token_offset(next_token);
  std::size_t i = 0;
  std::uint64_t bytes_out = 0;
  for (const std::string& name : matches) {
    if (i++ < offset) continue;
    if (out.items.size() == max_results) {
      out.next_token = std::to_string(offset + max_results);
      break;
    }
    const SdbItem& full = replica.items.at(name);
    SdbItem picked;
    if (attribute_filter.empty()) {
      picked = full;
    } else {
      for (const std::string& n : attribute_filter) {
        auto it = full.find(n);
        if (it != full.end()) picked[n] = it->second;
      }
    }
    bytes_out += name.size() + item_subset_bytes(picked);
    out.items.push_back(ItemWithAttributes{name, std::move(picked)});
  }
  lock.unlock();
  env_->charge(kService, "QueryWithAttributes", expression.size(), bytes_out,
               domain);
  return out;
}

AwsResult<SimpleDbService::SelectResult> SimpleDbService::select(
    const std::string& expression, const std::string& next_token) {
  auto parsed = sdbql::parse_select(expression);
  if (!parsed) {
    env_->charge(kService, "Select", expression.size(), 0);  // domain unknown
    return aws_error(AwsErrorCode::kInvalidQueryExpression, parsed.error());
  }
  const sdbql::SelectStatement& stmt = *parsed;
  Domain* d = find_domain(stmt.domain);
  if (d == nullptr) {
    env_->charge(kService, "Select", expression.size(), 0, stmt.domain);
    return aws_error(AwsErrorCode::kNoSuchDomain, stmt.domain);
  }
  std::unique_lock<std::mutex> lock(*d->mu);
  const SdbDomainData& replica = pick_replica(*d);
  // The matching items, in result order, as entries of the replica's map:
  // each row below is built once from its entry.
  using Entry = std::map<std::string, SdbItem>::value_type;
  std::vector<const Entry*> matches;
  const std::vector<const std::string*> listed =
      sdbql::listed_item_names(stmt.where.get());
  if (!listed.empty() &&
      (stmt.order_by.empty() || stmt.order_by == "itemName()")) {
    // itemName() = / in (...): seek each listed name instead of scanning,
    // and answer as the scan would -- in item-name order, each item once.
    for (const std::string* name : listed) {
      auto it = replica.items.find(*name);
      if (it != replica.items.end()) matches.push_back(&*it);
    }
    std::sort(matches.begin(), matches.end(),
              [](const Entry* a, const Entry* b) { return a->first < b->first; });
    matches.erase(std::unique(matches.begin(), matches.end()), matches.end());
    if (stmt.order_descending) std::reverse(matches.begin(), matches.end());
  } else {
    for (const std::string& name : sdbql::evaluate_select_order(stmt, replica))
      matches.push_back(&*replica.items.find(name));
  }

  SelectResult out;
  std::uint64_t bytes_out = 0;
  if (stmt.output == sdbql::SelectOutput::kCount) {
    out.count = matches.size();
    bytes_out = sizeof(std::uint64_t);
    lock.unlock();
    env_->charge(kService, "Select", expression.size(), bytes_out, stmt.domain);
    return out;
  }
  const std::size_t offset = token_offset(next_token);
  out.items.reserve(std::min(matches.size(), stmt.limit));
  std::size_t i = 0;
  for (const Entry* entry : matches) {
    if (i++ < offset) continue;
    if (out.items.size() == stmt.limit) {
      out.next_token = std::to_string(offset + stmt.limit);
      break;
    }
    ItemWithAttributes row;
    row.name = entry->first;
    const SdbItem& full = entry->second;
    switch (stmt.output) {
      case sdbql::SelectOutput::kAllAttributes:
        row.attributes = full;
        break;
      case sdbql::SelectOutput::kItemName:
        break;  // name only
      case sdbql::SelectOutput::kAttributeList:
        for (const std::string& n : stmt.output_attributes) {
          auto it = full.find(n);
          if (it != full.end()) row.attributes[n] = it->second;
        }
        break;
      case sdbql::SelectOutput::kCount:
        break;  // unreachable
    }
    bytes_out += row.name.size() + item_subset_bytes(row.attributes);
    out.items.push_back(std::move(row));
  }
  lock.unlock();
  env_->charge(kService, "Select", expression.size(), bytes_out, stmt.domain);
  return out;
}

std::optional<SdbItem> SimpleDbService::peek_item(const std::string& domain,
                                                  const std::string& item) const {
  const Domain* d = find_domain(domain);
  if (d == nullptr) return std::nullopt;
  std::lock_guard<std::mutex> lock(*d->mu);
  auto it = d->replicas[0].items.find(item);
  if (it == d->replicas[0].items.end()) return std::nullopt;
  return it->second;
}

std::vector<std::string> SimpleDbService::peek_item_names(
    const std::string& domain) const {
  const Domain* d = find_domain(domain);
  if (d == nullptr) return {};
  std::lock_guard<std::mutex> lock(*d->mu);
  std::vector<std::string> out;
  out.reserve(d->replicas[0].items.size());
  for (const auto& [name, item] : d->replicas[0].items) out.push_back(name);
  return out;
}

std::uint64_t SimpleDbService::item_count(const std::string& domain) const {
  const Domain* d = find_domain(domain);
  if (d == nullptr) return 0;
  std::lock_guard<std::mutex> lock(*d->mu);
  return d->replicas[0].items.size();
}

}  // namespace provcloud::aws
