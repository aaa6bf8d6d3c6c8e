#include "cloudprov/sdb_backend.hpp"

#include <algorithm>
#include <cstring>
#include <functional>
#include <map>
#include <optional>
#include <span>

#include "cloudprov/consistency_read.hpp"
#include "cloudprov/serialize.hpp"
#include "cloudprov/session.hpp"
#include "cloudprov/wire_codec.hpp"
#include "util/md5.hpp"
#include "util/require.hpp"

namespace provcloud::cloudprov {

namespace {
const util::SharedBytes kEmptyBytes = util::make_shared_bytes(util::Bytes{});

/// Replace every spill pointer ("@s3:<key>") in `records` with the S3
/// object it names, retrying each GET against propagation races.
BackendResult<void> resolve_spills(CloudServices& services,
                                   std::vector<pass::ProvenanceRecord>& records,
                                   std::uint32_t max_retries) {
  for (pass::ProvenanceRecord& r : records) {
    if (r.is_xref()) continue;
    if (r.text().rfind(kSpillMarker, 0) != 0) continue;
    const std::string key = r.text().substr(std::strlen(kSpillMarker));
    bool resolved = false;
    for (std::uint32_t attempt = 0; attempt <= max_retries; ++attempt) {
      if (attempt > 0)
        charge_read_retry(*services.env);
      auto got = services.s3.get(kDataBucket, key);
      if (!got) continue;
      r = record_from(r.attribute, *got->data);
      resolved = true;
      break;
    }
    if (!resolved)
      return backend_error(BackendErrorCode::kConsistencyExhausted,
                           "unresolvable provenance overflow object: " + key);
  }
  return {};
}

/// One item a fetch wants: its shard and name, an input slot that asked
/// for it, and its attributes once a replica answered.
struct WantedItem {
  std::size_t shard = 0;
  std::string name;
  std::size_t slot = 0;
  std::optional<aws::SdbItem> attrs;
};
using WantedIter = std::vector<WantedItem*>::const_iterator;

/// `select * from `<domain>` where itemName() in ('a', ...)` over
/// [first, last), a quote inside a name doubled.
std::string select_items_expression(const std::string& domain,
                                    WantedIter first, WantedIter last) {
  std::size_t size = domain.size() + 48;
  for (auto it = first; it != last; ++it) size += (*it)->name.size() + 4;
  std::string out;
  out.reserve(size);
  out.append("select * from `").append(domain).append("` where itemName() in (");
  for (auto it = first; it != last; ++it) {
    out += it == first ? "'" : ", '";
    const std::string& name = (*it)->name;
    for (std::size_t from = 0;;) {
      const std::size_t quote = name.find('\'', from);
      if (quote == std::string::npos) {
        out.append(name, from);
        break;
      }
      out.append(name, from, quote + 1 - from).push_back('\'');
      from = quote + 1;
    }
    out.push_back('\'');
  }
  out.push_back(')');
  return out;
}

/// Fetch the attributes of one shard domain's wanted items (distinct, in
/// name order): each round asks for the names no replica has answered yet,
/// at most kSdbMaxSelectComparisons per call (a lone name is a
/// GetAttributes, the cheaper request); a name an answer lacks is a
/// propagation race, asked again next round, for up to max_retries rounds.
void fetch_domain_items(CloudServices& services, const std::string& domain,
                        std::span<WantedItem> items,
                        std::uint32_t max_retries) {
  std::vector<WantedItem*> pending;
  pending.reserve(items.size());
  for (WantedItem& item : items) pending.push_back(&item);
  for (std::uint32_t attempt = 0; attempt <= max_retries && !pending.empty();
       ++attempt) {
    if (attempt > 0)
      charge_read_retry(*services.env);
    // Even calls: n >= 2 names never leave a lone name for a call of its
    // own, so they cost ceil(n / 20) Selects.
    const std::size_t n = pending.size();
    const std::size_t calls =
        (n + aws::kSdbMaxSelectComparisons - 1) / aws::kSdbMaxSelectComparisons;
    for (std::size_t call = 0; call < calls; ++call) {
      const WantedIter from =
          pending.cbegin() + static_cast<std::ptrdiff_t>(call * n / calls);
      const WantedIter to =
          pending.cbegin() + static_cast<std::ptrdiff_t>((call + 1) * n / calls);
      if (to - from == 1) {
        auto got = services.sdb.get_attributes(domain, (*from)->name);
        if (got && !got->empty()) (*from)->attrs = std::move(*got);
        continue;
      }
      auto got = services.sdb.select(select_items_expression(domain, from, to));
      if (!got) continue;
      // Rows come back in name order, as `pending` lists the names.
      WantedIter want = from;
      for (aws::SimpleDbService::ItemWithAttributes& row : got->items) {
        while (want != to && (*want)->name < row.name) ++want;
        if (want != to && (*want)->name == row.name)
          (*want)->attrs = std::move(row.attributes);
      }
    }
    std::erase_if(pending, [](const WantedItem* item) {
      return item->attrs.has_value();
    });
  }
}

/// The records of a fetched item, its spill pointers resolved; an item no
/// replica answered is kConsistencyExhausted.
BackendResult<std::vector<pass::ProvenanceRecord>> item_records(
    CloudServices& services, const WantedItem& item,
    std::uint32_t max_retries) {
  if (!item.attrs)
    return backend_error(BackendErrorCode::kConsistencyExhausted,
                         "provenance item never became visible: " + item.name);
  std::vector<pass::ProvenanceRecord> records = decode_attributes(*item.attrs);
  auto resolved = resolve_spills(services, records, max_retries);
  if (!resolved) return util::Unexpected(resolved.error());
  return records;
}
}  // namespace

// ---------------------------------------------------------------------------
// Shared consistency machinery (consistency_read.hpp)
// ---------------------------------------------------------------------------

std::string nonce_for_version(std::uint32_t version) {
  return std::to_string(version);
}

std::vector<std::string> group_md5_tokens(
    const std::vector<TicketState*>& group) {
  std::vector<std::string> nonces;
  nonces.reserve(group.size());
  for (const TicketState* ticket : group)
    nonces.push_back(nonce_for_version(ticket->unit.version));
  std::vector<util::NoncedMessage> messages;
  messages.reserve(group.size());
  for (std::size_t i = 0; i < group.size(); ++i) {
    const util::SharedBytes& data = group[i]->unit.data;
    messages.push_back(util::NoncedMessage{
        data != nullptr ? *data : *kEmptyBytes, nonces[i]});
  }
  return util::md5_with_nonce_many(messages);
}

BackendResult<std::vector<pass::ProvenanceRecord>> fetch_sdb_provenance(
    CloudServices& services, const DomainTopology& topology,
    const std::string& object, std::uint32_t version,
    std::uint32_t max_retries) {
  WantedItem item{topology.shard_of(object), item_name(object, version), 0,
                  std::nullopt};
  fetch_domain_items(services, topology.domains()[item.shard], {&item, 1},
                     max_retries);
  return item_records(services, item, max_retries);
}

std::vector<BackendResult<std::vector<pass::ProvenanceRecord>>>
fetch_sdb_provenance_many(CloudServices& services,
                          const DomainTopology& topology,
                          const std::vector<pass::ObjectVersion>& ids,
                          std::uint32_t max_retries) {
  std::vector<BackendResult<std::vector<pass::ProvenanceRecord>>> out(
      ids.size(), backend_error(BackendErrorCode::kUnknown, "not fetched"));
  // The wanted items grouped by shard domain, each distinct name once, in
  // name order; a repeated id copies the answer of the slot it repeats.
  std::vector<WantedItem> wanted;
  wanted.reserve(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i)
    wanted.push_back(WantedItem{topology.shard_of(ids[i].object),
                                item_name(ids[i].object, ids[i].version), i,
                                std::nullopt});
  std::sort(wanted.begin(), wanted.end(),
            [](const WantedItem& a, const WantedItem& b) {
              return a.shard != b.shard ? a.shard < b.shard : a.name < b.name;
            });
  std::vector<std::pair<std::size_t, std::size_t>> repeats;  // slot, of slot
  std::size_t kept = 0;
  for (std::size_t i = 0; i < wanted.size(); ++i) {
    if (kept > 0 && wanted[i].name == wanted[kept - 1].name)
      repeats.emplace_back(wanted[i].slot, wanted[kept - 1].slot);
    else if (kept++ != i)
      wanted[kept - 1] = std::move(wanted[i]);
  }
  wanted.resize(kept);

  // One task per shard domain, in shard order.
  std::vector<std::function<void()>> tasks;
  for (auto first = wanted.begin(); first != wanted.end();) {
    const auto last = std::find_if(first, wanted.end(), [&](const WantedItem& w) {
      return w.shard != first->shard;
    });
    tasks.push_back([&services, &out, max_retries,
                     domain = &topology.domains()[first->shard],
                     items = std::span<WantedItem>(first, last)] {
      fetch_domain_items(services, *domain, items, max_retries);
      for (const WantedItem& item : items)
        out[item.slot] = item_records(services, item, max_retries);
    });
    first = last;
  }
  topology.run_tasks(std::move(tasks));
  for (const auto& [slot, of] : repeats) out[slot] = out[of];
  return out;
}

BackendResult<ReadResult> consistency_checked_read(
    CloudServices& services, const DomainTopology& topology,
    const std::string& object, std::uint32_t max_retries) {
  ReadResult best;
  bool have_any = false;
  for (std::uint32_t attempt = 0; attempt <= max_retries; ++attempt) {
    // Each retry round is a client backoff: charge it as idle wait so the
    // consistency loop's elapsed-time cost is visible on the timeline.
    if (attempt > 0)
      charge_read_retry(*services.env);
    // Round part 1: the data and its nonce from S3.
    auto got = services.s3.get(kDataBucket, object);
    if (!got) continue;  // propagation race
    auto nonce_it = got->metadata.find(kNonceMetaKey);
    if (nonce_it == got->metadata.end()) continue;
    const std::string nonce = nonce_it->second;
    std::uint32_t version = 0;
    if (!wire::parse_u32(nonce, version)) continue;  // malformed: no pair

    // Round part 2: the provenance item named by the nonce.
    const std::string item = item_name(object, version);
    auto attrs =
        services.sdb.get_attributes(topology.domain_for_object(object), item);
    if (!attrs || attrs->empty()) continue;

    // Round part 3: the MD5(data || nonce) comparison.
    auto md5_it = attrs->find(kMd5Attribute);
    if (md5_it == attrs->end() || md5_it->second.empty()) continue;
    const std::string expected = *md5_it->second.begin();
    const std::string actual = util::md5_with_nonce(*got->data, nonce);

    best.data = got->data;
    best.records = decode_attributes(*attrs);
    best.version = version;
    best.retries = attempt;
    have_any = true;
    if (actual == expected) {
      // A verified pair: its spill pointers resolve from the attributes
      // already in hand. A pair whose spill never resolves is no answer.
      auto resolved = resolve_spills(services, best.records, max_retries);
      if (!resolved) return util::Unexpected(resolved.error());
      best.verified = true;
      return best;
    }
  }
  if (!have_any)
    return backend_error(BackendErrorCode::kNotFound,
                         "object never became readable: " + object);
  best.verified = false;  // retries exhausted: the pair may be mismatched
  return best;
}

void put_item_chunks(CloudServices& services, const std::string& domain,
                     const std::string& item,
                     const std::vector<aws::SdbReplaceableAttribute>& attrs,
                     const char* crash_point) {
  for (std::size_t start = 0; start < attrs.size();
       start += aws::kSdbMaxAttrsPerCall) {
    const std::size_t end =
        std::min(start + aws::kSdbMaxAttrsPerCall, attrs.size());
    std::vector<aws::SdbReplaceableAttribute> chunk(
        attrs.begin() + static_cast<std::ptrdiff_t>(start),
        attrs.begin() + static_cast<std::ptrdiff_t>(end));
    auto put = services.sdb.put_attributes(domain, item, chunk);
    PROVCLOUD_REQUIRE_MSG(put.has_value(),
                          "PutAttributes failed: " + put.error().message);
    if (crash_point != nullptr)
      services.env->failures().crash_point(crash_point);
  }
}

void batch_put_items(CloudServices& services, const std::string& domain,
                     std::vector<aws::SdbBatchEntry> entries,
                     std::size_t batch_size, const char* crash_point) {
  const std::size_t limit =
      std::clamp<std::size_t>(batch_size, 1, aws::kSdbMaxItemsPerBatch);
  while (!entries.empty()) {
    std::vector<aws::SdbBatchEntry> call;
    std::vector<aws::SdbBatchEntry> rest;
    call.reserve(std::min(limit, entries.size()));
    for (aws::SdbBatchEntry& e : entries) {
      const bool fits =
          call.size() < limit &&
          std::none_of(call.begin(), call.end(),
                       [&e](const aws::SdbBatchEntry& c) {
                         return c.item == e.item;
                       });
      (fits ? call : rest).push_back(std::move(e));
    }
    auto put = services.sdb.batch_put_attributes(domain, call);
    PROVCLOUD_REQUIRE_MSG(put.has_value(), "BatchPutAttributes failed: " +
                                               put.error().message);
    PROVCLOUD_REQUIRE_MSG(put->ok(), "BatchPutAttributes rejected item: " +
                                         put->failed.front().error.message);
    if (crash_point != nullptr)
      services.env->failures().crash_point(crash_point);
    entries = std::move(rest);
  }
}

// ---------------------------------------------------------------------------
// SdbBackend
// ---------------------------------------------------------------------------

SdbBackend::SdbBackend(CloudServices& services, SdbBackendConfig config)
    : ProvenanceBackend(services,
                        TopologyConfig{.shard_count = config.shard_count,
                                       .parallelism = config.parallelism}),
      config_(config) {
  topology_->ensure_domains(services_->sdb);
}

void SdbBackend::commit_group(const std::vector<TicketState*>& group) {
  aws::CloudEnv& env = *services_->env;
  struct PreparedUnit {
    TicketState* ticket = nullptr;
    std::string item;
    const std::string* domain = nullptr;
    std::vector<aws::SdbReplaceableAttribute> attributes;
    /// Causal wave within the group: a batch call may only carry items
    /// whose intra-group ancestors were written by an earlier call, so a
    /// crash between calls can never leave a stored item referencing an
    /// unstored one (the claim Table 1 scores for this architecture).
    std::size_t level = 0;
  };
  std::vector<PreparedUnit> prepared;
  prepared.reserve(group.size());
  std::map<std::string, std::size_t> item_of;  // item name -> prepared index

  // Phase 1, per close in submit order: spill oversized values to S3 and
  // encode the provenance attributes. No SimpleDB traffic yet.
  std::vector<std::string> tokens = group_md5_tokens(group);
  for (std::size_t i = 0; i < group.size(); ++i) {
    TicketState* ticket = group[i];
    const pass::FlushUnit& unit = ticket->unit;
    env.failures().crash_point("sdb.store.begin");
    SdbEncoding enc = encode_unit_as_attributes(unit);
    {
      // Spill PUTs are exclusive to this close: in-flight closes overlap
      // them, so they land on the ticket's own timeline.
      sim::LatencyLedger::ScopedTimeline bind(env.latency_ledger(),
                                              ticket->timeline);
      for (std::size_t index : enc.spilled_indexes) {
        const pass::ProvenanceRecord& r = unit.records[index];
        const std::string key = overflow_key(unit.object, unit.version, index);
        auto put = services_->s3.put(kDataBucket, key, r.value_string());
        PROVCLOUD_REQUIRE_MSG(put.has_value(),
                              "overflow PUT failed: " + put.error().message);
        env.failures().crash_point("sdb.store.after_overflow_put");
      }
    }
    enc.attributes.push_back(aws::SdbReplaceableAttribute{
        kMd5Attribute, std::move(tokens[i]), true});

    PreparedUnit p;
    p.ticket = ticket;
    p.item = item_name(unit.object, unit.version);
    p.domain = &topology_->domain_for_object(unit.object);
    p.attributes = std::move(enc.attributes);
    for (const pass::ProvenanceRecord& r : unit.records) {
      if (!r.is_xref()) continue;
      auto dep = item_of.find(item_name(r.xref().object, r.xref().version));
      if (dep != item_of.end())
        p.level = std::max(p.level, prepared[dep->second].level + 1);
    }
    auto [slot, inserted] = item_of.emplace(p.item, prepared.size());
    if (!inserted) {
      // The same (object, version) submitted twice in one group: the
      // writes must not share a batch call (duplicate item names are
      // rejected) and the later submit must win, so it rides a later wave.
      p.level = std::max(p.level, prepared[slot->second].level + 1);
      slot->second = prepared.size();
    }
    prepared.push_back(std::move(p));
  }

  // Phase 2: provenance into the shard domains. Batched path: the whole
  // group coalesces into BatchPutAttributes calls of up to batch_size
  // (<= 25) items per shard domain, wave by wave -- the cross-close group
  // commit. Legacy path (batch_size == 1): the paper's PutAttributes
  // chunking, one item at a time in submit (causal) order.
  if (config_.batch_size <= 1) {
    for (const PreparedUnit& p : prepared)
      put_item_chunks(*services_, *p.domain, p.item, p.attributes,
                      "sdb.store.mid_putattrs");
  } else {
    std::size_t max_level = 0;
    for (const PreparedUnit& p : prepared)
      max_level = std::max(max_level, p.level);
    env.metrics().histogram("sdb.causal_waves").record(max_level + 1);
    for (std::size_t level = 0; level <= max_level; ++level) {
      std::map<std::string, std::vector<aws::SdbBatchEntry>> by_domain;
      std::size_t wave_items = 0;
      for (PreparedUnit& p : prepared)
        if (p.level == level) {
          by_domain[*p.domain].push_back(
              aws::SdbBatchEntry{p.item, std::move(p.attributes)});
          ++wave_items;
        }
      obs::Span wave_span(&env.tracer(), "sdb.wave", "sdb");
      wave_span.arg("level", static_cast<std::uint64_t>(level));
      wave_span.arg("items", static_cast<std::uint64_t>(wave_items));
      wave_span.arg("domains", static_cast<std::uint64_t>(by_domain.size()));
      for (auto& [domain, entries] : by_domain)
        batch_put_items(*services_, domain, std::move(entries),
                        config_.batch_size, "sdb.store.mid_putattrs");
    }
  }

  // *** The atomicity hole, now group-wide: a crash here leaves one orphan
  // provenance item per close in the group. ***
  env.failures().crash_point("sdb.store.between_prov_and_data");

  // Phase 3: data to S3 in submit order, the nonce riding as metadata.
  // Transient pnodes (processes, pipes) have no data: their provenance
  // lives only in SimpleDB, exactly as in the paper (its Raw column counts
  // file PUTs while its item count includes every transient version).
  for (PreparedUnit& p : prepared) {
    const pass::FlushUnit& unit = p.ticket->unit;
    if (unit.kind == pass::PnodeKind::kFile) {
      const util::SharedBytes data =
          unit.data != nullptr ? unit.data : kEmptyBytes;
      aws::S3Metadata meta;
      meta[kNonceMetaKey] = nonce_for_version(unit.version);
      meta[kVersionMetaKey] = std::to_string(unit.version);
      sim::LatencyLedger::ScopedTimeline bind(env.latency_ledger(),
                                              p.ticket->timeline);
      auto put = services_->s3.put_shared(kDataBucket, unit.object, data, meta);
      PROVCLOUD_REQUIRE_MSG(put.has_value(),
                            "data PUT failed: " + put.error().message);
    }
    p.ticket->done = true;
    env.failures().crash_point("sdb.store.after_data");
  }
}

BackendResult<ReadResult> SdbBackend::read(const std::string& object,
                                           std::uint32_t max_retries) {
  return consistency_checked_read(*services_, *topology_, object, max_retries);
}

BackendResult<std::vector<pass::ProvenanceRecord>> SdbBackend::get_provenance(
    const std::string& object, std::uint32_t version) {
  return fetch_sdb_provenance(*services_, *topology_, object, version, 64);
}

std::vector<BackendResult<std::vector<pass::ProvenanceRecord>>>
SdbBackend::get_provenance_many(const std::vector<pass::ObjectVersion>& ids) {
  return fetch_sdb_provenance_many(*services_, *topology_, ids, 64);
}

void SdbBackend::recover() {
  // "On restart, the client could recover by scanning SimpleDB for 'orphan
  // provenance' and remove provenance of objects that do not exist. However,
  // this is an inelegant solution as it involves a scan of the entire
  // SimpleDB domain" -- which is exactly what this is.
  last_orphans_ = 0;
  for (const std::string& domain : topology_->domains()) {
    std::string token;
    for (;;) {
      auto page =
          services_->sdb.query(domain, "", aws::kSdbMaxQueryResults, token);
      if (!page) break;
      for (const std::string& item : page->item_names) {
        std::string object;
        std::uint32_t version = 0;
        if (!parse_item_name(item, object, version)) continue;

        // Transient pnodes have no data object by design: never orphans.
        auto attrs = services_->sdb.get_attributes(domain, item, {"x-kind"});
        if (attrs && !attrs->empty()) {
          auto kind_it = attrs->find("x-kind");
          if (kind_it != attrs->end() && !kind_it->second.empty() &&
              *kind_it->second.begin() != "file")
            continue;
        }

        // Retry HEAD a few times so a propagation race is not mistaken for
        // a missing object.
        bool data_present = false;
        std::uint32_t data_version = 0;
        for (int attempt = 0; attempt < 8; ++attempt) {
          auto head = services_->s3.head(kDataBucket, object);
          if (!head) continue;
          auto v = head->metadata.find(kVersionMetaKey);
          std::uint32_t seen = 0;
          if (v != head->metadata.end()) wire::parse_u32(v->second, seen);
          data_version = std::max(data_version, seen);
          if (seen >= version) {
            data_present = true;
            break;
          }
        }
        if (!data_present) {
          // Provenance for a version whose data never arrived: orphan.
          auto del = services_->sdb.delete_attributes(domain, item, {});
          if (del) ++last_orphans_;
        }
      }
      if (!page->next_token) break;
      token = *page->next_token;
    }
  }
}

std::unique_ptr<ProvenanceBackend> make_sdb_backend(CloudServices& services) {
  return std::make_unique<SdbBackend>(services);
}

std::unique_ptr<ProvenanceBackend> make_sdb_backend(
    CloudServices& services, const SdbBackendConfig& config) {
  return std::make_unique<SdbBackend>(services, config);
}

}  // namespace provcloud::cloudprov
