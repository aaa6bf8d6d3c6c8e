#include "cloudprov/lsb/lsb_backend.hpp"

#include <algorithm>
#include <set>

#include "cloudprov/consistency_read.hpp"
#include "cloudprov/session.hpp"
#include "cloudprov/wire_codec.hpp"
#include "util/require.hpp"

namespace provcloud::cloudprov {

namespace {

const util::SharedBytes kEmptyBytes = util::make_shared_bytes(util::Bytes{});

/// Packed posting values per index chunk item ("p0" .. "p7"): ~12 postings
/// per value, so one BatchPutAttributes call (25 items) checkpoints ~2400
/// closes -- the SimpleDB side of the amortization.
constexpr std::size_t kValuesPerChunkItem = 8;

/// Consistency retries a provenance fetch makes before it gives up, each
/// charged like every consistency loop.
constexpr std::uint32_t kProvenanceRetries = 64;

util::Unexpected<BackendError> not_indexed(const pass::ObjectVersion& id) {
  return backend_error(BackendErrorCode::kNotFound,
                       "no such version in the segment index: " +
                           id.to_string());
}

util::Unexpected<BackendError> never_readable(const pass::ObjectVersion& id) {
  return backend_error(BackendErrorCode::kConsistencyExhausted,
                       "segment entry never became readable: " +
                           id.to_string());
}

/// The records part at `loc`, cut from `got`, a range GET of its segment
/// that started at `begin`. nullopt when the slice is missing or short: a
/// propagation race or a mid-clean delete, so the caller retries. A
/// full-length slice that does not decode to `id` is corrupt: retrying an
/// immutable object cannot mend it.
std::optional<BackendResult<lsb::EntryRecords>> slice_entry(
    const aws::AwsResult<aws::S3GetResult>& got, std::uint64_t begin,
    const lsb::EntryLocation& loc, const pass::ObjectVersion& id) {
  if (!got || got->data == nullptr) return std::nullopt;
  const util::BytesView bytes(*got->data);
  const std::uint64_t at = loc.offset - begin;
  if (at > bytes.size() || loc.length > bytes.size() - at) return std::nullopt;
  auto entry = lsb::decode_entry(bytes.substr(at, loc.length));
  if (!entry || !(entry->id == id))
    return BackendResult<lsb::EntryRecords>(backend_error(
        BackendErrorCode::kCorrupt,
        "corrupt entry for " + id.to_string() + " in " +
            lsb::segment_key(loc.segment) + " at " +
            std::to_string(loc.offset)));
  return BackendResult<lsb::EntryRecords>(std::move(*entry));
}

std::uint64_t parse_meta(const aws::SdbItem& item, const char* attr,
                         std::uint64_t fallback) {
  auto it = item.find(attr);
  if (it != item.end() && !it->second.empty())
    wire::parse_u64(*it->second.begin(), fallback);
  return fallback;
}

}  // namespace

LsbBackend::LsbBackend(CloudServices& services, LsbBackendConfig config)
    : ProvenanceBackend(services,
                        TopologyConfig{.shard_count = config.shard_count,
                                       .base_domain = lsb::kIndexDomainBase,
                                       .parallelism = config.parallelism}),
      config_(config) {
  config_.segment_cap_bytes = std::max<std::size_t>(config_.segment_cap_bytes,
                                                    util::kKiB);
  config_.index_publish_entries =
      std::max<std::size_t>(config_.index_publish_entries, 1);
  config_.compact_max_segments =
      std::max<std::size_t>(config_.compact_max_segments, 1);
  topology_->ensure_domains(services_->sdb);

  obs::MetricsRegistry& metrics = services_->env->metrics();
  seal_count_ = &metrics.counter("lsb.seals");
  seal_bytes_ = &metrics.counter("lsb.seal.bytes");
  publish_count_ = &metrics.counter("lsb.index.publishes");
  publish_postings_ = &metrics.counter("lsb.index.postings");
  compact_count_ = &metrics.counter("lsb.compactions");
  compact_reclaimed_bytes_ = &metrics.counter("lsb.compact.reclaimed_bytes");
  compact_rewritten_bytes_ = &metrics.counter("lsb.compact.rewritten_bytes");
  recover_corrupt_segments_ = &metrics.counter("lsb.recover.corrupt_segments");
  seal_entries_ = &metrics.histogram("lsb.seal.closes");
}

// ---------------------------------------------------------------------------
// Write path: seal the group as immutable segments
// ---------------------------------------------------------------------------

void LsbBackend::commit_group(const std::vector<TicketState*>& group) {
  // The segment PUTs are shared by the group: they stay on the daemon's
  // group timeline, so the amortized cost lands on every rider,
  // critical-path-merged at retire. Index publication and cleaning are not
  // part of the close: the commit daemon runs pump() after the group.
  aws::CloudEnv& env = *services_->env;
  if (group.empty()) return;
  env.failures().crash_point("lsb.seal.begin");

  // Submit order is causal order, and the log preserves it, so a crash can
  // only ever lose a suffix of the group.
  std::vector<lsb::SegmentEntry> entries;
  entries.reserve(group.size());
  for (TicketState* ticket : group) {
    const pass::FlushUnit& unit = ticket->unit;
    lsb::SegmentEntry& e = entries.emplace_back();
    e.id = pass::ObjectVersion{unit.object, unit.version};
    e.kind = unit.kind;
    if (unit.kind == pass::PnodeKind::kFile)
      e.data = unit.data != nullptr ? unit.data : kEmptyBytes;
    e.records = unit.records;
  }

  // Each run's tickets are done the moment their segment object lands: data
  // and provenance of every close in it became durable in that single call.
  seal_runs(entries, "lsb.seal.after_put", [&](SealedRun& run) {
    for (std::size_t i = run.begin; i < run.end; ++i) group[i]->done = true;
    for (const lsb::Posting& p : run.postings)
      index_entry_locked(p.first, p.second);
    std::vector<lsb::Posting>& pending = pending_postings_[run.id];
    pending.insert(pending.end(), run.postings.begin(), run.postings.end());
    pending_posting_count_ += run.postings.size();
    hydrated_ = true;
    seal_entries_->record(run.end - run.begin);
  });
}

void LsbBackend::seal_runs(const std::vector<lsb::SegmentEntry>& entries,
                           const char* crash_point,
                           const std::function<void(SealedRun&)>& on_sealed) {
  aws::CloudEnv& env = *services_->env;
  SealedRun run;
  std::optional<lsb::SegmentWriter> writer;
  const auto seal = [&] {
    const std::string blob = writer->finish();
    run.id = writer->id();
    run.bytes = blob.size();
    for (std::size_t i = run.begin; i < run.end; ++i)
      run.postings.emplace_back(entries[i].id,
                                writer->locations()[i - run.begin]);
    obs::Span span(&env.tracer(), "lsb.seal", "lsb");
    span.arg("segment", run.id);
    span.arg("closes", static_cast<std::uint64_t>(run.end - run.begin));
    span.arg("bytes", run.bytes);
    auto put = services_->s3.put(lsb::kSegmentBucket,
                                 lsb::segment_key(run.id), blob);
    PROVCLOUD_REQUIRE_MSG(put.has_value(),
                          "segment PUT failed: " + put.error().message);
    env.failures().crash_point(crash_point);
    {
      std::lock_guard<std::mutex> lk(mu_);
      SegmentInfo& info = segments_[run.id];
      info.bytes = run.bytes;
      info.entries = run.end - run.begin;
      on_sealed(run);
    }
    seal_count_->add(1);
    seal_bytes_->add(run.bytes);
  };
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (writer && !writer->append(entries[i], config_.segment_cap_bytes)) {
      seal();
      writer.reset();
    }
    if (!writer) {
      {
        std::lock_guard<std::mutex> lk(mu_);
        writer.emplace(next_segment_id_++);
      }
      run = SealedRun{};
      run.begin = i;
      writer->append(entries[i], config_.segment_cap_bytes);
    }
    run.end = i + 1;
  }
  if (writer) seal();
}

void LsbBackend::index_entry_locked(const pass::ObjectVersion& id,
                                    const lsb::EntryLocation& loc) {
  auto [it, inserted] = index_.try_emplace(id, loc);
  if (!inserted) {
    lsb::EntryLocation& cur = it->second;
    if (loc == cur) return;  // idempotent replay
    // The same (object, version) written twice -- a duplicate submit in one
    // group, or out-of-order replay. The later copy in the log wins; the
    // loser's whole entry is garbage.
    const bool newer =
        loc.segment > cur.segment ||
        (loc.segment == cur.segment && loc.offset > cur.offset);
    const lsb::EntryLocation& dead = newer ? cur : loc;
    segments_[dead.segment].garbage_bytes += dead.footprint();
    if (newer) cur = loc;
    return;
  }
  auto [latest, first] = latest_.try_emplace(id.object, id.version);
  if (first) return;
  if (id.version > latest->second) {
    // The data bytes of the previous latest version just became garbage
    // (only the newest version's data is retrievable, as in Arch 1-3; its
    // provenance records stay live forever).
    auto old = index_.find(pass::ObjectVersion{id.object, latest->second});
    if (old != index_.end() && old->second.data_bytes > 0)
      segments_[old->second.segment].garbage_bytes += old->second.data_bytes;
    latest->second = id.version;
  } else if (id.version < latest->second && loc.data_bytes > 0) {
    // Indexed behind an already-known newer version (rebuild order).
    segments_[loc.segment].garbage_bytes += loc.data_bytes;
  }
}

// ---------------------------------------------------------------------------
// Read path
// ---------------------------------------------------------------------------

BackendResult<ReadResult> LsbBackend::fetch_entry(const pass::ObjectVersion& id,
                                                  std::uint32_t max_retries) {
  for (std::uint32_t attempt = 0; attempt <= max_retries; ++attempt) {
    if (attempt > 0) charge_read_retry(*services_->env);
    // Re-resolve the location every round: the cleaner may have moved the
    // entry (and deleted its old segment) since the previous attempt.
    lsb::EntryLocation loc;
    {
      std::lock_guard<std::mutex> lk(mu_);
      auto it = index_.find(id);
      if (it == index_.end()) return not_indexed(id);
      loc = it->second;
    }
    const std::string key = lsb::segment_key(loc.segment);
    auto entry = slice_entry(
        services_->s3.get_range(lsb::kSegmentBucket, key, loc.offset,
                                loc.length),
        loc.offset, loc, id);
    if (!entry) continue;  // propagation race or mid-compaction delete
    if (!*entry) return util::Unexpected(entry->error());
    util::SharedBytes data = kEmptyBytes;
    if ((*entry)->data_length > 0) {
      auto got = services_->s3.get_range(lsb::kSegmentBucket, key,
                                         (*entry)->data_offset,
                                         (*entry)->data_length);
      if (!got || got->data == nullptr ||
          got->data->size() != (*entry)->data_length)
        continue;
      data = std::move(got->data);
    }
    ReadResult out;
    out.data = std::move(data);
    out.records = std::move((*entry)->records);
    out.version = id.version;
    out.retries = attempt;
    out.verified = true;  // entries are immutable and self-contained
    return out;
  }
  return never_readable(id);
}

BackendResult<ReadResult> LsbBackend::read(const std::string& object,
                                           std::uint32_t max_retries) {
  std::uint32_t version = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = latest_.find(object);
    if (it == latest_.end())
      return backend_error(BackendErrorCode::kNotFound,
                           "object never stored: " + object);
    version = it->second;
  }
  return fetch_entry(pass::ObjectVersion{object, version}, max_retries);
}

BackendResult<std::vector<pass::ProvenanceRecord>> LsbBackend::get_provenance(
    const std::string& object, std::uint32_t version) {
  return std::move(
      get_provenance_many({pass::ObjectVersion{object, version}}).front());
}

std::vector<BackendResult<std::vector<pass::ProvenanceRecord>>>
LsbBackend::get_provenance_many(const std::vector<pass::ObjectVersion>& ids) {
  using Records = std::vector<pass::ProvenanceRecord>;
  aws::CloudEnv& env = *services_->env;
  obs::Span span(&env.tracer(), "lsb.get_provenance_many", "lsb");
  span.arg("ids", static_cast<std::uint64_t>(ids.size()));
  std::vector<BackendResult<Records>> out(
      ids.size(), backend_error(BackendErrorCode::kUnknown, "unresolved"));
  std::vector<std::size_t> pending(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) pending[i] = i;
  std::uint64_t gets = 0;
  std::uint64_t bytes = 0;
  for (std::uint32_t attempt = 0;
       !pending.empty() && attempt <= kProvenanceRetries; ++attempt) {
    if (attempt > 0) charge_read_retry(env);
    // Re-resolve every pending id each round: the cleaner may have moved
    // an entry (and deleted its old segment) since the previous attempt.
    std::map<std::uint64_t, std::vector<std::pair<std::size_t,
                                                  lsb::EntryLocation>>>
        by_segment;
    {
      std::lock_guard<std::mutex> lk(mu_);
      for (std::size_t i : pending) {
        auto it = index_.find(ids[i]);
        if (it == index_.end())
          out[i] = not_indexed(ids[i]);
        else
          by_segment[it->second.segment].emplace_back(i, it->second);
      }
    }
    pending.clear();
    // One range GET per segment, from the first wanted records part to the
    // end of the last: records parts are contiguous, so it moves records
    // only.
    for (const auto& [segment, wanted] : by_segment) {
      std::uint64_t begin = wanted.front().second.offset;
      std::uint64_t end = 0;
      for (const auto& [i, loc] : wanted) {
        begin = std::min(begin, loc.offset);
        end = std::max(end, loc.offset + loc.length);
      }
      auto got = services_->s3.get_range(
          lsb::kSegmentBucket, lsb::segment_key(segment), begin, end - begin);
      ++gets;
      if (got && got->data != nullptr) bytes += got->data->size();
      for (const auto& [i, loc] : wanted) {
        auto entry = slice_entry(got, begin, loc, ids[i]);
        if (!entry)
          pending.push_back(i);
        else if (!*entry)
          out[i] = util::Unexpected(entry->error());
        else
          out[i] = std::move((*entry)->records);
      }
    }
  }
  for (std::size_t i : pending) out[i] = never_readable(ids[i]);
  span.arg("segments", gets);
  span.arg("bytes", bytes);
  return out;
}

// ---------------------------------------------------------------------------
// Index checkpointing
// ---------------------------------------------------------------------------

void LsbBackend::publish_index() {
  aws::CloudEnv& env = *services_->env;
  std::map<std::uint64_t, std::vector<lsb::Posting>> batch;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (pending_postings_.empty()) return;
    batch.swap(pending_postings_);
    pending_posting_count_ = 0;
  }
  // A crash from here on loses only the in-memory buffer: the segments are
  // durable and above indexed-to, so recover() replays and republishes
  // them. The checkpoint can lag; it can never tear.
  env.failures().crash_point("lsb.index.begin");
  std::uint64_t postings = 0;
  for (const auto& [id, ps] : batch) postings += ps.size();
  obs::Span span(&env.tracer(), "lsb.index.publish", "lsb");
  span.arg("segments", static_cast<std::uint64_t>(batch.size()));
  span.arg("postings", postings);

  publish_postings(batch, "lsb.index.mid_publish");
  env.failures().crash_point("lsb.index.after_publish");

  // Advance the durable watermark only after every chunk item landed.
  std::uint64_t mark = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    mark = std::max(indexed_to_, batch.rbegin()->first);
  }
  write_meta({{lsb::kIndexedToAttr, mark}});
  env.failures().crash_point("lsb.index.after_mark");
  {
    std::lock_guard<std::mutex> lk(mu_);
    indexed_to_ = std::max(indexed_to_, mark);
  }
  publish_count_->add(1);
  publish_postings_->add(postings);
}

void LsbBackend::publish_postings(
    const std::map<std::uint64_t, std::vector<lsb::Posting>>& by_segment,
    const char* crash_name) {
  // Pack each segment's postings into chunk items; identical input always
  // repacks identically, so a post-crash republish overwrites the surviving
  // chunk items with the same bytes (replace semantics).
  std::map<std::string, std::vector<aws::SdbBatchEntry>> by_domain;
  std::map<std::uint64_t, std::uint64_t> chunk_counts;
  for (const auto& [segment, postings] : by_segment) {
    const std::vector<std::string> values = lsb::pack_postings(postings);
    std::uint64_t chunks = 0;
    for (std::size_t v = 0; v < values.size(); v += kValuesPerChunkItem) {
      const std::string item = lsb::index_item_name(segment, chunks++);
      aws::SdbBatchEntry entry;
      entry.item = item;
      const std::size_t end =
          std::min(v + kValuesPerChunkItem, values.size());
      for (std::size_t j = v; j < end; ++j)
        entry.attrs.push_back(aws::SdbReplaceableAttribute{
            "p" + std::to_string(j - v), values[j], true});
      by_domain[topology_->domain_for_item(item)].push_back(std::move(entry));
    }
    chunk_counts[segment] = chunks;
  }

  topology_->for_each_domain([&](std::size_t, const std::string& domain) {
    auto it = by_domain.find(domain);
    if (it == by_domain.end()) return;
    batch_put_items(*services_, domain, std::move(it->second),
                    aws::kSdbMaxItemsPerBatch, crash_name);
  });

  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& [segment, chunks] : chunk_counts) {
    SegmentInfo& info = segments_[segment];
    info.chunk_items = std::max(info.chunk_items, chunks);
  }
}

void LsbBackend::write_meta(
    std::initializer_list<std::pair<const char*, std::uint64_t>> marks) {
  std::vector<aws::SdbReplaceableAttribute> attrs;
  for (const auto& [attr, value] : marks)
    attrs.push_back(
        aws::SdbReplaceableAttribute{attr, std::to_string(value), true});
  put_item_chunks(*services_, topology_->domains().front(), lsb::kMetaItem,
                  attrs, nullptr);
}

BackendResult<LsbBackend::LoadedSegment> LsbBackend::load_segment(
    std::uint64_t id) {
  const std::string key = lsb::segment_key(id);
  aws::AwsResult<aws::S3GetResult> got =
      services_->s3.get(lsb::kSegmentBucket, key);
  for (std::uint32_t attempt = 0; !got && attempt < 64; ++attempt) {
    charge_read_retry(*services_->env);
    got = services_->s3.get(lsb::kSegmentBucket, key);
  }
  if (!got)
    return backend_error(BackendErrorCode::kConsistencyExhausted,
                         "segment never became readable: " + key);
  auto seg = lsb::decode_segment(*got->data);
  if (!seg || seg->id != id)
    return backend_error(BackendErrorCode::kCorrupt,
                         "undecodable segment: " + key);
  return LoadedSegment{std::move(seg->entries), got->data->size()};
}

// ---------------------------------------------------------------------------
// Cleaner
// ---------------------------------------------------------------------------

LsbBackend::Victims LsbBackend::pick_victims_locked() const {
  // A victim is at least half garbage, so the live bytes a pass copies never
  // exceed the garbage it frees; an all-live segment is never rewritten.
  // Garbage-richest first, ties older-first (stable sort over id order).
  struct Candidate {
    std::uint64_t id;
    std::uint64_t garbage;
    double ratio;
  };
  std::vector<Candidate> candidates;
  for (const auto& [id, info] : segments_) {
    if (id < delete_to_) continue;  // crash debris, purged by recover()
    if (id > indexed_to_) break;
    if (info.corrupt || info.garbage_bytes == 0 ||
        2 * info.garbage_bytes < info.bytes)
      continue;
    candidates.push_back({id, info.garbage_bytes,
                          static_cast<double>(info.garbage_bytes) /
                              static_cast<double>(info.bytes)});
  }
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const Candidate& a, const Candidate& b) {
                     return a.ratio > b.ratio;
                   });
  if (candidates.size() > config_.compact_max_segments)
    candidates.resize(config_.compact_max_segments);
  Victims out;
  for (const Candidate& c : candidates) {
    out.ids.push_back(c.id);
    out.garbage += c.garbage;
  }
  std::sort(out.ids.begin(), out.ids.end());
  return out;
}

bool LsbBackend::clean_due() const {
  if (!config_.auto_clean) return false;
  std::lock_guard<std::mutex> lk(mu_);
  return pick_victims_locked().garbage >= config_.segment_cap_bytes;
}

std::size_t LsbBackend::compact() {
  aws::CloudEnv& env = *services_->env;
  // Cleaner precondition: every sealed segment checkpointed, so candidates
  // are exactly the indexed (never the open or unpublished) segments.
  publish_index();

  std::vector<std::uint64_t> victims;
  {
    std::lock_guard<std::mutex> lk(mu_);
    victims = pick_victims_locked().ids;
  }
  if (victims.empty()) return 0;
  env.failures().crash_point("lsb.compact.begin");
  obs::Span span(&env.tracer(), "lsb.compact", "lsb");
  span.arg("victims", static_cast<std::uint64_t>(victims.size()));
  span.arg("from", victims.front());
  span.arg("to", victims.back());

  // Collect the victims' live entries, dropping data bytes of superseded
  // file versions. Records are copied verbatim: ancestry walks are
  // bit-identical across a cleaner pass. A victim that does not decode
  // keeps its object, its postings and its place in the log: this pass
  // neither rewrites nor retires it, and no later pass picks it.
  std::vector<lsb::SegmentEntry> live;
  std::uint64_t victim_bytes = 0;
  std::vector<std::uint64_t> corrupt;
  for (std::uint64_t id : victims) {
    BackendResult<LoadedSegment> seg = load_segment(id);
    if (!seg && seg.error().code == BackendErrorCode::kCorrupt) {
      corrupt.push_back(id);
      continue;
    }
    PROVCLOUD_REQUIRE_MSG(seg.has_value(),
                          "cleaner GET failed: " + seg.error().message);
    std::lock_guard<std::mutex> lk(mu_);
    victim_bytes += seg->bytes;
    for (lsb::PlacedEntry& placed : seg->entries) {
      auto it = index_.find(placed.entry.id);
      if (it == index_.end() || it->second.segment != id ||
          it->second.offset != placed.location.offset)
        continue;  // superseded by a later copy: dead, not rewritten
      auto latest = latest_.find(placed.entry.id.object);
      const bool is_latest = latest != latest_.end() &&
                             latest->second == placed.entry.id.version;
      if (!is_latest) placed.entry.data = nullptr;
      live.push_back(std::move(placed.entry));
    }
  }
  if (!corrupt.empty()) {
    std::lock_guard<std::mutex> lk(mu_);
    for (std::uint64_t id : corrupt) segments_[id].corrupt = true;
    std::erase_if(victims, [&corrupt](std::uint64_t id) {
      return std::binary_search(corrupt.begin(), corrupt.end(), id);
    });
    if (victims.empty()) return 0;
  }

  // Rewrite the survivors into fresh segments (higher ids) through the
  // sealer, and re-home them in the in-memory index only once each new
  // object is durable. Until the watermark advances, both copies exist: a
  // crash anywhere in between recovers to a consistent (if untrimmed) log.
  std::map<std::uint64_t, std::vector<lsb::Posting>> new_postings;
  std::uint64_t new_max = 0;
  std::uint64_t new_bytes = 0;
  seal_runs(live, "lsb.compact.after_put", [&](SealedRun& run) {
    for (const lsb::Posting& p : run.postings) index_[p.first] = p.second;
    new_bytes += run.bytes;
    new_max = run.id;
    new_postings[run.id] = std::move(run.postings);
  });
  if (!new_postings.empty())
    publish_postings(new_postings, "lsb.compact.mid_republish");

  // One durable watermark write retires the victims. (indexed-to may only
  // advance when no concurrent seal left unpublished postings in between.)
  // delete-to may only cover the contiguous dead prefix of the log: victims
  // are picked by garbage, so they can sit mid-log, and a watermark past a
  // surviving segment would let recover() purge live data. Mid-log victims
  // are still trimmed below -- a crashed trim leaves at worst an orphan
  // segment whose entries replay as already-superseded duplicates.
  std::uint64_t mark_indexed = 0;
  std::uint64_t mark_delete = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    mark_indexed = (pending_postings_.empty() && new_max > 0)
                       ? std::max(indexed_to_, new_max)
                       : indexed_to_;
    mark_delete = delete_to_;
    for (const auto& [id, info] : segments_) {
      if (id < mark_delete) continue;
      if (std::binary_search(victims.begin(), victims.end(), id))
        mark_delete = id + 1;
      else
        break;
    }
  }
  write_meta({{lsb::kIndexedToAttr, mark_indexed},
              {lsb::kDeleteToAttr, mark_delete}});
  env.failures().crash_point("lsb.compact.after_watermark");

  // Trim: the victims' chunk items and objects. All dead already; deletes
  // are idempotent and recover() finishes a crashed trim.
  std::map<std::uint64_t, std::uint64_t> victim_chunks;
  {
    std::lock_guard<std::mutex> lk(mu_);
    indexed_to_ = std::max(indexed_to_, mark_indexed);
    delete_to_ = std::max(delete_to_, mark_delete);
    for (std::uint64_t id : victims) {
      auto it = segments_.find(id);
      if (it != segments_.end()) victim_chunks[id] = it->second.chunk_items;
    }
  }
  for (std::uint64_t id : victims) {
    for (std::uint64_t c = 0; c < victim_chunks[id]; ++c) {
      const std::string item = lsb::index_item_name(id, c);
      auto del = services_->sdb.delete_attributes(
          topology_->domain_for_item(item), item, {});
      PROVCLOUD_REQUIRE_MSG(del.has_value(),
                            "chunk delete failed: " + del.error().message);
      env.failures().crash_point("lsb.compact.mid_delete");
    }
    auto del = services_->s3.del(lsb::kSegmentBucket, lsb::segment_key(id));
    PROVCLOUD_REQUIRE_MSG(del.has_value(),
                          "segment delete failed: " + del.error().message);
    env.failures().crash_point("lsb.compact.mid_delete");
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (std::uint64_t id : victims) segments_.erase(id);
  }
  env.failures().crash_point("lsb.compact.end");
  compact_count_->add(1);
  compact_rewritten_bytes_->add(new_bytes);
  if (victim_bytes > new_bytes)
    compact_reclaimed_bytes_->add(victim_bytes - new_bytes);
  span.arg("rewritten_bytes", new_bytes);
  span.arg("reclaimed_bytes",
           victim_bytes > new_bytes ? victim_bytes - new_bytes : 0);
  return victims.size();
}

// ---------------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------------

void LsbBackend::recover() {
  bool fresh = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    fresh = !hydrated_;
  }
  if (fresh) rebuild_from_index();
  replay_orphans();
  std::lock_guard<std::mutex> lk(mu_);
  hydrated_ = true;
}

void LsbBackend::rebuild_from_index() {
  // Durable watermarks first (a missing meta item is a store no checkpoint
  // ever reached: everything is an orphan replay).
  auto meta = services_->sdb.get_attributes(topology_->domains().front(),
                                            lsb::kMetaItem);
  std::uint64_t indexed_to = 0;
  std::uint64_t delete_to = 1;
  if (meta) {
    indexed_to = parse_meta(*meta, lsb::kIndexedToAttr, 0);
    delete_to = parse_meta(*meta, lsb::kDeleteToAttr, 1);
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    indexed_to_ = std::max(indexed_to_, indexed_to);
    delete_to_ = std::max(delete_to_, delete_to);
    next_segment_id_ = std::max({next_segment_id_, indexed_to + 1, delete_to});
  }

  // Checkpointed postings from every shard domain. Segments above the
  // indexed-to watermark are skipped even when some of their chunks landed
  // (crashed mid-publish): the log is their truth, replay_orphans re-reads
  // and republishes them whole. Chunks below delete-to are crash debris
  // from a trim; finish the delete.
  topology_->for_each_domain([&](std::size_t, const std::string& domain) {
    std::string token;
    for (;;) {
      auto page = services_->sdb.query(domain, "", aws::kSdbMaxQueryResults,
                                       token);
      if (!page) break;
      for (const std::string& item : page->item_names) {
        std::uint64_t segment = 0;
        std::uint64_t chunk = 0;
        if (!lsb::parse_index_item_name(item, segment, chunk)) continue;
        if (segment < delete_to) {
          services_->sdb.delete_attributes(domain, item, {});
          continue;
        }
        if (segment > indexed_to) continue;
        auto attrs = services_->sdb.get_attributes(domain, item);
        if (!attrs) continue;
        std::vector<lsb::Posting> postings;
        for (const auto& [name, values] : *attrs)
          for (const std::string& value : values)
            PROVCLOUD_REQUIRE_MSG(
                lsb::unpack_postings(value, segment, postings),
                "corrupt index chunk: " + item);
        // A segment's chunk items hold a posting for every entry in it, so
        // its header plus their footprints is the object's size.
        std::lock_guard<std::mutex> lk(mu_);
        SegmentInfo& info = segments_[segment];
        if (info.bytes == 0) info.bytes = lsb::segment_header_size(segment);
        info.chunk_items = std::max(info.chunk_items, chunk + 1);
        info.entries += postings.size();
        for (const lsb::Posting& p : postings) {
          info.bytes += p.second.footprint();
          index_entry_locked(p.first, p.second);
        }
      }
      if (!page->next_token) break;
      token = *page->next_token;
    }
  });
}

void LsbBackend::replay_orphans() {
  std::uint64_t delete_to = 1;
  std::set<std::uint64_t> known;
  {
    std::lock_guard<std::mutex> lk(mu_);
    delete_to = delete_to_;
    for (const auto& [id, info] : segments_) known.insert(id);
  }

  std::vector<std::uint64_t> replay;
  std::vector<std::uint64_t> purge;
  std::string marker;
  for (;;) {
    auto page = services_->s3.list(lsb::kSegmentBucket, lsb::kSegmentPrefix,
                                   marker, 1000);
    if (!page || page->keys.empty()) break;
    for (const std::string& key : page->keys) {
      std::uint64_t id = 0;
      if (!lsb::parse_segment_key(key, id)) continue;
      if (id < delete_to)
        purge.push_back(id);
      else if (!known.contains(id))
        replay.push_back(id);
    }
    if (!page->truncated) break;
    marker = page->keys.back();
  }

  // Finish any crashed trim: everything below the watermark is dead.
  for (std::uint64_t id : purge)
    services_->s3.del(lsb::kSegmentBucket, lsb::segment_key(id));

  // Replay unindexed segments oldest first (list order is id order). Their
  // closes become indexed again and their postings re-enter the publish
  // buffer; a duplicated replay is a no-op on both.
  for (std::uint64_t id : replay) {
    BackendResult<LoadedSegment> seg = load_segment(id);
    if (!seg && seg.error().code == BackendErrorCode::kCorrupt) {
      // Skip it, but keep it known: a later replay leaves it alone, and
      // the sealer never writes its id again.
      std::lock_guard<std::mutex> lk(mu_);
      segments_[id].corrupt = true;
      next_segment_id_ = std::max(next_segment_id_, id + 1);
      recover_corrupt_segments_->add(1);
      continue;
    }
    if (!seg) continue;  // listed but gone: a concurrent trim won the race
    std::lock_guard<std::mutex> lk(mu_);
    SegmentInfo& info = segments_[id];
    info.bytes = seg->bytes;
    info.entries = seg->entries.size();
    std::vector<lsb::Posting>& pending = pending_postings_[id];
    pending_posting_count_ -= std::min<std::uint64_t>(pending_posting_count_,
                                                      pending.size());
    pending.clear();
    for (const lsb::PlacedEntry& placed : seg->entries) {
      index_entry_locked(placed.entry.id, placed.location);
      pending.emplace_back(placed.entry.id, placed.location);
      ++pending_posting_count_;
    }
    next_segment_id_ = std::max(next_segment_id_, id + 1);
  }
}

// ---------------------------------------------------------------------------
// Daemon hooks and stats
// ---------------------------------------------------------------------------

void LsbBackend::pump() {
  bool publish = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    publish = pending_posting_count_ >= config_.index_publish_entries;
  }
  if (publish) publish_index();
  if (clean_due()) compact();
}

void LsbBackend::do_quiesce() {
  publish_index();
  // A pass drops its victims' garbage and seals only live entries, so every
  // segment it writes starts with none: the victims' garbage falls strictly
  // with each pass, and the loop ends.
  while (clean_due() && compact() > 0) {
  }
}

LsbBackend::SegmentStats LsbBackend::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  SegmentStats out;
  out.segment_count = segments_.size();
  for (const auto& [id, info] : segments_) {
    out.total_bytes += info.bytes;
    out.live_bytes += info.bytes - std::min(info.garbage_bytes, info.bytes);
  }
  out.garbage_ratio =
      out.total_bytes == 0
          ? 0.0
          : 1.0 - static_cast<double>(out.live_bytes) /
                      static_cast<double>(out.total_bytes);
  out.delete_to = delete_to_;
  out.indexed_to = indexed_to_;
  out.pending_postings = pending_posting_count_;
  return out;
}

std::unique_ptr<ProvenanceBackend> make_lsb_backend(CloudServices& services) {
  return std::make_unique<LsbBackend>(services);
}

std::unique_ptr<ProvenanceBackend> make_lsb_backend(
    CloudServices& services, const LsbBackendConfig& config) {
  return std::make_unique<LsbBackend>(services, config);
}

}  // namespace provcloud::cloudprov
