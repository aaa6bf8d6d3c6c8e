#include "cloudprov/wal_backend.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <optional>
#include <utility>

#include "cloudprov/consistency_read.hpp"
#include "cloudprov/serialize.hpp"
#include "cloudprov/session.hpp"
#include "cloudprov/wire_codec.hpp"
#include "util/require.hpp"

namespace provcloud::cloudprov {

namespace {
const util::SharedBytes kEmptyBytes = util::make_shared_bytes(util::Bytes{});
constexpr const char* kTempCreatedMetaKey = "x-temp-created";
/// Rounds of ReceiveMessage per pump (each round fetches <= 10 messages from
/// a shard sample).
constexpr std::uint32_t kReceiveRounds = 24;
/// Visibility timeout for WAL receives.
constexpr sim::SimTime kVisibilityTimeout = 60 * sim::kSecond;
/// COPY retries against propagation races before deferring the txn.
constexpr std::uint32_t kCopyRetries = 32;
/// Cleaner: temp objects older than this are removed (the paper uses SQS's
/// 4-day retention as the matching bound).
constexpr sim::SimTime kTempObjectTtl = 4 * sim::kDay;
}  // namespace

WalBackend::WalBackend(CloudServices& services, WalBackendConfig config)
    : ProvenanceBackend(services,
                        TopologyConfig{.shard_count = config.shard_count,
                                       .parallelism = config.parallelism}),
      config_(std::move(config)),
      incarnation_(services.env->rng_below(
          std::numeric_limits<std::uint64_t>::max())) {
  topology_->ensure_domains(services_->sdb);
  auto queue =
      services_->sqs.create_queue(config_.queue_name, kVisibilityTimeout);
  PROVCLOUD_REQUIRE(queue.has_value());
  queue_url_ = *queue;
}

void WalBackend::commit_group(const std::vector<TicketState*>& group) {
  aws::CloudEnv& env = *services_->env;
  struct LoggedTxn {
    TicketState* ticket = nullptr;
    std::vector<WalRecord> records;
    util::SharedBytes data;
    std::string temp_key;
    bool has_data = false;
  };
  std::vector<LoggedTxn> txns;
  txns.reserve(group.size());
  std::vector<std::string> tokens = group_md5_tokens(group);
  for (std::size_t i = 0; i < group.size(); ++i) {
    TicketState* ticket = group[i];
    env.failures().crash_point("wal.store.begin");
    const pass::FlushUnit& unit = ticket->unit;
    const std::string txid = make_txid(incarnation_, next_txid_++);
    const std::string nonce = nonce_for_version(unit.version);
    LoggedTxn txn;
    txn.ticket = ticket;
    txn.data = unit.data != nullptr ? unit.data : kEmptyBytes;
    // Transient pnodes carry no data: no temp object, and the commit daemon
    // skips the COPY (their provenance lives only in SimpleDB).
    // The temp name is namespaced by the client's queue: txids count per
    // client, so two clients closing concurrently would otherwise write the
    // same ".tmp/tx-..." object and one commit daemon would promote the
    // other client's data.
    txn.has_data = unit.kind == pass::PnodeKind::kFile;
    if (txn.has_data)
      txn.temp_key = std::string(kTempPrefix) + config_.queue_name + "/" + txid;
    txn.records =
        build_transaction(txid, unit, txn.temp_key, nonce, tokens[i]);
    txns.push_back(std::move(txn));
  }

  // One send step for every record class. A lone close sends each record
  // with its own SendMessage -- the paper's per-close protocol, message for
  // message and crash point for crash point; a larger group packs up to 10
  // records per SendMessageBatch round trip. `mark` runs after each call
  // lands (before its crash point), so commit sends retire their tickets
  // exactly when the log becomes durable.
  const bool lone = txns.size() == 1;
  const std::size_t per_call = lone ? 1 : aws::kSqsMaxSendBatch;
  const auto send =
      [&](std::vector<util::Bytes> bodies, const char* point,
          const std::function<void(std::size_t, std::size_t)>& mark) {
        // Only batches get a span: a lone close's trace is the per-close one.
        obs::Span span(lone ? nullptr : &env.tracer(), "wal.send_batch", "wal");
        span.arg("records", static_cast<std::uint64_t>(bodies.size()));
        span.arg("phase", point);
        for (std::size_t start = 0; start < bodies.size(); start += per_call) {
          const std::size_t end = std::min(start + per_call, bodies.size());
          if (lone) {
            auto sent = services_->sqs.send_message(queue_url_, bodies[start]);
            PROVCLOUD_REQUIRE_MSG(sent.has_value(),
                                  "WAL send failed: " + sent.error().message);
          } else {
            std::vector<util::Bytes> chunk(
                bodies.begin() + static_cast<std::ptrdiff_t>(start),
                bodies.begin() + static_cast<std::ptrdiff_t>(end));
            auto sent = services_->sqs.send_message_batch(queue_url_, chunk);
            PROVCLOUD_REQUIRE_MSG(sent.has_value(),
                                  "WAL batch send failed: " +
                                      sent.error().message);
            PROVCLOUD_REQUIRE_MSG(sent->ok(),
                                  "WAL batch send rejected entry: " +
                                      sent->failed.front().error.message);
          }
          if (mark) mark(start, end);
          env.failures().crash_point(point);
        }
      };

  // (b) every begin record first: each carries the record count the commit
  // daemon needs to know its transaction is fully present.
  std::vector<util::Bytes> begins;
  begins.reserve(txns.size());
  for (const LoggedTxn& txn : txns)
    begins.push_back(encode_wal_record(txn.records.front()));
  send(std::move(begins), "wal.store.after_begin", nullptr);

  // (c) the data goes to a temporary S3 object -- it cannot ride the queue
  // (8 KB limit) -- one PUT per data-bearing close. The temp PUT is
  // exclusive to its close: charged to the ticket's timeline so in-flight
  // closes overlap it.
  for (const LoggedTxn& txn : txns) {
    if (txn.has_data) {
      aws::S3Metadata temp_meta;
      temp_meta[kTempCreatedMetaKey] = std::to_string(env.clock().now());
      sim::LatencyLedger::ScopedTimeline bind(env.latency_ledger(),
                                              txn.ticket->timeline);
      auto temp_put = services_->s3.put_shared(kDataBucket, txn.temp_key,
                                               txn.data, temp_meta);
      PROVCLOUD_REQUIRE_MSG(temp_put.has_value(),
                            "temp PUT failed: " + temp_put.error().message);
    }
    env.failures().crash_point("wal.store.after_temp_put");
  }

  // (c continued), (d): pointer records, provenance chunks and md5 records
  // of the whole group, submit order.
  std::vector<util::Bytes> middles;
  for (const LoggedTxn& txn : txns)
    for (std::size_t i = 1; i + 1 < txn.records.size(); ++i)
      middles.push_back(encode_wal_record(txn.records[i]));
  send(std::move(middles), "wal.store.mid_records", nullptr);
  env.failures().crash_point("wal.store.before_commit");

  // (e) the commit records seal the transactions, in submit order: a crash
  // between calls leaves a committed prefix (those closes are durable) and
  // incomplete suffix transactions the retention reaps.
  std::vector<util::Bytes> commits;
  commits.reserve(txns.size());
  for (const LoggedTxn& txn : txns)
    commits.push_back(encode_wal_record(txn.records.back()));
  send(std::move(commits), "wal.store.after_commit",
       [&](std::size_t start, std::size_t end) {
         for (std::size_t i = start; i < end; ++i)
           txns[i].ticket->done = true;
       });
}

void WalBackend::pump() {
  auto approx = services_->sqs.approximate_number_of_messages(queue_url_);
  if (!approx) return;
  if (*approx < config_.commit_threshold) return;
  commit_phase(/*forced=*/false);
}

WalBackend::PhaseOutcome WalBackend::commit_phase(bool forced) {
  std::lock_guard<std::mutex> phase_lock(phase_mu_);
  aws::CloudEnv& env = *services_->env;
  obs::Span span(&env.tracer(), "wal.commit_phase", "wal");
  span.arg("forced", forced ? "true" : "false");
  // Stored back only at the end: a crash inside the phase loses it.
  DaemonMemory memory = std::exchange(memory_, DaemonMemory{});
  env.failures().crash_point("commitd.begin");

  // (a) receive as many messages as possible; SQS sampling means repeated
  // calls are required to see everything. Each message folds into the
  // transaction it belongs to, kept or new.
  PhaseOutcome outcome;
  const sim::SimTime now = env.clock().now();
  std::uint32_t quiet_rounds = 0;
  for (std::uint32_t round = 0; round < kReceiveRounds; ++round) {
    auto batch =
        services_->sqs.receive_message(queue_url_, aws::kSqsMaxReceiveBatch);
    if (!batch) break;
    if (batch->empty()) {
      if (++quiet_rounds >= 4 && !forced) break;
      continue;
    }
    quiet_rounds = 0;
    for (aws::SqsMessage& m : *batch) {
      std::optional<WalRecord> rec = decode_wal_record(m.body);
      const std::optional<TxOrder> order =
          rec ? parse_txid(rec->txid) : std::nullopt;
      if (!order) continue;  // corrupt message: leave for retention to reap
      DaemonMemory::Kept& kept = memory.txns[*order];
      kept.last_receive = now;
      if (kept.txn.fold(m.message_id, std::move(m.receipt_handle),
                        std::move(*rec)))
        ++outcome.folded;
    }
  }
  env.failures().crash_point("commitd.after_receive");

  // Process complete transactions in (incarnation, n) order -- the map's --
  // so replayed old transactions of one client cannot clobber newer data.
  // The batched pipeline: promote every transaction's data first, coalesce
  // all their SimpleDB writes into per-shard batch calls, then delete log
  // messages and temp objects only for transactions whose writes landed.
  // Every step stays idempotent, so a crash between phases replays safely.
  std::vector<StagedTxn> staged;
  std::size_t ready = 0;
  for (const auto& [order, kept] : memory.txns) {
    if (!kept.txn.complete()) continue;
    ++ready;
    auto prepared = prepare_transaction(kept.txn, memory.promoted);
    if (!prepared) continue;
    prepared->order = order;
    staged.push_back(std::move(*prepared));
  }
  span.arg("folded", static_cast<std::uint64_t>(outcome.folded));
  span.arg("ready", static_cast<std::uint64_t>(ready));
  env.metrics().histogram("wal.ready_txns").record(ready);
  flush_staged(staged);
  env.failures().crash_point("commitd.after_sdb");
  finish_staged(staged);

  // Applied transactions leave the memory. One whose messages all went
  // unreceived for a visibility timeout is dropped too: they are visible
  // again, and a later receive folds them in afresh.
  for (const StagedTxn& s : staged) memory.txns.erase(s.order);
  std::erase_if(memory.txns, [now](const auto& entry) {
    return now - entry.second.last_receive >= kVisibilityTimeout;
  });
  std::erase_if(memory.promoted, [now](const auto& entry) {
    return now - entry.second.at >= kVisibilityTimeout;
  });
  outcome.applied = staged.size();
  outcome.unapplied = ready - staged.size();
  outcome.kept = memory.txns.size();
  memory_ = std::move(memory);
  return outcome;
}

std::optional<WalBackend::StagedTxn> WalBackend::prepare_transaction(
    const WalTransaction& txn,
    std::map<std::string, DaemonMemory::Promoted>& promoted) {
  aws::CloudEnv& env = *services_->env;
  PROVCLOUD_REQUIRE(txn.data && txn.md5 && txn.begin);
  const WalRecord& data = *txn.data;

  // (b) promote the temp object to its real name; the COPY stamps the nonce
  // and version metadata. COPY (not rename) keeps replay possible.
  // Transient pnodes logged no data: skip the promotion entirely.
  const bool has_data = data.pnode_kind == pass::PnodeKind::kFile;

  // Ordering guard: a transaction can be delayed past a *newer* version of
  // the same object (its messages hidden by a visibility timeout while a
  // later phase committed the successor). Its COPY must then be suppressed
  // or it would clobber newer data; its provenance item is still valid and
  // still stored below. An equal stored version is not newer: a re-store
  // of the same version must copy, or S3 would keep the earlier submit's
  // data under this transaction's MD5. The daemon's own memory answers
  // first: a kept transaction can complete at the very clock instant its
  // successor was promoted, before any replica the HEADs sample has it. A
  // malformed stored version is no version: it supersedes nothing.
  const auto memo = promoted.find(data.object);
  bool superseded = has_data && memo != promoted.end() &&
                    memo->second.version > data.version;
  for (int attempt = 0; has_data && attempt < 4 && !superseded; ++attempt) {
    auto head = services_->s3.head(kDataBucket, data.object);
    if (!head) continue;
    auto v = head->metadata.find(kVersionMetaKey);
    std::uint32_t stored = 0;
    superseded = v != head->metadata.end() &&
                 wire::parse_u32(v->second, stored) && stored > data.version;
  }

  aws::S3Metadata meta;
  meta[kNonceMetaKey] = data.nonce;
  meta[kVersionMetaKey] = std::to_string(data.version);
  bool copied = false;
  for (std::uint32_t attempt = 0;
       has_data && !superseded && attempt <= kCopyRetries; ++attempt) {
    auto copy = services_->s3.copy(kDataBucket, data.temp_key, kDataBucket,
                                   data.object, aws::MetadataDirective::kReplace,
                                   meta);
    if (copy) {
      copied = true;
      promoted[data.object] = {data.version, env.clock().now()};
      break;
    }
  }
  if (has_data && !superseded && !copied) {
    // The temp object is gone: either propagation is badly behind (defer to
    // the next pump) or this is a replay whose final DELETE already ran.
    // Distinguish via the destination: if the real object already carries
    // this version (or newer), the transaction was already applied and only
    // the message deletes remain.
    auto head = services_->s3.head(kDataBucket, data.object);
    bool already_applied = false;
    if (head) {
      auto v = head->metadata.find(kVersionMetaKey);
      std::uint32_t stored = 0;
      already_applied = v != head->metadata.end() &&
                        wire::parse_u32(v->second, stored) &&
                        stored >= data.version;
    }
    if (!already_applied) return std::nullopt;  // defer to a later pump
  }
  env.failures().crash_point("commitd.after_copy");

  // (c) provenance toward SimpleDB. Rebuild the flush unit from the chunks
  // and spill > 1 KB values to S3 now; the attribute writes themselves are
  // coalesced across transactions and flushed by flush_staged.
  pass::FlushUnit unit;
  unit.object = data.object;
  unit.version = data.version;
  unit.kind = data.pnode_kind;
  // Chunks may arrive out of order; restore it.
  std::vector<WalRecord> chunks = txn.prov_chunks;
  std::sort(chunks.begin(), chunks.end(),
            [](const WalRecord& a, const WalRecord& b) {
              return a.chunk_index < b.chunk_index;
            });
  for (const WalRecord& c : chunks)
    for (const pass::ProvenanceRecord& r : c.records)
      unit.records.push_back(r);

  SdbEncoding enc = encode_unit_as_attributes(unit);
  for (std::size_t index : enc.spilled_indexes) {
    const pass::ProvenanceRecord& r = unit.records[index];
    const std::string key = overflow_key(unit.object, unit.version, index);
    auto put = services_->s3.put(kDataBucket, key, r.value_string());
    PROVCLOUD_REQUIRE_MSG(put.has_value(),
                          "overflow PUT failed: " + put.error().message);
  }
  enc.attributes.push_back(
      aws::SdbReplaceableAttribute{kMd5Attribute, txn.md5->md5, true});

  StagedTxn out;
  out.txn = &txn;
  out.has_data = has_data;
  out.domain = topology_->domain_for_object(unit.object);
  out.item = item_name(unit.object, unit.version);
  out.attributes = std::move(enc.attributes);
  return out;
}

void WalBackend::flush_staged(std::vector<StagedTxn>& staged) {
  if (config_.batch_size <= 1) {
    // Legacy path: one PutAttributes per 100-attribute chunk per item.
    for (const StagedTxn& s : staged)
      put_item_chunks(*services_, s.domain, s.item, s.attributes, nullptr);
    return;
  }

  // Batched path: group the staged items per shard domain and write them
  // batch_size (<= 25) at a time, the domains flushed concurrently through
  // the topology (SimpleDB throttles per domain, so independent domains'
  // round trips overlap; parallelism == 1 walks the groups in domain order
  // exactly as before). A replayed transaction can stage the same item
  // twice; the writer splits duplicates into a later call.
  std::map<std::string, std::vector<aws::SdbBatchEntry>> by_domain;
  for (StagedTxn& s : staged)
    by_domain[s.domain].push_back(
        aws::SdbBatchEntry{s.item, std::move(s.attributes)});
  std::vector<std::function<void()>> tasks;
  tasks.reserve(by_domain.size());
  for (auto& [domain, entries] : by_domain)
    tasks.push_back([this, &domain, &entries] {
      batch_put_items(*services_, domain, std::move(entries),
                      config_.batch_size, nullptr);
    });
  topology_->run_tasks(std::move(tasks));
}

void WalBackend::finish_staged(const std::vector<StagedTxn>& staged) {
  aws::CloudEnv& env = *services_->env;
  // (d) delete the WAL messages first, then the temp objects: a crash in
  // between leaks only temp objects (the cleaner reaps them); the reverse
  // order would strand undeletable log records that replay against a
  // missing temp.
  std::vector<std::string> handles;
  for (const StagedTxn& s : staged)
    for (const auto& [message_id, handle] : s.txn->receipt_handles)
      handles.push_back(handle);
  for (std::size_t start = 0; start < handles.size();
       start += aws::kSqsMaxDeleteBatch) {
    const std::size_t end =
        std::min(start + aws::kSqsMaxDeleteBatch, handles.size());
    const std::vector<std::string> batch(
        handles.begin() + static_cast<std::ptrdiff_t>(start),
        handles.begin() + static_cast<std::ptrdiff_t>(end));
    auto del = services_->sqs.delete_message_batch(queue_url_, batch);
    PROVCLOUD_REQUIRE_MSG(del.has_value(),
                          "WAL batch delete failed: " + del.error().message);
    PROVCLOUD_REQUIRE_MSG(del->ok(), "WAL batch delete rejected entry: " +
                                         del->failed.front().error.message);
    env.failures().crash_point("commitd.mid_message_delete");
  }
  for (const StagedTxn& s : staged) {
    env.failures().crash_point("commitd.before_temp_delete");
    if (s.has_data) {
      auto del_temp = services_->s3.del(kDataBucket, s.txn->data->temp_key);
      PROVCLOUD_REQUIRE(del_temp.has_value());
    }
    env.failures().crash_point("commitd.after_txn");
    ++committed_count_;
  }
}

void WalBackend::recover() {
  commit_phase(/*forced=*/true);
  clean_temp_objects();
}

void WalBackend::do_quiesce() {
  aws::CloudEnv& env = *services_->env;
  obs::Span span(&env.tracer(), "wal.quiesce", "wal");
  std::uint64_t phases = 0;
  std::uint64_t waits = 0;
  bool waited = false;
  PhaseOutcome last;
  for (;;) {
    last = commit_phase(/*forced=*/true);
    ++phases;
    if (services_->sqs.exact_message_count(queue_url_) == 0) break;
    if (last.progressed()) {
      waited = false;
      continue;
    }
    if (waited) break;
    // What is left is in flight (invisible) or not yet propagated: the
    // visibility timeout must lapse, and propagation needs the consistency
    // window. The client is parked while that virtual time passes, so the
    // wait lands on its ledger timeline as "idle" -- leaving it uncharged
    // flattered Arch 3's elapsed numbers (the daemon's wakeup cadence
    // looked free).
    const sim::SimTime visibility = kVisibilityTimeout;
    const sim::SimTime wakeup =
        env.consistency().propagation_max + sim::kSecond;
    env.latency_ledger().charge(visibility + wakeup, "idle");
    env.metrics().counter("idle.visibility_wait_us").add(visibility);
    env.metrics().counter("idle.daemon_wakeup_us").add(wakeup);
    env.clock().advance_by(visibility + wakeup);
    waited = true;
    ++waits;
  }
  span.arg("phases", phases);
  span.arg("wait_rounds", waits);
  PROVCLOUD_REQUIRE_MSG(
      last.unapplied == 0,
      "WAL quiesce stalled after " + std::to_string(phases) + " phases and " +
          std::to_string(waits) + " waits: " +
          std::to_string(last.unapplied) +
          " complete committed transactions unapplied, " +
          std::to_string(last.kept) + " kept, " +
          std::to_string(services_->sqs.exact_message_count(queue_url_)) +
          " messages queued");
}

void WalBackend::clean_temp_objects() {
  aws::CloudEnv& env = *services_->env;
  const sim::SimTime now = env.clock().now();
  std::string marker;
  for (;;) {
    auto page = services_->s3.list(kDataBucket, kTempPrefix, marker);
    if (!page || page->keys.empty()) return;
    for (const std::string& key : page->keys) {
      auto head = services_->s3.head(kDataBucket, key);
      if (!head) continue;
      auto created_it = head->metadata.find(kTempCreatedMetaKey);
      if (created_it == head->metadata.end()) continue;
      sim::SimTime created = 0;
      if (!wire::parse_u64(created_it->second, created)) continue;
      if (now >= created && now - created >= kTempObjectTtl) {
        auto del = services_->s3.del(kDataBucket, key);
        (void)del;
      }
    }
    if (!page->truncated) return;
    marker = page->keys.back();
  }
}

BackendResult<ReadResult> WalBackend::read(const std::string& object,
                                           std::uint32_t max_retries) {
  return consistency_checked_read(*services_, *topology_, object, max_retries);
}

BackendResult<std::vector<pass::ProvenanceRecord>> WalBackend::get_provenance(
    const std::string& object, std::uint32_t version) {
  return fetch_sdb_provenance(*services_, *topology_, object, version, 64);
}

std::vector<BackendResult<std::vector<pass::ProvenanceRecord>>>
WalBackend::get_provenance_many(const std::vector<pass::ObjectVersion>& ids) {
  return fetch_sdb_provenance_many(*services_, *topology_, ids, 64);
}

std::unique_ptr<ProvenanceBackend> make_wal_backend(CloudServices& services) {
  return std::make_unique<WalBackend>(services, WalBackendConfig{});
}

std::unique_ptr<ProvenanceBackend> make_wal_backend(
    CloudServices& services, const WalBackendConfig& config) {
  return std::make_unique<WalBackend>(services, config);
}

}  // namespace provcloud::cloudprov
