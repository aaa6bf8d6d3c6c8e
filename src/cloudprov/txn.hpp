// WAL transaction records (Architecture 3, section 4.3).
//
// The client's SQS queue is its write-ahead log. One file close becomes one
// transaction:
//
//   begin  "B;<txid>;<n>"                      n = records between B and C
//   data   "D;<txid>;<tempkey>;<object>;<version>;<nonce>;<kind>"
//   prov   "P;<txid>;<object>;<version>;<idx>;<rec>|<rec>|..."  (<= 8 KB)
//   md5    "M;<txid>;<object>;<version>;<nonce>;<md5hex>"
//   commit "C;<txid>"
//
// Fields are %-escaped so object names with ';' survive. Provenance records
// inside a chunk are serialized with serialize_record and '|'-separated
// (with '|' escaped inside fields as %7c by the chunk builder).
//
// A txid is "tx-<incarnation as 16 hex digits>-<n>": n counts the closes of
// one WalBackend, and the incarnation, drawn once per WalBackend, keeps a
// restarted client's tx-n apart from the transactions its dead predecessor
// left in the same queue.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "pass/local_cache.hpp"
#include "pass/record.hpp"
#include "util/bytes.hpp"

namespace provcloud::cloudprov {

/// Target payload for provenance chunks; leaves headroom under SQS's 8 KB.
inline constexpr std::size_t kWalChunkTarget = 7 * util::kKiB + 512;

struct WalRecord {
  enum class Kind { kBegin, kData, kProv, kMd5, kCommit };

  Kind kind = Kind::kBegin;
  std::string txid;
  // kBegin:
  std::uint32_t record_count = 0;  // records between begin and commit
  // kData:
  std::string temp_key;
  // kData / kProv / kMd5:
  std::string object;
  std::uint32_t version = 0;
  // kData / kMd5:
  std::string nonce;
  // kData: what kind of pnode this transaction persists.
  pass::PnodeKind pnode_kind = pass::PnodeKind::kFile;
  // kProv:
  std::uint32_t chunk_index = 0;
  std::vector<pass::ProvenanceRecord> records;
  // kMd5:
  std::string md5;
};

/// Serialize to an SQS message body (always <= 8 KB for chunks produced by
/// build_transaction).
util::Bytes encode_wal_record(const WalRecord& record);

/// Parse a message body; nullopt on malformed input.
std::optional<WalRecord> decode_wal_record(util::BytesView body);

/// (incarnation, n): the order the commit daemon applies transactions in.
using TxOrder = std::pair<std::uint64_t, std::uint64_t>;

/// "tx-<incarnation as 16 hex digits>-<n>".
std::string make_txid(std::uint64_t incarnation, std::uint64_t n);

/// Inverse of make_txid(); nullopt for anything it cannot have produced.
std::optional<TxOrder> parse_txid(std::string_view txid);

/// A transaction's log records as the commit daemon has received them so
/// far, plus the receipt handle of each message.
struct WalTransaction {
  std::optional<WalRecord> begin;
  std::optional<WalRecord> data;
  std::vector<WalRecord> prov_chunks;
  std::optional<WalRecord> md5;
  bool committed = false;
  /// By SQS message id: the handle of the message's latest delivery.
  std::map<std::string, std::string> receipt_handles;

  /// Fold one received message in; returns whether it is new. A redelivered
  /// message only refreshes its receipt handle: complete() counts prov
  /// chunks, so one chunk must not count twice.
  bool fold(const std::string& message_id, std::string receipt_handle,
            WalRecord record);

  /// All log records present (count matches the begin record)?
  bool complete() const;
};

/// Split a flush unit's provenance into WAL records. `temp_key` names the
/// temporary S3 object holding the data; `md5` is MD5(data || nonce).
/// Returns the ordered log records: begin, data, prov chunks..., md5,
/// commit.
std::vector<WalRecord> build_transaction(const std::string& txid,
                                         const pass::FlushUnit& unit,
                                         const std::string& temp_key,
                                         const std::string& nonce,
                                         const std::string& md5);

}  // namespace provcloud::cloudprov
