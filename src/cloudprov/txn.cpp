#include "cloudprov/txn.hpp"

#include <charconv>

#include "cloudprov/serialize.hpp"
#include "cloudprov/wire_codec.hpp"
#include "util/hex.hpp"
#include "util/require.hpp"
#include "util/string_utils.hpp"

namespace provcloud::cloudprov {

namespace {

// '|' inside serialized records must not collide with the chunk separator.
std::string pipe_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '|')
      out += "%7c";
    else
      out.push_back(c);
  }
  return out;
}

char kind_code(WalRecord::Kind kind) {
  switch (kind) {
    case WalRecord::Kind::kBegin: return 'B';
    case WalRecord::Kind::kData: return 'D';
    case WalRecord::Kind::kProv: return 'P';
    case WalRecord::Kind::kMd5: return 'M';
    case WalRecord::Kind::kCommit: return 'C';
  }
  return '?';
}

using wire::parse_u32;

}  // namespace

util::Bytes encode_wal_record(const WalRecord& r) {
  using util::field_escape;
  std::string out(1, kind_code(r.kind));
  out += ';';
  out += field_escape(r.txid);
  switch (r.kind) {
    case WalRecord::Kind::kBegin:
      out += ';' + std::to_string(r.record_count);
      break;
    case WalRecord::Kind::kData:
      out += ';' + field_escape(r.temp_key) + ';' + field_escape(r.object) +
             ';' + std::to_string(r.version) + ';' + field_escape(r.nonce) +
             ';' + pass::to_string(r.pnode_kind);
      break;
    case WalRecord::Kind::kProv: {
      out += ';' + field_escape(r.object) + ';' + std::to_string(r.version) +
             ';' + std::to_string(r.chunk_index) + ';';
      std::string chunk;
      for (std::size_t i = 0; i < r.records.size(); ++i) {
        if (i > 0) chunk.push_back('|');
        chunk += pipe_escape(serialize_record(r.records[i]));
      }
      out += chunk;
      break;
    }
    case WalRecord::Kind::kMd5:
      out += ';' + field_escape(r.object) + ';' + std::to_string(r.version) +
             ';' + field_escape(r.nonce) + ';' + field_escape(r.md5);
      break;
    case WalRecord::Kind::kCommit:
      break;
  }
  return out;
}

std::optional<WalRecord> decode_wal_record(util::BytesView body) {
  using util::field_unescape;
  const std::vector<std::string> f = util::split(std::string(body), ';');
  if (f.size() < 2 || f[0].size() != 1) return std::nullopt;
  WalRecord r;
  r.txid = field_unescape(f[1]);
  switch (f[0][0]) {
    case 'B':
      if (f.size() != 3 || !parse_u32(f[2], r.record_count))
        return std::nullopt;
      r.kind = WalRecord::Kind::kBegin;
      break;
    case 'D': {
      if (f.size() != 7 || !parse_u32(f[4], r.version)) return std::nullopt;
      r.kind = WalRecord::Kind::kData;
      r.temp_key = field_unescape(f[2]);
      r.object = field_unescape(f[3]);
      r.nonce = field_unescape(f[5]);
      if (f[6] == "file")
        r.pnode_kind = pass::PnodeKind::kFile;
      else if (f[6] == "process")
        r.pnode_kind = pass::PnodeKind::kProcess;
      else if (f[6] == "pipe")
        r.pnode_kind = pass::PnodeKind::kPipe;
      else
        return std::nullopt;
      break;
    }
    case 'P': {
      if (f.size() != 6 || !parse_u32(f[3], r.version) ||
          !parse_u32(f[4], r.chunk_index))
        return std::nullopt;
      r.kind = WalRecord::Kind::kProv;
      r.object = field_unescape(f[2]);
      if (!f[5].empty()) {
        for (const std::string& piece : util::split(f[5], '|')) {
          std::optional<pass::ProvenanceRecord> record = parse_record(piece);
          if (!record) return std::nullopt;
          r.records.push_back(std::move(*record));
        }
      }
      break;
    }
    case 'M':
      if (f.size() != 6 || !parse_u32(f[3], r.version)) return std::nullopt;
      r.kind = WalRecord::Kind::kMd5;
      r.object = field_unescape(f[2]);
      r.nonce = field_unescape(f[4]);
      r.md5 = field_unescape(f[5]);
      break;
    case 'C':
      if (f.size() != 2) return std::nullopt;
      r.kind = WalRecord::Kind::kCommit;
      break;
    default:
      return std::nullopt;
  }
  return r;
}

std::string make_txid(std::uint64_t incarnation, std::uint64_t n) {
  return "tx-" + util::hex_u64(incarnation) + "-" + std::to_string(n);
}

std::optional<TxOrder> parse_txid(std::string_view txid) {
  constexpr std::size_t kDigitsAt = 3;
  constexpr std::size_t kNAt = kDigitsAt + 16 + 1;
  if (txid.size() <= kNAt) return std::nullopt;
  TxOrder order;
  const char* digits = txid.data() + kDigitsAt;
  const auto incarnation =
      std::from_chars(digits, digits + 16, order.first, 16);
  const auto n =
      std::from_chars(txid.data() + kNAt, txid.data() + txid.size(),
                      order.second);
  if (incarnation.ec != std::errc() || n.ec != std::errc() ||
      make_txid(order.first, order.second) != txid)
    return std::nullopt;
  return order;
}

bool WalTransaction::fold(const std::string& message_id,
                          std::string receipt_handle, WalRecord record) {
  auto [it, fresh] =
      receipt_handles.try_emplace(message_id, std::move(receipt_handle));
  if (!fresh) {
    it->second = std::move(receipt_handle);
    return false;
  }
  switch (record.kind) {
    case WalRecord::Kind::kBegin: begin = std::move(record); break;
    case WalRecord::Kind::kData: data = std::move(record); break;
    case WalRecord::Kind::kProv:
      prov_chunks.push_back(std::move(record));
      break;
    case WalRecord::Kind::kMd5: md5 = std::move(record); break;
    case WalRecord::Kind::kCommit: committed = true; break;
  }
  return true;
}

bool WalTransaction::complete() const {
  if (!begin || !committed || !data || !md5) return false;
  const std::uint32_t have =
      1 /*data*/ + 1 /*md5*/ + static_cast<std::uint32_t>(prov_chunks.size());
  return have == begin->record_count;
}

std::vector<WalRecord> build_transaction(const std::string& txid,
                                         const pass::FlushUnit& unit,
                                         const std::string& temp_key,
                                         const std::string& nonce,
                                         const std::string& md5) {
  // Group provenance records into chunks that encode under the SQS limit.
  std::vector<WalRecord> chunks;
  WalRecord current;
  current.kind = WalRecord::Kind::kProv;
  current.txid = txid;
  current.object = unit.object;
  current.version = unit.version;
  current.chunk_index = 0;
  std::size_t current_bytes = 64 + unit.object.size();
  for (const pass::ProvenanceRecord& record : unit.records) {
    const std::size_t record_bytes = record.payload_size() + 2;
    if (!current.records.empty() &&
        current_bytes + record_bytes > kWalChunkTarget) {
      chunks.push_back(std::move(current));
      current = WalRecord{};
      current.kind = WalRecord::Kind::kProv;
      current.txid = txid;
      current.object = unit.object;
      current.version = unit.version;
      current.chunk_index = static_cast<std::uint32_t>(chunks.size());
      current_bytes = 64 + unit.object.size();
    }
    current.records.push_back(record);
    current_bytes += record_bytes;
  }
  if (!current.records.empty()) chunks.push_back(std::move(current));

  std::vector<WalRecord> out;
  WalRecord begin;
  begin.kind = WalRecord::Kind::kBegin;
  begin.txid = txid;
  begin.record_count =
      static_cast<std::uint32_t>(2 + chunks.size());  // data + chunks + md5
  out.push_back(std::move(begin));

  WalRecord data;
  data.kind = WalRecord::Kind::kData;
  data.txid = txid;
  data.temp_key = temp_key;
  data.object = unit.object;
  data.version = unit.version;
  data.nonce = nonce;
  data.pnode_kind = unit.kind;
  out.push_back(std::move(data));

  for (WalRecord& c : chunks) out.push_back(std::move(c));

  WalRecord md5rec;
  md5rec.kind = WalRecord::Kind::kMd5;
  md5rec.txid = txid;
  md5rec.object = unit.object;
  md5rec.version = unit.version;
  md5rec.nonce = nonce;
  md5rec.md5 = md5;
  out.push_back(std::move(md5rec));

  WalRecord commit;
  commit.kind = WalRecord::Kind::kCommit;
  commit.txid = txid;
  out.push_back(std::move(commit));
  return out;
}

}  // namespace provcloud::cloudprov
