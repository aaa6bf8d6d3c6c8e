// WAL transaction records: codec round trips, 8 KB chunking, completeness.
#include <gtest/gtest.h>

#include "cloudprov/txn.hpp"
#include "util/rng.hpp"

namespace {

using namespace provcloud::cloudprov;
using namespace provcloud::pass;

FlushUnit sample_unit(std::size_t n_records, std::size_t record_bytes) {
  FlushUnit unit;
  unit.object = "data/out;with=hostile|chars";
  unit.version = 3;
  unit.kind = PnodeKind::kFile;
  unit.data = provcloud::util::make_shared_bytes(std::string("payload"));
  for (std::size_t i = 0; i < n_records; ++i)
    unit.records.push_back(make_text_record(
        "ENV" + std::to_string(i), std::string(record_bytes, 'e')));
  return unit;
}

TEST(WalCodecTest, BeginRoundTrip) {
  WalRecord r;
  r.kind = WalRecord::Kind::kBegin;
  r.txid = "tx-42";
  r.record_count = 7;
  auto back = decode_wal_record(encode_wal_record(r));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->kind, WalRecord::Kind::kBegin);
  EXPECT_EQ(back->txid, "tx-42");
  EXPECT_EQ(back->record_count, 7u);
}

TEST(WalCodecTest, DataRoundTrip) {
  WalRecord r;
  r.kind = WalRecord::Kind::kData;
  r.txid = "tx-1";
  r.temp_key = ".tmp/tx-1";
  r.object = "weird;name=with,specials";
  r.version = 9;
  r.nonce = "9";
  r.pnode_kind = PnodeKind::kProcess;
  auto back = decode_wal_record(encode_wal_record(r));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->kind, WalRecord::Kind::kData);
  EXPECT_EQ(back->temp_key, ".tmp/tx-1");
  EXPECT_EQ(back->object, "weird;name=with,specials");
  EXPECT_EQ(back->version, 9u);
  EXPECT_EQ(back->nonce, "9");
  EXPECT_EQ(back->pnode_kind, PnodeKind::kProcess);
}

TEST(WalCodecTest, ProvChunkRoundTrip) {
  WalRecord r;
  r.kind = WalRecord::Kind::kProv;
  r.txid = "tx-2";
  r.object = "o";
  r.version = 1;
  r.chunk_index = 4;
  r.records = {make_text_record("TYPE", "file"),
               make_xref_record("INPUT", {"bar", 2}),
               make_text_record("ARGV", "a|b|c;d=e")};
  auto back = decode_wal_record(encode_wal_record(r));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->chunk_index, 4u);
  ASSERT_EQ(back->records.size(), 3u);
  EXPECT_EQ(back->records[0], r.records[0]);
  EXPECT_EQ(back->records[1], r.records[1]);
  EXPECT_EQ(back->records[2], r.records[2]);
}

TEST(WalCodecTest, Md5AndCommitRoundTrip) {
  WalRecord m;
  m.kind = WalRecord::Kind::kMd5;
  m.txid = "tx-3";
  m.object = "o";
  m.version = 2;
  m.nonce = "2";
  m.md5 = "0123456789abcdef0123456789abcdef";
  auto back = decode_wal_record(encode_wal_record(m));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->md5, m.md5);

  WalRecord c;
  c.kind = WalRecord::Kind::kCommit;
  c.txid = "tx-3";
  auto cback = decode_wal_record(encode_wal_record(c));
  ASSERT_TRUE(cback.has_value());
  EXPECT_EQ(cback->kind, WalRecord::Kind::kCommit);
}

TEST(WalCodecTest, RejectsGarbage) {
  EXPECT_FALSE(decode_wal_record("").has_value());
  EXPECT_FALSE(decode_wal_record("X;tx-1").has_value());
  EXPECT_FALSE(decode_wal_record("B;tx-1").has_value());       // missing count
  EXPECT_FALSE(decode_wal_record("B;tx-1;abc").has_value());   // bad count
  EXPECT_FALSE(decode_wal_record("D;tx-1;only").has_value());  // short
  EXPECT_FALSE(decode_wal_record("total junk").has_value());
}

TEST(BuildTransactionTest, OrderAndStructure) {
  const FlushUnit unit = sample_unit(5, 100);
  const auto records = build_transaction("tx-9", unit, ".tmp/tx-9", "3", "md5hex");
  ASSERT_GE(records.size(), 4u);
  EXPECT_EQ(records.front().kind, WalRecord::Kind::kBegin);
  EXPECT_EQ(records[1].kind, WalRecord::Kind::kData);
  EXPECT_EQ(records[records.size() - 2].kind, WalRecord::Kind::kMd5);
  EXPECT_EQ(records.back().kind, WalRecord::Kind::kCommit);
  // Count covers everything between begin and commit.
  EXPECT_EQ(records.front().record_count, records.size() - 2);
  for (const auto& r : records) EXPECT_EQ(r.txid, "tx-9");
}

TEST(BuildTransactionTest, EveryMessageFitsSqsLimit) {
  // 400 records of ~800 bytes: must split into several chunks, all <= 8 KB.
  const FlushUnit unit = sample_unit(400, 800);
  const auto records = build_transaction("tx-1", unit, ".tmp/t", "1", "m");
  std::size_t chunks = 0;
  for (const auto& r : records) {
    const auto body = encode_wal_record(r);
    EXPECT_LE(body.size(), 8u * 1024u) << "record kind "
                                       << static_cast<int>(r.kind);
    if (r.kind == WalRecord::Kind::kProv) ++chunks;
  }
  EXPECT_GT(chunks, 30u);  // 400*800B / 8KB ~ 40 chunks
}

TEST(BuildTransactionTest, ChunkIndexesAreSequential) {
  const FlushUnit unit = sample_unit(100, 800);
  const auto records = build_transaction("tx-1", unit, ".tmp/t", "1", "m");
  std::uint32_t expected = 0;
  for (const auto& r : records) {
    if (r.kind == WalRecord::Kind::kProv) {
      EXPECT_EQ(r.chunk_index, expected++);
    }
  }
  EXPECT_GT(expected, 1u);
}

TEST(BuildTransactionTest, NoRecordsStillValid) {
  FlushUnit unit;
  unit.object = "empty";
  unit.version = 1;
  const auto records = build_transaction("tx-0", unit, ".tmp/t", "1", "m");
  ASSERT_EQ(records.size(), 4u);  // begin, data, md5, commit
  EXPECT_EQ(records.front().record_count, 2u);
}

TEST(BuildTransactionTest, RecordsSurviveChunkReassembly) {
  const FlushUnit unit = sample_unit(250, 700);
  const auto records = build_transaction("tx-1", unit, ".tmp/t", "1", "m");
  std::vector<ProvenanceRecord> reassembled;
  for (const auto& r : records) {
    if (r.kind != WalRecord::Kind::kProv) continue;
    auto back = decode_wal_record(encode_wal_record(r));
    ASSERT_TRUE(back.has_value());
    for (const auto& rec : back->records) reassembled.push_back(rec);
  }
  ASSERT_EQ(reassembled.size(), unit.records.size());
  for (std::size_t i = 0; i < reassembled.size(); ++i)
    EXPECT_EQ(reassembled[i], unit.records[i]);
}

TEST(WalTransactionTest, CompletenessRules) {
  const FlushUnit unit = sample_unit(3, 100);
  const auto records = build_transaction("tx-1", unit, ".tmp/t", "1", "m");

  WalTransaction txn;
  EXPECT_FALSE(txn.complete());
  for (const auto& r : records) {
    switch (r.kind) {
      case WalRecord::Kind::kBegin: txn.begin = r; break;
      case WalRecord::Kind::kData: txn.data = r; break;
      case WalRecord::Kind::kProv: txn.prov_chunks.push_back(r); break;
      case WalRecord::Kind::kMd5: txn.md5 = r; break;
      case WalRecord::Kind::kCommit: txn.committed = true; break;
    }
  }
  EXPECT_TRUE(txn.complete());

  // Missing a chunk -> incomplete.
  WalTransaction missing = txn;
  missing.prov_chunks.pop_back();
  EXPECT_FALSE(missing.complete());

  // No commit -> incomplete even with every record.
  WalTransaction uncommitted = txn;
  uncommitted.committed = false;
  EXPECT_FALSE(uncommitted.complete());
}

TEST(WalTransactionTest, RedeliveredMessageFoldsOnce) {
  const FlushUnit unit = sample_unit(40, 400);  // several prov chunks
  const auto records = build_transaction("tx-1", unit, ".tmp/t", "1", "m");
  ASSERT_GT(records.size(), 5u);

  WalTransaction txn;
  for (std::size_t i = 0; i + 1 < records.size(); ++i)
    EXPECT_TRUE(txn.fold("msg-" + std::to_string(i), "h1", records[i]));
  // A redelivery of every folded message: new handles, nothing counted twice.
  for (std::size_t i = 0; i + 1 < records.size(); ++i)
    EXPECT_FALSE(txn.fold("msg-" + std::to_string(i), "h2", records[i]));
  EXPECT_FALSE(txn.complete());
  EXPECT_TRUE(txn.fold("msg-commit", "h1", records.back()));
  EXPECT_TRUE(txn.complete());
  EXPECT_EQ(txn.prov_chunks.size(), records.size() - 4);
  ASSERT_EQ(txn.receipt_handles.size(), records.size());
  EXPECT_EQ(txn.receipt_handles.at("msg-0"), "h2");
  EXPECT_EQ(txn.receipt_handles.at("msg-commit"), "h1");
}

TEST(TxidTest, FixedWidthIncarnationAndCount) {
  EXPECT_EQ(make_txid(0, 1), "tx-0000000000000000-1");
  EXPECT_EQ(make_txid(0xdeadbeef, 42), "tx-00000000deadbeef-42");
  EXPECT_EQ(make_txid(~0ull, 7).size(), make_txid(0, 7).size());
  for (const TxOrder& order :
       {TxOrder{0, 1}, TxOrder{0xdeadbeef, 42}, TxOrder{~0ull, ~0ull}})
    EXPECT_EQ(parse_txid(make_txid(order.first, order.second)), order);
  // Order is (incarnation, n): n compares as a number, not as text.
  EXPECT_LT(*parse_txid(make_txid(5, 9)), *parse_txid(make_txid(5, 10)));
  EXPECT_LT(*parse_txid(make_txid(4, 10)), *parse_txid(make_txid(5, 9)));
}

TEST(TxidTest, RejectsWhatMakeTxidCannotProduce) {
  for (const char* bad :
       {"", "tx-1", "tx-42", "tx-00000000deadbeef", "tx-00000000deadbeef-",
        "tx-00000000DEADBEEF-1", "tx-00000000deadbeef-01",
        "tx-00000000deadbeef-+1", "tx-00000000deadbeef--1",
        "tx-00000000deadbeef-1x", "tx-0000000deadbeef-12",
        "tx-00000000deadbeef_1", "xx-00000000deadbeef-1",
        "tx-00000000deadbeef-18446744073709551616"})
    EXPECT_FALSE(parse_txid(bad).has_value()) << bad;
}

}  // namespace
