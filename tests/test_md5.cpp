// MD5 against the RFC 1321 test suite plus incremental-update and nonce
// behaviour, and the vector-lane path against the scalar one.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "util/md5.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace {

using provcloud::util::Md5;
using provcloud::util::md5_with_nonce;
using provcloud::util::md5_with_nonce_many;
using provcloud::util::NoncedMessage;

struct Vector {
  const char* input;
  const char* digest;
  const char* ctest_name;
};

// CTest names each case after how gtest prints it. Unprinted, a case is its
// raw bytes -- here two pointers -- so the name changed from build to build.
// Print the name the case is registered under instead.
void PrintTo(const Vector& v, std::ostream* os) { *os << v.ctest_name; }

// The canonical RFC 1321 appendix A.5 vectors.
const Vector kRfcVectors[] = {
    {"", "d41d8cd98f00b204e9800998ecf8427e",
     "16-byte object <C4-51 F4-8D 8C-55 00-00 08-07 F2-8D 8C-55 00-00>"},
    {"a", "0cc175b9c0f1b6a831c399e269772661",
     "16-byte object <D1-9A F1-8D 8C-55 00-00 30-07 F2-8D 8C-55 00-00>"},
    {"abc", "900150983cd24fb0d6963f7d28e17f72",
     "16-byte object <C3-E4 F3-8D 8C-55 00-00 58-07 F2-8D 8C-55 00-00>"},
    {"message digest", "f96b697d7cb7938d525a2f31aaf161d0",
     "16-byte object <AB-03 F2-8D 8C-55 00-00 80-07 F2-8D 8C-55 00-00>"},
    {"abcdefghijklmnopqrstuvwxyz", "c3fcd3d76192e4007dfb496cca67e13b",
     "16-byte object <BA-03 F2-8D 8C-55 00-00 A8-07 F2-8D 8C-55 00-00>"},
    {"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
     "d174ab98d277d9f5a5611c2c9f419d9f",
     "16-byte object <D0-07 F2-8D 8C-55 00-00 10-08 F2-8D 8C-55 00-00>"},
    {"1234567890123456789012345678901234567890123456789012345678901234567890"
     "1234567890",
     "57edf4a22be3c955ac49da2e2107b67a",
     "16-byte object <38-08 F2-8D 8C-55 00-00 90-08 F2-8D 8C-55 00-00>"},
};

class Md5RfcTest : public ::testing::TestWithParam<Vector> {};

TEST_P(Md5RfcTest, MatchesReferenceDigest) {
  EXPECT_EQ(Md5::hex_digest(GetParam().input), GetParam().digest);
}

INSTANTIATE_TEST_SUITE_P(Rfc1321, Md5RfcTest,
                         ::testing::ValuesIn(kRfcVectors));

TEST(Md5Test, IncrementalUpdatesMatchOneShot) {
  const std::string text = "The quick brown fox jumps over the lazy dog";
  for (std::size_t split = 0; split <= text.size(); ++split) {
    Md5 h;
    h.update(text.substr(0, split));
    h.update(text.substr(split));
    const auto d = h.finish();
    EXPECT_EQ(d, Md5::digest(text)) << "split at " << split;
  }
}

TEST(Md5Test, ManySmallUpdatesMatchOneShot) {
  std::string text;
  Md5 h;
  for (int i = 0; i < 300; ++i) {
    const std::string piece(1 + i % 7, static_cast<char>('a' + i % 26));
    text += piece;
    h.update(piece);
  }
  EXPECT_EQ(h.finish(), Md5::digest(text));
}

TEST(Md5Test, BlockBoundaryLengths) {
  // Lengths around the 64-byte block and 56-byte padding boundary are the
  // classic implementation traps.
  provcloud::util::Rng rng(1);
  for (std::size_t len : {54u, 55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u, 121u,
                          127u, 128u, 129u, 1000u}) {
    const std::string data = rng.next_hex(len);
    Md5 split;
    split.update(data.substr(0, len / 3));
    split.update(data.substr(len / 3));
    EXPECT_EQ(split.finish(), Md5::digest(data)) << "len " << len;
  }
}

TEST(Md5Test, ResetAllowsReuse) {
  Md5 h;
  h.update("first");
  (void)h.finish();
  h.reset();
  h.update("abc");
  EXPECT_EQ(h.finish(), Md5::digest("abc"));
}

TEST(Md5Test, UpdateAfterFinishThrows) {
  Md5 h;
  h.update("x");
  (void)h.finish();
  EXPECT_THROW(h.update("y"), provcloud::util::LogicError);
}

TEST(Md5Test, FinishTwiceThrows) {
  Md5 h;
  (void)h.finish();
  EXPECT_THROW((void)h.finish(), provcloud::util::LogicError);
}

TEST(Md5NonceTest, NonceChangesDigest) {
  EXPECT_NE(md5_with_nonce("data", "1"), md5_with_nonce("data", "2"));
  EXPECT_NE(md5_with_nonce("data", "1"), Md5::hex_digest("data"));
}

TEST(Md5NonceTest, EqualsConcatenation) {
  EXPECT_EQ(md5_with_nonce("data", "42"), Md5::hex_digest("data42"));
}

TEST(Md5NonceTest, SameDataDifferentNonceIsTheOverwriteDefense) {
  // The paper: "except when a file is overwritten with the same data. In
  // such cases, new provenance will be generated but the MD5sum of the data
  // will be the same" -- the nonce disambiguates.
  const std::string payload = "identical file contents";
  EXPECT_EQ(Md5::hex_digest(payload), Md5::hex_digest(payload));
  EXPECT_NE(md5_with_nonce(payload, "1"), md5_with_nonce(payload, "2"));
}

TEST(Md5Test, DigestIsStableAcrossCalls) {
  EXPECT_EQ(Md5::hex_digest("stable"), Md5::hex_digest("stable"));
}

TEST(Md5Test, LargeInput) {
  // Digests from an independent implementation (Python's hashlib): 1 MiB
  // of 'q', one-shot and in 4 KiB chunks, and the classic million 'a's.
  const std::string big(1 << 20, 'q');
  EXPECT_EQ(Md5::hex_digest(big), "f9d3d47d8bb35da5eb74530cbb62b516");
  Md5 h;
  for (std::size_t off = 0; off < big.size(); off += 4096)
    h.update(std::string_view(big).substr(off, 4096));
  EXPECT_EQ(h.finish(), Md5::digest(big));
  EXPECT_EQ(Md5::hex_digest(std::string(1000000, 'a')),
            "7707d6ae4e027c70eea2a935c2296f21");
}

// --- md5_with_nonce_many: the lane path ---

std::string random_bytes(provcloud::util::Rng& rng, std::size_t n) {
  std::string out(n, '\0');
  for (char& c : out) c = static_cast<char>(rng.next_below(256));
  return out;
}

/// Each message's lane-path token next to md5_with_nonce's, for a gtest
/// diff that names the message.
void expect_many_matches_scalar(const std::vector<NoncedMessage>& group,
                                const std::string& what) {
  const std::vector<std::string> tokens = md5_with_nonce_many(group);
  ASSERT_EQ(tokens.size(), group.size()) << what;
  for (std::size_t i = 0; i < group.size(); ++i)
    EXPECT_EQ(tokens[i], md5_with_nonce(group[i].data, group[i].nonce))
        << what << ": message " << i << " of " << group.size() << ", "
        << group[i].data.size() << " data bytes, " << group[i].nonce.size()
        << " nonce bytes";
}

TEST(Md5ManyTest, RfcVectorsAsOneLaneGroup) {
  std::vector<NoncedMessage> group;
  for (const Vector& v : kRfcVectors) group.push_back({v.input, ""});
  const std::vector<std::string> tokens = md5_with_nonce_many(group);
  ASSERT_EQ(tokens.size(), std::size(kRfcVectors));
  for (std::size_t i = 0; i < tokens.size(); ++i)
    EXPECT_EQ(tokens[i], kRfcVectors[i].digest) << kRfcVectors[i].input;
}

TEST(Md5ManyTest, EveryLengthNonceAndGroupSizeMatchesScalar) {
  // Data lengths around one block and the 56-byte padding edge, and around
  // a 4 KiB close; nonces that fit the data's last block, fill it, spill
  // into one more and into two more. Split into groups of every size from a
  // lone close to more than three full lane loads.
  provcloud::util::Rng rng(30);
  std::vector<std::string> nonces;
  for (std::size_t len : {0u, 1u, 10u, 55u, 56u, 64u, 70u})
    nonces.push_back(random_bytes(rng, len));
  std::vector<std::string> datas;
  for (std::size_t len = 0; len <= 130; ++len)
    datas.push_back(random_bytes(rng, len));
  for (std::size_t len : {4095u, 4096u, 4097u})
    datas.push_back(random_bytes(rng, len));
  std::vector<NoncedMessage> all;
  for (const std::string& nonce : nonces)
    for (const std::string& data : datas) all.push_back({data, nonce});

  for (std::size_t group_size : {1u, 2u, 7u, 8u, 9u, 15u, 16u, 17u, 25u}) {
    for (std::size_t start = 0; start < all.size(); start += group_size) {
      const std::size_t end = std::min(all.size(), start + group_size);
      expect_many_matches_scalar(
          std::vector<NoncedMessage>(all.begin() + start, all.begin() + end),
          "group size " + std::to_string(group_size));
    }
  }
}

TEST(Md5ManyTest, OneLongMessageFinishesAloneAmongShortOnes) {
  // Md5Test.LargeInput's digests, each in a group of short messages: the
  // long lane outlives every other, so it ends on the scalar path.
  const std::string big(1 << 20, 'q');
  const std::string million(1000000, 'a');
  for (const std::string* long_one : {&big, &million}) {
    std::vector<NoncedMessage> group;
    for (int i = 0; i < 11; ++i)
      group.push_back({std::string_view("short message").substr(0, i), "7"});
    group.insert(group.begin() + 3, NoncedMessage{*long_one, ""});
    const std::vector<std::string> tokens = md5_with_nonce_many(group);
    EXPECT_EQ(tokens[3], long_one == &big ? "f9d3d47d8bb35da5eb74530cbb62b516"
                                          : "7707d6ae4e027c70eea2a935c2296f21");
    expect_many_matches_scalar(group, "long among short");
  }
  // Two long messages of unequal length: both run in lanes until the
  // shorter ends, then the longer finishes alone.
  expect_many_matches_scalar({{big, "1"}, {million, "2"}, {"x", "3"}},
                             "two long");
}

TEST(Md5ManyTest, SeededGroupsMatchScalar) {
  // 1,000 random groups: sizes 0-25; data lengths spread over 0-8 KiB with
  // most of them short; nonces of 0-70 bytes.
  provcloud::util::Rng rng(2009);
  for (int round = 0; round < 1000; ++round) {
    const std::size_t size = rng.next_in(0, 25);
    std::vector<std::string> datas(size);
    std::vector<std::string> nonces(size);
    std::vector<NoncedMessage> group;
    for (std::size_t i = 0; i < size; ++i) {
      const std::size_t cap = std::size_t{1} << rng.next_in(0, 13);
      datas[i] = random_bytes(rng, rng.next_in(0, cap));
      nonces[i] = random_bytes(rng, rng.next_in(0, 70));
      group.push_back({datas[i], nonces[i]});
    }
    expect_many_matches_scalar(group, "round " + std::to_string(round));
    if (::testing::Test::HasFailure()) break;
  }
}

}  // namespace
