#include "util/md5.hpp"

#include <cstring>

#include "util/hex.hpp"
#include "util/require.hpp"

namespace provcloud::util {
namespace {

std::uint32_t rotl(std::uint32_t x, int s) {
  return (x << s) | (x >> (32 - s));
}

// One step of each round (RFC 1321, section 3.4):
//   a = b + ((a + fn(b, c, d) + x + t) <<< s)
// with the round's auxiliary function fn: F, G, H or I.
void ff(std::uint32_t& a, std::uint32_t b, std::uint32_t c, std::uint32_t d,
        std::uint32_t x, int s, std::uint32_t t) {
  a = b + rotl(a + ((b & c) | (~b & d)) + x + t, s);
}

void gg(std::uint32_t& a, std::uint32_t b, std::uint32_t c, std::uint32_t d,
        std::uint32_t x, int s, std::uint32_t t) {
  a = b + rotl(a + ((b & d) | (c & ~d)) + x + t, s);
}

void hh(std::uint32_t& a, std::uint32_t b, std::uint32_t c, std::uint32_t d,
        std::uint32_t x, int s, std::uint32_t t) {
  a = b + rotl(a + (b ^ c ^ d) + x + t, s);
}

void ii(std::uint32_t& a, std::uint32_t b, std::uint32_t c, std::uint32_t d,
        std::uint32_t x, int s, std::uint32_t t) {
  a = b + rotl(a + (c ^ (b | ~d)) + x + t, s);
}

std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

}  // namespace

Md5::Md5() { reset(); }

void Md5::reset() {
  state_ = {0x67452301u, 0xefcdab89u, 0x98badcfeu, 0x10325476u};
  total_len_ = 0;
  buf_len_ = 0;
  finished_ = false;
}

void Md5::process_block(const std::uint8_t* block) {
  std::array<std::uint32_t, 16> x;
  for (std::size_t i = 0; i < 16; ++i) x[i] = load_le32(block + 4 * i);

  std::uint32_t a = state_[0], b = state_[1], c = state_[2], d = state_[3];
  // Round 1.
  ff(a, b, c, d, x[0], 7, 0xd76aa478u);
  ff(d, a, b, c, x[1], 12, 0xe8c7b756u);
  ff(c, d, a, b, x[2], 17, 0x242070dbu);
  ff(b, c, d, a, x[3], 22, 0xc1bdceeeu);
  ff(a, b, c, d, x[4], 7, 0xf57c0fafu);
  ff(d, a, b, c, x[5], 12, 0x4787c62au);
  ff(c, d, a, b, x[6], 17, 0xa8304613u);
  ff(b, c, d, a, x[7], 22, 0xfd469501u);
  ff(a, b, c, d, x[8], 7, 0x698098d8u);
  ff(d, a, b, c, x[9], 12, 0x8b44f7afu);
  ff(c, d, a, b, x[10], 17, 0xffff5bb1u);
  ff(b, c, d, a, x[11], 22, 0x895cd7beu);
  ff(a, b, c, d, x[12], 7, 0x6b901122u);
  ff(d, a, b, c, x[13], 12, 0xfd987193u);
  ff(c, d, a, b, x[14], 17, 0xa679438eu);
  ff(b, c, d, a, x[15], 22, 0x49b40821u);
  // Round 2.
  gg(a, b, c, d, x[1], 5, 0xf61e2562u);
  gg(d, a, b, c, x[6], 9, 0xc040b340u);
  gg(c, d, a, b, x[11], 14, 0x265e5a51u);
  gg(b, c, d, a, x[0], 20, 0xe9b6c7aau);
  gg(a, b, c, d, x[5], 5, 0xd62f105du);
  gg(d, a, b, c, x[10], 9, 0x02441453u);
  gg(c, d, a, b, x[15], 14, 0xd8a1e681u);
  gg(b, c, d, a, x[4], 20, 0xe7d3fbc8u);
  gg(a, b, c, d, x[9], 5, 0x21e1cde6u);
  gg(d, a, b, c, x[14], 9, 0xc33707d6u);
  gg(c, d, a, b, x[3], 14, 0xf4d50d87u);
  gg(b, c, d, a, x[8], 20, 0x455a14edu);
  gg(a, b, c, d, x[13], 5, 0xa9e3e905u);
  gg(d, a, b, c, x[2], 9, 0xfcefa3f8u);
  gg(c, d, a, b, x[7], 14, 0x676f02d9u);
  gg(b, c, d, a, x[12], 20, 0x8d2a4c8au);
  // Round 3.
  hh(a, b, c, d, x[5], 4, 0xfffa3942u);
  hh(d, a, b, c, x[8], 11, 0x8771f681u);
  hh(c, d, a, b, x[11], 16, 0x6d9d6122u);
  hh(b, c, d, a, x[14], 23, 0xfde5380cu);
  hh(a, b, c, d, x[1], 4, 0xa4beea44u);
  hh(d, a, b, c, x[4], 11, 0x4bdecfa9u);
  hh(c, d, a, b, x[7], 16, 0xf6bb4b60u);
  hh(b, c, d, a, x[10], 23, 0xbebfbc70u);
  hh(a, b, c, d, x[13], 4, 0x289b7ec6u);
  hh(d, a, b, c, x[0], 11, 0xeaa127fau);
  hh(c, d, a, b, x[3], 16, 0xd4ef3085u);
  hh(b, c, d, a, x[6], 23, 0x04881d05u);
  hh(a, b, c, d, x[9], 4, 0xd9d4d039u);
  hh(d, a, b, c, x[12], 11, 0xe6db99e5u);
  hh(c, d, a, b, x[15], 16, 0x1fa27cf8u);
  hh(b, c, d, a, x[2], 23, 0xc4ac5665u);
  // Round 4.
  ii(a, b, c, d, x[0], 6, 0xf4292244u);
  ii(d, a, b, c, x[7], 10, 0x432aff97u);
  ii(c, d, a, b, x[14], 15, 0xab9423a7u);
  ii(b, c, d, a, x[5], 21, 0xfc93a039u);
  ii(a, b, c, d, x[12], 6, 0x655b59c3u);
  ii(d, a, b, c, x[3], 10, 0x8f0ccc92u);
  ii(c, d, a, b, x[10], 15, 0xffeff47du);
  ii(b, c, d, a, x[1], 21, 0x85845dd1u);
  ii(a, b, c, d, x[8], 6, 0x6fa87e4fu);
  ii(d, a, b, c, x[15], 10, 0xfe2ce6e0u);
  ii(c, d, a, b, x[6], 15, 0xa3014314u);
  ii(b, c, d, a, x[13], 21, 0x4e0811a1u);
  ii(a, b, c, d, x[4], 6, 0xf7537e82u);
  ii(d, a, b, c, x[11], 10, 0xbd3af235u);
  ii(c, d, a, b, x[2], 15, 0x2ad7d2bbu);
  ii(b, c, d, a, x[9], 21, 0xeb86d391u);

  state_[0] += a;
  state_[1] += b;
  state_[2] += c;
  state_[3] += d;
}

void Md5::update(BytesView data) {
  PROVCLOUD_REQUIRE_MSG(!finished_, "Md5::update after finish");
  total_len_ += data.size();
  std::size_t off = 0;
  if (buf_len_ > 0) {
    const std::size_t need = 64 - buf_len_;
    const std::size_t take = std::min(need, data.size());
    std::memcpy(buf_.data() + buf_len_, data.data(), take);
    buf_len_ += take;
    off = take;
    if (buf_len_ == 64) {
      process_block(buf_.data());
      buf_len_ = 0;
    }
  }
  while (off + 64 <= data.size()) {
    process_block(reinterpret_cast<const std::uint8_t*>(data.data()) + off);
    off += 64;
  }
  if (off < data.size()) {
    buf_len_ = data.size() - off;
    std::memcpy(buf_.data(), data.data() + off, buf_len_);
  }
}

Md5::Digest Md5::finish() {
  PROVCLOUD_REQUIRE_MSG(!finished_, "Md5::finish called twice");
  finished_ = true;

  const std::uint64_t bit_len = total_len_ * 8;
  // Append 0x80 then zero padding so that length ≡ 56 (mod 64), then the
  // 64-bit little-endian bit length.
  std::uint8_t pad[72] = {0x80};
  const std::size_t pad_len =
      (buf_len_ < 56) ? (56 - buf_len_) : (120 - buf_len_);
  finished_ = false;  // allow the two updates below
  update(BytesView(reinterpret_cast<const char*>(pad), pad_len));
  std::uint8_t len_le[8];
  for (int i = 0; i < 8; ++i)
    len_le[i] = static_cast<std::uint8_t>((bit_len >> (8 * i)) & 0xff);
  // The length bytes must not count toward total_len_; it is already final.
  const std::uint64_t saved = total_len_;
  update(BytesView(reinterpret_cast<const char*>(len_le), 8));
  total_len_ = saved;
  finished_ = true;
  PROVCLOUD_REQUIRE(buf_len_ == 0);

  Digest out;
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 4; ++j)
      out[static_cast<std::size_t>(4 * i + j)] =
          static_cast<std::uint8_t>((state_[static_cast<std::size_t>(i)] >> (8 * j)) & 0xff);
  return out;
}

Md5::Digest Md5::digest(BytesView data) {
  Md5 h;
  h.update(data);
  return h.finish();
}

std::string Md5::hex_digest(BytesView data) {
  const Digest d = digest(data);
  return hex_encode(BytesView(reinterpret_cast<const char*>(d.data()), d.size()));
}

std::string md5_with_nonce(BytesView data, BytesView nonce) {
  Md5 h;
  h.update(data);
  h.update(nonce);
  const Md5::Digest d = h.finish();
  return hex_encode(BytesView(reinterpret_cast<const char*>(d.data()), d.size()));
}

}  // namespace provcloud::util
