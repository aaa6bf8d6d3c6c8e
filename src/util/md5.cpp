#include "util/md5.hpp"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <utility>

#include "util/hex.hpp"
#include "util/require.hpp"

namespace provcloud::util {
namespace {

// T[i] = floor(2^32 * |sin(i + 1)|), the additive constant of step i
// (RFC 1321, section 3.4).
constexpr std::uint32_t kSine[64] = {
    0xd76aa478u, 0xe8c7b756u, 0x242070dbu, 0xc1bdceeeu, 0xf57c0fafu,
    0x4787c62au, 0xa8304613u, 0xfd469501u, 0x698098d8u, 0x8b44f7afu,
    0xffff5bb1u, 0x895cd7beu, 0x6b901122u, 0xfd987193u, 0xa679438eu,
    0x49b40821u, 0xf61e2562u, 0xc040b340u, 0x265e5a51u, 0xe9b6c7aau,
    0xd62f105du, 0x02441453u, 0xd8a1e681u, 0xe7d3fbc8u, 0x21e1cde6u,
    0xc33707d6u, 0xf4d50d87u, 0x455a14edu, 0xa9e3e905u, 0xfcefa3f8u,
    0x676f02d9u, 0x8d2a4c8au, 0xfffa3942u, 0x8771f681u, 0x6d9d6122u,
    0xfde5380cu, 0xa4beea44u, 0x4bdecfa9u, 0xf6bb4b60u, 0xbebfbc70u,
    0x289b7ec6u, 0xeaa127fau, 0xd4ef3085u, 0x04881d05u, 0xd9d4d039u,
    0xe6db99e5u, 0x1fa27cf8u, 0xc4ac5665u, 0xf4292244u, 0x432aff97u,
    0xab9423a7u, 0xfc93a039u, 0x655b59c3u, 0x8f0ccc92u, 0xffeff47du,
    0x85845dd1u, 0x6fa87e4fu, 0xfe2ce6e0u, 0xa3014314u, 0x4e0811a1u,
    0xf7537e82u, 0xbd3af235u, 0x2ad7d2bbu, 0xeb86d391u};

// The left-rotate amounts, per round and step within the round.
constexpr int kShift[4][4] = {
    {7, 12, 17, 22}, {5, 9, 14, 20}, {4, 11, 16, 23}, {6, 10, 15, 21}};

constexpr std::array<std::uint32_t, 4> kInitialState = {
    0x67452301u, 0xefcdab89u, 0x98badcfeu, 0x10325476u};

// Step I of the 64 (RFC 1321, section 3.4):
//   a = b + ((a + fn(b, c, d) + X[k] + T[I]) <<< s)
// The registers rotate one place per step, and the round (I / 16) picks the
// auxiliary function fn (F, G, H or I), the message word k and the shift s.
// W is std::uint32_t or a vector of them, one message per lane; every index
// and shift count is a constant, so both paths compile to straight-line
// code.
template <std::size_t I, typename W>
[[gnu::always_inline]] inline void md5_step(std::array<W, 4>& r,
                                            const std::array<W, 16>& x) {
  constexpr std::size_t round = I / 16;
  constexpr std::size_t k = round == 0   ? I
                            : round == 1 ? (1 + 5 * I) % 16
                            : round == 2 ? (5 + 3 * I) % 16
                                         : (7 * I) % 16;
  constexpr int s = kShift[round][I % 4];
  W& a = r[(4 - I % 4) % 4];
  const W& b = r[(5 - I % 4) % 4];
  const W& c = r[(6 - I % 4) % 4];
  const W& d = r[(7 - I % 4) % 4];
  W sum = a + x[k] + kSine[I];
  if constexpr (round == 0) {
    sum += (b & c) | (~b & d);
  } else if constexpr (round == 1) {
    sum += (b & d) | (c & ~d);
  } else if constexpr (round == 2) {
    sum += b ^ c ^ d;
  } else {
    sum += c ^ (b | ~d);
  }
  a = b + ((sum << s) | (sum >> (32 - s)));
}

template <typename W, std::size_t... I>
[[gnu::always_inline]] inline void md5_steps(std::array<W, 4>& r,
                                             const std::array<W, 16>& x,
                                             std::index_sequence<I...>) {
  (md5_step<I>(r, x), ...);
}

/// Absorb one 64-byte block, already loaded as 16 words, into `state`.
template <typename W>
[[gnu::always_inline]] inline void md5_compress(std::array<W, 4>& state,
                                                const std::array<W, 16>& x) {
  std::array<W, 4> r = state;
  md5_steps(r, x, std::make_index_sequence<64>{});
  for (std::size_t i = 0; i < 4; ++i) state[i] += r[i];
}

std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

void compress_block(std::array<std::uint32_t, 4>& state,
                    const std::uint8_t* block) {
  std::array<std::uint32_t, 16> x;
  for (std::size_t i = 0; i < 16; ++i) x[i] = load_le32(block + 4 * i);
  md5_compress(state, x);
}

Md5::Digest digest_of(const std::array<std::uint32_t, 4>& state) {
  Md5::Digest out;
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t j = 0; j < 4; ++j)
      out[4 * i + j] = static_cast<std::uint8_t>((state[i] >> (8 * j)) & 0xff);
  return out;
}

std::string hex_of(const Md5::Digest& d) {
  return hex_encode(
      BytesView(reinterpret_cast<const char*>(d.data()), d.size()));
}

// The lanes of md5_with_nonce_many.
constexpr std::size_t kLanes = 8;
using Lanes = std::uint32_t
    __attribute__((vector_size(kLanes * sizeof(std::uint32_t))));

/// One message as blocks: `body_blocks` whole blocks of data read in place,
/// then its tail blocks, built at `tail` in the group's tail buffer.
struct Job {
  const std::uint8_t* body = nullptr;
  std::size_t body_blocks = 0;
  std::size_t tail = 0;    // offset into the tail buffer
  std::size_t blocks = 0;  // body and tail
};

}  // namespace

Md5::Md5() { reset(); }

void Md5::reset() {
  state_ = kInitialState;
  total_len_ = 0;
  buf_len_ = 0;
  finished_ = false;
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
      compress_block(state_, buf_.data());
      buf_len_ = 0;
    }
  }
  while (off + 64 <= data.size()) {
    compress_block(state_,
                   reinterpret_cast<const std::uint8_t*>(data.data()) + off);
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
  return digest_of(state_);
}

Md5::Digest Md5::digest(BytesView data) {
  Md5 h;
  h.update(data);
  return h.finish();
}

std::string Md5::hex_digest(BytesView data) { return hex_of(digest(data)); }

std::string md5_with_nonce(BytesView data, BytesView nonce) {
  Md5 h;
  h.update(data);
  h.update(nonce);
  return hex_of(h.finish());
}

std::vector<std::string> md5_with_nonce_many(
    std::span<const NoncedMessage> messages) {
  const std::size_t n = messages.size();
  std::vector<std::string> out(n);
  if (n < 2) {
    for (std::size_t i = 0; i < n; ++i)
      out[i] = md5_with_nonce(messages[i].data, messages[i].nonce);
    return out;
  }

  // Lay every message out as blocks. A tail holds the data's last partial
  // block, the nonce, 0x80, zeros to 56 mod 64 and the 64-bit bit length.
  std::vector<Job> jobs(n);
  std::vector<std::uint8_t> tails;
  for (std::size_t i = 0; i < n; ++i) {
    const NoncedMessage& m = messages[i];
    const std::size_t partial = m.data.size() % 64;
    const std::size_t tail_bytes =
        (partial + m.nonce.size() + 1 + 8 + 63) / 64 * 64;
    Job& job = jobs[i];
    job.body = reinterpret_cast<const std::uint8_t*>(m.data.data());
    job.body_blocks = m.data.size() / 64;
    job.tail = tails.size();
    job.blocks = job.body_blocks + tail_bytes / 64;
    tails.resize(job.tail + tail_bytes);  // zero-filled
    std::uint8_t* tail = tails.data() + job.tail;
    std::copy(m.data.end() - partial, m.data.end(), tail);
    std::copy(m.nonce.begin(), m.nonce.end(), tail + partial);
    tail[partial + m.nonce.size()] = 0x80;
    const std::uint64_t bit_len =
        (static_cast<std::uint64_t>(m.data.size()) + m.nonce.size()) * 8;
    for (std::size_t b = 0; b < 8; ++b)
      tail[tail_bytes - 8 + b] =
          static_cast<std::uint8_t>((bit_len >> (8 * b)) & 0xff);
  }
  const auto block_at = [&jobs, &tails](std::size_t job, std::size_t block) {
    const Job& j = jobs[job];
    return block < j.body_blocks
               ? j.body + 64 * block
               : tails.data() + j.tail + 64 * (block - j.body_blocks);
  };

  // Longest first; a lane whose message ends takes the next one.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&jobs](std::size_t a, std::size_t b) {
                     return jobs[a].blocks > jobs[b].blocks;
                   });
  std::array<Lanes, 4> state{};
  std::array<Lanes, 16> x{};  // an idle lane keeps hashing stale words
  std::array<std::size_t, kLanes> lane_job{};
  std::array<std::size_t, kLanes> lane_block{};
  std::array<bool, kLanes> busy{};
  std::size_t busy_lanes = 0;
  std::size_t next = 0;
  const auto start = [&](std::size_t lane) {
    lane_job[lane] = order[next++];
    lane_block[lane] = 0;
    for (std::size_t w = 0; w < 4; ++w) state[w][lane] = kInitialState[w];
  };
  const auto lane_state = [&state](std::size_t lane) {
    return std::array<std::uint32_t, 4>{state[0][lane], state[1][lane],
                                        state[2][lane], state[3][lane]};
  };
  for (std::size_t lane = 0; lane < kLanes && next < n; ++lane) {
    start(lane);
    busy[lane] = true;
    ++busy_lanes;
  }
  while (busy_lanes > 1) {
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      if (!busy[lane]) continue;
      const std::uint8_t* block = block_at(lane_job[lane], lane_block[lane]);
      for (std::size_t w = 0; w < 16; ++w)
        x[w][lane] = load_le32(block + 4 * w);
    }
    md5_compress(state, x);
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      if (!busy[lane] || ++lane_block[lane] < jobs[lane_job[lane]].blocks)
        continue;
      out[lane_job[lane]] = hex_of(digest_of(lane_state(lane)));
      if (next < n) {
        start(lane);
      } else {
        busy[lane] = false;
        --busy_lanes;
      }
    }
  }
  // The last busy lane's message finishes on the scalar path.
  for (std::size_t lane = 0; lane < kLanes; ++lane) {
    if (!busy[lane]) continue;
    std::array<std::uint32_t, 4> scalar = lane_state(lane);
    const std::size_t job = lane_job[lane];
    for (std::size_t b = lane_block[lane]; b < jobs[job].blocks; ++b)
      compress_block(scalar, block_at(job, b));
    out[job] = hex_of(digest_of(scalar));
  }
  return out;
}

}  // namespace provcloud::util
