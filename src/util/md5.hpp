// MD5 (RFC 1321), implemented from scratch -- no external crypto dependency.
//
// The paper's Architectures 2 and 3 store MD5(data || nonce) in SimpleDB to
// detect data/provenance inconsistency under eventual consistency. MD5 is
// used here exactly as the paper uses it: as a content fingerprint, not as a
// security primitive.
//
// Two paths share one round schedule: RFC 1321's 64 steps are written once,
// as a template over the word type, and expanded at compile time.
//
//   Scalar -- Md5 and md5_with_nonce, one message at a time over
//       std::uint32_t. It is the reference: every reader
//       (consistency_checked_read, the Table-1 checker) verifies tokens
//       with it, whichever path made them.
//   Lanes  -- md5_with_nonce_many hashes the independent messages of one
//       flush group eight at a time, one message per lane of a 32-byte
//       GCC/Clang vector of std::uint32_t, after Guilford et al.,
//       "Processing Multiple Buffers in Parallel to Increase Performance on
//       Intel Architecture Processors" (Intel, 2010). No intrinsics and no
//       runtime dispatch: the compiler lowers the vector to whatever the
//       target has (two SSE2 registers by default, one AVX2 register with
//       -march=x86-64-v3). Body blocks are read in place; each message's
//       tail (its last partial block, the nonce and the padding) is built
//       into whole blocks, so nothing reads past a message's end. Words load
//       byte by byte, little-endian, so digests do not depend on the host.
//
// Lane schedule: the longest message loads first, and a lane whose message
// ends takes the next waiting one. Once nothing waits and only one lane is
// busy, that message finishes on the scalar path from its current state, so
// one long message in a group of short ones does not pay for seven idle
// lanes. A group of fewer than two messages is md5_with_nonce.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/bytes.hpp"

namespace provcloud::util {

class Md5 {
 public:
  using Digest = std::array<std::uint8_t, 16>;

  Md5();

  /// Absorb more input. May be called repeatedly.
  void update(BytesView data);

  /// Finalize and return the 16-byte digest. The object must not be reused
  /// after finish() without reset().
  Digest finish();

  void reset();

  /// One-shot helpers.
  static Digest digest(BytesView data);
  static std::string hex_digest(BytesView data);

 private:
  std::array<std::uint32_t, 4> state_;
  std::uint64_t total_len_ = 0;       // bytes absorbed so far
  std::array<std::uint8_t, 64> buf_;  // partial block
  std::size_t buf_len_ = 0;
  bool finished_ = false;
};

/// MD5(data || nonce) rendered as lowercase hex -- the consistency token the
/// paper stores in SimpleDB next to the provenance (section 4.2).
std::string md5_with_nonce(BytesView data, BytesView nonce);

/// One message of md5_with_nonce_many: the bytes data || nonce.
struct NoncedMessage {
  BytesView data;
  BytesView nonce;
};

/// md5_with_nonce of every message, in input order, hashed in vector lanes
/// (see the file comment). The views must stay valid for the call.
std::vector<std::string> md5_with_nonce_many(
    std::span<const NoncedMessage> messages);

}  // namespace provcloud::util
