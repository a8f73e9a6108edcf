// SHA-256 (FIPS 180-4), implemented from scratch.
//
// Used as: the MAC core (via HMAC), the PRNG core, RSA-OAEP's hash/MGF1,
// signature digests, and key fingerprints.
//
// The compression function is runtime-dispatched (crypto/cpu_features.h):
// it uses the x86 SHA extension where present, with digests bit-identical
// to the portable scalar core (DESIGN.md 12).
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "common/bytes.h"

namespace mykil::crypto {

/// Incremental SHA-256 hasher.
///
///   Sha256 h;
///   h.update(part1);
///   h.update(part2);
///   Bytes digest = h.finish();   // 32 bytes
///
/// `finish()` finalizes; the object must not be updated afterwards.
class Sha256 {
 public:
  static constexpr std::size_t kDigestSize = 32;
  static constexpr std::size_t kBlockSize = 64;

  Sha256();
  /// Resume from a midstate() taken after `absorbed` bytes, a whole number
  /// of blocks (throws CryptoError otherwise), as if those bytes had just
  /// been absorbed. HmacKey keeps its two pad blocks this way.
  Sha256(const std::array<std::uint32_t, 8>& midstate, std::uint64_t absorbed);

  void update(ByteView data);
  /// Finalize and return the 32-byte digest. May be called once.
  Bytes finish();
  /// finish() into a caller buffer: the same digest, no allocation.
  void finish_into(std::span<std::uint8_t, kDigestSize> out);

  /// One-shot convenience.
  static Bytes digest(ByteView data);

  /// The compression state after the blocks absorbed so far. Only valid on
  /// a block boundary (throws CryptoError if a partial block is buffered or
  /// the hash is finished) — the resume point HmacKey keeps for its pads.
  [[nodiscard]] std::array<std::uint32_t, 8> midstate() const;

 private:
  void process_blocks(const std::uint8_t* data, std::size_t n);

  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, kBlockSize> buffer_;
  std::size_t buffer_len_ = 0;
  std::uint64_t total_len_ = 0;
  bool finished_ = false;
};

}  // namespace mykil::crypto
