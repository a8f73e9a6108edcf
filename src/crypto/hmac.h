// HMAC-SHA256 (RFC 2104 / FIPS 198-1).
//
// This is the "MAC" that appears in every step of the Mykil join and rejoin
// protocols, and the integrity tag inside tickets.
//
// HmacKey precomputes the ipad/opad compression states once per key, so a
// long-lived key (alive messages, TESLA per-interval MAC keys) pays the two
// key-block compressions once instead of on every MAC. Building a key,
// mac_into() and verify() work in stack buffers: no heap allocation. The
// free functions are one-shot wrappers over it.
#pragma once

#include <array>
#include <span>

#include "common/bytes.h"
#include "crypto/sha256.h"

namespace mykil::crypto {

/// A keyed HMAC-SHA256 instance: build once, MAC many messages.
class HmacKey {
 public:
  static constexpr std::size_t kTagSize = Sha256::kDigestSize;

  /// Any key length; keys longer than one SHA-256 block are hashed first,
  /// per the RFC.
  explicit HmacKey(ByteView key);

  /// HMAC-SHA256(key, message) into `out`.
  void mac_into(ByteView message, std::span<std::uint8_t, kTagSize> out) const;
  /// HMAC-SHA256(key, message): a 32-byte tag.
  [[nodiscard]] Bytes mac(ByteView message) const;
  /// First `n` bytes of the tag (n >= 32 returns the full tag).
  [[nodiscard]] Bytes mac_trunc(ByteView message, std::size_t n) const;
  /// Constant-time check of a full or truncated tag (empty tags rejected).
  [[nodiscard]] bool verify(ByteView message, ByteView tag) const;

 private:
  using Midstate = std::array<std::uint32_t, 8>;
  Midstate inner_;  ///< compression state after absorbing key ^ ipad
  Midstate outer_;  ///< compression state after absorbing key ^ opad
};

/// Compute HMAC-SHA256(key, message). Returns a 32-byte tag.
Bytes hmac_sha256(ByteView key, ByteView message);

/// Constant-time verification of a full-length tag.
bool hmac_verify(ByteView key, ByteView message, ByteView tag);

/// Truncated MAC helper: first `n` bytes of the HMAC. The wire formats use
/// 16-byte truncated tags to keep message-size accounting close to the
/// paper's (which MACs with short tags).
Bytes hmac_sha256_trunc(ByteView key, ByteView message, std::size_t n);

}  // namespace mykil::crypto
