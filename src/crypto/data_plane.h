// Precomputed data-plane sealing context (DESIGN.md 12).
//
// This is the one implementation of the sealed box: nonce(8) || Speck128-CTR
// ciphertext || HMAC-SHA256 tag truncated to 16 bytes, under the subkeys
// derive("enc")/derive("mac"). sym_seal/sym_open build a DataPlaneKey per
// call, which re-derives the subkeys, re-runs the Speck key schedule and
// re-absorbs the HMAC pads every time. That is fine for control-plane
// messages (a handful per protocol step) but dominates the cost of a
// high-rate application data stream sealed under one long-lived group key,
// so the data path keeps one DataPlaneKey per key; seal/open then touch
// only the message bytes, which is where the SIMD Speck-CTR and SHA-256
// kernels earn their keep.
#pragma once

#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "crypto/hmac.h"
#include "crypto/keys.h"
#include "crypto/speck.h"

namespace mykil::crypto {

/// Sealing context for one symmetric key: build once, seal/open many.
class DataPlaneKey {
 public:
  explicit DataPlaneKey(const SymmetricKey& key);

  /// Seal `plaintext` under a fresh 8-byte nonce drawn from `prng`.
  [[nodiscard]] Bytes seal(ByteView plaintext, Prng& prng) const;

  /// Open a box sealed by seal()/sym_seal; throws AuthError on a bad tag.
  [[nodiscard]] Bytes open(ByteView sealed) const;

  /// Open `sealed` into `out`, which must not overlap it. False, with `out`
  /// untouched, unless the box carries exactly out.size() plaintext bytes
  /// and its tag verifies; the tag is compared in constant time before a
  /// byte is decrypted. Allocates nothing: a receiver opens straight into
  /// the buffer it keeps.
  [[nodiscard]] bool open_into(ByteView sealed,
                               std::span<std::uint8_t> out) const;

 private:
  Speck128 cipher_;  ///< key schedule for derive("enc"), run once
  HmacKey mac_;      ///< ipad/opad states for derive("mac"), run once
};

/// The contexts of the two keys a data path uses at once, the current and
/// the previous group key: each is built when its key first seals or opens
/// a packet, not per packet.
class DataPlaneCache {
 public:
  /// The context of `key`; building a third drops the least recent one.
  const DataPlaneKey& get(const SymmetricKey& key);
  /// Open a sealed key (a data packet's K_d box) under `current`, else
  /// under `previous`; nullopt if the box does not hold exactly one key or
  /// neither key's tag verifies. Allocates nothing once both contexts are
  /// built.
  std::optional<SymmetricKey> open_key(
      ByteView box, const SymmetricKey& current,
      const std::optional<SymmetricKey>& previous);

 private:
  std::vector<std::pair<SymmetricKey, DataPlaneKey>> slots_;  ///< recent first
};

}  // namespace mykil::crypto
