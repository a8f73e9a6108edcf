// Typed 128-bit symmetric key, the unit of all group/area/auxiliary keys.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <string_view>

#include "common/bytes.h"
#include "common/error.h"
#include "crypto/prng.h"
#include "crypto/sha256.h"

namespace mykil::crypto {

/// A 128-bit symmetric key (the paper's choice for area and auxiliary keys).
/// A 16-byte value: copying, deriving and comparing one never touches the
/// heap, and a key tree node or held path key stores it inline.
class SymmetricKey {
 public:
  static constexpr std::size_t kSize = 16;

  /// All-zero key; only useful as a placeholder before assignment.
  SymmetricKey() = default;

  /// Throws CryptoError unless `raw` is exactly kSize bytes.
  explicit SymmetricKey(ByteView raw) {
    if (raw.size() != kSize) throw CryptoError("SymmetricKey must be 16 bytes");
    std::copy(raw.begin(), raw.end(), key_.begin());
  }

  static SymmetricKey random(Prng& prng) {
    SymmetricKey k;
    prng.fill(k.key_);
    return k;
  }

  /// Derive a subkey bound to a purpose label (e.g. separating the cipher
  /// key from the MAC key inside sym_seal): SHA-256(key || purpose), cut to
  /// kSize bytes.
  [[nodiscard]] SymmetricKey derive(std::string_view purpose) const {
    Sha256 h;
    h.update(key_);
    h.update(ByteView(reinterpret_cast<const std::uint8_t*>(purpose.data()),
                      purpose.size()));
    std::array<std::uint8_t, Sha256::kDigestSize> material;
    h.finish_into(material);
    return SymmetricKey(ByteView(material.data(), kSize));
  }

  [[nodiscard]] ByteView bytes() const { return key_; }

  /// Short stable identifier for logging/assertions (not secret-preserving).
  [[nodiscard]] std::uint64_t fingerprint() const {
    Bytes d = Sha256::digest(key_);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v = v << 8 | d[static_cast<std::size_t>(i)];
    return v;
  }

  friend bool operator==(const SymmetricKey& a, const SymmetricKey& b) {
    return ct_equal(a.key_, b.key_);
  }

 private:
  std::array<std::uint8_t, kSize> key_{};
};

}  // namespace mykil::crypto
