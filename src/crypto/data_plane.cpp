#include "crypto/data_plane.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>

#include "common/error.h"

namespace mykil::crypto {

namespace {

constexpr std::size_t kNonceLen = 8;
constexpr std::size_t kTagLen = 16;

inline std::uint64_t nonce_le64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) {
    std::uint64_t r = 0;
    for (int i = 0; i < 8; ++i) r = r << 8 | ((v >> (8 * i)) & 0xFF);
    v = r;
  }
  return v;
}

}  // namespace

DataPlaneKey::DataPlaneKey(const SymmetricKey& key)
    : cipher_(key.derive("enc").bytes()), mac_(key.derive("mac").bytes()) {}

Bytes DataPlaneKey::seal(ByteView plaintext, Prng& prng) const {
  Bytes out;
  out.reserve(kNonceLen + plaintext.size() + kTagLen);
  std::array<std::uint8_t, kNonceLen> nonce;
  prng.fill(nonce);
  append(out, nonce);
  append(out, plaintext);
  // Encrypt in place: the plaintext bytes sit in their final wire position
  // and the keystream XOR happens right there — no scratch ciphertext.
  cipher_.ctr_xor(nonce_le64(out.data()), 0, out.data() + kNonceLen,
                  plaintext.size());
  std::array<std::uint8_t, HmacKey::kTagSize> tag;
  mac_.mac_into(out, tag);
  append(out, ByteView(tag.data(), kTagLen));
  return out;
}

Bytes DataPlaneKey::open(ByteView sealed) const {
  if (sealed.size() < kNonceLen + kTagLen)
    throw AuthError("sealed box too short");
  Bytes pt(sealed.size() - kNonceLen - kTagLen);
  if (!open_into(sealed, pt)) throw AuthError("sealed box tag mismatch");
  return pt;
}

bool DataPlaneKey::open_into(ByteView sealed,
                             std::span<std::uint8_t> out) const {
  if (sealed.size() != kNonceLen + out.size() + kTagLen) return false;
  ByteView body(sealed.data(), sealed.size() - kTagLen);
  ByteView tag(sealed.data() + body.size(), kTagLen);
  if (!mac_.verify(body, tag)) return false;
  std::copy(body.begin() + kNonceLen, body.end(), out.begin());
  cipher_.ctr_xor(nonce_le64(sealed.data()), 0, out.data(), out.size());
  return true;
}

const DataPlaneKey& DataPlaneCache::get(const SymmetricKey& key) {
  for (auto& [k, ctx] : slots_)
    if (k == key) return ctx;
  if (slots_.size() >= 2) slots_.pop_back();
  slots_.emplace(slots_.begin(), key, DataPlaneKey(key));
  return slots_.front().second;
}

std::optional<SymmetricKey> DataPlaneCache::open_key(
    ByteView box, const SymmetricKey& current,
    const std::optional<SymmetricKey>& previous) {
  std::array<std::uint8_t, SymmetricKey::kSize> raw;
  if (get(current).open_into(box, raw) ||
      (previous && get(*previous).open_into(box, raw)))
    return SymmetricKey(raw);
  return std::nullopt;
}

}  // namespace mykil::crypto
