#include "crypto/data_plane.h"

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
  Bytes nonce = prng.bytes(kNonceLen);
  append(out, nonce);
  append(out, plaintext);
  // Encrypt in place: the plaintext bytes sit in their final wire position
  // and the keystream XOR happens right there — no scratch ciphertext.
  cipher_.ctr_xor(nonce_le64(out.data()), 0, out.data() + kNonceLen,
                  plaintext.size());
  Bytes tag = mac_.mac_trunc(ByteView(out.data(), out.size()), kTagLen);
  append(out, tag);
  return out;
}

Bytes DataPlaneKey::open(ByteView sealed) const {
  if (sealed.size() < kNonceLen + kTagLen)
    throw AuthError("sealed box too short");
  ByteView body(sealed.data(), sealed.size() - kTagLen);
  ByteView tag(sealed.data() + sealed.size() - kTagLen, kTagLen);
  if (!mac_.verify(body, tag)) throw AuthError("sealed box tag mismatch");
  Bytes pt(sealed.begin() + kNonceLen, sealed.end() - kTagLen);
  cipher_.ctr_xor(nonce_le64(sealed.data()), 0, pt.data(), pt.size());
  return pt;
}

DataPlaneKey::Open4Result DataPlaneKey::open4(
    const std::array<ByteView, 4>& sealed) const {
  Open4Result result;
  std::array<ByteView, 4> bodies;
  std::array<ByteView, 4> tags;
  for (std::size_t i = 0; i < 4; ++i) {
    if (sealed[i].size() < kNonceLen + kTagLen) continue;  // empty tag rejects
    bodies[i] = ByteView(sealed[i].data(), sealed[i].size() - kTagLen);
    tags[i] = ByteView(sealed[i].data() + sealed[i].size() - kTagLen, kTagLen);
  }
  result.ok = mac_.verify4(bodies, tags);
  for (std::size_t i = 0; i < 4; ++i) {
    if (!result.ok[i]) continue;
    Bytes pt(sealed[i].begin() + kNonceLen, sealed[i].end() - kTagLen);
    cipher_.ctr_xor(nonce_le64(sealed[i].data()), 0, pt.data(), pt.size());
    result.plaintexts[i] = std::move(pt);
  }
  return result;
}

const DataPlaneKey& DataPlaneCache::get(const SymmetricKey& key) {
  for (auto& [raw, ctx] : slots_)
    if (raw == key.raw()) return ctx;
  if (slots_.size() >= 2) slots_.pop_back();
  slots_.emplace(slots_.begin(), key.raw(), DataPlaneKey(key));
  return slots_.front().second;
}

std::optional<Bytes> DataPlaneCache::open(
    ByteView box, const SymmetricKey& current,
    const std::optional<SymmetricKey>& previous) {
  try {
    return get(current).open(box);
  } catch (const AuthError&) {
  }
  if (previous) {
    try {
      return get(*previous).open(box);
    } catch (const AuthError&) {
    }
  }
  return std::nullopt;
}

}  // namespace mykil::crypto
