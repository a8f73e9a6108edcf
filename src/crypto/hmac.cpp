#include "crypto/hmac.h"

#include <algorithm>

namespace mykil::crypto {

namespace {

constexpr std::size_t kBlock = Sha256::kBlockSize;

}  // namespace

HmacKey::HmacKey(ByteView key) {
  std::array<std::uint8_t, kBlock> k{};
  if (key.size() > kBlock) {
    Sha256 h;
    h.update(key);
    h.finish_into(std::span<std::uint8_t, Sha256::kDigestSize>(
        k.data(), Sha256::kDigestSize));
  } else {
    std::copy(key.begin(), key.end(), k.begin());
  }

  // Each pad is exactly one block, so both states are compressed and
  // nothing is left buffered: the midstates resume mid-stream.
  std::array<std::uint8_t, kBlock> pad;
  for (std::size_t i = 0; i < kBlock; ++i) pad[i] = k[i] ^ 0x36;
  Sha256 inner;
  inner.update(pad);
  inner_ = inner.midstate();
  for (std::size_t i = 0; i < kBlock; ++i) pad[i] = k[i] ^ 0x5c;
  Sha256 outer;
  outer.update(pad);
  outer_ = outer.midstate();
}

void HmacKey::mac_into(ByteView message,
                       std::span<std::uint8_t, kTagSize> out) const {
  Sha256 inner(inner_, kBlock);
  inner.update(message);
  std::array<std::uint8_t, Sha256::kDigestSize> inner_digest;
  inner.finish_into(inner_digest);

  Sha256 outer(outer_, kBlock);
  outer.update(inner_digest);
  outer.finish_into(out);
}

Bytes HmacKey::mac(ByteView message) const {
  Bytes tag(kTagSize);
  mac_into(message, std::span<std::uint8_t, kTagSize>(tag.data(), kTagSize));
  return tag;
}

Bytes HmacKey::mac_trunc(ByteView message, std::size_t n) const {
  Bytes full = mac(message);
  if (n < full.size()) full.resize(n);
  return full;
}

bool HmacKey::verify(ByteView message, ByteView tag) const {
  std::array<std::uint8_t, kTagSize> expected;
  mac_into(message, expected);
  if (tag.size() > expected.size() || tag.empty()) return false;
  // Accept truncated tags of the caller-provided length.
  return ct_equal(ByteView(expected.data(), tag.size()), tag);
}

Bytes hmac_sha256(ByteView key, ByteView message) {
  return HmacKey(key).mac(message);
}

bool hmac_verify(ByteView key, ByteView message, ByteView tag) {
  return HmacKey(key).verify(message, tag);
}

Bytes hmac_sha256_trunc(ByteView key, ByteView message, std::size_t n) {
  return HmacKey(key).mac_trunc(message, n);
}

}  // namespace mykil::crypto
