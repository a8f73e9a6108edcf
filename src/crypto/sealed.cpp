#include "crypto/sealed.h"

#include <atomic>

#include "common/error.h"
#include "crypto/data_plane.h"

namespace mykil::crypto {

namespace {

enum class PkMode : std::uint8_t { kDirect = 0, kHybrid = 1 };

std::atomic<std::uint64_t> g_pk_encrypts{0};
std::atomic<std::uint64_t> g_pk_decrypts{0};
std::atomic<std::uint64_t> g_pk_signs{0};
std::atomic<std::uint64_t> g_pk_verifies{0};

}  // namespace

Bytes sym_seal(const SymmetricKey& key, ByteView plaintext, Prng& prng) {
  return DataPlaneKey(key).seal(plaintext, prng);
}

Bytes sym_open(const SymmetricKey& key, ByteView sealed) {
  return DataPlaneKey(key).open(sealed);
}

Bytes pk_encrypt(const RsaPublicKey& pub, ByteView msg, Prng& prng) {
  g_pk_encrypts.fetch_add(1, std::memory_order_relaxed);
  Bytes out;
  if (msg.size() <= pub.max_plaintext()) {
    out.push_back(static_cast<std::uint8_t>(PkMode::kDirect));
    append(out, rsa_encrypt(pub, msg, prng));
    return out;
  }
  // Hybrid: RSA carries a fresh one-time key; the body rides under it.
  SymmetricKey onetime = SymmetricKey::random(prng);
  out.push_back(static_cast<std::uint8_t>(PkMode::kHybrid));
  Bytes wrapped = rsa_encrypt(pub, onetime.bytes(), prng);
  // Fixed-size RSA block: length known from the key, no prefix needed.
  append(out, wrapped);
  append(out, sym_seal(onetime, msg, prng));
  return out;
}

Bytes pk_decrypt(const RsaPrivateKey& priv, ByteView ciphertext) {
  g_pk_decrypts.fetch_add(1, std::memory_order_relaxed);
  if (ciphertext.empty()) throw CryptoError("empty pk ciphertext");
  auto mode = static_cast<PkMode>(ciphertext[0]);
  ByteView rest(ciphertext.data() + 1, ciphertext.size() - 1);
  const std::size_t k = priv.modulus_bytes();
  switch (mode) {
    case PkMode::kDirect:
      return rsa_decrypt(priv, rest);
    case PkMode::kHybrid: {
      if (rest.size() < k) throw CryptoError("hybrid ciphertext too short");
      Bytes key_raw = rsa_decrypt(priv, ByteView(rest.data(), k));
      SymmetricKey onetime(key_raw);
      return sym_open(onetime, ByteView(rest.data() + k, rest.size() - k));
    }
  }
  throw CryptoError("unknown pk ciphertext mode");
}

PkOpCounts pk_op_counts() {
  return {g_pk_encrypts.load(), g_pk_decrypts.load(), g_pk_signs.load(),
          g_pk_verifies.load()};
}

void pk_reset_op_counts() {
  g_pk_encrypts = 0;
  g_pk_decrypts = 0;
  g_pk_signs = 0;
  g_pk_verifies = 0;
}

void pk_count_sign() { g_pk_signs.fetch_add(1, std::memory_order_relaxed); }
void pk_count_verify() { g_pk_verifies.fetch_add(1, std::memory_order_relaxed); }

}  // namespace mykil::crypto
