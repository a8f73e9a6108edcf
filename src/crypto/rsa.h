// RSA public-key encryption and signatures, from scratch.
//
// Mirrors the paper's prototype, which used OpenSSL RSA_public_encrypt /
// RSA_private_decrypt (PKCS1-OAEP padding) and RSA_sign / RSA_verify with
// 2048-bit keys. We implement:
//   - key generation (Miller–Rabin primes, e = 65537, CRT private form),
//   - OAEP encryption with SHA-256/MGF1 (the paper's OpenSSL build used
//     SHA-1, giving a 215-byte plaintext cap at 2048 bits; with SHA-256 the
//     cap is 190 bytes — same mechanism, slightly smaller cap, and the same
//     "hybrid one-time symmetric key" workaround from Section V-D applies),
//   - PKCS#1-v1.5-style signatures over SHA-256 digests.
#pragma once

#include <cstdint>

#include "common/bytes.h"
#include "crypto/bignum.h"

namespace mykil::crypto {

class Prng;

/// Public half of an RSA key. Value type; freely copyable and serializable
/// (group members ship their public keys inside join messages).
struct RsaPublicKey {
  BigUInt n;  ///< modulus
  BigUInt e;  ///< public exponent

  /// Size of the modulus in bytes (= ciphertext and signature size).
  [[nodiscard]] std::size_t modulus_bytes() const { return (n.bit_length() + 7) / 8; }
  /// Largest message OAEP can carry under this key.
  [[nodiscard]] std::size_t max_plaintext() const;

  [[nodiscard]] Bytes serialize() const;
  static RsaPublicKey deserialize(ByteView data);
  /// Short stable identifier (first 8 bytes of SHA-256 of the encoding).
  [[nodiscard]] Bytes fingerprint() const;

  friend bool operator==(const RsaPublicKey&, const RsaPublicKey&) = default;
};

/// Private half, in CRT form for fast decryption/signing. The public
/// exponent is kept too: blinding needs it.
struct RsaPrivateKey {
  BigUInt n, e, d;
  BigUInt p, q, dp, dq, qinv;

  [[nodiscard]] std::size_t modulus_bytes() const { return (n.bit_length() + 7) / 8; }
};

struct RsaKeyPair {
  RsaPublicKey pub;
  RsaPrivateKey priv;
};

/// Generate a keypair with an exactly `bits`-bit modulus. Tests use 512–768
/// bits for speed; the join/rejoin latency benchmark uses 2048 to match the
/// paper.
RsaKeyPair rsa_generate(std::size_t bits, Prng& prng);

/// OAEP-encrypt `msg` (throws CryptoError if msg exceeds max_plaintext()).
Bytes rsa_encrypt(const RsaPublicKey& pub, ByteView msg, Prng& prng);
/// OAEP-decrypt; throws CryptoError on padding/integrity failure.
Bytes rsa_decrypt(const RsaPrivateKey& priv, ByteView ciphertext);

/// Sign SHA-256(msg) with a deterministic PKCS#1-v1.5-style encoding.
Bytes rsa_sign(const RsaPrivateKey& priv, ByteView msg);
/// Verify a signature produced by rsa_sign.
bool rsa_verify(const RsaPublicKey& pub, ByteView msg, ByteView signature);

/// MGF1 mask generation (exposed for tests).
Bytes mgf1_sha256(ByteView seed, std::size_t len);

/// RSA blinding — the paper's OpenSSL `RSA_blinding_on` (Section V-D):
/// private-key operations compute ((c * r^e)^d) * r^-1 mod n, decorrelating
/// timing from the key. As OpenSSL's BN_BLINDING does, each thread keeps a
/// pair (r^e, r^-1) per modulus, squares both after each use and draws a
/// fresh r every 32 uses, so the inverse is paid once per 32 operations.
/// The paper measured ~0.01 s extra per join; the micro benchmark measures
/// ours. Off by default; process-wide toggle (affects rsa_decrypt and
/// rsa_sign), safe to read from any thread.
void rsa_set_blinding(bool enabled);
[[nodiscard]] bool rsa_blinding_enabled();

}  // namespace mykil::crypto
