#include "crypto/rsa.h"

#include <atomic>

#include "common/error.h"
#include "common/wire.h"
#include "crypto/hmac.h"
#include "crypto/modulus_cache.h"
#include "crypto/prng.h"
#include "crypto/sha256.h"

namespace mykil::crypto {

namespace {

constexpr std::size_t kHashLen = Sha256::kDigestSize;

// OAEP label hash: we always use the empty label.
const Bytes& empty_label_hash() {
  static const Bytes kHash = Sha256::digest(ByteView{});
  return kHash;
}

std::atomic<bool> g_blinding_enabled{false};

// CRT exponentiation: m = c^d mod n using the private key's p/q halves.
// Each half runs on its prime's cached Montgomery context (built once per
// key and thread, and reducing c itself); the recombination below is a
// handful of full-width ops and stays plain.
BigUInt crt_core(const RsaPrivateKey& priv, const BigUInt& c) {
  const MontgomeryContext& ctx_p = MontgomeryContext::cached(priv.p);
  const MontgomeryContext& ctx_q = MontgomeryContext::cached(priv.q);
  BigUInt m1 = ctx_p.mod_exp(c, priv.dp);
  BigUInt m2 = ctx_q.mod_exp(c, priv.dq);
  // h = qinv * (m1 - m2) mod p, careful with unsigned subtraction.
  BigUInt diff = (m1 >= m2) ? (m1 - m2) : (priv.p - ((m2 - m1) % priv.p)) % priv.p;
  BigUInt h = (priv.qinv * diff) % priv.p;
  return m2 + priv.q * h;
}

/// Uses of one blinding factor r before a fresh one is drawn.
constexpr unsigned kBlindingUses = 32;

/// One thread's blinding pair for one modulus, kept as OpenSSL's
/// BN_BLINDING keeps it: a = r^e and a_inv = r^-1 mod n. Each use after the
/// first squares both, so successive operations are blinded by r, r^2, r^4,
/// ..., and every kBlindingUses uses a fresh r replaces them.
struct Blinding {
  BigUInt n, a, a_inv;
  unsigned uses = 0;
  [[nodiscard]] const BigUInt& modulus() const { return n; }
};

BigUInt crt_private_op(const RsaPrivateKey& priv, const BigUInt& c) {
  if (!g_blinding_enabled || priv.e.is_zero()) return crt_core(priv, c);
  // Per thread, beside the cached Montgomery contexts, so no lookup takes a
  // lock. Blinding randomness never reaches an output, so a fixed seed
  // keeps runs repeatable.
  thread_local ModulusCache<Blinding> pairs(MontgomeryContext::kCacheCapacity);
  thread_local Prng prng(0x424C494E44ULL);  // "BLIND"
  Blinding& b = pairs.get(priv.n, [&] { return Blinding{priv.n, {}, {}, 0}; });
  const MontgomeryContext& ctx = MontgomeryContext::cached(priv.n);
  if (b.uses++ % kBlindingUses == 0) {
    for (;;) {
      const BigUInt r = BigUInt::random_below(priv.n, prng);
      if (r.is_zero()) continue;
      try {
        b.a_inv = BigUInt::mod_inverse(r, priv.n);
      } catch (const CryptoError&) {
        continue;  // r shares a factor with n: astronomically rare
      }
      b.a = ctx.mod_exp(r, priv.e);
      break;
    }
  } else {
    b.a = ctx.sqr(b.a);
    b.a_inv = ctx.sqr(b.a_inv);
  }
  // Blind: c' = c * r^e mod n; unblind: m = m' * r^-1 mod n.
  return ctx.mul(crt_core(priv, ctx.mul(c, b.a)), b.a_inv);
}

// EMSA-PKCS1-v1.5 shape, k bytes: 00 01 FF..FF 00 || "sha256:" || SHA-256(msg).
// Empty when k is too small to hold it.
Bytes emsa_encode(ByteView msg, std::size_t k) {
  static constexpr char kPrefix[] = "sha256:";
  constexpr std::size_t t_len = sizeof(kPrefix) - 1 + kHashLen;
  if (k < t_len + 11) return {};
  Bytes em(k, 0xFF);
  em[0] = 0x00;
  em[1] = 0x01;
  em[k - t_len - 1] = 0x00;
  std::copy(kPrefix, kPrefix + sizeof(kPrefix) - 1,
            em.end() - static_cast<std::ptrdiff_t>(t_len));
  const Bytes digest = Sha256::digest(msg);
  std::copy(digest.begin(), digest.end(),
            em.end() - static_cast<std::ptrdiff_t>(kHashLen));
  return em;
}

}  // namespace

void rsa_set_blinding(bool enabled) { g_blinding_enabled = enabled; }
bool rsa_blinding_enabled() { return g_blinding_enabled; }

std::size_t RsaPublicKey::max_plaintext() const {
  std::size_t k = modulus_bytes();
  if (k < 2 * kHashLen + 2) return 0;
  return k - 2 * kHashLen - 2;
}

Bytes RsaPublicKey::serialize() const {
  WireWriter w;
  w.bytes(n.to_bytes_be());
  w.bytes(e.to_bytes_be());
  return w.take();
}

RsaPublicKey RsaPublicKey::deserialize(ByteView data) {
  WireReader r(data);
  RsaPublicKey pub;
  pub.n = BigUInt::from_bytes_be(r.bytes());
  pub.e = BigUInt::from_bytes_be(r.bytes());
  r.expect_done();
  return pub;
}

Bytes RsaPublicKey::fingerprint() const {
  Bytes digest = Sha256::digest(serialize());
  digest.resize(8);
  return digest;
}

RsaKeyPair rsa_generate(std::size_t bits, Prng& prng) {
  if (bits < 128) throw CryptoError("RSA modulus too small");
  const BigUInt e(65537);
  for (;;) {
    BigUInt p = BigUInt::generate_prime(bits / 2, prng);
    BigUInt q = BigUInt::generate_prime(bits - bits / 2, prng);
    if (p == q) continue;
    if (p < q) std::swap(p, q);  // CRT below assumes qinv = q^-1 mod p
    BigUInt n = p * q;
    if (n.bit_length() != bits) continue;
    BigUInt phi = (p - BigUInt(1)) * (q - BigUInt(1));
    if (BigUInt::gcd(e, phi) != BigUInt(1)) continue;
    BigUInt d = BigUInt::mod_inverse(e, phi);

    RsaKeyPair kp;
    kp.pub = RsaPublicKey{n, e};
    kp.priv.n = n;
    kp.priv.e = e;
    kp.priv.d = d;
    kp.priv.p = p;
    kp.priv.q = q;
    kp.priv.dp = d % (p - BigUInt(1));
    kp.priv.dq = d % (q - BigUInt(1));
    kp.priv.qinv = BigUInt::mod_inverse(q, p);
    return kp;
  }
}

Bytes mgf1_sha256(ByteView seed, std::size_t len) {
  Bytes out;
  out.reserve(len + kHashLen);
  std::uint32_t counter = 0;
  while (out.size() < len) {
    WireWriter w;
    w.raw(seed);
    w.u32(counter++);
    Bytes block = Sha256::digest(w.data());
    append(out, block);
  }
  out.resize(len);
  return out;
}

Bytes rsa_encrypt(const RsaPublicKey& pub, ByteView msg, Prng& prng) {
  const std::size_t k = pub.modulus_bytes();
  if (k < 2 * kHashLen + 2)
    throw CryptoError("RSA key too small for OAEP with SHA-256");
  if (msg.size() > pub.max_plaintext())
    throw CryptoError("message too long for RSA-OAEP under this key");

  // EM = 0x00 || maskedSeed (hLen) || maskedDB (k - hLen - 1)
  const std::size_t db_len = k - kHashLen - 1;
  Bytes db(db_len, 0);
  const Bytes& lhash = empty_label_hash();
  std::copy(lhash.begin(), lhash.end(), db.begin());
  db[db_len - msg.size() - 1] = 0x01;
  std::copy(msg.begin(), msg.end(), db.end() - static_cast<std::ptrdiff_t>(msg.size()));

  Bytes seed = prng.bytes(kHashLen);
  Bytes db_mask = mgf1_sha256(seed, db_len);
  xor_into(db, db_mask);
  Bytes seed_mask = mgf1_sha256(db, kHashLen);
  xor_into(seed, seed_mask);

  Bytes em(k, 0);
  std::copy(seed.begin(), seed.end(), em.begin() + 1);
  std::copy(db.begin(), db.end(), em.begin() + 1 + static_cast<std::ptrdiff_t>(kHashLen));

  BigUInt m = BigUInt::from_bytes_be(em);
  BigUInt c = BigUInt::mod_exp_mont(m, pub.e, pub.n);
  return c.to_bytes_be(k);
}

Bytes rsa_decrypt(const RsaPrivateKey& priv, ByteView ciphertext) {
  const std::size_t k = priv.modulus_bytes();
  if (ciphertext.size() != k) throw CryptoError("RSA ciphertext length mismatch");
  BigUInt c = BigUInt::from_bytes_be(ciphertext);
  if (c >= priv.n) throw CryptoError("RSA ciphertext out of range");
  BigUInt m = crt_private_op(priv, c);
  Bytes em = m.to_bytes_be(k);

  if (em[0] != 0x00) throw CryptoError("OAEP decoding failure");
  Bytes seed(em.begin() + 1, em.begin() + 1 + static_cast<std::ptrdiff_t>(kHashLen));
  Bytes db(em.begin() + 1 + static_cast<std::ptrdiff_t>(kHashLen), em.end());

  Bytes seed_mask = mgf1_sha256(db, kHashLen);
  xor_into(seed, seed_mask);
  Bytes db_mask = mgf1_sha256(seed, db.size());
  xor_into(db, db_mask);

  const Bytes& lhash = empty_label_hash();
  if (!ct_equal(ByteView(db.data(), kHashLen), lhash))
    throw CryptoError("OAEP decoding failure");
  std::size_t i = kHashLen;
  while (i < db.size() && db[i] == 0x00) ++i;
  if (i == db.size() || db[i] != 0x01) throw CryptoError("OAEP decoding failure");
  return Bytes(db.begin() + static_cast<std::ptrdiff_t>(i + 1), db.end());
}

Bytes rsa_sign(const RsaPrivateKey& priv, ByteView msg) {
  const std::size_t k = priv.modulus_bytes();
  const Bytes em = emsa_encode(msg, k);
  if (em.empty()) throw CryptoError("RSA key too small to sign");
  BigUInt s = crt_private_op(priv, BigUInt::from_bytes_be(em));
  return s.to_bytes_be(k);
}

bool rsa_verify(const RsaPublicKey& pub, ByteView msg, ByteView signature) {
  const std::size_t k = pub.modulus_bytes();
  if (signature.size() != k) return false;
  const Bytes expected = emsa_encode(msg, k);
  if (expected.empty()) return false;
  BigUInt s = BigUInt::from_bytes_be(signature);
  if (s >= pub.n) return false;
  BigUInt m = BigUInt::mod_exp_mont(s, pub.e, pub.n);
  return ct_equal(m.to_bytes_be(k), expected);  // the whole block
}

}  // namespace mykil::crypto
