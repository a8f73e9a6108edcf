// RSA keygen, OAEP encryption, and signatures, plus byte-exact known
// answers and the per-thread Montgomery context cache RSA runs on.
//
// Tests use 512–1024-bit keys for speed. Key size picks the Montgomery
// kernel (fixed-width up to 768-bit moduli, the runtime-width loop above),
// which the known answers cover on both sides; the kernels themselves are
// cross-checked in crypto_montgomery_test.cpp. On a BMI2+ADX host the
// products run the ADX assembly; ctest's crypto_test_forced_scalar entry
// runs this file again on the portable kernels.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/hex.h"
#include "crypto/prng.h"
#include "crypto/rsa.h"

namespace mykil::crypto {
namespace {

// Shared fixture: keygen is the slow part, do it once per suite.
class RsaTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    prng_ = new Prng(1234);
    kp_ = new RsaKeyPair(rsa_generate(768, *prng_));
  }
  static void TearDownTestSuite() {
    delete kp_;
    delete prng_;
    kp_ = nullptr;
    prng_ = nullptr;
  }

  static Prng* prng_;
  static RsaKeyPair* kp_;
};

Prng* RsaTest::prng_ = nullptr;
RsaKeyPair* RsaTest::kp_ = nullptr;

TEST_F(RsaTest, ModulusHasRequestedBits) {
  EXPECT_EQ(kp_->pub.n.bit_length(), 768u);
  EXPECT_EQ(kp_->pub.modulus_bytes(), 96u);
}

TEST_F(RsaTest, PublicExponentIsF4) {
  EXPECT_EQ(kp_->pub.e, BigUInt(65537));
}

TEST_F(RsaTest, EncryptDecryptRoundTrip) {
  Bytes msg = to_bytes("attack at dawn");
  Bytes ct = rsa_encrypt(kp_->pub, msg, *prng_);
  EXPECT_EQ(ct.size(), kp_->pub.modulus_bytes());
  EXPECT_EQ(rsa_decrypt(kp_->priv, ct), msg);
}

TEST_F(RsaTest, EncryptionIsRandomized) {
  Bytes msg = to_bytes("same message");
  Bytes ct1 = rsa_encrypt(kp_->pub, msg, *prng_);
  Bytes ct2 = rsa_encrypt(kp_->pub, msg, *prng_);
  EXPECT_NE(ct1, ct2);  // OAEP seeds differ
  EXPECT_EQ(rsa_decrypt(kp_->priv, ct1), msg);
  EXPECT_EQ(rsa_decrypt(kp_->priv, ct2), msg);
}

TEST_F(RsaTest, EmptyMessage) {
  Bytes ct = rsa_encrypt(kp_->pub, ByteView{}, *prng_);
  EXPECT_TRUE(rsa_decrypt(kp_->priv, ct).empty());
}

TEST_F(RsaTest, MaxLengthMessage) {
  // 768-bit key, SHA-256 OAEP: 96 - 66 = 30 bytes of capacity.
  Bytes msg(kp_->pub.max_plaintext(), 0x5A);
  Bytes ct = rsa_encrypt(kp_->pub, msg, *prng_);
  EXPECT_EQ(rsa_decrypt(kp_->priv, ct), msg);
  EXPECT_THROW(rsa_encrypt(kp_->pub, Bytes(kp_->pub.max_plaintext() + 1, 0), *prng_),
               CryptoError);
}

TEST(RsaSmallKey, TooSmallForOaepThrows) {
  // A 512-bit modulus (64 bytes) cannot carry SHA-256 OAEP (needs 66).
  Prng prng(888);
  RsaKeyPair kp = rsa_generate(512, prng);
  EXPECT_EQ(kp.pub.max_plaintext(), 0u);
  EXPECT_THROW(rsa_encrypt(kp.pub, ByteView{}, prng), CryptoError);
  // Signatures still work at this size.
  Bytes sig = rsa_sign(kp.priv, to_bytes("m"));
  EXPECT_TRUE(rsa_verify(kp.pub, to_bytes("m"), sig));
}

TEST_F(RsaTest, TamperedCiphertextRejected) {
  Bytes ct = rsa_encrypt(kp_->pub, to_bytes("msg"), *prng_);
  ct[ct.size() / 2] ^= 0x01;
  EXPECT_THROW(rsa_decrypt(kp_->priv, ct), CryptoError);
}

TEST_F(RsaTest, WrongLengthCiphertextRejected) {
  Bytes short_ct(10, 0);
  EXPECT_THROW(rsa_decrypt(kp_->priv, short_ct), CryptoError);
}

TEST_F(RsaTest, SignVerifyRoundTrip) {
  Bytes msg = to_bytes("key update: area key v17");
  Bytes sig = rsa_sign(kp_->priv, msg);
  EXPECT_EQ(sig.size(), kp_->pub.modulus_bytes());
  EXPECT_TRUE(rsa_verify(kp_->pub, msg, sig));
}

TEST_F(RsaTest, SignatureRejectsModifiedMessage) {
  Bytes msg = to_bytes("original");
  Bytes sig = rsa_sign(kp_->priv, msg);
  EXPECT_FALSE(rsa_verify(kp_->pub, to_bytes("modified"), sig));
}

TEST_F(RsaTest, SignatureRejectsModifiedSignature) {
  Bytes msg = to_bytes("original");
  Bytes sig = rsa_sign(kp_->priv, msg);
  sig[0] ^= 1;
  EXPECT_FALSE(rsa_verify(kp_->pub, msg, sig));
}

TEST_F(RsaTest, SignatureRejectsWrongKey) {
  Prng other_prng(777);
  RsaKeyPair other = rsa_generate(512, other_prng);
  Bytes msg = to_bytes("original");
  Bytes sig = rsa_sign(kp_->priv, msg);
  EXPECT_FALSE(rsa_verify(other.pub, msg, sig));
}

TEST_F(RsaTest, WrongSizeSignatureRejected) {
  EXPECT_FALSE(rsa_verify(kp_->pub, to_bytes("m"), Bytes(8, 0)));
}

TEST_F(RsaTest, PublicKeySerializationRoundTrip) {
  Bytes ser = kp_->pub.serialize();
  RsaPublicKey back = RsaPublicKey::deserialize(ser);
  EXPECT_EQ(back, kp_->pub);
}

TEST_F(RsaTest, FingerprintStableAndShort) {
  EXPECT_EQ(kp_->pub.fingerprint().size(), 8u);
  EXPECT_EQ(kp_->pub.fingerprint(), kp_->pub.fingerprint());
}

TEST(RsaLarger, Bits768CarriesOaepPayload) {
  // 768-bit modulus: 96 bytes, max_plaintext = 96 - 66 = 30.
  Prng prng(555);
  RsaKeyPair kp = rsa_generate(768, prng);
  EXPECT_EQ(kp.pub.max_plaintext(), 30u);
  Bytes msg(30, 0xA7);
  EXPECT_EQ(rsa_decrypt(kp.priv, rsa_encrypt(kp.pub, msg, prng)), msg);
  EXPECT_THROW(rsa_encrypt(kp.pub, Bytes(31, 0), prng), CryptoError);
}

TEST(RsaKeygen, DistinctKeysFromDistinctSeeds) {
  Prng p1(1), p2(2);
  RsaKeyPair k1 = rsa_generate(512, p1);
  RsaKeyPair k2 = rsa_generate(512, p2);
  EXPECT_NE(k1.pub.n, k2.pub.n);
}

TEST(RsaKeygen, DeterministicFromSeed) {
  Prng p1(99), p2(99);
  EXPECT_EQ(rsa_generate(512, p1).pub.n, rsa_generate(512, p2).pub.n);
}

class RsaBlindingGuard {
 public:
  RsaBlindingGuard() { rsa_set_blinding(true); }
  ~RsaBlindingGuard() { rsa_set_blinding(false); }
};

TEST(RsaBlinding, DecryptionUnchangedUnderBlinding) {
  Prng prng(606);
  RsaKeyPair kp = rsa_generate(768, prng);
  Bytes msg = to_bytes("blinded payloads match");
  Bytes ct = rsa_encrypt(kp.pub, msg, prng);
  Bytes plain_off = rsa_decrypt(kp.priv, ct);
  {
    RsaBlindingGuard guard;
    EXPECT_TRUE(rsa_blinding_enabled());
    EXPECT_EQ(rsa_decrypt(kp.priv, ct), plain_off);
    // Several rounds: each uses a fresh blinding factor.
    for (int i = 0; i < 5; ++i) EXPECT_EQ(rsa_decrypt(kp.priv, ct), msg);
  }
  EXPECT_FALSE(rsa_blinding_enabled());
}

TEST(RsaBlinding, SignaturesUnchangedUnderBlinding) {
  Prng prng(607);
  RsaKeyPair kp = rsa_generate(768, prng);
  Bytes msg = to_bytes("sign me");
  Bytes sig_plain = rsa_sign(kp.priv, msg);
  RsaBlindingGuard guard;
  Bytes sig_blind = rsa_sign(kp.priv, msg);
  // RSA signatures are deterministic, so blinding must not change them.
  EXPECT_EQ(sig_blind, sig_plain);
  EXPECT_TRUE(rsa_verify(kp.pub, msg, sig_blind));
}

TEST(RsaBlinding, ReusedPairsKeepTheBytesAcrossRefreshes) {
  // One thread's pair for a modulus is squared after each use and redrawn
  // every 32 uses: 100 private ops on one key run on r, r^2, ..., r^(2^31),
  // then three fresh factors, and every result must equal the unblinded one.
  Prng prng(609);
  RsaKeyPair kp = rsa_generate(768, prng);
  std::vector<Bytes> msgs, sigs, cts;
  for (int i = 0; i < 50; ++i) {
    msgs.push_back(prng.bytes(1 + static_cast<std::size_t>(i) % 30));
    sigs.push_back(rsa_sign(kp.priv, msgs.back()));
    cts.push_back(rsa_encrypt(kp.pub, msgs.back(), prng));
  }
  RsaBlindingGuard guard;
  for (int i = 0; i < 100; ++i) {
    const std::size_t j = static_cast<std::size_t>(i / 2);
    if (i % 2 == 0) {
      EXPECT_EQ(rsa_sign(kp.priv, msgs[j]), sigs[j]) << "op " << i;
    } else {
      EXPECT_EQ(rsa_decrypt(kp.priv, cts[j]), msgs[j]) << "op " << i;
    }
  }
}

TEST(RsaBlinding, PrivateKeyCarriesPublicExponent) {
  Prng prng(608);
  RsaKeyPair kp = rsa_generate(512, prng);
  EXPECT_EQ(kp.priv.e, BigUInt(65537));
}

// Known answers recorded from the implementation before per-key contexts,
// exponent-sized windows and fixed-width kernels: Montgomery results are
// canonical, so every byte must stay the same. 512 bits exercises 4-word
// CRT halves and an 8-word modulus; 768 bits 6 and 12; 1024 bits 8-word
// halves and a 16-word modulus on the runtime-width loop.
struct RsaKnownAnswer {
  std::size_t bits;
  const char* sig_hex;  ///< rsa_sign(kKatMessage)
  const char* ct_hex;   ///< rsa_encrypt(kKatPlaintext, Prng(bits)); "" if no OAEP
};

constexpr const char* kKatMessage = "mykil known-answer";
constexpr const char* kKatPlaintext = "area key";

const RsaKnownAnswer kKnownAnswers[] = {
    {512,
     "719ff5610d964be61786906f9606d154bad9688b0b73f11c69a3a9425c9b738f"
     "54016f7fa0b86f0263de2cf0146d797db9935972b2b9022a6b6fc679228279ef",
     ""},
    {768,
     "9016fa26f9867680dd6b4e59f33f14716264ad078a47f6d1bd7b9f90f9eae505"
     "9dbb074e832156260f1112ecefdeccf69362742a05494ea846c78b060d1fe1c4"
     "e230fbbfaeb010f21a8ecb89b4f8a4a2186e1a9d572319dde7482f44e75855c6",
     "9607211c952029262310488606221791528855afbf59079d42bc42edc6133271"
     "80bcd898d126a1a477557fdc7b0fe60eb1ddcc2c817b6e5254cbd372224ddd57"
     "e11fba2a9ecc4518a8788f2c912be1afade8ad567e0d16ac7ea066eb0dbbb7c2"},
    {1024,
     "6f04dfa8e42695ff61e16f554600233b2b700cc767d808f82aedceeeaff42ac8"
     "0504091600ee3879791fb2012cca0d38b7738bd4848f1aec5160f9b2b5c1861c"
     "b59c4725c149842f181d496cb10f168baea01bf7606c13c48128379541460b58"
     "695af4c5e0c87fd9c71374823b5bb608e017345bd1b744384ebb6ad5b5655868",
     "0d3b32e6e2ba599ae6b223196a9daf724539f15fd89ba63f2f31b046b8654a5d"
     "49a77d8faa5f34f4b436021029bb42defb6ae73206b1fe059ef48bd20100b94d"
     "a57fca348a27ed37d75a8554ac19beac6f2bd077b77de90e5ca877843f23b891"
     "cd5defd38b8766d9ff087bce8f2389a8ce0eb40b797fab7a8968883b057dc99a"},
};

/// The known-answer key of `bits`: rsa_generate over a fixed seed.
RsaKeyPair kat_key(std::size_t bits) {
  Prng prng(0x4B41540000ull + bits);
  return rsa_generate(bits, prng);
}

TEST(RsaKnownAnswer, SignAndEncryptBytesArePinned) {
  for (const RsaKnownAnswer& kat : kKnownAnswers) {
    const RsaKeyPair kp = kat_key(kat.bits);
    const Bytes sig = rsa_sign(kp.priv, to_bytes(kKatMessage));
    EXPECT_EQ(hex_encode(sig), kat.sig_hex) << kat.bits;
    EXPECT_TRUE(rsa_verify(kp.pub, to_bytes(kKatMessage), sig));
    if (*kat.ct_hex == '\0') continue;
    Prng oaep(kat.bits);
    const Bytes ct = rsa_encrypt(kp.pub, to_bytes(kKatPlaintext), oaep);
    EXPECT_EQ(hex_encode(ct), kat.ct_hex) << kat.bits;
    EXPECT_EQ(rsa_decrypt(kp.priv, ct), to_bytes(kKatPlaintext));
  }
}

TEST(RsaKnownAnswer, BlindingKeepsTheBytes) {
  const RsaKeyPair kp = kat_key(768);
  RsaBlindingGuard guard;
  EXPECT_EQ(hex_encode(rsa_sign(kp.priv, to_bytes(kKatMessage))),
            kKnownAnswers[1].sig_hex);
  EXPECT_EQ(rsa_decrypt(kp.priv, hex_decode(kKnownAnswers[1].ct_hex)),
            to_bytes(kKatPlaintext));
}

// The per-thread Montgomery context cache (MontgomeryContext::cached) holds
// kCacheCapacity contexts, found by the modulus's low 64 bits. These tests
// push RSA's moduli and CRT primes out of it and collide with them.

/// `count` distinct odd 128-bit moduli, each checked against the oracle
/// through the cached path.
void flood_context_cache(std::size_t count, Prng& prng) {
  const BigUInt e(65537);
  for (std::size_t i = 0; i < count; ++i) {
    BigUInt m = BigUInt::random_with_bits(128, prng);
    if (m.is_even()) m += BigUInt(1);
    const BigUInt x = BigUInt::random_below(m, prng);
    ASSERT_EQ(BigUInt::mod_exp_mont(x, e, m), BigUInt::mod_exp(x, e, m));
  }
}

TEST(RsaContextCache, CorrectAfterMoreModuliThanItHolds) {
  const RsaKeyPair kp = kat_key(768);
  const Bytes ct = hex_decode(kKnownAnswers[1].ct_hex);
  Prng prng(4242);
  for (int round = 0; round < 3; ++round) {
    // Every round evicts the key's n, p and q before using them again.
    flood_context_cache(MontgomeryContext::kCacheCapacity + 10, prng);
    const Bytes sig = rsa_sign(kp.priv, to_bytes(kKatMessage));
    EXPECT_EQ(hex_encode(sig), kKnownAnswers[1].sig_hex);
    EXPECT_TRUE(rsa_verify(kp.pub, to_bytes(kKatMessage), sig));
    EXPECT_EQ(rsa_decrypt(kp.priv, ct), to_bytes(kKatPlaintext));
  }
}

TEST(RsaContextCache, ModuliSharingTheLowWordStayApart) {
  const RsaKeyPair kp = kat_key(768);
  const BigUInt e(65537);
  // Odd moduli of the same width whose low 64 bits equal those of n, p
  // and q: the same cache index, a different modulus.
  const BigUInt shadows[] = {kp.pub.n + (BigUInt(1) << 700),
                             kp.priv.p + (BigUInt(1) << 64),
                             kp.priv.q + (BigUInt(1) << 200)};
  EXPECT_EQ(shadows[0].low_u64(), kp.pub.n.low_u64());
  EXPECT_EQ(shadows[1].low_u64(), kp.priv.p.low_u64());
  EXPECT_EQ(shadows[2].low_u64(), kp.priv.q.low_u64());
  Prng prng(77);
  for (int round = 0; round < 2; ++round) {
    for (const BigUInt& m : shadows) {
      const BigUInt x = BigUInt::random_below(m, prng);
      EXPECT_EQ(BigUInt::mod_exp_mont(x, e, m), BigUInt::mod_exp(x, e, m));
      const Bytes sig = rsa_sign(kp.priv, to_bytes(kKatMessage));
      EXPECT_EQ(hex_encode(sig), kKnownAnswers[1].sig_hex);
      EXPECT_TRUE(rsa_verify(kp.pub, to_bytes(kKatMessage), sig));
    }
  }
}

TEST(RsaContextCache, ReferenceOutlivesLaterLookups) {
  // A reference from cached() must survive the lookups that follow it in
  // one operation (CRT takes p, then q), and up to kCacheCapacity - 1 more.
  const RsaKeyPair kp = kat_key(512);
  const MontgomeryContext& ctx_p = MontgomeryContext::cached(kp.priv.p);
  Prng prng(99);
  flood_context_cache(MontgomeryContext::kCacheCapacity - 1, prng);
  EXPECT_EQ(&ctx_p, &MontgomeryContext::cached(kp.priv.p));
  EXPECT_EQ(ctx_p.modulus(), kp.priv.p);
  const BigUInt x = BigUInt::random_below(kp.priv.p, prng);
  EXPECT_EQ(ctx_p.mod_exp(x, kp.priv.dp), BigUInt::mod_exp(x, kp.priv.dp, kp.priv.p));
}

TEST(RsaConcurrency, FourThreadsShareKeys) {
  // Pool threads of the parallel engine run RSA on shared keys, each with
  // its own context cache. Run under ThreadSanitizer to race-check it.
  const RsaKeyPair keys[] = {kat_key(512), kat_key(768)};
  const Bytes msg = to_bytes(kKatMessage);
  const Bytes ct = hex_decode(kKnownAnswers[1].ct_hex);
  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      Prng prng(1000 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < 20; ++i) {
        const RsaKeyPair& kp = keys[(i + t) % 2];
        const Bytes sig = rsa_sign(kp.priv, msg);
        const char* want = kp.pub.n == keys[0].pub.n ? kKnownAnswers[0].sig_hex
                                                     : kKnownAnswers[1].sig_hex;
        if (hex_encode(sig) != want || !rsa_verify(kp.pub, msg, sig))
          mismatches.fetch_add(1);
        if (rsa_decrypt(keys[1].priv, ct) != to_bytes(kKatPlaintext))
          mismatches.fetch_add(1);
        const Bytes fresh = rsa_encrypt(keys[1].pub, msg, prng);
        if (rsa_decrypt(keys[1].priv, fresh) != msg) mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(RsaConcurrency, FourThreadsBlindSharedKeys) {
  // Blinding pairs and their random stream are per thread: four threads
  // blinding on the same keys share no state. Run under ThreadSanitizer.
  const RsaKeyPair keys[] = {kat_key(512), kat_key(768)};
  const Bytes msg = to_bytes(kKatMessage);
  const Bytes ct = hex_decode(kKnownAnswers[1].ct_hex);
  RsaBlindingGuard guard;
  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 40; ++i) {  // crosses a refresh on each key
        const RsaKeyPair& kp = keys[(i + t) % 2];
        const char* want = kp.pub.n == keys[0].pub.n ? kKnownAnswers[0].sig_hex
                                                     : kKnownAnswers[1].sig_hex;
        if (hex_encode(rsa_sign(kp.priv, msg)) != want) mismatches.fetch_add(1);
        if (rsa_decrypt(keys[1].priv, ct) != to_bytes(kKatPlaintext))
          mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(Mgf1, LengthAndDeterminism) {
  Bytes seed = to_bytes("seed");
  Bytes m1 = mgf1_sha256(seed, 100);
  EXPECT_EQ(m1.size(), 100u);
  EXPECT_EQ(m1, mgf1_sha256(seed, 100));
  // A prefix relationship holds for the same seed.
  Bytes m2 = mgf1_sha256(seed, 50);
  EXPECT_TRUE(std::equal(m2.begin(), m2.end(), m1.begin()));
}

}  // namespace
}  // namespace mykil::crypto
