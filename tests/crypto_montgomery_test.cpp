// Montgomery-form modular exponentiation cross-checked against the legacy
// square-and-multiply oracle, plus MontgomeryContext unit behaviour and
// Miller–Rabin agreement between the Montgomery path and a reference
// implementation built on the oracle.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.h"
#include "crypto/bignum.h"
#include "crypto/prng.h"

namespace mykil::crypto {
namespace {

/// Random odd modulus with exactly `bits` bits.
BigUInt random_odd_modulus(std::size_t bits, Prng& prng) {
  BigUInt m = BigUInt::random_with_bits(bits, prng);
  if (m.is_even()) m += BigUInt(1);
  return m;
}

TEST(Montgomery, RejectsBadModuli) {
  EXPECT_THROW(MontgomeryContext{BigUInt(0)}, CryptoError);
  EXPECT_THROW(MontgomeryContext{BigUInt(1)}, CryptoError);
  EXPECT_THROW(MontgomeryContext{BigUInt(10)}, CryptoError);
  EXPECT_NO_THROW(MontgomeryContext{BigUInt(3)});
}

TEST(Montgomery, KnownSmallCases) {
  // 4^13 mod 497 = 445, same vector the legacy test uses.
  EXPECT_EQ(BigUInt::mod_exp_mont(BigUInt(4), BigUInt(13), BigUInt(497)),
            BigUInt(445));
  MontgomeryContext ctx(BigUInt(497));
  EXPECT_EQ(ctx.mod_exp(BigUInt(4), BigUInt(13)), BigUInt(445));
  EXPECT_EQ(ctx.mul(BigUInt(123), BigUInt(456)), BigUInt(123 * 456 % 497));
  EXPECT_EQ(ctx.sqr(BigUInt(400)), BigUInt(400 * 400 % 497));
}

TEST(Montgomery, EdgeCases) {
  BigUInt n = BigUInt::from_decimal("1000000007");
  MontgomeryContext ctx(n);
  // Exponent 0 and 1.
  EXPECT_EQ(ctx.mod_exp(BigUInt(12345), BigUInt(0)), BigUInt(1));
  EXPECT_EQ(ctx.mod_exp(BigUInt(12345), BigUInt(1)), BigUInt(12345));
  // Base 0 and 1.
  EXPECT_TRUE(ctx.mod_exp(BigUInt(0), BigUInt(999)).is_zero());
  EXPECT_EQ(ctx.mod_exp(BigUInt(1), BigUInt(999)), BigUInt(1));
  // Base >= n is reduced first.
  EXPECT_EQ(ctx.mod_exp(n + BigUInt(4), BigUInt(13)),
            BigUInt::mod_exp(BigUInt(4), BigUInt(13), n));
  // 0^0 = 1, matching the oracle's convention.
  EXPECT_EQ(ctx.mod_exp(BigUInt(0), BigUInt(0)),
            BigUInt::mod_exp(BigUInt(0), BigUInt(0), n));
  // Modulus 1 and even moduli route through the fallback.
  EXPECT_TRUE(BigUInt::mod_exp_mont(BigUInt(5), BigUInt(3), BigUInt(1)).is_zero());
  EXPECT_EQ(BigUInt::mod_exp_mont(BigUInt(7), BigUInt(5), BigUInt(100)),
            BigUInt::mod_exp(BigUInt(7), BigUInt(5), BigUInt(100)));
  EXPECT_THROW(BigUInt::mod_exp_mont(BigUInt(2), BigUInt(2), BigUInt(0)),
               CryptoError);
}

TEST(Montgomery, ModU32MatchesDivmod) {
  Prng prng(7);
  for (int i = 0; i < 50; ++i) {
    BigUInt v = BigUInt::random_with_bits(16 + prng.uniform(512), prng);
    std::uint32_t d = static_cast<std::uint32_t>(1 + prng.uniform(1 << 30));
    EXPECT_EQ(BigUInt(v.mod_u32(d)), v % BigUInt(d));
  }
  EXPECT_THROW((void)BigUInt(5).mod_u32(0), CryptoError);
}

// Randomized cross-check against the legacy oracle over a spread of sizes.
class MontgomeryCrossCheck : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MontgomeryCrossCheck, MatchesLegacyModExp) {
  Prng prng(GetParam());
  for (int i = 0; i < 12; ++i) {
    std::size_t mbits = 8 + prng.uniform(256);
    BigUInt m = random_odd_modulus(mbits, prng);
    if (m == BigUInt(1)) continue;
    MontgomeryContext ctx(m);
    for (int j = 0; j < 4; ++j) {
      BigUInt base = BigUInt::random_with_bits(1 + prng.uniform(mbits + 40), prng);
      BigUInt exp = BigUInt::random_with_bits(1 + prng.uniform(160), prng);
      EXPECT_EQ(ctx.mod_exp(base, exp), BigUInt::mod_exp(base, exp, m))
          << "mbits=" << mbits;
    }
  }
}

TEST_P(MontgomeryCrossCheck, MulSqrMatchSchoolbook) {
  Prng prng(GetParam() + 500);
  for (int i = 0; i < 20; ++i) {
    BigUInt m = random_odd_modulus(8 + prng.uniform(300), prng);
    if (m == BigUInt(1)) continue;
    MontgomeryContext ctx(m);
    BigUInt a = BigUInt::random_with_bits(1 + prng.uniform(320), prng);
    BigUInt b = BigUInt::random_with_bits(1 + prng.uniform(320), prng);
    EXPECT_EQ(ctx.mul(a, b), (a * b) % m);
    EXPECT_EQ(ctx.sqr(a), (a * a) % m);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MontgomeryCrossCheck,
                         ::testing::Values(11, 12, 13));

// RSA-sized moduli: one full-width exponentiation per size, checked against
// the oracle. These are the exact shapes the CRT half-exponentiations use.
TEST(Montgomery, RsaSizedModuliMatchLegacy) {
  Prng prng(99);
  for (std::size_t bits : {1024u, 2048u, 3072u}) {
    BigUInt m = random_odd_modulus(bits, prng);
    BigUInt base = BigUInt::random_with_bits(bits - 1, prng);
    BigUInt exp = BigUInt::random_with_bits(bits, prng);
    MontgomeryContext ctx(m);
    EXPECT_EQ(ctx.mod_exp(base, exp), BigUInt::mod_exp(base, exp, m))
        << "bits=" << bits;
  }
}

TEST(Montgomery, FermatAtRsaSize) {
  // a^(p-1) = 1 mod p: generate a fresh prime and check the Fermat
  // identity through the Montgomery path only.
  Prng prng(101);
  BigUInt p = BigUInt::generate_prime(192, prng);
  MontgomeryContext ctx(p);
  EXPECT_EQ(ctx.mod_exp(BigUInt(2), p - BigUInt(1)), BigUInt(1));
}

// Fixed-width kernels and exponent-sized windows. Widths are in 64-bit
// words: 4, 6, 8 and 12 (RSA-512/768 moduli and CRT halves, RSA-1024's
// halves) run unrolled kernels; 1, 3, 5 and 16 take the runtime-width loop.
// Every exponentiation writes each product over one of its own inputs
// (acc = acc * acc, acc = acc * table[w]), so these cases also cover
// `out` aliasing an input in both kernel kinds.

constexpr std::size_t kFixedWidths[] = {4, 6, 8, 12};

bool is_fixed_width(std::size_t words) {
  for (std::size_t w : kFixedWidths)
    if (w == words) return true;
  return false;
}

/// Random odd modulus of exactly 64 * words bits.
BigUInt random_modulus_words(std::size_t words, Prng& prng) {
  return random_odd_modulus(64 * words, prng);
}

/// Odd modulus whose top 64-bit word is all ones.
BigUInt top_word_all_ones(std::size_t words, Prng& prng) {
  const BigUInt top = BigUInt(0xFFFFFFFFFFFFFFFFull) << (64 * (words - 1));
  if (words == 1) return top;
  BigUInt low = BigUInt::random_with_bits(64 * (words - 1), prng);
  if (low.is_even()) low += BigUInt(1);
  return top + low;
}

/// 2^(64k - 1) + 1: top bit and bit 0 only.
BigUInt sparse_modulus(std::size_t words) {
  return (BigUInt(1) << (64 * words - 1)) + BigUInt(1);
}

TEST(Montgomery, WindowWidthFollowsExponentSize) {
  EXPECT_EQ(MontgomeryContext::window_bits(1), 1u);
  EXPECT_EQ(MontgomeryContext::window_bits(17), 1u);  // e = 65537
  EXPECT_EQ(MontgomeryContext::window_bits(32), 1u);
  EXPECT_EQ(MontgomeryContext::window_bits(33), 3u);
  EXPECT_EQ(MontgomeryContext::window_bits(79), 3u);
  EXPECT_EQ(MontgomeryContext::window_bits(80), 4u);
  EXPECT_EQ(MontgomeryContext::window_bits(239), 4u);
  EXPECT_EQ(MontgomeryContext::window_bits(240), 5u);
  EXPECT_EQ(MontgomeryContext::window_bits(384), 5u);  // RSA-768 CRT
  EXPECT_EQ(MontgomeryContext::window_bits(4096), 5u);
}

TEST(Montgomery, KernelChosenByWordCount) {
  Prng prng(401);
  for (std::size_t words : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 12u, 16u, 32u}) {
    MontgomeryContext ctx(random_modulus_words(words, prng));
    EXPECT_EQ(ctx.fixed_width(), is_fixed_width(words)) << words;
  }
  // Bit length, not limb storage, sets the width: a 383-bit modulus still
  // fills 6 words.
  EXPECT_TRUE(MontgomeryContext(random_odd_modulus(383, prng)).fixed_width());
  EXPECT_FALSE(MontgomeryContext(random_odd_modulus(385, prng)).fixed_width());
}

class MontgomeryWidth : public ::testing::TestWithParam<std::size_t> {
 protected:
  /// Random moduli plus the two edge shapes, all of GetParam() words.
  std::vector<BigUInt> moduli(Prng& prng) const {
    const std::size_t words = GetParam();
    return {random_modulus_words(words, prng), random_modulus_words(words, prng),
            top_word_all_ones(words, prng), sparse_modulus(words)};
  }
};

TEST_P(MontgomeryWidth, FullWidthExponentsMatchOracle) {
  Prng prng(500 + GetParam());
  for (const BigUInt& m : moduli(prng)) {
    MontgomeryContext ctx(m);
    ASSERT_EQ(ctx.fixed_width(), is_fixed_width(GetParam()));
    const BigUInt exp = BigUInt::random_with_bits(m.bit_length(), prng);
    // Bases below n, above n (reduced first), n - 1 and n - 2.
    for (const BigUInt& base :
         {BigUInt::random_below(m, prng),
          BigUInt::random_with_bits(m.bit_length() + 7, prng),
          m - BigUInt(1), m - BigUInt(2)}) {
      EXPECT_EQ(ctx.mod_exp(base, exp), BigUInt::mod_exp(base, exp, m))
          << "m=" << m.to_decimal();
    }
  }
}

TEST_P(MontgomeryWidth, ShortExponentsStraddleWindowThresholds) {
  Prng prng(600 + GetParam());
  for (const BigUInt& m : moduli(prng)) {
    MontgomeryContext ctx(m);
    const BigUInt base = BigUInt::random_below(m, prng);
    EXPECT_EQ(ctx.mod_exp(base, BigUInt(65537)),
              BigUInt::mod_exp(base, BigUInt(65537), m));
    for (std::size_t bits : {1u, 2u, 17u, 31u, 32u, 33u, 64u, 79u, 80u, 239u, 240u}) {
      const BigUInt exp = BigUInt::random_with_bits(bits, prng);
      EXPECT_EQ(ctx.mod_exp(base, exp), BigUInt::mod_exp(base, exp, m))
          << "bits=" << bits << " m=" << m.to_decimal();
    }
  }
}

TEST_P(MontgomeryWidth, CachedContextMatchesFreshOne) {
  Prng prng(700 + GetParam());
  for (const BigUInt& m : moduli(prng)) {
    const MontgomeryContext& cached = MontgomeryContext::cached(m);
    EXPECT_EQ(&cached, &MontgomeryContext::cached(m));  // one per modulus
    EXPECT_EQ(cached.modulus(), m);
    const BigUInt base = BigUInt::random_below(m, prng);
    const BigUInt exp = BigUInt::random_with_bits(96, prng);
    EXPECT_EQ(cached.mod_exp(base, exp), MontgomeryContext(m).mod_exp(base, exp));
    EXPECT_EQ(BigUInt::mod_exp_mont(base, exp, m), BigUInt::mod_exp(base, exp, m));
  }
}

INSTANTIATE_TEST_SUITE_P(Words, MontgomeryWidth,
                         ::testing::Values(1, 3, 4, 5, 6, 8, 12, 16),
                         [](const ::testing::TestParamInfo<std::size_t>& info) {
                           return "w" + std::to_string(info.param);
                         });

/// Reference Miller–Rabin built directly on the legacy oracle (its own
/// witness stream; verdicts agree with overwhelming probability).
bool reference_miller_rabin(const BigUInt& n, int rounds, Prng& prng) {
  if (n < BigUInt(2)) return false;
  if (n == BigUInt(2) || n == BigUInt(3)) return true;
  if (n.is_even()) return false;
  BigUInt n_minus_1 = n - BigUInt(1);
  BigUInt d = n_minus_1;
  std::size_t r = 0;
  while (d.is_even()) {
    d = d >> 1;
    ++r;
  }
  for (int round = 0; round < rounds; ++round) {
    BigUInt a = BigUInt(2) + BigUInt::random_below(n - BigUInt(4), prng);
    BigUInt x = BigUInt::mod_exp(a, d, n);
    if (x == BigUInt(1) || x == n_minus_1) continue;
    bool composite = true;
    for (std::size_t i = 0; i + 1 < r; ++i) {
      x = (x * x) % n;
      if (x == n_minus_1) {
        composite = false;
        break;
      }
    }
    if (composite) return false;
  }
  return true;
}

TEST(Montgomery, MillerRabinAgreesWithReference) {
  Prng prng(103);
  // Known primes, composites, and Carmichael numbers.
  for (std::uint64_t v : {2ull, 3ull, 257ull, 65537ull, 1000000007ull, 561ull,
                          41041ull, 1000000006ull, 9ull}) {
    Prng p1(v), p2(v + 1);
    EXPECT_EQ(BigUInt::is_probable_prime(BigUInt(v), 20, p1),
              reference_miller_rabin(BigUInt(v), 20, p2))
        << v;
  }
  // Random odd candidates across sizes.
  for (int i = 0; i < 25; ++i) {
    BigUInt n = random_odd_modulus(48 + prng.uniform(80), prng);
    Prng p1(200 + i), p2(300 + i);
    EXPECT_EQ(BigUInt::is_probable_prime(n, 12, p1),
              reference_miller_rabin(n, 12, p2))
        << n.to_decimal();
  }
}

}  // namespace
}  // namespace mykil::crypto
