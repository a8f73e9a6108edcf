// Arbitrary-precision unsigned integers, sized for RSA (512–4096 bit).
//
// Representation: little-endian vector of 32-bit limbs, always normalized
// (no high zero limbs; zero is the empty vector). 32-bit limbs keep every
// intermediate product within uint64_t, which makes schoolbook
// multiplication and Knuth Algorithm D division straightforward to verify.
#pragma once

#include <compare>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"

namespace mykil::crypto {

class Prng;

class BigUInt {
 public:
  /// Zero.
  BigUInt() = default;
  /// From a machine word.
  BigUInt(std::uint64_t v);  // NOLINT(google-explicit-constructor): numeric literal ergonomics

  /// From big-endian bytes (leading zeros allowed).
  static BigUInt from_bytes_be(ByteView bytes);
  /// From a decimal string; throws CryptoError on bad input.
  static BigUInt from_decimal(const std::string& s);
  /// Uniform random integer with exactly `bits` bits (top bit set).
  static BigUInt random_with_bits(std::size_t bits, Prng& prng);
  /// Uniform random integer in [0, bound).
  static BigUInt random_below(const BigUInt& bound, Prng& prng);

  /// Big-endian byte encoding, left-padded with zeros to at least `min_len`.
  [[nodiscard]] Bytes to_bytes_be(std::size_t min_len = 0) const;
  [[nodiscard]] std::string to_decimal() const;

  [[nodiscard]] bool is_zero() const { return limbs_.empty(); }
  [[nodiscard]] bool is_even() const { return limbs_.empty() || (limbs_[0] & 1) == 0; }
  /// Number of significant bits (0 for zero).
  [[nodiscard]] std::size_t bit_length() const;
  /// Value of bit `i` (0 = least significant).
  [[nodiscard]] bool bit(std::size_t i) const;
  /// Low 64 bits.
  [[nodiscard]] std::uint64_t low_u64() const;

  friend std::strong_ordering operator<=>(const BigUInt& a, const BigUInt& b);
  friend bool operator==(const BigUInt& a, const BigUInt& b) = default;

  friend BigUInt operator+(const BigUInt& a, const BigUInt& b);
  /// Throws CryptoError if b > a (unsigned subtraction).
  friend BigUInt operator-(const BigUInt& a, const BigUInt& b);
  friend BigUInt operator*(const BigUInt& a, const BigUInt& b);
  friend BigUInt operator/(const BigUInt& a, const BigUInt& b);
  friend BigUInt operator%(const BigUInt& a, const BigUInt& b);
  friend BigUInt operator<<(const BigUInt& a, std::size_t shift);
  friend BigUInt operator>>(const BigUInt& a, std::size_t shift);

  BigUInt& operator+=(const BigUInt& b) { return *this = *this + b; }
  BigUInt& operator-=(const BigUInt& b) { return *this = *this - b; }

  /// Quotient and remainder in one division (throws CryptoError on /0).
  /// Returned as {quotient, remainder}.
  static std::pair<BigUInt, BigUInt> divmod(const BigUInt& a, const BigUInt& b);

  /// Remainder modulo a single machine word (d != 0). No allocation; used
  /// for trial division in primality testing.
  [[nodiscard]] std::uint32_t mod_u32(std::uint32_t d) const;

  /// (base ^ exp) mod m, m > 0. Square-and-multiply with full division per
  /// step. Kept as the slow reference oracle for mod_exp_mont.
  static BigUInt mod_exp(const BigUInt& base, const BigUInt& exp, const BigUInt& m);
  /// (base ^ exp) mod m, m > 0. Montgomery-form fixed-window exponentiation
  /// for odd m; falls back to mod_exp when m is even. Same results as
  /// mod_exp for all inputs.
  static BigUInt mod_exp_mont(const BigUInt& base, const BigUInt& exp, const BigUInt& m);
  /// Greatest common divisor.
  static BigUInt gcd(BigUInt a, BigUInt b);
  /// Modular inverse of a mod m; throws CryptoError if gcd(a, m) != 1.
  static BigUInt mod_inverse(const BigUInt& a, const BigUInt& m);

  /// Miller–Rabin probabilistic primality test with `rounds` random bases,
  /// preceded by trial division against small primes.
  static bool is_probable_prime(const BigUInt& n, int rounds, Prng& prng);
  /// Generate a random prime with exactly `bits` bits.
  static BigUInt generate_prime(std::size_t bits, Prng& prng);

 private:
  friend class MontgomeryContext;

  void normalize();

  std::vector<std::uint32_t> limbs_;
};

/// Precomputed Montgomery-reduction state for one odd modulus n > 1.
///
/// Montgomery form represents x as x·R mod n with R = 2^(W·k), where W is
/// the internal word width and k the word count of n. The CIOS (coarsely
/// integrated operand scanning) product of two Montgomery-form numbers
/// needs only multiply-accumulate passes and a single conditional subtract
/// — no long division — so an exponentiation pays for the two form
/// conversions once and then runs division-free.
///
/// BigUInt keeps 32-bit limbs for verifiability; the context repacks
/// operands into 64-bit words internally (when the compiler provides a
/// 128-bit accumulator) which quarters the multiply count of every pass.
/// The constructor picks the exponentiation kernel once: a fully unrolled,
/// allocation-free one for 256-, 384-, 512- and 768-bit moduli (RSA-512 and
/// RSA-768 keys and their CRT primes, RSA-1024's primes), a runtime-width
/// loop for every other size. At those widths, and at 1024 and 2048 bits
/// (RSA-2048's CRT halves and modulus), each exponentiation runs its products
/// on the mulx/adcx/adox assembly (mont_adx.h) when the host has BMI2 and ADX
/// and force_scalar() is off, and on the portable kernels otherwise; the
/// results are the same words either way.
///
/// Building a context costs a long division (R^2 mod n), so RSA takes its
/// contexts from cached(), once per key and thread; Miller–Rabin builds one
/// per candidate and reuses it across all witness rounds.
class MontgomeryContext {
 public:
  /// Contexts one thread's cache holds: every modulus and CRT prime of the
  /// largest benchmarked deployment (41 keys, 123 contexts) with room to
  /// spare.
  static constexpr std::size_t kCacheCapacity = 256;

  /// Throws CryptoError unless `modulus` is odd and > 1.
  explicit MontgomeryContext(const BigUInt& modulus);

  /// The calling thread's context for `modulus` (odd, > 1), built on the
  /// first lookup and kept in a least-recently-used set of kCacheCapacity
  /// entries. Entries are found by the modulus's low 64 bits and confirmed
  /// on the full modulus. The reference stays valid until kCacheCapacity
  /// other moduli have been looked up on this thread, so one operation may
  /// hold several (the CRT primes p and q).
  static const MontgomeryContext& cached(const BigUInt& modulus);

  /// Window width mod_exp uses for an exponent of `exp_bits` bits: 1 (a
  /// plain square-and-multiply ladder, no table) up to 32 bits, then wider
  /// tables as the exponent grows.
  static std::size_t window_bits(std::size_t exp_bits);

  [[nodiscard]] const BigUInt& modulus() const { return n_; }
  /// Whether mod_exp runs a fixed-width (unrolled) kernel for this modulus.
  [[nodiscard]] bool fixed_width() const;
  /// Exponentiations the calling thread has run on the ADX kernels. Both
  /// kernels give the same bytes, so this is how a test sees which one ran.
  static std::uint64_t adx_exponentiations();

  /// (base ^ exp) mod n. Left-to-right fixed-window exponentiation entirely
  /// in Montgomery form, window width from window_bits().
  [[nodiscard]] BigUInt mod_exp(const BigUInt& base, const BigUInt& exp) const {
    return (this->*exp_)(base, exp);
  }
  /// (a * b) mod n.
  [[nodiscard]] BigUInt mul(const BigUInt& a, const BigUInt& b) const;
  /// (a * a) mod n.
  [[nodiscard]] BigUInt sqr(const BigUInt& a) const;

 private:
#if defined(__SIZEOF_INT128__)
  using Word = std::uint64_t;
  using DWord = unsigned __int128;
#else
  using Word = std::uint32_t;
  using DWord = std::uint64_t;
#endif
  static constexpr std::size_t kWordBits = sizeof(Word) * 8;
  static constexpr std::size_t kLimbsPerWord = sizeof(Word) / sizeof(std::uint32_t);
  using Words = std::vector<Word>;

  /// mod_exp over exactly K words, or over k_ words when K is 0.
  template <std::size_t K>
  [[nodiscard]] BigUInt exp_impl(const BigUInt& base, const BigUInt& exp) const;

  /// out = a · b · R^-1 mod n, K words (k_ when K is 0). `out` may alias
  /// `a` or `b`; `t` is k_ + 2 words of scratch, used only when K is 0.
  template <std::size_t K>
  void mont_mul(Word* out, const Word* a, const Word* b, Word* t) const;
  /// out = a · a · R^-1 mod n. Dedicated squaring: computes the upper
  /// triangle once and doubles it, roughly 25% cheaper than mont_mul on the
  /// squaring-dominated exponentiation ladder. `out` may alias `a`; `t` is
  /// 2·k_ + 1 words of scratch, used only when K is 0.
  template <std::size_t K>
  void mont_sqr(Word* out, const Word* a, Word* t) const;
  /// Shared tail of mont_mul/mont_sqr: (top:t), which is below 2n, to
  /// canonical form without a data-dependent branch.
  template <std::size_t K>
  void final_reduce(Word* out, const Word* t, Word top) const;
  /// Reduce v mod n and repack its 32-bit limbs into exactly k words.
  void to_words(const BigUInt& v, Word* out) const;
  [[nodiscard]] BigUInt from_words(const Word* v) const;

  BigUInt n_;
  Words mod_;       ///< n as exactly k words
  Words r2_;        ///< R^2 mod n (Montgomery form of R)
  Words one_;       ///< plain 1, k words (multiplier for from-Montgomery)
  std::size_t k_ = 0;
  Word n0_inv_ = 0;  ///< -n^-1 mod 2^W
  /// The ADX product at this width on this host (mont_adx.h), or nullptr.
  void (*adx_mul_)(Word*, const Word*, const Word*, const Word*,
                   Word) = nullptr;
  /// exp_impl instance chosen by the constructor.
  BigUInt (MontgomeryContext::*exp_)(const BigUInt&, const BigUInt&) const;
};
}  // namespace mykil::crypto
