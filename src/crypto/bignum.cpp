#include "crypto/bignum.h"

#include <algorithm>
#include <array>
#include <memory>

#include "common/error.h"
#include "crypto/prng.h"

namespace mykil::crypto {

namespace {

constexpr std::uint64_t kBase = std::uint64_t{1} << 32;

// Small primes for trial division before Miller–Rabin.
constexpr std::array<std::uint32_t, 54> kSmallPrimes = {
    2,   3,   5,   7,   11,  13,  17,  19,  23,  29,  31,  37,  41,  43,
    47,  53,  59,  61,  67,  71,  73,  79,  83,  89,  97,  101, 103, 107,
    109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181,
    191, 193, 197, 199, 211, 223, 227, 229, 233, 239, 241, 251};

}  // namespace

BigUInt::BigUInt(std::uint64_t v) {
  if (v != 0) limbs_.push_back(static_cast<std::uint32_t>(v));
  if (v >> 32) limbs_.push_back(static_cast<std::uint32_t>(v >> 32));
}

void BigUInt::normalize() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
}

BigUInt BigUInt::from_bytes_be(ByteView bytes) {
  BigUInt out;
  out.limbs_.assign((bytes.size() + 3) / 4, 0);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    // byte i (from the end) goes into limb i/4 at position i%4.
    std::size_t from_end = bytes.size() - 1 - i;
    out.limbs_[i / 4] |= static_cast<std::uint32_t>(bytes[from_end]) << (8 * (i % 4));
  }
  out.normalize();
  return out;
}

Bytes BigUInt::to_bytes_be(std::size_t min_len) const {
  std::size_t nbytes = (bit_length() + 7) / 8;
  std::size_t len = std::max(nbytes, min_len);
  Bytes out(len, 0);
  for (std::size_t i = 0; i < nbytes; ++i) {
    std::uint32_t limb = limbs_[i / 4];
    out[len - 1 - i] = static_cast<std::uint8_t>(limb >> (8 * (i % 4)));
  }
  return out;
}

BigUInt BigUInt::from_decimal(const std::string& s) {
  if (s.empty()) throw CryptoError("empty decimal string");
  BigUInt out;
  for (char c : s) {
    if (c < '0' || c > '9') throw CryptoError("non-digit in decimal string");
    out = out * BigUInt(10) + BigUInt(static_cast<std::uint64_t>(c - '0'));
  }
  return out;
}

std::string BigUInt::to_decimal() const {
  if (is_zero()) return "0";
  std::string digits;
  BigUInt v = *this;
  const BigUInt ten(10);
  while (!v.is_zero()) {
    auto [q, r] = divmod(v, ten);
    digits.push_back(static_cast<char>('0' + r.low_u64()));
    v = std::move(q);
  }
  std::reverse(digits.begin(), digits.end());
  return digits;
}

std::size_t BigUInt::bit_length() const {
  if (limbs_.empty()) return 0;
  std::uint32_t top = limbs_.back();
  std::size_t bits = (limbs_.size() - 1) * 32;
  while (top != 0) {
    ++bits;
    top >>= 1;
  }
  return bits;
}

bool BigUInt::bit(std::size_t i) const {
  std::size_t limb = i / 32;
  if (limb >= limbs_.size()) return false;
  return (limbs_[limb] >> (i % 32)) & 1;
}

std::uint64_t BigUInt::low_u64() const {
  std::uint64_t v = limbs_.empty() ? 0 : limbs_[0];
  if (limbs_.size() > 1) v |= static_cast<std::uint64_t>(limbs_[1]) << 32;
  return v;
}

std::strong_ordering operator<=>(const BigUInt& a, const BigUInt& b) {
  if (a.limbs_.size() != b.limbs_.size())
    return a.limbs_.size() <=> b.limbs_.size();
  for (std::size_t i = a.limbs_.size(); i-- > 0;) {
    if (a.limbs_[i] != b.limbs_[i]) return a.limbs_[i] <=> b.limbs_[i];
  }
  return std::strong_ordering::equal;
}

BigUInt operator+(const BigUInt& a, const BigUInt& b) {
  BigUInt out;
  std::size_t n = std::max(a.limbs_.size(), b.limbs_.size());
  out.limbs_.resize(n + 1, 0);
  std::uint64_t carry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t sum = carry;
    if (i < a.limbs_.size()) sum += a.limbs_[i];
    if (i < b.limbs_.size()) sum += b.limbs_[i];
    out.limbs_[i] = static_cast<std::uint32_t>(sum);
    carry = sum >> 32;
  }
  out.limbs_[n] = static_cast<std::uint32_t>(carry);
  out.normalize();
  return out;
}

BigUInt operator-(const BigUInt& a, const BigUInt& b) {
  if (a < b) throw CryptoError("BigUInt subtraction underflow");
  BigUInt out;
  out.limbs_.resize(a.limbs_.size(), 0);
  std::int64_t borrow = 0;
  for (std::size_t i = 0; i < a.limbs_.size(); ++i) {
    std::int64_t diff = static_cast<std::int64_t>(a.limbs_[i]) - borrow;
    if (i < b.limbs_.size()) diff -= b.limbs_[i];
    if (diff < 0) {
      diff += static_cast<std::int64_t>(kBase);
      borrow = 1;
    } else {
      borrow = 0;
    }
    out.limbs_[i] = static_cast<std::uint32_t>(diff);
  }
  out.normalize();
  return out;
}

BigUInt operator*(const BigUInt& a, const BigUInt& b) {
  if (a.is_zero() || b.is_zero()) return BigUInt();
  BigUInt out;
  out.limbs_.assign(a.limbs_.size() + b.limbs_.size(), 0);
  for (std::size_t i = 0; i < a.limbs_.size(); ++i) {
    std::uint64_t carry = 0;
    std::uint64_t ai = a.limbs_[i];
    for (std::size_t j = 0; j < b.limbs_.size(); ++j) {
      std::uint64_t cur = out.limbs_[i + j] + ai * b.limbs_[j] + carry;
      out.limbs_[i + j] = static_cast<std::uint32_t>(cur);
      carry = cur >> 32;
    }
    std::size_t k = i + b.limbs_.size();
    while (carry != 0) {
      std::uint64_t cur = out.limbs_[k] + carry;
      out.limbs_[k] = static_cast<std::uint32_t>(cur);
      carry = cur >> 32;
      ++k;
    }
  }
  out.normalize();
  return out;
}

BigUInt operator<<(const BigUInt& a, std::size_t shift) {
  if (a.is_zero() || shift == 0) {
    BigUInt out = a;
    return out;
  }
  std::size_t limb_shift = shift / 32;
  std::size_t bit_shift = shift % 32;
  BigUInt out;
  out.limbs_.assign(a.limbs_.size() + limb_shift + 1, 0);
  for (std::size_t i = 0; i < a.limbs_.size(); ++i) {
    std::uint64_t v = static_cast<std::uint64_t>(a.limbs_[i]) << bit_shift;
    out.limbs_[i + limb_shift] |= static_cast<std::uint32_t>(v);
    out.limbs_[i + limb_shift + 1] |= static_cast<std::uint32_t>(v >> 32);
  }
  out.normalize();
  return out;
}

BigUInt operator>>(const BigUInt& a, std::size_t shift) {
  std::size_t limb_shift = shift / 32;
  std::size_t bit_shift = shift % 32;
  if (limb_shift >= a.limbs_.size()) return BigUInt();
  BigUInt out;
  out.limbs_.assign(a.limbs_.size() - limb_shift, 0);
  for (std::size_t i = 0; i < out.limbs_.size(); ++i) {
    std::uint64_t v = a.limbs_[i + limb_shift] >> bit_shift;
    if (bit_shift != 0 && i + limb_shift + 1 < a.limbs_.size())
      v |= static_cast<std::uint64_t>(a.limbs_[i + limb_shift + 1])
           << (32 - bit_shift);
    out.limbs_[i] = static_cast<std::uint32_t>(v);
  }
  out.normalize();
  return out;
}

std::pair<BigUInt, BigUInt> BigUInt::divmod(const BigUInt& a, const BigUInt& b) {
  if (b.is_zero()) throw CryptoError("BigUInt division by zero");
  if (a < b) return {BigUInt(), a};
  if (b.limbs_.size() == 1) {
    // Fast path: divisor fits in one limb.
    std::uint64_t d = b.limbs_[0];
    BigUInt q;
    q.limbs_.assign(a.limbs_.size(), 0);
    std::uint64_t rem = 0;
    for (std::size_t i = a.limbs_.size(); i-- > 0;) {
      std::uint64_t cur = rem << 32 | a.limbs_[i];
      q.limbs_[i] = static_cast<std::uint32_t>(cur / d);
      rem = cur % d;
    }
    q.normalize();
    return {std::move(q), BigUInt(rem)};
  }

  // Knuth Algorithm D (TAOCP vol. 2, 4.3.1) with 32-bit digits.
  // D1: normalize so the divisor's top limb has its high bit set.
  int s = 0;
  {
    std::uint32_t top = b.limbs_.back();
    while ((top & 0x80000000u) == 0) {
      top <<= 1;
      ++s;
    }
  }
  BigUInt u = a << static_cast<std::size_t>(s);
  BigUInt v = b << static_cast<std::size_t>(s);
  std::size_t n = v.limbs_.size();
  std::size_t m = u.limbs_.size() - n;
  u.limbs_.resize(u.limbs_.size() + 1, 0);  // u has m+n+1 digits

  BigUInt q;
  q.limbs_.assign(m + 1, 0);

  const std::uint64_t v1 = v.limbs_[n - 1];
  const std::uint64_t v2 = v.limbs_[n - 2];

  for (std::size_t j = m + 1; j-- > 0;) {
    // D3: estimate q̂. Keep qhat < 2^32 before multiplying by v2 so the
    // refinement test cannot overflow uint64.
    std::uint64_t num = (static_cast<std::uint64_t>(u.limbs_[j + n]) << 32) |
                        u.limbs_[j + n - 1];
    std::uint64_t qhat, rhat;
    if (u.limbs_[j + n] >= v1) {
      qhat = kBase - 1;
      rhat = num - qhat * v1;
    } else {
      qhat = num / v1;
      rhat = num % v1;
    }
    while (rhat < kBase &&
           qhat * v2 > ((rhat << 32) | u.limbs_[j + n - 2])) {
      --qhat;
      rhat += v1;
    }

    // D4: multiply and subtract u[j..j+n] -= qhat * v.
    std::int64_t borrow = 0;
    std::uint64_t carry = 0;
    for (std::size_t i = 0; i < n; ++i) {
      std::uint64_t p = qhat * v.limbs_[i] + carry;
      carry = p >> 32;
      std::int64_t t = static_cast<std::int64_t>(u.limbs_[i + j]) -
                       static_cast<std::int64_t>(p & 0xFFFFFFFFu) - borrow;
      if (t < 0) {
        t += static_cast<std::int64_t>(kBase);
        borrow = 1;
      } else {
        borrow = 0;
      }
      u.limbs_[i + j] = static_cast<std::uint32_t>(t);
    }
    std::int64_t t = static_cast<std::int64_t>(u.limbs_[j + n]) -
                     static_cast<std::int64_t>(carry) - borrow;
    if (t < 0) {
      // D6: estimate was one too large; add back.
      t += static_cast<std::int64_t>(kBase);
      u.limbs_[j + n] = static_cast<std::uint32_t>(t);
      --qhat;
      std::uint64_t carry2 = 0;
      for (std::size_t i = 0; i < n; ++i) {
        std::uint64_t sum = static_cast<std::uint64_t>(u.limbs_[i + j]) +
                            v.limbs_[i] + carry2;
        u.limbs_[i + j] = static_cast<std::uint32_t>(sum);
        carry2 = sum >> 32;
      }
      u.limbs_[j + n] = static_cast<std::uint32_t>(u.limbs_[j + n] + carry2);
    } else {
      u.limbs_[j + n] = static_cast<std::uint32_t>(t);
    }
    q.limbs_[j] = static_cast<std::uint32_t>(qhat);
  }

  q.normalize();
  u.limbs_.resize(n);
  u.normalize();
  BigUInt r = u >> static_cast<std::size_t>(s);
  return {std::move(q), std::move(r)};
}

BigUInt operator/(const BigUInt& a, const BigUInt& b) {
  return BigUInt::divmod(a, b).first;
}

BigUInt operator%(const BigUInt& a, const BigUInt& b) {
  return BigUInt::divmod(a, b).second;
}

std::uint32_t BigUInt::mod_u32(std::uint32_t d) const {
  if (d == 0) throw CryptoError("BigUInt division by zero");
  std::uint64_t rem = 0;
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    rem = ((rem << 32) | limbs_[i]) % d;
  }
  return static_cast<std::uint32_t>(rem);
}

BigUInt BigUInt::mod_exp(const BigUInt& base, const BigUInt& exp,
                         const BigUInt& m) {
  if (m.is_zero()) throw CryptoError("mod_exp modulus is zero");
  if (m == BigUInt(1)) return BigUInt();
  BigUInt result(1);
  BigUInt b = base % m;
  std::size_t bits = exp.bit_length();
  for (std::size_t i = 0; i < bits; ++i) {
    if (exp.bit(i)) result = (result * b) % m;
    b = (b * b) % m;
  }
  return result;
}

BigUInt BigUInt::mod_exp_mont(const BigUInt& base, const BigUInt& exp,
                              const BigUInt& m) {
  if (m.is_zero()) throw CryptoError("mod_exp modulus is zero");
  if (m == BigUInt(1)) return BigUInt();
  if (m.is_even()) return mod_exp(base, exp, m);  // Montgomery needs odd n
  return MontgomeryContext::cached(m).mod_exp(base, exp);
}

namespace {

/// Widest window mod_exp uses (a 32-entry table).
constexpr std::size_t kMaxWindow = 5;

/// One thread's least-recently-used set of Montgomery contexts (see
/// MontgomeryContext::cached). Contexts live on the heap, so a returned
/// reference survives the slot vector growing; only eviction ends it.
class ContextCache {
 public:
  const MontgomeryContext& get(const BigUInt& n) {
    const std::uint64_t tag = n.low_u64();
    for (Slot& s : slots_) {
      if (s.tag == tag && s.ctx->modulus() == n) {
        s.stamp = ++clock_;
        return *s.ctx;
      }
    }
    auto fresh = std::make_unique<MontgomeryContext>(n);
    if (slots_.size() < MontgomeryContext::kCacheCapacity) {
      slots_.push_back({tag, ++clock_, std::move(fresh)});
      return *slots_.back().ctx;
    }
    Slot& victim = *std::min_element(
        slots_.begin(), slots_.end(),
        [](const Slot& a, const Slot& b) { return a.stamp < b.stamp; });
    victim = {tag, ++clock_, std::move(fresh)};
    return *victim.ctx;
  }

 private:
  struct Slot {
    std::uint64_t tag;    ///< low 64 bits of the modulus
    std::uint64_t stamp;  ///< clock_ at the last lookup
    std::unique_ptr<MontgomeryContext> ctx;
  };
  std::vector<Slot> slots_;
  std::uint64_t clock_ = 0;
};

}  // namespace

const MontgomeryContext& MontgomeryContext::cached(const BigUInt& modulus) {
  // Per thread: pool threads of the parallel engine each keep their own
  // set, so no lookup takes a lock.
  thread_local ContextCache cache;
  return cache.get(modulus);
}

std::size_t MontgomeryContext::window_bits(std::size_t exp_bits) {
  // After OpenSSL's BN_window_bits_for_exponent_size, with the plain
  // ladder kept up to 32 bits (e = 65537: 16 squarings and 1 multiply, no
  // table) and the width capped at 5: a 6-bit table measured no faster on
  // the 1024-bit CRT exponents of RSA-2048.
  if (exp_bits <= 32) return 1;
  if (exp_bits <= 79) return 3;
  if (exp_bits <= 239) return 4;
  return kMaxWindow;
}

MontgomeryContext::MontgomeryContext(const BigUInt& modulus) : n_(modulus) {
  if (n_.is_zero() || n_.is_even() || n_ == BigUInt(1))
    throw CryptoError("MontgomeryContext requires an odd modulus > 1");
  k_ = (n_.limbs_.size() + kLimbsPerWord - 1) / kLimbsPerWord;
  mod_.assign(k_, 0);
  for (std::size_t i = 0; i < n_.limbs_.size(); ++i)
    mod_[i / kLimbsPerWord] |= static_cast<Word>(n_.limbs_[i])
                               << (32 * (i % kLimbsPerWord));

  // n0_inv = -n^-1 mod 2^W by Newton's iteration: odd x is its own inverse
  // mod 8, and each step doubles the number of correct low bits.
  const Word x = mod_[0];
  Word inv = x;
  for (int i = 0; i < 6; ++i) inv *= Word{2} - x * inv;
  n0_inv_ = ~inv + 1;

  r2_.assign(k_, 0);
  to_words((BigUInt(1) << (2 * kWordBits * k_)) % n_, r2_.data());
  one_.assign(k_, 0);
  one_[0] = 1;

  // Fixed-width kernels for RSA-512 and RSA-768 moduli and the CRT halves
  // of RSA-512/768/1024; every other size runs the loop. Full unroll at
  // 1024 bits and above measured slower than the loop.
  switch (k_ * kWordBits) {
    case 256: exp_ = &MontgomeryContext::exp_impl<256 / kWordBits>; break;
    case 384: exp_ = &MontgomeryContext::exp_impl<384 / kWordBits>; break;
    case 512: exp_ = &MontgomeryContext::exp_impl<512 / kWordBits>; break;
    case 768: exp_ = &MontgomeryContext::exp_impl<768 / kWordBits>; break;
    default: exp_ = &MontgomeryContext::exp_impl<0>; break;
  }
}

bool MontgomeryContext::fixed_width() const {
  return exp_ != &MontgomeryContext::exp_impl<0>;
}

void MontgomeryContext::to_words(const BigUInt& v, Word* out) const {
  if (v >= n_) return to_words(v % n_, out);
  std::fill_n(out, k_, Word{0});
  for (std::size_t i = 0; i < v.limbs_.size(); ++i)
    out[i / kLimbsPerWord] |= static_cast<Word>(v.limbs_[i])
                              << (32 * (i % kLimbsPerWord));
}

BigUInt MontgomeryContext::from_words(const Word* v) const {
  BigUInt out;
  out.limbs_.resize(k_ * kLimbsPerWord);
  for (std::size_t i = 0; i < out.limbs_.size(); ++i)
    out.limbs_[i] = static_cast<std::uint32_t>(v[i / kLimbsPerWord] >>
                                               (32 * (i % kLimbsPerWord)));
  out.normalize();
  return out;
}

// The kernels below take their width from K when it is nonzero: the loops
// then have constant trip counts, unroll fully, and keep scratch on the
// stack. K == 0 is the runtime-width loop over k_ words.

template <std::size_t K>
void MontgomeryContext::mont_mul(Word* out, const Word* a, const Word* b,
                                 Word* t) const {
  const std::size_t k = K != 0 ? K : k_;
  std::array<Word, K + 2> stack{};
  if constexpr (K != 0) {
    t = stack.data();
  } else {
    std::fill_n(t, k + 1, Word{0});
  }
  const Word* n = mod_.data();
#pragma GCC unroll 16
  for (std::size_t i = 0; i < k; ++i) {
    // t += a[i] * b
    const Word ai = a[i];
    Word carry = 0;
#pragma GCC unroll 16
    for (std::size_t j = 0; j < k; ++j) {
      const DWord cur = static_cast<DWord>(ai) * b[j] + t[j] + carry;
      t[j] = static_cast<Word>(cur);
      carry = static_cast<Word>(cur >> kWordBits);
    }
    DWord cur = static_cast<DWord>(t[k]) + carry;
    t[k] = static_cast<Word>(cur);
    t[k + 1] = static_cast<Word>(cur >> kWordBits);

    // m chosen so t + m*n has W zero low bits; add m*n and shift one word.
    const Word m = t[0] * n0_inv_;
    cur = static_cast<DWord>(m) * n[0] + t[0];
    carry = static_cast<Word>(cur >> kWordBits);
#pragma GCC unroll 16
    for (std::size_t j = 1; j < k; ++j) {
      cur = static_cast<DWord>(m) * n[j] + t[j] + carry;
      t[j - 1] = static_cast<Word>(cur);
      carry = static_cast<Word>(cur >> kWordBits);
    }
    cur = static_cast<DWord>(t[k]) + carry;
    t[k - 1] = static_cast<Word>(cur);
    t[k] = t[k + 1] + static_cast<Word>(cur >> kWordBits);
  }

  // Result in t[0..k]; one conditional subtract brings it below n.
  final_reduce<K>(out, t, t[k]);
}

template <std::size_t K>
void MontgomeryContext::mont_sqr(Word* out, const Word* a, Word* t) const {
  const std::size_t k = K != 0 ? K : k_;
  std::array<Word, 2 * K + 1> stack{};
  if constexpr (K != 0) {
    t = stack.data();
  } else {
    std::fill_n(t, 2 * k + 1, Word{0});
  }

  // Upper-triangle cross products a[i]·a[j], i < j, each computed once.
#pragma GCC unroll 16
  for (std::size_t i = 0; i + 1 < k; ++i) {
    const Word ai = a[i];
    Word carry = 0;
#pragma GCC unroll 16
    for (std::size_t j = i + 1; j < k; ++j) {
      const DWord cur = static_cast<DWord>(ai) * a[j] + t[i + j] + carry;
      t[i + j] = static_cast<Word>(cur);
      carry = static_cast<Word>(cur >> kWordBits);
    }
    t[i + k] = carry;
  }

  // Double them (t <<= 1), then add the diagonal squares a[i]^2 at 2i.
  Word shift_carry = 0;
#pragma GCC unroll 32
  for (std::size_t i = 0; i < 2 * k; ++i) {
    const Word next = t[i] >> (kWordBits - 1);
    t[i] = (t[i] << 1) | shift_carry;
    shift_carry = next;
  }
  t[2 * k] = shift_carry;
  Word carry = 0;
#pragma GCC unroll 16
  for (std::size_t i = 0; i < k; ++i) {
    const DWord sq = static_cast<DWord>(a[i]) * a[i];
    DWord cur = static_cast<DWord>(t[2 * i]) + static_cast<Word>(sq) + carry;
    t[2 * i] = static_cast<Word>(cur);
    cur = static_cast<DWord>(t[2 * i + 1]) +
          static_cast<Word>(sq >> kWordBits) +
          static_cast<Word>(cur >> kWordBits);
    t[2 * i + 1] = static_cast<Word>(cur);
    carry = static_cast<Word>(cur >> kWordBits);
  }
  t[2 * k] += carry;

  // Montgomery reduction: k passes, each zeroing one low word. The carry
  // out of a pass's top word is deferred into the next pass's top word.
  const Word* n = mod_.data();
  Word deferred = 0;
#pragma GCC unroll 16
  for (std::size_t i = 0; i < k; ++i) {
    const Word m = t[i] * n0_inv_;
    Word c = 0;
#pragma GCC unroll 16
    for (std::size_t j = 0; j < k; ++j) {
      const DWord cur = static_cast<DWord>(m) * n[j] + t[i + j] + c;
      t[i + j] = static_cast<Word>(cur);
      c = static_cast<Word>(cur >> kWordBits);
    }
    const DWord cur = static_cast<DWord>(t[i + k]) + c + deferred;
    t[i + k] = static_cast<Word>(cur);
    deferred = static_cast<Word>(cur >> kWordBits);
  }
  final_reduce<K>(out, t + k, t[2 * k] + deferred);
}

template <std::size_t K>
void MontgomeryContext::final_reduce(Word* out, const Word* t,
                                     Word top) const {
  const std::size_t k = K != 0 ? K : k_;
  const Word* n = mod_.data();
  // out = t - n; (top:t) >= n exactly when that borrow does not exceed top.
  Word borrow = 0;
#pragma GCC unroll 16
  for (std::size_t i = 0; i < k; ++i) {
    const DWord diff = static_cast<DWord>(t[i]) - n[i] - borrow;
    out[i] = static_cast<Word>(diff);
    borrow = static_cast<Word>(diff >> kWordBits) & 1;
  }
  const Word keep_t = Word{0} - static_cast<Word>(top < borrow);
#pragma GCC unroll 16
  for (std::size_t i = 0; i < k; ++i)
    out[i] = (t[i] & keep_t) | (out[i] & ~keep_t);
}

BigUInt MontgomeryContext::mul(const BigUInt& a, const BigUInt& b) const {
  // montmul(a, b*R) = a*b*R*R^-1 = a*b mod n: two products, no division.
  Words buf(3 * k_ + 2);
  Word* x = buf.data();
  Word* y = x + k_;
  Word* t = y + k_;
  to_words(b, y);
  mont_mul<0>(y, y, r2_.data(), t);
  to_words(a, x);
  mont_mul<0>(x, x, y, t);
  return from_words(x);
}

BigUInt MontgomeryContext::sqr(const BigUInt& a) const {
  // mont_sqr(a) = a^2 * R^-1; one multiply by R^2 restores plain form.
  Words buf(3 * k_ + 1);
  Word* x = buf.data();
  Word* t = x + k_;
  to_words(a, x);
  mont_sqr<0>(x, x, t);
  mont_mul<0>(x, x, r2_.data(), t);
  return from_words(x);
}

template <std::size_t K>
BigUInt MontgomeryContext::exp_impl(const BigUInt& base,
                                    const BigUInt& exp) const {
  if (exp.is_zero()) return BigUInt(1);
  const std::size_t k = K != 0 ? K : k_;
  const std::size_t bits = exp.bit_length();
  const std::size_t window = window_bits(bits);
  const std::size_t entries = std::size_t{1} << window;

  // table[w] = base^w in Montgomery form for w in [1, entries), then the
  // accumulator; the runtime width adds kernel scratch behind them.
  std::array<Word, (K << kMaxWindow) + K> fixed;
  std::vector<Word> heap;
  Word* table = fixed.data();
  Word* t = nullptr;
  if constexpr (K == 0) {
    heap.resize(k * (entries + 1) + 2 * k + 1);
    table = heap.data();
    t = table + k * (entries + 1);
  }
  Word* acc = table + k * entries;

  to_words(base, acc);
  mont_mul<K>(table + k, acc, r2_.data(), t);
  for (std::size_t w = 2; w < entries; ++w)
    mont_mul<K>(table + w * k, table + (w - 1) * k, table + k, t);

  const std::size_t windows = (bits + window - 1) / window;
  for (std::size_t w = windows; w-- > 0;) {
    std::size_t wv = 0;
    for (std::size_t b = window; b-- > 0;)
      wv = (wv << 1) | static_cast<std::size_t>(exp.bit(w * window + b));
    if (w == windows - 1) {
      std::copy_n(table + wv * k, k, acc);  // top window: skip squaring R mod n
      continue;
    }
    for (std::size_t s = 0; s < window; ++s) mont_sqr<K>(acc, acc, t);
    if (wv != 0) mont_mul<K>(acc, acc, table + wv * k, t);
  }

  mont_mul<K>(acc, acc, one_.data(), t);  // leave Montgomery form
  return from_words(acc);
}

BigUInt BigUInt::gcd(BigUInt a, BigUInt b) {
  while (!b.is_zero()) {
    BigUInt r = a % b;
    a = std::move(b);
    b = std::move(r);
  }
  return a;
}

BigUInt BigUInt::mod_inverse(const BigUInt& a, const BigUInt& m) {
  // Extended Euclid tracking coefficients of `a` only, with explicit signs.
  // Invariant: r_i = s_i * a (mod m), sign_i gives the sign of s_i.
  BigUInt r0 = a % m, r1 = m;
  BigUInt s0(1), s1(0);
  bool neg0 = false, neg1 = false;

  while (!r1.is_zero()) {
    BigUInt q = r0 / r1;

    BigUInt r2 = r0 - q * r1;

    // s2 = s0 - q * s1 with sign tracking.
    BigUInt qs1 = q * s1;
    BigUInt s2;
    bool neg2;
    if (neg0 == neg1) {
      // same sign: s0 - q*s1 may flip sign
      if (s0 >= qs1) {
        s2 = s0 - qs1;
        neg2 = neg0;
      } else {
        s2 = qs1 - s0;
        neg2 = !neg0;
      }
    } else {
      s2 = s0 + qs1;
      neg2 = neg0;
    }

    r0 = std::move(r1);
    r1 = std::move(r2);
    s0 = std::move(s1);
    s1 = std::move(s2);
    neg0 = neg1;
    neg1 = neg2;
  }

  if (r0 != BigUInt(1)) throw CryptoError("mod_inverse: not coprime");
  if (neg0) return m - (s0 % m);
  return s0 % m;
}

BigUInt BigUInt::random_with_bits(std::size_t bits, Prng& prng) {
  if (bits == 0) return BigUInt();
  std::size_t nbytes = (bits + 7) / 8;
  Bytes raw = prng.bytes(nbytes);
  // Clear excess leading bits, then force the top bit so the value has
  // exactly `bits` bits.
  std::size_t excess = nbytes * 8 - bits;
  raw[0] = static_cast<std::uint8_t>(raw[0] & (0xFF >> excess));
  raw[0] |= static_cast<std::uint8_t>(0x80 >> excess);
  return from_bytes_be(raw);
}

BigUInt BigUInt::random_below(const BigUInt& bound, Prng& prng) {
  if (bound.is_zero()) throw CryptoError("random_below bound is zero");
  std::size_t bits = bound.bit_length();
  std::size_t nbytes = (bits + 7) / 8;
  std::size_t excess = nbytes * 8 - bits;
  // Rejection sampling.
  for (;;) {
    Bytes raw = prng.bytes(nbytes);
    raw[0] = static_cast<std::uint8_t>(raw[0] & (0xFF >> excess));
    BigUInt v = from_bytes_be(raw);
    if (v < bound) return v;
  }
}

bool BigUInt::is_probable_prime(const BigUInt& n, int rounds, Prng& prng) {
  if (n < BigUInt(2)) return false;
  for (std::uint32_t p : kSmallPrimes) {
    if (n == BigUInt(p)) return true;
    if (n.mod_u32(p) == 0) return false;
  }
  // Every n from here on is odd (2 would have matched above), so one
  // Montgomery context serves all witness rounds and all squarings.
  MontgomeryContext ctx(n);

  // Write n - 1 = d * 2^r with d odd.
  BigUInt n_minus_1 = n - BigUInt(1);
  BigUInt d = n_minus_1;
  std::size_t r = 0;
  while (d.is_even()) {
    d = d >> 1;
    ++r;
  }

  for (int round = 0; round < rounds; ++round) {
    // Random base in [2, n-2].
    BigUInt a = BigUInt(2) + random_below(n - BigUInt(4), prng);
    BigUInt x = ctx.mod_exp(a, d);
    if (x == BigUInt(1) || x == n_minus_1) continue;
    bool composite = true;
    for (std::size_t i = 0; i + 1 < r; ++i) {
      x = ctx.sqr(x);
      if (x == n_minus_1) {
        composite = false;
        break;
      }
    }
    if (composite) return false;
  }
  return true;
}

BigUInt BigUInt::generate_prime(std::size_t bits, Prng& prng) {
  if (bits < 8) throw CryptoError("prime size too small");
  for (;;) {
    BigUInt candidate = random_with_bits(bits, prng);
    // Force odd.
    if (candidate.is_even()) candidate += BigUInt(1);
    if (candidate.bit_length() != bits) continue;
    if (is_probable_prime(candidate, 20, prng)) return candidate;
  }
}

}  // namespace mykil::crypto
