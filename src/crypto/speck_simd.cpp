// Vectorized Speck128-CTR keystream kernels (DESIGN.md 12).
//
// Speck's round function is pure 64-bit ARX (add, rotate, xor), which maps
// one-to-one onto SIMD 64-bit lanes: N counter blocks run the SAME 32
// rounds on N independent (x, y) word pairs, so a lane is simply one CTR
// block. The kernels below keep two vectors of lanes in flight (8 blocks
// for AVX2, 4 for SSE2) — like the scalar ctr_block2, the extra chains
// hide the serial add->rotate->xor latency of a single block. AVX2 then
// takes a last run of 4 blocks on one vector: a 64-byte data payload is
// exactly 4 blocks, and one 4-lane chain still beats two scalar pairs.
//
// Lane layout: y-vector lanes hold the low output words (the nonce input),
// x-vector lanes hold the counters; lane i encrypts counter+i. The counter
// is a plain wrapping uint64 add in every lane, so SIMD and scalar agree
// across the 2^32 block boundary by construction (crypto_simd_test pins
// this). Output interleaving back to (lo, hi) per block order is done with
// 64-bit unpacks, then XORed into the data with unaligned loads/stores —
// callers pass arbitrary offsets.
//
// Keystream bytes are bit-identical to the scalar path: same round keys,
// same word order, same counter sequence. That identity is load-bearing —
// StreamPrf randomness and every recorded simulation digest derive from
// this cipher (see crypto/prng.h).
#include "crypto/simd_kernels.h"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

namespace mykil::crypto::detail {

namespace {

// One Speck encryption round over 4 lanes: x = (rotr8(x) + y) ^ k;
// y = rotl3(y) ^ x. rotr by 8 bits is a per-lane byte rotate, which
// vpshufb does in one shuffle.
#define MYKIL_SPECK_ROUND_AVX2(x, y, kv, rot8)              \
  do {                                                      \
    (x) = _mm256_shuffle_epi8((x), (rot8));                 \
    (x) = _mm256_add_epi64((x), (y));                       \
    (x) = _mm256_xor_si256((x), (kv));                      \
    (y) = _mm256_or_si256(_mm256_slli_epi64((y), 3),        \
                          _mm256_srli_epi64((y), 61));      \
    (y) = _mm256_xor_si256((y), (x));                       \
  } while (0)

// SSE2 has no pshufb; rotr8 costs two shifts and an or.
#define MYKIL_SPECK_ROUND_SSE2(x, y, kv)                    \
  do {                                                      \
    (x) = _mm_or_si128(_mm_srli_epi64((x), 8),              \
                       _mm_slli_epi64((x), 56));            \
    (x) = _mm_add_epi64((x), (y));                          \
    (x) = _mm_xor_si128((x), (kv));                         \
    (y) = _mm_or_si128(_mm_slli_epi64((y), 3),              \
                       _mm_srli_epi64((y), 61));            \
    (y) = _mm_xor_si128((y), (x));                          \
  } while (0)

// Lanes hold (lo=y, hi=x) per block; interleave 4 of them back to the
// serial lo0,hi0,lo1,hi1,... keystream order and XOR into the data.
__attribute__((target("avx2"))) inline void xor_4_blocks(__m256i* p,
                                                          __m256i y,
                                                          __m256i x) {
  const __m256i t0 = _mm256_unpacklo_epi64(y, x);               // b0 b2
  const __m256i t1 = _mm256_unpackhi_epi64(y, x);               // b1 b3
  const __m256i ks0 = _mm256_permute2x128_si256(t0, t1, 0x20);  // b0 b1
  const __m256i ks1 = _mm256_permute2x128_si256(t0, t1, 0x31);  // b2 b3
  _mm256_storeu_si256(p + 0, _mm256_xor_si256(_mm256_loadu_si256(p + 0), ks0));
  _mm256_storeu_si256(p + 1, _mm256_xor_si256(_mm256_loadu_si256(p + 1), ks1));
}

}  // namespace

__attribute__((target("avx2"))) std::size_t speck_ctr_xor_avx2(
    const std::uint64_t* rk, std::uint64_t nonce, std::uint64_t counter,
    std::uint8_t* data, std::size_t full_blocks) {
  const std::size_t done = full_blocks & ~std::size_t{3};
  if (done == 0) return 0;

  const __m256i rot8 = _mm256_setr_epi8(
      1, 2, 3, 4, 5, 6, 7, 0, 9, 10, 11, 12, 13, 14, 15, 8,  //
      1, 2, 3, 4, 5, 6, 7, 0, 9, 10, 11, 12, 13, 14, 15, 8);
  const __m256i lane_off0 = _mm256_setr_epi64x(0, 1, 2, 3);
  const __m256i lane_off1 = _mm256_setr_epi64x(4, 5, 6, 7);
  const __m256i nv = _mm256_set1_epi64x(static_cast<long long>(nonce));

  std::size_t b = 0;
  for (; b + 8 <= done; b += 8) {
    const __m256i cv = _mm256_set1_epi64x(static_cast<long long>(counter + b));
    __m256i x0 = _mm256_add_epi64(cv, lane_off0);
    __m256i x1 = _mm256_add_epi64(cv, lane_off1);
    __m256i y0 = nv;
    __m256i y1 = nv;
    for (int r = 0; r < 32; ++r) {
      const __m256i kv = _mm256_set1_epi64x(static_cast<long long>(rk[r]));
      MYKIL_SPECK_ROUND_AVX2(x0, y0, kv, rot8);
      MYKIL_SPECK_ROUND_AVX2(x1, y1, kv, rot8);
    }
    auto* p = reinterpret_cast<__m256i*>(data + b * 16);
    xor_4_blocks(p, y0, x0);
    xor_4_blocks(p + 2, y1, x1);
  }
  if (b < done) {  // one run of 4 blocks left
    const __m256i cv = _mm256_set1_epi64x(static_cast<long long>(counter + b));
    __m256i x0 = _mm256_add_epi64(cv, lane_off0);
    __m256i y0 = nv;
    for (int r = 0; r < 32; ++r) {
      const __m256i kv = _mm256_set1_epi64x(static_cast<long long>(rk[r]));
      MYKIL_SPECK_ROUND_AVX2(x0, y0, kv, rot8);
    }
    xor_4_blocks(reinterpret_cast<__m256i*>(data + b * 16), y0, x0);
  }
  return done;
}

std::size_t speck_ctr_xor_sse2(const std::uint64_t* rk, std::uint64_t nonce,
                               std::uint64_t counter, std::uint8_t* data,
                               std::size_t full_blocks) {
  const std::size_t done = full_blocks & ~std::size_t{3};
  if (done == 0) return 0;

  const __m128i nv = _mm_set1_epi64x(static_cast<long long>(nonce));
  const __m128i lane_off0 = _mm_set_epi64x(1, 0);
  const __m128i lane_off1 = _mm_set_epi64x(3, 2);

  for (std::size_t b = 0; b < done; b += 4) {
    const __m128i cv = _mm_set1_epi64x(static_cast<long long>(counter + b));
    __m128i x0 = _mm_add_epi64(cv, lane_off0);
    __m128i x1 = _mm_add_epi64(cv, lane_off1);
    __m128i y0 = nv;
    __m128i y1 = nv;
    for (int r = 0; r < 32; ++r) {
      const __m128i kv = _mm_set1_epi64x(static_cast<long long>(rk[r]));
      MYKIL_SPECK_ROUND_SSE2(x0, y0, kv);
      MYKIL_SPECK_ROUND_SSE2(x1, y1, kv);
    }
    auto* p = reinterpret_cast<__m128i*>(data + b * 16);
    const __m128i ks0 = _mm_unpacklo_epi64(y0, x0);
    const __m128i ks1 = _mm_unpackhi_epi64(y0, x0);
    const __m128i ks2 = _mm_unpacklo_epi64(y1, x1);
    const __m128i ks3 = _mm_unpackhi_epi64(y1, x1);
    _mm_storeu_si128(p + 0, _mm_xor_si128(_mm_loadu_si128(p + 0), ks0));
    _mm_storeu_si128(p + 1, _mm_xor_si128(_mm_loadu_si128(p + 1), ks1));
    _mm_storeu_si128(p + 2, _mm_xor_si128(_mm_loadu_si128(p + 2), ks2));
    _mm_storeu_si128(p + 3, _mm_xor_si128(_mm_loadu_si128(p + 3), ks3));
  }
  return done;
}

}  // namespace mykil::crypto::detail

#else  // !x86: stubs; dispatchers never select these (cpu_features() is all
       // false), but the symbols must exist.

namespace mykil::crypto::detail {

std::size_t speck_ctr_xor_avx2(const std::uint64_t*, std::uint64_t,
                               std::uint64_t, std::uint8_t*, std::size_t) {
  return 0;
}
std::size_t speck_ctr_xor_sse2(const std::uint64_t*, std::uint64_t,
                               std::uint64_t, std::uint8_t*, std::size_t) {
  return 0;
}

}  // namespace mykil::crypto::detail

#endif
