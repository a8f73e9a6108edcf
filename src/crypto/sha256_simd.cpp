// SHA-NI SHA-256 compression kernel (DESIGN.md 12).
//
// sha256_compress_shani: single-stream compression on the x86 SHA
// extension. sha256rnds2 executes two rounds per instruction with the
// W-schedule held entirely in xmm registers (sha256msg1/msg2); this is the
// fast path for every Sha256::digest/HMAC call. The ABEF/CDGH state packing
// and the 4-round message groups follow the canonical Intel sequence.
// Digests are bit-identical to the scalar core (exhaustively cross-checked
// by crypto_simd_test).
#include "crypto/simd_kernels.h"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

namespace mykil::crypto::detail {

__attribute__((target("sha,sse4.1,ssse3"))) void sha256_compress_shani(
    std::uint32_t* state, const std::uint8_t* data, std::size_t blocks) {
  // Big-endian 32-bit word loads for the message schedule.
  const __m128i kShuf =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  const auto* k = kSha256K;

  // Pack (a,b,c,d),(e,f,g,h) into the ABEF/CDGH order sha256rnds2 expects.
  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
  __m128i st1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));
  tmp = _mm_shuffle_epi32(tmp, 0xB1);
  st1 = _mm_shuffle_epi32(st1, 0x1B);
  __m128i st0 = _mm_alignr_epi8(tmp, st1, 8);
  st1 = _mm_blend_epi16(st1, tmp, 0xF0);

#define MYKIL_K4(i) \
  _mm_loadu_si128(reinterpret_cast<const __m128i*>(&k[(i)]))
  // Four rounds on the word group in `msgv` (already + K).
#define MYKIL_RNDS4()                                \
  do {                                               \
    st1 = _mm_sha256rnds2_epu32(st1, st0, msgv);     \
    msgv = _mm_shuffle_epi32(msgv, 0x0E);            \
    st0 = _mm_sha256rnds2_epu32(st0, st1, msgv);     \
  } while (0)
  // Schedule step: fold `cur` into `nxt` (w[i-7] term via alignr against
  // `prv`, then sha256msg2's sigma1 pass).
#define MYKIL_SCHED(cur, nxt, prv)                   \
  do {                                               \
    __m128i t = _mm_alignr_epi8((cur), (prv), 4);    \
    (nxt) = _mm_add_epi32((nxt), t);                 \
    (nxt) = _mm_sha256msg2_epu32((nxt), (cur));      \
  } while (0)

  while (blocks-- > 0) {
    const __m128i save0 = st0;
    const __m128i save1 = st1;
    __m128i msgv;

    // Rounds 0-15: load + byteswap the four word groups.
    __m128i m0 = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 0)), kShuf);
    msgv = _mm_add_epi32(m0, MYKIL_K4(0));
    MYKIL_RNDS4();

    __m128i m1 = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16)), kShuf);
    msgv = _mm_add_epi32(m1, MYKIL_K4(4));
    MYKIL_RNDS4();
    m0 = _mm_sha256msg1_epu32(m0, m1);

    __m128i m2 = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 32)), kShuf);
    msgv = _mm_add_epi32(m2, MYKIL_K4(8));
    MYKIL_RNDS4();
    m1 = _mm_sha256msg1_epu32(m1, m2);

    __m128i m3 = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 48)), kShuf);
    msgv = _mm_add_epi32(m3, MYKIL_K4(12));
    st1 = _mm_sha256rnds2_epu32(st1, st0, msgv);
    MYKIL_SCHED(m3, m0, m2);
    msgv = _mm_shuffle_epi32(msgv, 0x0E);
    st0 = _mm_sha256rnds2_epu32(st0, st1, msgv);
    m2 = _mm_sha256msg1_epu32(m2, m3);

    // Rounds 16-47: full pattern — rounds, msg2 into the next group,
    // msg1 priming the group after that. The m0..m3 roles rotate.
#define MYKIL_GROUP_FULL(cur, nxt, prv, i)           \
  do {                                               \
    msgv = _mm_add_epi32((cur), MYKIL_K4(i));        \
    st1 = _mm_sha256rnds2_epu32(st1, st0, msgv);     \
    MYKIL_SCHED(cur, nxt, prv);                      \
    msgv = _mm_shuffle_epi32(msgv, 0x0E);            \
    st0 = _mm_sha256rnds2_epu32(st0, st1, msgv);     \
    (prv) = _mm_sha256msg1_epu32((prv), (cur));      \
  } while (0)

    MYKIL_GROUP_FULL(m0, m1, m3, 16);
    MYKIL_GROUP_FULL(m1, m2, m0, 20);
    MYKIL_GROUP_FULL(m2, m3, m1, 24);
    MYKIL_GROUP_FULL(m3, m0, m2, 28);
    MYKIL_GROUP_FULL(m0, m1, m3, 32);
    MYKIL_GROUP_FULL(m1, m2, m0, 36);
    MYKIL_GROUP_FULL(m2, m3, m1, 40);
    MYKIL_GROUP_FULL(m3, m0, m2, 44);

    // Rounds 48-51 still prime m3 (it becomes W[60..63] at rounds 56-59);
    // after that the schedule only extends, no further msg1.
    MYKIL_GROUP_FULL(m0, m1, m3, 48);

#define MYKIL_GROUP_TAIL(cur, nxt, prv, i)           \
  do {                                               \
    msgv = _mm_add_epi32((cur), MYKIL_K4(i));        \
    st1 = _mm_sha256rnds2_epu32(st1, st0, msgv);     \
    MYKIL_SCHED(cur, nxt, prv);                      \
    msgv = _mm_shuffle_epi32(msgv, 0x0E);            \
    st0 = _mm_sha256rnds2_epu32(st0, st1, msgv);     \
  } while (0)

    MYKIL_GROUP_TAIL(m1, m2, m0, 52);
    MYKIL_GROUP_TAIL(m2, m3, m1, 56);

    // Rounds 60-63.
    msgv = _mm_add_epi32(m3, MYKIL_K4(60));
    MYKIL_RNDS4();

    st0 = _mm_add_epi32(st0, save0);
    st1 = _mm_add_epi32(st1, save1);
    data += 64;
  }
#undef MYKIL_GROUP_TAIL
#undef MYKIL_GROUP_FULL
#undef MYKIL_SCHED
#undef MYKIL_RNDS4
#undef MYKIL_K4

  // Unpack ABEF/CDGH back to (a..d),(e..h).
  tmp = _mm_shuffle_epi32(st0, 0x1B);
  st1 = _mm_shuffle_epi32(st1, 0xB1);
  st0 = _mm_blend_epi16(tmp, st1, 0xF0);
  st1 = _mm_alignr_epi8(st1, tmp, 8);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]), st0);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]), st1);
}

}  // namespace mykil::crypto::detail

#else  // !x86: stubs (never dispatched to — cpu_features() reports none).

namespace mykil::crypto::detail {

void sha256_compress_shani(std::uint32_t*, const std::uint8_t*, std::size_t) {}

}  // namespace mykil::crypto::detail

#endif
