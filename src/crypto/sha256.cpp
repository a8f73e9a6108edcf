#include "crypto/sha256.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/error.h"
#include "crypto/cpu_features.h"
#include "crypto/simd_kernels.h"

namespace mykil::crypto {

namespace detail {

// Shared with the SIMD kernels (simd_kernels.h).
const std::uint32_t kSha256K[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

}  // namespace detail

namespace {

constexpr std::array<std::uint32_t, 8> kInitialState = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

inline std::uint32_t rotr(std::uint32_t x, int n) { return std::rotr(x, n); }

inline std::uint32_t bswap32(std::uint32_t v) {
#if defined(__GNUC__) || defined(__clang__)
  return __builtin_bswap32(v);
#else
  return v << 24 | (v << 8 & 0x00FF0000u) | (v >> 8 & 0x0000FF00u) | v >> 24;
#endif
}

inline std::uint32_t load_be32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::little) v = bswap32(v);
  return v;
}

inline void store_be32(std::uint8_t* p, std::uint32_t v) {
  if constexpr (std::endian::native == std::endian::little) v = bswap32(v);
  std::memcpy(p, &v, sizeof(v));
}

}  // namespace

namespace detail {

void sha256_compress_scalar(std::uint32_t* state, const std::uint8_t* data,
                            std::size_t blocks) {
  for (std::size_t blk = 0; blk < blocks; ++blk) {
    const std::uint8_t* block = data + blk * Sha256::kBlockSize;
    // Schedule precomputed up front (64 words): the round loop below then
    // touches only registers plus two constant tables.
    std::array<std::uint32_t, 64> w;
    for (int i = 0; i < 16; ++i) w[i] = load_be32(block + i * 4);
    for (int i = 16; i < 64; ++i) {
      std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    // Rotation-free 8-round pattern: instead of shifting a..h down one slot
    // per round (eight register moves the compiler must chew through), each
    // of the eight unrolled rounds names the variables in their rotated
    // positions directly, so after 8 rounds the naming is back where it
    // started and the "rotation" costs nothing.
#define MYKIL_SHA256_ROUND(a, b, c, d, e, f, g, h, i)                        \
  do {                                                                       \
    std::uint32_t t1 = (h) + (rotr((e), 6) ^ rotr((e), 11) ^ rotr((e), 25)) +\
                       (((e) & (f)) ^ (~(e) & (g))) + kSha256K[(i)] +        \
                       w[(i)];                                               \
    std::uint32_t t2 = (rotr((a), 2) ^ rotr((a), 13) ^ rotr((a), 22)) +      \
                       (((a) & (b)) ^ ((a) & (c)) ^ ((b) & (c)));            \
    (d) += t1;                                                               \
    (h) = t1 + t2;                                                           \
  } while (0)

    for (int i = 0; i < 64; i += 8) {
      MYKIL_SHA256_ROUND(a, b, c, d, e, f, g, h, i + 0);
      MYKIL_SHA256_ROUND(h, a, b, c, d, e, f, g, i + 1);
      MYKIL_SHA256_ROUND(g, h, a, b, c, d, e, f, i + 2);
      MYKIL_SHA256_ROUND(f, g, h, a, b, c, d, e, i + 3);
      MYKIL_SHA256_ROUND(e, f, g, h, a, b, c, d, i + 4);
      MYKIL_SHA256_ROUND(d, e, f, g, h, a, b, c, i + 5);
      MYKIL_SHA256_ROUND(c, d, e, f, g, h, a, b, i + 6);
      MYKIL_SHA256_ROUND(b, c, d, e, f, g, h, a, i + 7);
    }
#undef MYKIL_SHA256_ROUND

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

}  // namespace detail

Sha256::Sha256() : state_(kInitialState), buffer_{} {}

Sha256::Sha256(const std::array<std::uint32_t, 8>& midstate,
               std::uint64_t absorbed)
    : state_(midstate), buffer_{}, total_len_(absorbed) {
  if (absorbed % kBlockSize != 0)
    throw CryptoError("Sha256 resumed off a block boundary");
}

void Sha256::update(ByteView data) {
  if (finished_) throw CryptoError("Sha256::update after finish");
  total_len_ += data.size();
  std::size_t offset = 0;
  if (buffer_len_ > 0) {
    std::size_t take = std::min(kBlockSize - buffer_len_, data.size());
    std::copy(data.begin(), data.begin() + static_cast<std::ptrdiff_t>(take),
              buffer_.begin() + static_cast<std::ptrdiff_t>(buffer_len_));
    buffer_len_ += take;
    offset = take;
    if (buffer_len_ == kBlockSize) {
      process_blocks(buffer_.data(), 1);
      buffer_len_ = 0;
    }
  }
  const std::size_t nblocks = (data.size() - offset) / kBlockSize;
  if (nblocks > 0) {
    process_blocks(data.data() + offset, nblocks);
    offset += nblocks * kBlockSize;
  }
  if (offset < data.size()) {
    std::copy(data.begin() + static_cast<std::ptrdiff_t>(offset), data.end(),
              buffer_.begin());
    buffer_len_ = data.size() - offset;
  }
}

Bytes Sha256::finish() {
  Bytes out(kDigestSize);
  finish_into(std::span<std::uint8_t, kDigestSize>(out.data(), kDigestSize));
  return out;
}

void Sha256::finish_into(std::span<std::uint8_t, kDigestSize> out) {
  if (finished_) throw CryptoError("Sha256::finish called twice");
  finished_ = true;

  // Pad in the block buffer: 0x80, zeros, and the 8-byte big-endian bit
  // length closing the last block, which is a second one when the length
  // no longer fits.
  const std::uint64_t bit_len = total_len_ * 8;
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > kBlockSize - 8) {
    std::fill(buffer_.begin() + static_cast<std::ptrdiff_t>(buffer_len_),
              buffer_.end(), 0);
    process_blocks(buffer_.data(), 1);
    buffer_len_ = 0;
  }
  std::fill(buffer_.begin() + static_cast<std::ptrdiff_t>(buffer_len_),
            buffer_.end() - 8, 0);
  store_be32(buffer_.data() + kBlockSize - 8,
             static_cast<std::uint32_t>(bit_len >> 32));
  store_be32(buffer_.data() + kBlockSize - 4,
             static_cast<std::uint32_t>(bit_len));
  process_blocks(buffer_.data(), 1);

  for (std::size_t i = 0; i < 8; ++i) store_be32(out.data() + i * 4, state_[i]);
}

Bytes Sha256::digest(ByteView data) {
  Sha256 h;
  h.update(data);
  return h.finish();
}

std::array<std::uint32_t, 8> Sha256::midstate() const {
  if (finished_) throw CryptoError("Sha256::midstate after finish");
  if (buffer_len_ != 0)
    throw CryptoError("Sha256::midstate off a block boundary");
  return state_;
}

void Sha256::process_blocks(const std::uint8_t* data, std::size_t n) {
  if (!force_scalar() && cpu_features().sha_ni)
    detail::sha256_compress_shani(state_.data(), data, n);
  else
    detail::sha256_compress_scalar(state_.data(), data, n);
}

}  // namespace mykil::crypto
