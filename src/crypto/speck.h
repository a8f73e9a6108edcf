// Speck128/128 block cipher (NSA, 2013) with CTR mode.
//
// Stands in for the paper's 128-bit symmetric cipher (the prototype used
// OpenSSL). Speck is chosen because its ARX structure is tiny, fast, and
// has published reference test vectors we validate against.
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.h"

namespace mykil::crypto {

/// Speck128/128: 128-bit block, 128-bit key, 32 rounds.
class Speck128 {
 public:
  static constexpr std::size_t kBlockSize = 16;
  static constexpr std::size_t kKeySize = 16;
  static constexpr int kRounds = 32;

  /// Key must be exactly 16 bytes; throws CryptoError otherwise.
  explicit Speck128(ByteView key);

  /// Encrypt one 16-byte block in place (as two little-endian u64 words,
  /// per the reference implementation's convention).
  void encrypt_block(std::uint8_t* block) const;
  void decrypt_block(std::uint8_t* block) const;

  /// Encrypt the CTR counter block (nonce = low word, counter = high word)
  /// and return the keystream words without touching memory. Equivalent to
  /// building the 16-byte block and calling encrypt_block; used by
  /// speck_ctr so the hot loop never copies the nonce.
  void ctr_block(std::uint64_t nonce, std::uint64_t counter,
                 std::uint64_t& lo, std::uint64_t& hi) const;

  /// Two consecutive CTR keystream blocks (counter, counter+1) computed with
  /// the round loop interleaved. Speck's ARX rounds form one serial
  /// dependency chain per block; running two independent chains through the
  /// same loop lets the CPU overlap them (ILP), roughly halving cycles per
  /// byte versus two ctr_block calls.
  void ctr_block2(std::uint64_t nonce, std::uint64_t counter,
                  std::uint64_t& lo0, std::uint64_t& hi0, std::uint64_t& lo1,
                  std::uint64_t& hi1) const;

  /// XOR the CTR keystream for counters [counter, counter + ceil(len/16))
  /// into `data` in place (encrypt == decrypt). This is the dispatched hot
  /// path: whole blocks run 8 (AVX2, then a last run of 4) or 4 (SSE2)
  /// counter lanes per iteration when the CPU allows
  /// (crypto/cpu_features.h), with the scalar loop as the portable
  /// fallback, tail handler, and correctness oracle. Keystream bytes are
  /// bit-identical across all paths; the
  /// counter is a wrapping uint64, exercised across the 2^32 block
  /// boundary by crypto_simd_test.
  void ctr_xor(std::uint64_t nonce, std::uint64_t counter, std::uint8_t* data,
               std::size_t len) const;

 private:
  std::array<std::uint64_t, kRounds> round_keys_;
};

/// CTR-mode keystream: encrypt and decrypt are the same operation.
/// `nonce` must be 8 bytes; it occupies the upper half of the counter block.
Bytes speck_ctr(ByteView key, ByteView nonce, ByteView data);

}  // namespace mykil::crypto
