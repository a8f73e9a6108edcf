// Internal declarations of the SIMD crypto kernels (DESIGN.md 12).
//
// Not installed API: speck.cpp and sha256.cpp dispatch here after checking
// cpu_features()/force_scalar(). Each kernel is compiled with a function
// target attribute in its own TU (speck_simd.cpp, sha256_simd.cpp), so the
// rest of the library builds without raising the global -m arch baseline.
// On non-x86 targets the TUs compile stubs; the dispatchers never call
// them because cpu_features() reports no x86 features there.
#pragma once

#include <cstddef>
#include <cstdint>

namespace mykil::crypto::detail {

/// SHA-256 round constants (FIPS 180-4), shared by the scalar and SIMD
/// compression functions. Defined in sha256.cpp.
extern const std::uint32_t kSha256K[64];

/// Scalar SHA-256 compression over `blocks` consecutive 64-byte blocks.
/// The portable oracle every SIMD path is tested against.
void sha256_compress_scalar(std::uint32_t* state, const std::uint8_t* data,
                            std::size_t blocks);

/// SHA-NI single-stream compression (x86 with the SHA extension).
void sha256_compress_shani(std::uint32_t* state, const std::uint8_t* data,
                           std::size_t blocks);

/// Speck128-CTR keystream XOR: process the largest multiple of 4 out of
/// `full_blocks` whole 16-byte blocks, XORing the keystream for counters
/// [counter, counter+n) into `data`. Returns the number of blocks processed
/// (callers finish the remainder with the scalar code). `rk` is the
/// 32-entry round-key schedule.
std::size_t speck_ctr_xor_avx2(const std::uint64_t* rk, std::uint64_t nonce,
                               std::uint64_t counter, std::uint8_t* data,
                               std::size_t full_blocks);
std::size_t speck_ctr_xor_sse2(const std::uint64_t* rk, std::uint64_t nonce,
                               std::uint64_t counter, std::uint8_t* data,
                               std::size_t full_blocks);

}  // namespace mykil::crypto::detail
