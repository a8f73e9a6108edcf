// Runtime CPU-feature detection and SIMD dispatch policy for the crypto
// data plane (DESIGN.md 12).
//
// The vectorized Speck128-CTR and SHA-256 kernels are selected at runtime
// from cpuid so one binary runs everywhere: AVX2 where available, SSE2 on
// any x86-64, and the portable scalar code elsewhere. The scalar code is
// simultaneously the correctness oracle — `crypto_simd_test` cross-checks
// every SIMD path against it, and benches pin either side. RSA's Montgomery
// products follow the same policy: mulx/adcx/adox assembly on BMI2+ADX
// hosts, the portable kernels elsewhere (DESIGN.md 3.6).
//
// Two override knobs force the scalar path:
//   - environment: MYKIL_FORCE_SCALAR=1 (read once, at first query)
//   - programmatic: set_force_scalar(true) (tests/benches; checked on
//     every dispatch, so a single process can exercise both paths)
#pragma once

#include <cstdint>

namespace mykil::crypto {

/// Instruction-set capabilities relevant to the crypto kernels, detected
/// once via cpuid (plus xgetbv for AVX OS support).
struct CpuFeatures {
  bool sse2 = false;    ///< baseline on x86-64
  bool ssse3 = false;   ///< pshufb (byte-rotate / byteswap shuffles)
  bool sse41 = false;
  bool avx = false;     ///< requires OS xsave support (xgetbv)
  bool avx2 = false;    ///< 4x64-bit lanes: the Speck128 fast path
  bool sha_ni = false;  ///< SHA-256 round instructions: the hash fast path
  bool bmi2 = false;    ///< mulx: a 64x64 multiply that leaves the flags alone
  bool adx = false;     ///< adcx/adox: two independent carry chains
};

/// Detected features of this CPU (cached after the first call). Reflects
/// the hardware only — the force-scalar overrides do not alter it.
const CpuFeatures& cpu_features();

/// True when dispatch must take the scalar path: MYKIL_FORCE_SCALAR was
/// set in the environment, or set_force_scalar(true) is active.
bool force_scalar();

/// Programmatic override (tests, benches). Thread-safe; affects all
/// subsequent dispatch decisions in this process.
void set_force_scalar(bool on);

/// Name of the implementation the Speck128-CTR dispatcher selects right
/// now: "avx2", "sse2", or "scalar". Bench JSON lines record this so a
/// trajectory file says which kernel produced each row.
const char* speck_impl_name();

/// Same for the SHA-256 compression dispatcher: "sha_ni" or "scalar".
const char* sha256_impl_name();

/// And for the 4-lane interleaved SHA-256 used by sha256_multi/HMAC batch
/// verification: "avx2", "ssse3", or "scalar".
const char* sha256_multi_impl_name();

/// And for RSA's Montgomery products at the unrolled widths: "adx"
/// (mulx/adcx/adox assembly, x86-64 ELF builds on BMI2+ADX hosts) or
/// "portable".
const char* mont_impl_name();

}  // namespace mykil::crypto
