// Montgomery products on mulx/adcx/adox (BMI2 + ADX), in assembly for the
// widths RSA runs at (DESIGN.md 3.6): 4, 6, 8 and 12 words, which
// MontgomeryContext also unrolls in portable code, and 16 and 32 words
// (RSA-2048's CRT halves and modulus). x86-64 ELF builds only; every other
// target and width keeps the portable kernels in bignum.cpp, which the tests
// check the assembly against.
#pragma once

#include <cstddef>
#include <cstdint>

namespace mykil::crypto {

/// out = a · b · 2^(-64k) mod n over k 64-bit words, n0 = -n^-1 mod 2^64.
/// a and b must be below n; out is then below n, and may alias a, b or both.
using MontMulAdx = void (*)(std::uint64_t* out, const std::uint64_t* a,
                            const std::uint64_t* b, const std::uint64_t* n,
                            std::uint64_t n0);

/// Whether this build has the kernels (x86-64 ELF) and the host has BMI2 and
/// ADX. Ignores force_scalar(); callers check that per exponentiation.
bool mont_adx_available();

/// The kernel for `words` 64-bit words (4, 6, 8, 12, 16 or 32), or nullptr
/// when there is none at that width or mont_adx_available() is false.
MontMulAdx mont_mul_adx(std::size_t words);

}  // namespace mykil::crypto
