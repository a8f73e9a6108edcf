#include "crypto/cpu_features.h"

#include <atomic>
#include <cstdlib>

#include "crypto/mont_adx.h"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace mykil::crypto {

namespace {

CpuFeatures detect() {
  CpuFeatures f;
#if defined(__x86_64__) || defined(__i386__)
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return f;
  f.sse2 = (edx & bit_SSE2) != 0;
  f.ssse3 = (ecx & bit_SSSE3) != 0;
  f.sse41 = (ecx & bit_SSE4_1) != 0;
  // AVX needs CPU support, OS xsave support, and the OS actually saving
  // the ymm state (xgetbv XCR0 bits 1|2); without the last check a kernel
  // that never context-switches ymm registers would corrupt them.
  bool osxsave = (ecx & bit_OSXSAVE) != 0;
  bool avx_cpu = (ecx & bit_AVX) != 0;
  bool ymm_enabled = false;
  if (osxsave) {
    // xgetbv via asm: the _xgetbv intrinsic needs -mxsave on GCC, which
    // would raise the arch baseline of this TU.
    std::uint32_t xlo, xhi;
    __asm__ volatile("xgetbv" : "=a"(xlo), "=d"(xhi) : "c"(0));
    std::uint64_t xcr0 = (static_cast<std::uint64_t>(xhi) << 32) | xlo;
    ymm_enabled = (xcr0 & 0x6) == 0x6;
  }
  f.avx = avx_cpu && ymm_enabled;
  unsigned max_leaf = __get_cpuid_max(0, nullptr);
  if (max_leaf >= 7) {
    __cpuid_count(7, 0, eax, ebx, ecx, edx);
    f.avx2 = f.avx && (ebx & bit_AVX2) != 0;
    f.sha_ni = f.sse41 && (ebx & bit_SHA) != 0;
    f.bmi2 = (ebx & bit_BMI2) != 0;
    f.adx = (ebx & bit_ADX) != 0;
  }
#endif
  return f;
}

bool env_force_scalar() {
  const char* v = std::getenv("MYKIL_FORCE_SCALAR");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

std::atomic<bool> g_force_scalar_api{false};

}  // namespace

const CpuFeatures& cpu_features() {
  static const CpuFeatures f = detect();
  return f;
}

bool force_scalar() {
  static const bool from_env = env_force_scalar();
  return from_env || g_force_scalar_api.load(std::memory_order_relaxed);
}

void set_force_scalar(bool on) {
  g_force_scalar_api.store(on, std::memory_order_relaxed);
}

const char* speck_impl_name() {
  if (force_scalar()) return "scalar";
  const CpuFeatures& f = cpu_features();
  if (f.avx2) return "avx2";
  if (f.sse2) return "sse2";
  return "scalar";
}

const char* sha256_impl_name() {
  if (force_scalar()) return "scalar";
  return cpu_features().sha_ni ? "sha_ni" : "scalar";
}

const char* mont_impl_name() {
  return !force_scalar() && mont_adx_available() ? "adx" : "portable";
}

}  // namespace mykil::crypto
