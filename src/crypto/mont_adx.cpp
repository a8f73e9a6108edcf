// Montgomery products on mulx/adcx/adox. Each product is one assembly
// function: row i adds a[i]·b into the accumulator t, then m·n with
// m = t[0]·n0 mod 2^64, which zeroes t[0], and drops that word. mulx leaves
// the flags alone, so every row runs two carry chains at once: the low half
// of each 64×64 product goes in on the adox (OF) chain and the high half on
// the adcx (CF) chain, one word up. Both chains close inside the product,
// and t < 2n after every row, so one branch-free subtraction of n ends it.
//
// The code sits in a file-scope asm block because the benchmark build
// compiles src/*/*.cpp with no per-file flags; the assembler accepts the
// instructions without -mbmi2 -madx, and mont_mul_adx() hands them out only
// on a host that has both.
#include "crypto/mont_adx.h"

#include <type_traits>

#include "crypto/cpu_features.h"

#if defined(__x86_64__) && defined(__ELF__)

extern "C" {
std::remove_pointer_t<mykil::crypto::MontMulAdx> mykil_mont_mul_adx4,
    mykil_mont_mul_adx6, mykil_mont_mul_adx8, mykil_mont_mul_adx12,
    mykil_mont_mul_adx16, mykil_mont_mul_adx32;
}

// Arguments (System V): rdi out, rsi a, rdx b, rcx n, r8 n0. mulx multiplies
// by rdx, so b moves out of it first. Nothing is written to out until a and
// b have been read for the last time, which is what lets out alias them.
asm(R"(
  .pushsection .text

# ---- Register form (4 and 6 words) -----------------------------------------
# t[0..K+1] lives in K + 2 of r8-r15. Instead of shifting t down a word per
# row, the caller rotates the register names: the zeroed t[0] becomes the
# next row's t[K+1]. rbp holds b, rax/rbx the halves of each product, and n0
# sits at (%rsp).

# t[j..K+1] += rdx * src[j..K-1]: product j's low half into t[j] (OF chain),
# its high half into t[j+1] (CF chain). With two names left, t[K] and t[K+1],
# it folds in both pending carries, which leaves CF and OF clear.
.macro mont_chain src, off, tj, tj1, rest:vararg
.ifb \rest
  mov $0, %eax
  adcx %rax, \tj1
  adox %rax, \tj
  adox %rax, \tj1
.else
  mulx \off(\src), %rax, %rbx
  adox %rax, \tj
  adcx %rbx, \tj1
  mont_chain \src, \off+8, \tj1, \rest
.endif
.endm

# Rows aoff/8 .. K-1 over the registers t[0], ..., t[K+1]: t += a[i]*b, then
# t += m*n with m = t[0]*n0 mod 2^64. Each pass starts on fresh flags (xor),
# so it need not wait for the last carries of the pass before. The last row
# hands the rotated names to mont_final.
.macro mont_rows rows, aoff, t0, rest:vararg
  mov \aoff(%rsi), %rdx
  xor %eax, %eax
  mont_chain %rbp, 0, \t0, \rest
  mov \t0, %rdx
  mulx (%rsp), %rdx, %rax
  xor %eax, %eax
  mont_chain %rcx, 0, \t0, \rest
.if \rows > 1
  mont_rows \rows-1, \aoff+8, \rest, \t0
.else
  mont_final \rest, \t0
.endif
.endm

# out = t - n unless that borrows past t[K], else t. Stores t, subtracts n
# in place, then takes the stored word back wherever it borrowed.
.macro mont_final t0, rest:vararg
  mov \t0, (%rdi)
  sub (%rcx), \t0
  mont_sbb 8, \rest
  mont_keep 0, \t0, \rest
.endm

.macro mont_sbb off, tj, tj1, rest:vararg
.ifb \rest
  sbb $0, \tj
.else
  mov \tj, \off(%rdi)
  sbb \off(%rcx), \tj
  mont_sbb \off+8, \tj1, \rest
.endif
.endm

.macro mont_keep off, tj, tj1, rest:vararg
.ifnb \rest
  cmovc \off(%rdi), \tj
  mov \tj, \off(%rdi)
  mont_keep \off+8, \tj1, \rest
.endif
.endm

.macro mont_mul_regs name, K, t0, rest:vararg
  .globl \name
  .hidden \name
  .type \name, @function
  .p2align 5
\name:
  push %rbx
  push %rbp
  push %r12
  push %r13
  push %r14
  push %r15
  push %r8
  mov %rdx, %rbp
.irp r, \t0, \rest
  xor \r, \r
.endr
  mont_rows \K, 0, \t0, \rest
  add $8, %rsp
  pop %r15
  pop %r14
  pop %r13
  pop %r12
  pop %rbp
  pop %rbx
  ret
  .size \name, .-\name
.endm

# ---- Stack form (8, 12, 16 and 32 words) -----------------------------------
# t[0..K+1] lives at 16(%rsp) on, n0 at (%rsp), and 8(%rsp) takes the zeroed
# t[0] that the reduction pass stores one word down. Rows loop over a; each
# pass is unrolled, two products at a time (K even). r9 holds b, rax each low
# half, r10/r11 alternate as the high half carried into the next word, r8 the
# word of t being updated.

# t += rdx * src, each word stored \shift bytes lower (8 drops t[0]). Ends
# with rax = 0.
.macro mont_pass K, src, shift
  xor %r10d, %r10d
  .set .Lmont_j, 0
.rept \K/2
  mulx .Lmont_j(\src), %rax, %r11
  mov 16+.Lmont_j(%rsp), %r8
  adox %rax, %r8
  adcx %r10, %r8
  mov %r8, 16+.Lmont_j-\shift(%rsp)
  mulx .Lmont_j+8(\src), %rax, %r10
  mov 24+.Lmont_j(%rsp), %r8
  adox %rax, %r8
  adcx %r11, %r8
  mov %r8, 24+.Lmont_j-\shift(%rsp)
  .set .Lmont_j, .Lmont_j+16
.endr
  mov $0, %eax
  mov 16+8*\K(%rsp), %r8
  adcx %r10, %r8
  adox %rax, %r8
  mov %r8, 16+8*\K-\shift(%rsp)
  mov 24+8*\K(%rsp), %r8
  adcx %rax, %r8
  adox %rax, %r8
  mov %r8, 24+8*\K-\shift(%rsp)
.endm

.macro mont_mul_stack name, K
  .globl \name
  .hidden \name
  .type \name, @function
  .p2align 5
\name:
  push %rbx
  sub $8*(\K+4), %rsp
  mov %r8, (%rsp)
  mov %rdx, %r9
  lea 8*\K(%rsi), %rbx
  xor %eax, %eax
  .set .Lmont_j, 8
.rept \K+3
  mov %rax, .Lmont_j(%rsp)
  .set .Lmont_j, .Lmont_j+8
.endr
1:
  mov (%rsi), %rdx
  mont_pass \K, %r9, 0
  mov 16(%rsp), %rdx
  mulx (%rsp), %rdx, %rax
  mont_pass \K, %rcx, 8
  mov %rax, 24+8*\K(%rsp)          # t[K+1] = 0 for the next row
  add $8, %rsi
  cmp %rbx, %rsi
  jne 1b
# out = t - n, then t again wherever that borrowed past t[K].
  mov 16(%rsp), %rax
  sub (%rcx), %rax
  mov %rax, (%rdi)
  .set .Lmont_j, 8
.rept \K-1
  mov 16+.Lmont_j(%rsp), %rax
  sbb .Lmont_j(%rcx), %rax
  mov %rax, .Lmont_j(%rdi)
  .set .Lmont_j, .Lmont_j+8
.endr
  mov 16+8*\K(%rsp), %rax
  sbb $0, %rax
  .set .Lmont_j, 0
.rept \K
  mov .Lmont_j(%rdi), %rax
  cmovc 16+.Lmont_j(%rsp), %rax
  mov %rax, .Lmont_j(%rdi)
  .set .Lmont_j, .Lmont_j+8
.endr
  add $8*(\K+4), %rsp
  pop %rbx
  ret
  .size \name, .-\name
.endm

  mont_mul_regs mykil_mont_mul_adx4, 4, %r8, %r9, %r10, %r11, %r12, %r13
  mont_mul_regs mykil_mont_mul_adx6, 6, %r8, %r9, %r10, %r11, %r12, %r13, %r14, %r15
  mont_mul_stack mykil_mont_mul_adx8, 8
  mont_mul_stack mykil_mont_mul_adx12, 12
  mont_mul_stack mykil_mont_mul_adx16, 16
  mont_mul_stack mykil_mont_mul_adx32, 32

  .popsection
)");

#endif

namespace mykil::crypto {

bool mont_adx_available() {
#if defined(__x86_64__) && defined(__ELF__)
  const CpuFeatures& f = cpu_features();
  return f.bmi2 && f.adx;
#else
  return false;
#endif
}

MontMulAdx mont_mul_adx(std::size_t words) {
  if (!mont_adx_available()) return nullptr;
#if defined(__x86_64__) && defined(__ELF__)
  switch (words) {
    case 4: return &mykil_mont_mul_adx4;
    case 6: return &mykil_mont_mul_adx6;
    case 8: return &mykil_mont_mul_adx8;
    case 12: return &mykil_mont_mul_adx12;
    case 16: return &mykil_mont_mul_adx16;
    case 32: return &mykil_mont_mul_adx32;
    default: break;
  }
#else
  (void)words;
#endif
  return nullptr;
}

}  // namespace mykil::crypto
