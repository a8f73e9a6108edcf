// SIMD/scalar equivalence gate (DESIGN.md 12).
//
// Every accelerated primitive must be bit-identical to the portable scalar
// core for all message lengths 0..1025 and for unaligned buffers (offsets
// 1/3/7), plus the 64-bit CTR counter crossing the 2^32 block boundary.
// The binary is registered twice in ctest: once with auto dispatch (SIMD
// vs scalar in-process via set_force_scalar) and once with
// MYKIL_FORCE_SCALAR=1 in the environment, which pins every path scalar
// and turns the same tests into a scalar self-consistency check.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <vector>

#include "common/error.h"
#include "common/hex.h"
#include "crypto/cpu_features.h"
#include "crypto/data_plane.h"
#include "crypto/hmac.h"
#include "crypto/sealed.h"
#include "crypto/sha256.h"
#include "crypto/speck.h"

namespace mykil::crypto {
namespace {

constexpr std::size_t kMaxLen = 1025;  // past one SHA block + one word
const std::size_t kOffsets[] = {0, 1, 3, 7};

/// Scoped dispatch override; restores auto dispatch on exit.
struct ForceScalar {
  explicit ForceScalar(bool on) { set_force_scalar(on); }
  ~ForceScalar() { set_force_scalar(false); }
};

Bytes pattern(std::size_t len, std::uint8_t salt) {
  Bytes b(len);
  for (std::size_t i = 0; i < len; ++i)
    b[i] = static_cast<std::uint8_t>(i * 31 + salt);
  return b;
}

Bytes test_key() { return pattern(16, 0xA5); }

/// CTR keystream oracle built only on the (always-scalar) single-block
/// encryptor: byte i of block k is E(nonce, counter+k) serialized LE.
Bytes ctr_oracle(const Speck128& cipher, std::uint64_t nonce,
                 std::uint64_t counter, ByteView data) {
  Bytes out(data.begin(), data.end());
  for (std::size_t off = 0; off < out.size(); off += 16) {
    std::uint8_t block[16];
    for (int i = 0; i < 8; ++i) {
      block[i] = static_cast<std::uint8_t>(nonce >> (8 * i));
      block[8 + i] = static_cast<std::uint8_t>(counter >> (8 * i));
    }
    cipher.encrypt_block(block);
    for (std::size_t i = 0; i < 16 && off + i < out.size(); ++i)
      out[off + i] ^= block[i];
    ++counter;
  }
  return out;
}

TEST(SpeckSimd, CtrXorAllLengthsAndOffsets) {
  Speck128 cipher(test_key());
  const std::uint64_t nonce = 0x0123456789ABCDEFULL;
  for (std::size_t off : kOffsets) {
    // One oversized buffer per offset; the region under test starts at
    // `off` so SIMD loads/stores see genuinely unaligned pointers.
    std::vector<std::uint8_t> raw(off + kMaxLen);
    for (std::size_t len = 0; len <= kMaxLen; ++len) {
      Bytes msg = pattern(len, static_cast<std::uint8_t>(off));

      if (len != 0) std::memcpy(raw.data() + off, msg.data(), len);
      {
        ForceScalar fs(true);
        cipher.ctr_xor(nonce, 0, raw.data() + off, len);
      }
      Bytes scalar_out(raw.data() + off, raw.data() + off + len);

      if (len != 0) std::memcpy(raw.data() + off, msg.data(), len);
      cipher.ctr_xor(nonce, 0, raw.data() + off, len);
      Bytes simd_out(raw.data() + off, raw.data() + off + len);

      ASSERT_EQ(simd_out, scalar_out) << "len=" << len << " off=" << off;
      if (len % 97 == 0) {  // spot-check against the block oracle
        ASSERT_EQ(simd_out, ctr_oracle(cipher, nonce, 0, msg)) << len;
      }
    }
  }
}

TEST(SpeckSimd, FreeFunctionMatchesScalar) {
  Bytes key = test_key();
  Bytes nonce = pattern(8, 0x5A);
  for (std::size_t len : {0u, 1u, 15u, 16u, 17u, 64u, 127u, 1024u, 1025u}) {
    Bytes msg = pattern(len, 7);
    Bytes simd_out = speck_ctr(key, nonce, msg);
    ForceScalar fs(true);
    ASSERT_EQ(simd_out, speck_ctr(key, nonce, msg)) << len;
  }
}

TEST(SpeckSimd, CounterCrosses32BitBoundary) {
  Speck128 cipher(test_key());
  const std::uint64_t nonce = 0xFEEDFACECAFEBEEFULL;
  // Start 5 blocks below 2^32: a 12-block message straddles the boundary
  // inside a single SIMD batch. A kernel that increments the counter in 32
  // bits (or splits lanes wrong) diverges exactly here.
  const std::uint64_t start = (1ULL << 32) - 5;
  Bytes msg = pattern(12 * 16 + 5, 0x3C);

  Bytes simd_out = msg;
  cipher.ctr_xor(nonce, start, simd_out.data(), simd_out.size());

  Bytes scalar_out = msg;
  {
    ForceScalar fs(true);
    cipher.ctr_xor(nonce, start, scalar_out.data(), scalar_out.size());
  }

  ASSERT_EQ(simd_out, scalar_out);
  ASSERT_EQ(simd_out, ctr_oracle(cipher, nonce, start, msg));
  // And the keystream must actually differ from a non-crossing window of
  // the same length (guards against a counter stuck at truncated values).
  Bytes other = msg;
  cipher.ctr_xor(nonce, 5, other.data(), other.size());
  ASSERT_NE(simd_out, other);
}

TEST(Sha256Simd, AllLengthsAndOffsets) {
  for (std::size_t off : kOffsets) {
    std::vector<std::uint8_t> raw(off + kMaxLen);
    for (std::size_t len = 0; len <= kMaxLen; ++len) {
      Bytes msg = pattern(len, static_cast<std::uint8_t>(off * 11));
      if (len != 0) std::memcpy(raw.data() + off, msg.data(), len);
      ByteView view(raw.data() + off, len);

      Bytes simd_digest = Sha256::digest(view);
      ForceScalar fs(true);
      ASSERT_EQ(simd_digest, Sha256::digest(view))
          << "len=" << len << " off=" << off;
    }
  }
}

TEST(Sha256Simd, MidstateRequiresBlockBoundary) {
  Sha256 h;
  h.update(pattern(10, 0));
  EXPECT_THROW((void)h.midstate(), CryptoError);
}

TEST(DataPlaneSimd, SealMatchesKnownAnswers) {
  // sym_seal is a one-shot DataPlaneKey, so the two cannot be checked
  // against each other. These boxes were recorded from the former
  // stand-alone sym_seal (speck_ctr under derive("enc"), then
  // hmac_sha256_trunc under derive("mac")): nonce(8) || ciphertext ||
  // tag(16). The 1024-byte box is pinned by its SHA-256.
  struct Answer {
    std::size_t len;
    const char* box_hex;
  };
  const Answer answers[] = {
      {0, "ff59f06111d4599a48ad71259bdc25f1463374cf9f28c66c"},
      {1, "ff59f06111d4599ab22d0c5409f3f0306d2a03896ac14ea392"},
      {16,
       "ff59f06111d4599ab2f77f5b11e349628bdb9b01cabe72958dbb383962c52ceb"
       "530561967dbc405a"},
      {100,
       "ff59f06111d4599ab2f77f5b11e349628bdb9b01cabe7295a79c9309ebe0e481"
       "df713b117def07a2f83ab128bd215e4433d11a6d669265937de72f40c546483f"
       "1d226a0bea53451ddee5495e4d2454e5c8c774d04d848e486e1c94011c53957f"
       "d11060eaa36ddceb181f35be6094ec4c18de02c5412ec8232076ce6d"},
  };
  SymmetricKey key(test_key());
  DataPlaneKey dpk(key);
  for (const Answer& a : answers) {
    Bytes msg = pattern(a.len, 0x42);
    Prng p1(1234), p2(1234);
    EXPECT_EQ(hex_encode(sym_seal(key, msg, p1)), a.box_hex) << a.len;
    EXPECT_EQ(hex_encode(dpk.seal(msg, p2)), a.box_hex) << a.len;
    EXPECT_EQ(sym_open(key, hex_decode(a.box_hex)), msg) << a.len;
  }
  Bytes msg = pattern(1024, 0x42);
  Prng prng(1234);
  Bytes box = sym_seal(key, msg, prng);
  EXPECT_EQ(box.size(), 1024 + kSealOverhead);
  EXPECT_EQ(hex_encode(Sha256::digest(box)),
            "377d062c6f3782fa73bc1cfe09a7bed9abefc6739afc0b73d41644babff479d1");
  EXPECT_EQ(dpk.open(box), msg);
}

// The allocation-free entry points of the receive path against the
// bytes they replace: finish_into, mac_into and the stack verify, derive,
// open_into. Like the rest of this file they run in both dispatch modes.
TEST(HeapFree, FinishIntoMatchesFinish) {
  for (std::size_t len = 0; len <= kMaxLen; ++len) {
    const Bytes msg = pattern(len, 0x11);
    Sha256 a, b;
    a.update(msg);
    b.update(msg);
    std::array<std::uint8_t, Sha256::kDigestSize> out;
    b.finish_into(out);
    ASSERT_EQ(Bytes(out.begin(), out.end()), a.finish()) << len;
  }
}

/// HMAC-SHA256 straight from RFC 2104's definition, over one-shot digests.
Bytes hmac_reference(ByteView key, ByteView msg) {
  Bytes k(Sha256::kBlockSize, 0);
  const Bytes hashed = key.size() > k.size() ? Sha256::digest(key) : Bytes();
  const ByteView kv = key.size() > k.size() ? ByteView(hashed) : key;
  std::copy(kv.begin(), kv.end(), k.begin());
  Bytes ipad = k, opad = k;
  for (std::size_t i = 0; i < k.size(); ++i) {
    ipad[i] ^= 0x36;
    opad[i] ^= 0x5c;
  }
  return Sha256::digest(concat(opad, Sha256::digest(concat(ipad, msg))));
}

TEST(HeapFree, MacIntoAndVerifyMatchOneShotHmac) {
  for (std::size_t key_len = 0; key_len <= 100; ++key_len) {
    const Bytes key = pattern(key_len, 0x5C);
    const HmacKey k(key);
    for (std::size_t len = 0; len <= 300; ++len) {
      const Bytes msg = pattern(len, static_cast<std::uint8_t>(key_len));
      const Bytes want = hmac_sha256(key, msg);
      ASSERT_EQ(want, hmac_reference(key, msg)) << key_len << "/" << len;
      std::array<std::uint8_t, HmacKey::kTagSize> got;
      k.mac_into(msg, got);
      ASSERT_EQ(Bytes(got.begin(), got.end()), want) << key_len << "/" << len;
      ASSERT_TRUE(k.verify(msg, want));
      ASSERT_TRUE(k.verify(msg, ByteView(want.data(), 16)));
      Bytes forged = want;
      forged[len % forged.size()] ^= 0x01;
      ASSERT_FALSE(k.verify(msg, forged)) << key_len << "/" << len;
      ASSERT_FALSE(k.verify(msg, ByteView{}));
    }
  }
}

// SHA-256(key || purpose) cut to 16 bytes, recorded before derive() hashed
// on the stack.
TEST(HeapFree, DeriveKnownAnswers) {
  const SymmetricKey key(test_key());
  EXPECT_EQ(hex_encode(key.derive("enc").bytes()),
            "8e00574fe20eba0c1ee082e2b312c257");
  EXPECT_EQ(hex_encode(key.derive("mac").bytes()),
            "387f13933bfa4730bdb2b63697153b21");
  EXPECT_EQ(hex_encode(key.derive("ticket").bytes()),
            "78e76931db59c1455c079b237ca28084");
}

TEST(DataPlaneOpenInto, MatchesOpenAndRejectsWrongLengths) {
  const DataPlaneKey dpk{SymmetricKey(test_key())};
  Prng prng(7);
  for (std::size_t len = 0; len <= kMaxLen; ++len) {
    const Bytes msg = pattern(len, 0x33);
    const Bytes box = dpk.seal(msg, prng);
    Bytes out(len, 0xEE);
    ASSERT_TRUE(dpk.open_into(box, out)) << len;
    ASSERT_EQ(out, msg) << len;
    ASSERT_EQ(dpk.open(box), msg) << len;

    // A buffer a byte too long or too short, or a truncated box: rejected,
    // and the buffer is left as it was.
    const Bytes untouched(len + 1, 0xEE);
    Bytes longer = untouched;
    EXPECT_FALSE(dpk.open_into(box, longer)) << len;
    EXPECT_EQ(longer, untouched);
    if (len > 0) {
      Bytes shorter(len - 1, 0xEE);
      EXPECT_FALSE(dpk.open_into(box, shorter)) << len;
      EXPECT_EQ(shorter, Bytes(len - 1, 0xEE));
    }
    const ByteView truncated(box.data(), box.size() - 1);
    Bytes fitted(len == 0 ? 0 : len - 1, 0xEE);
    EXPECT_FALSE(dpk.open_into(truncated, out)) << len;
    EXPECT_FALSE(dpk.open_into(truncated, fitted)) << len;
    EXPECT_EQ(out, msg);
    EXPECT_EQ(fitted, Bytes(fitted.size(), 0xEE));
  }
  // Boxes shorter than the nonce and tag hold no plaintext at all.
  const Bytes box = dpk.seal(pattern(4, 1), prng);
  Bytes none;
  for (std::size_t cut = 0; cut < kSealOverhead; ++cut)
    EXPECT_FALSE(dpk.open_into(ByteView(box.data(), cut), none)) << cut;
}

// Part of the `decoders` ctest label: a flip anywhere in a data packet's
// key box or payload box — nonce, ciphertext or tag — must be rejected
// before a byte is decrypted into the receiver's buffer.
TEST(DataPlaneOpenInto, RejectsEveryByteFlip) {
  const DataPlaneKey dpk{SymmetricKey(test_key())};
  Prng prng(11);
  for (std::size_t len : {std::size_t{16}, std::size_t{64}}) {
    const Bytes box = dpk.seal(pattern(len, 0x77), prng);
    for (std::size_t i = 0; i < box.size(); ++i) {
      for (int bit = 0; bit < 8; ++bit) {
        Bytes flipped = box;
        flipped[i] ^= static_cast<std::uint8_t>(1u << bit);
        Bytes out(len, 0xEE);
        ASSERT_FALSE(dpk.open_into(flipped, out)) << len << "@" << i << "." << bit;
        ASSERT_EQ(out, Bytes(len, 0xEE)) << len << "@" << i << "." << bit;
      }
    }
  }
}

TEST(CpuFeaturesApi, ImplNamesAndOverride) {
  // Names must come from the fixed vocabulary whatever the host is.
  auto one_of = [](const char* s, std::initializer_list<const char*> set) {
    for (const char* v : set)
      if (std::strcmp(s, v) == 0) return true;
    return false;
  };
  EXPECT_TRUE(one_of(speck_impl_name(), {"scalar", "sse2", "avx2"}));
  EXPECT_TRUE(one_of(sha256_impl_name(), {"scalar", "sha_ni"}));

  ForceScalar fs(true);
  EXPECT_STREQ(speck_impl_name(), "scalar");
  EXPECT_STREQ(sha256_impl_name(), "scalar");
}

}  // namespace
}  // namespace mykil::crypto
