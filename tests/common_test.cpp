// Tests for the common substrate: bytes helpers, hex, wire serialization,
// the flat id set.
#include <gtest/gtest.h>

#include <random>
#include <set>
#include <type_traits>
#include <vector>

#include "common/bytes.h"
#include "common/error.h"
#include "common/hex.h"
#include "common/id_set.h"
#include "common/wire.h"

namespace mykil {
namespace {

TEST(Bytes, ToBytesRoundTrip) {
  Bytes b = to_bytes("hello");
  EXPECT_EQ(b.size(), 5u);
  EXPECT_EQ(to_string(b), "hello");
}

TEST(Bytes, ConcatJoinsBuffersInOrder) {
  Bytes a = to_bytes("ab");
  Bytes b = to_bytes("cd");
  Bytes c = to_bytes("e");
  EXPECT_EQ(to_string(concat(a, b, c)), "abcde");
}

TEST(Bytes, ConcatEmpty) {
  Bytes empty;
  EXPECT_TRUE(concat(empty, empty).empty());
}

TEST(Bytes, CtEqualMatches) {
  Bytes a = to_bytes("secret");
  Bytes b = to_bytes("secret");
  EXPECT_TRUE(ct_equal(a, b));
}

TEST(Bytes, CtEqualDetectsDifference) {
  EXPECT_FALSE(ct_equal(to_bytes("secret"), to_bytes("secreT")));
  EXPECT_FALSE(ct_equal(to_bytes("short"), to_bytes("longer")));
}

TEST(Bytes, SecureWipeClears) {
  Bytes key = to_bytes("topsecretkey");
  secure_wipe(key);
  EXPECT_TRUE(key.empty());
}

TEST(Bytes, XorInto) {
  Bytes a = {0xFF, 0x00, 0xAA};
  Bytes b = {0x0F, 0xF0, 0xAA};
  xor_into(a, b);
  EXPECT_EQ(a, (Bytes{0xF0, 0xF0, 0x00}));
}

TEST(Hex, EncodeDecodeRoundTrip) {
  Bytes data = {0x00, 0x01, 0xAB, 0xFF};
  std::string h = hex_encode(data);
  EXPECT_EQ(h, "0001abff");
  EXPECT_EQ(hex_decode(h), data);
}

TEST(Hex, DecodeUppercase) {
  EXPECT_EQ(hex_decode("ABFF"), (Bytes{0xAB, 0xFF}));
}

TEST(Hex, DecodeRejectsOddLength) {
  EXPECT_THROW(hex_decode("abc"), WireError);
}

TEST(Hex, DecodeRejectsNonHex) {
  EXPECT_THROW(hex_decode("zz"), WireError);
}

TEST(Hex, EmptyString) {
  EXPECT_TRUE(hex_decode("").empty());
  EXPECT_EQ(hex_encode(Bytes{}), "");
}

TEST(Wire, IntegerRoundTrip) {
  WireWriter w;
  w.u8(0xAB);
  w.u16(0x1234);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFull);

  WireReader r(w.data());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_TRUE(r.done());
}

TEST(Wire, BigEndianLayout) {
  WireWriter w;
  w.u32(0x01020304);
  EXPECT_EQ(w.data(), (Bytes{0x01, 0x02, 0x03, 0x04}));
}

TEST(Wire, BytesAndStringRoundTrip) {
  WireWriter w;
  w.bytes(to_bytes("blob"));
  w.str("text");
  WireReader r(w.data());
  EXPECT_EQ(to_string(r.bytes()), "blob");
  EXPECT_EQ(r.str(), "text");
  r.expect_done();
}

TEST(Wire, EmptyBytesField) {
  WireWriter w;
  w.bytes(Bytes{});
  WireReader r(w.data());
  EXPECT_TRUE(r.bytes().empty());
  EXPECT_TRUE(r.done());
}

TEST(Wire, TruncatedIntegerThrows) {
  Bytes short_buf = {0x01, 0x02};
  WireReader r(short_buf);
  EXPECT_THROW(r.u32(), WireError);
}

TEST(Wire, TruncatedBytesThrows) {
  WireWriter w;
  w.u32(100);  // claims 100 bytes follow
  WireReader r(w.data());
  EXPECT_THROW(r.bytes(), WireError);
}

TEST(Wire, LengthHeaderOverflowRejected) {
  // A length prefix of 0xFFFFFFFF must not wrap any internal arithmetic.
  WireWriter w;
  w.u32(0xFFFFFFFF);
  w.raw(to_bytes("tiny"));
  WireReader r(w.data());
  EXPECT_THROW(r.bytes(), WireError);
}

TEST(Wire, ExpectDoneRejectsTrailingGarbage) {
  WireWriter w;
  w.u8(1);
  w.u8(2);
  WireReader r(w.data());
  r.u8();
  EXPECT_THROW(r.expect_done(), WireError);
}

TEST(Wire, RawFixedWidthField) {
  WireWriter w;
  w.raw(to_bytes("12345678"));
  WireReader r(w.data());
  EXPECT_EQ(to_string(r.raw(8)), "12345678");
  EXPECT_THROW(r.raw(1), WireError);
}

TEST(Wire, ViewPointsIntoTheBuffer) {
  WireWriter w;
  w.bytes(to_bytes("key"));
  w.bytes(to_bytes("payload"));
  const Bytes& buf = w.data();
  WireReader r(buf);
  ByteView key = r.view();
  ByteView payload = r.view();
  r.expect_done();
  EXPECT_EQ(to_string(key), "key");
  EXPECT_EQ(to_string(payload), "payload");
  EXPECT_EQ(key.data(), buf.data() + 4);
  EXPECT_EQ(payload.data(), buf.data() + 4 + 3 + 4);
}

TEST(Wire, TruncatedViewThrows) {
  WireWriter w;
  w.u32(5);  // claims 5 bytes, 3 follow
  w.raw(to_bytes("abc"));
  WireReader r(w.data());
  EXPECT_THROW(r.view(), WireError);
}

// A reader over a temporary would hand out dangling views.
static_assert(!std::is_constructible_v<WireReader, Bytes&&>);
static_assert(std::is_constructible_v<WireReader, const Bytes&>);

TEST(IdSet, MatchesStdSetAcrossGrowths) {
  // 120k inserts, about one in five repeating an earlier id, with 0 (the
  // side flag) and ~0 each inserted twice; the table grows 16 -> 256k slots.
  IdSet ids;
  std::set<std::uint64_t> ref;
  std::mt19937_64 rng(7);
  std::vector<std::uint64_t> drawn;
  std::size_t repeats = 0;
  for (int i = 0; i < 120000; ++i) {
    std::uint64_t id = 0;
    if (i == 1000 || i == 60000) {
      id = 0;
    } else if (i == 2000 || i == 90000) {
      id = ~0ULL;
    } else if (!drawn.empty() && rng() % 5 == 0) {
      id = drawn[rng() % drawn.size()];
    } else {
      id = rng();
    }
    drawn.push_back(id);
    bool fresh = ref.insert(id).second;
    repeats += fresh ? 0 : 1;
    ASSERT_EQ(ids.insert(id), fresh) << "insert " << i << " id " << id;
    ASSERT_EQ(ids.size(), ref.size()) << "insert " << i;
  }
  EXPECT_GT(repeats, 20000u);
  EXPECT_EQ(ref.count(0), 1u);
  EXPECT_EQ(ref.count(~0ULL), 1u);
}

TEST(IdSet, ClearForgetsEverythingAndTheSetIsReusable) {
  IdSet ids;
  for (std::uint64_t i = 0; i < 1000; ++i) EXPECT_TRUE(ids.insert(i * 3));
  ids.clear();
  EXPECT_EQ(ids.size(), 0u);
  EXPECT_EQ(ids.longest_run(), 0u);
  for (std::uint64_t i = 0; i < 1000; ++i) EXPECT_TRUE(ids.insert(i * 3)) << i;
  for (std::uint64_t i = 0; i < 1000; ++i) EXPECT_FALSE(ids.insert(i * 3)) << i;
  EXPECT_EQ(ids.size(), 1000u);
}

TEST(IdSet, AnswersDoNotDependOnTheKey) {
  IdSet fixed(IdSet::Key{1, 2});
  IdSet other(IdSet::Key{0x0123456789abcdefULL, 0xfedcba9876543210ULL});
  IdSet process;  // the per-process random key
  std::mt19937_64 rng(11);
  for (int i = 0; i < 20000; ++i) {
    std::uint64_t id = rng() % 8000;  // many repeats, 0 included
    bool fresh = fixed.insert(id);
    ASSERT_EQ(other.insert(id), fresh) << "insert " << i;
    ASSERT_EQ(process.insert(id), fresh) << "insert " << i;
  }
  EXPECT_EQ(fixed.size(), other.size());
  EXPECT_EQ(fixed.size(), process.size());
}

TEST(IdSet, StructuredIdsKeepProbeRunsLogarithmic) {
  // Ids a sender could aim at an unkeyed hash: runs with power-of-two
  // strides, so they agree in every low bit (or every high bit). With
  // slot = id mod size, stride 1 fills one 32k-slot run and the others
  // pile into slot 0. Keyed, at load 1/2 in 64k slots, the longest run
  // measures about 35 (64 at most over 1,000 random keys); allow 110.
  const std::uint64_t strides[] = {1, 1ULL << 16, 1ULL << 32, 1ULL << 47};
  for (IdSet::Key key : {IdSet::Key{1, 2}, IdSet::process_key()}) {
    for (std::uint64_t stride : strides) {
      IdSet ids(key);
      for (std::uint64_t i = 1; i <= 32768; ++i)
        ASSERT_TRUE(ids.insert(i * stride));
      EXPECT_LE(ids.longest_run(), 110u) << "stride " << stride;
    }
  }
}

}  // namespace
}  // namespace mykil
