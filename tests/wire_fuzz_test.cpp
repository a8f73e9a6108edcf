// Deserializer hardening: every parser that consumes network bytes must
// reject arbitrary garbage with a typed error — never crash, hang, or
// read out of bounds. Seeded random blobs + targeted mutations of valid
// encodings; every message in the schema (mykil/messages.h) is covered
// through its own decoder.
#include <gtest/gtest.h>

#include "common/error.h"
#include "crypto/prng.h"
#include "lkh/member_state.h"
#include "lkh/rekey.h"
#include "mykil/checkpoint.h"
#include "mykil/directory.h"
#include "mykil/ticket.h"
#include "mykil/wire.h"
#include "net/arq.h"
#include "wire_samples.h"

namespace mykil {
namespace {

using crypto::Prng;

/// Calls `parse` on random blobs; success is fine (a blob may be valid),
/// any Error subclass is fine, anything else fails the test.
template <typename F>
void fuzz(F parse, std::uint64_t seed, int rounds = 300) {
  Prng prng(seed);
  for (int i = 0; i < rounds; ++i) {
    Bytes blob = prng.bytes(prng.uniform(200));
    try {
      parse(blob);
    } catch (const Error&) {
      // expected rejection path
    }
  }
}

/// Mutates each byte of a valid encoding and re-parses.
template <typename F>
void mutate(F parse, const Bytes& valid) {
  for (std::size_t i = 0; i < valid.size(); ++i) {
    Bytes mutated = valid;
    mutated[i] ^= 0xFF;
    try {
      parse(mutated);
    } catch (const Error&) {
    }
  }
  // Truncations at every length.
  for (std::size_t len = 0; len < valid.size(); ++len) {
    Bytes truncated(valid.begin(), valid.begin() + static_cast<std::ptrdiff_t>(len));
    try {
      parse(truncated);
    } catch (const Error&) {
    }
  }
}

TEST(WireFuzz, RekeyMessageSurvivesGarbage) {
  fuzz([](const Bytes& b) { lkh::RekeyMessage::deserialize(b); }, 101);
}

TEST(WireFuzz, RekeyMessageSurvivesMutation) {
  Prng prng(1);
  lkh::RekeyMessage msg;
  msg.epoch = 42;
  for (int i = 0; i < 3; ++i) {
    lkh::RekeyEntry e;
    e.target = static_cast<lkh::NodeIndex>(i);
    e.version = 7;
    e.encrypted_under = static_cast<lkh::NodeIndex>(i + 1);
    e.box = prng.bytes(56);
    msg.entries.push_back(std::move(e));
  }
  mutate([](const Bytes& b) { lkh::RekeyMessage::deserialize(b); },
         msg.serialize());
}

TEST(WireFuzz, PathSurvivesGarbageAndMutation) {
  fuzz([](const Bytes& b) { lkh::deserialize_path(b); }, 102);
  Prng prng(2);
  std::vector<lkh::PathKey> path;
  for (int i = 0; i < 4; ++i) {
    path.push_back({static_cast<lkh::NodeIndex>(i), 1,
                    crypto::SymmetricKey::random(prng)});
  }
  mutate([](const Bytes& b) { lkh::deserialize_path(b); },
         lkh::serialize_path(path));
}

TEST(WireFuzz, TicketSurvivesGarbage) {
  fuzz([](const Bytes& b) { core::Ticket::deserialize(b); }, 103);
}

TEST(WireFuzz, SealedTicketSurvivesGarbage) {
  Prng prng(3);
  crypto::SymmetricKey k = crypto::SymmetricKey::random(prng);
  fuzz([&](const Bytes& b) { core::open_ticket(b, k, 100); }, 104);
}

TEST(WireFuzz, DirectorySurvivesGarbageAndMutation) {
  fuzz([](const Bytes& b) { core::AcDirectory::deserialize(b); }, 105);
  core::AcDirectory dir;
  core::AcInfo a;
  a.ac_id = 1;
  a.node = 2;
  a.group = 3;
  a.pubkey = to_bytes("pk");
  dir.add(a);
  mutate([](const Bytes& b) { core::AcDirectory::deserialize(b); },
         dir.serialize());
}

TEST(WireFuzz, EnvelopeSurvivesGarbage) {
  fuzz([](const Bytes& b) { core::parse_envelope_view(b); }, 106);
}

TEST(WireFuzz, EnvelopeViewStaysInsideThePacket) {
  // The data path reads boxes as views into the delivered payload: every
  // view parsed from a valid, mutated or truncated packet lies inside it.
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(core::MsgType::kData));
  w.u8(1);  // signed
  w.bytes(to_bytes("box bytes"));
  w.bytes(to_bytes("sig"));
  const Bytes valid = w.take();
  auto parse_inside = [](const Bytes& packet) {
    core::EnvelopeView v = core::parse_envelope_view(packet);
    for (ByteView part : {v.box, v.sig}) {
      if (part.empty()) continue;
      EXPECT_GE(part.data(), packet.data());
      EXPECT_LE(part.data() + part.size(), packet.data() + packet.size());
    }
  };
  mutate(parse_inside, valid);
  fuzz(parse_inside, 108);
  core::EnvelopeView v = core::parse_envelope_view(valid);
  EXPECT_EQ(v.type, core::MsgType::kData);
  EXPECT_EQ(to_string(v.box), "box bytes");
  EXPECT_EQ(to_string(v.sig), "sig");
}

TEST(WireFuzz, MacStripSurvivesGarbage) {
  fuzz([](const Bytes& b) { core::strip_mac(b); }, 107);
}

TEST(WireFuzz, ArqFrameSurvivesGarbage) {
  fuzz([](const Bytes& b) { net::ArqFrame::parse(b); }, 108);
}

TEST(WireFuzz, ArqFrameSurvivesMutationAndTruncation) {
  net::ArqFrame data;
  data.tag = net::kArqDataTag;
  data.incarnation = 3;
  data.seq = 77;
  data.inner = Prng(5).bytes(60);
  mutate([](const Bytes& b) { net::ArqFrame::parse(b); }, data.serialize());

  net::ArqFrame ack;
  ack.tag = net::kArqAckTag;
  ack.incarnation = 3;
  ack.seq = 77;
  mutate([](const Bytes& b) { net::ArqFrame::parse(b); }, ack.serialize());
}

TEST(WireFuzz, CheckpointHeaderSurvivesGarbageAndMutation) {
  fuzz([](const Bytes& b) { (void)core::read_checkpoint_header(b); }, 115);
  // A structurally valid prefix (magic + header fields) with trailing
  // records; every mutation and truncation must throw, not crash.
  WireWriter w;
  const char magic[8] = {'M', 'Y', 'K', 'I', 'L', 'C', 'K', '1'};
  w.raw(ByteView(reinterpret_cast<const std::uint8_t*>(magic), 8));
  w.u64(7);    // seed
  w.u32(3);    // areas
  w.u32(12);   // members
  w.u8(1);     // with_backups
  w.u64(500);  // captured_at
  w.bytes(to_bytes("rs-state"));
  mutate([](const Bytes& b) { (void)core::read_checkpoint_header(b); },
         w.data());
}

TEST(WireFuzz, MemberKeyStateSurvivesGarbage) {
  // Checkpointed member key blocks travel inside the checkpoint blob.
  fuzz([](const Bytes& b) { lkh::MemberKeyState::deserialize(b); }, 116);
}

template <typename M>
class WireSchema : public ::testing::Test {};
TYPED_TEST_SUITE(WireSchema, core::samples::SchemaTypes,
                 core::samples::MessageName);

TYPED_TEST(WireSchema, SurvivesGarbage) {
  fuzz([](const Bytes& b) { core::decode<TypeParam>(b); },
       200 + static_cast<std::uint64_t>(TypeParam::kType));
}

TYPED_TEST(WireSchema, SurvivesFlipsAndTruncations) {
  mutate([](const Bytes& b) { core::decode<TypeParam>(b); },
         core::encode(core::samples::sample<TypeParam>().msg));
}

TYPED_TEST(WireSchema, RoundTripIsExact) {
  Bytes bytes = core::encode(core::samples::sample<TypeParam>().msg);
  EXPECT_EQ(core::encode(core::decode<TypeParam>(bytes)), bytes);
}

TEST(WireFuzz, RekeyRoundTripIsExact) {
  // Positive control for the fuzzers: untouched encodings round-trip.
  Prng prng(4);
  lkh::RekeyMessage msg;
  msg.epoch = 9;
  lkh::RekeyEntry e;
  e.target = 0;
  e.version = 3;
  e.encrypted_under = 5;
  e.box = prng.bytes(40);
  msg.entries.push_back(e);

  lkh::RekeyMessage back = lkh::RekeyMessage::deserialize(msg.serialize());
  EXPECT_EQ(back.epoch, 9u);
  ASSERT_EQ(back.entries.size(), 1u);
  EXPECT_EQ(back.entries[0].target, 0u);
  EXPECT_EQ(back.entries[0].version, 3u);
  EXPECT_EQ(back.entries[0].encrypted_under, 5u);
  EXPECT_EQ(back.entries[0].box, msg.entries[0].box);
}

}  // namespace
}  // namespace mykil
