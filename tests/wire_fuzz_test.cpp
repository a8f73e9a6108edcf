// Deserializer hardening: every parser that consumes network or checkpoint
// bytes must reject arbitrary garbage with a typed error — never crash,
// hang, or read out of bounds. Seeded random blobs + targeted mutations of
// valid encodings; every message (mykil/messages.h) and every record
// (mykil/records.h) is covered through its own decoder.
#include <gtest/gtest.h>

#include "common/error.h"
#include "crypto/prng.h"
#include "lkh/key_tree.h"
#include "lkh/member_state.h"
#include "lkh/rekey.h"
#include "mykil/checkpoint.h"
#include "mykil/records.h"
#include "mykil/wire.h"
#include "net/arq.h"
#include "record_samples.h"
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

/// Flips each byte of a valid encoding (all bits, then the low bit) and
/// re-parses.
template <typename F>
void mutate(F parse, const Bytes& valid) {
  for (std::uint8_t flip : {0xFF, 0x01}) {
    for (std::size_t i = 0; i < valid.size(); ++i) {
      Bytes mutated = valid;
      mutated[i] ^= flip;
      try {
        parse(mutated);
      } catch (const Error&) {
      }
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
  fuzz([](const Bytes& b) { core::decode<core::Ticket>(b); }, 103);
}

TEST(WireFuzz, SealedTicketSurvivesGarbage) {
  Prng prng(3);
  crypto::SymmetricKey k = crypto::SymmetricKey::random(prng);
  fuzz([&](const Bytes& b) { core::open_ticket(b, k, 100); }, 104);
}

TEST(WireFuzz, DirectorySurvivesGarbageAndMutation) {
  fuzz([](const Bytes& b) { core::decode<core::AcDirectory>(b); }, 105);
  core::AcDirectory dir;
  core::AcInfo a;
  a.ac_id = 1;
  a.node = 2;
  a.group = 3;
  a.pubkey = to_bytes("pk");
  dir.add(a);
  mutate([](const Bytes& b) { core::decode<core::AcDirectory>(b); },
         core::encode(dir));
}

TEST(WireFuzz, DirectoryRejectsADuplicateAcId) {
  core::AcDirectory dir = core::samples::sample_directory();
  Bytes bytes = core::encode(dir);
  // The same entry twice: count 2, entry, entry.
  Bytes entry(bytes.begin() + 12, bytes.end());
  bytes[11] = 2;
  bytes.insert(bytes.end(), entry.begin(), entry.end());
  EXPECT_THROW(core::decode<core::AcDirectory>(bytes), ProtocolError);
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
  // A valid blob of an empty deployment: the header record, then a body of
  // an empty RS record, no areas and no members. Every mutation and
  // truncation must throw or decode, not crash.
  core::CheckpointHeader header;
  header.seed = 7;
  header.with_backups = true;
  core::CheckpointBody body;
  body.captured_at = 500;
  Bytes valid = core::encode(core::Checkpoint::of(header, body));
  EXPECT_EQ(core::read_checkpoint_header(valid).seed, 7u);
  mutate([](const Bytes& b) { (void)core::read_checkpoint_header(b); }, valid);
  Bytes bad_magic = valid;
  bad_magic[0] ^= 1;
  EXPECT_THROW((void)core::read_checkpoint_header(bad_magic), ProtocolError);
  // A changed body byte fails the digest before the body is decoded.
  Bytes bad_body = valid;
  bad_body.back() ^= 1;
  EXPECT_THROW((void)core::read_checkpoint_header(bad_body), ProtocolError);
}

TEST(WireFuzz, KeyTreeSnapshotSurvivesMutation) {
  // The tree travels inside every AreaSnapshot; its node links index the
  // node array, so a flipped link must be rejected, not followed.
  lkh::KeyTree tree(lkh::KeyTree::Config{}, Prng(6));
  for (lkh::MemberId m = 1; m <= 6; ++m) tree.join(m);
  mutate([](const Bytes& b) { lkh::KeyTree::deserialize(b, Prng(7)); },
         tree.serialize());
}

TEST(WireFuzz, KeyTreeDeltaSurvivesGarbageAndMutation) {
  // A standby applies tree deltas to the image it holds: a hostile delta
  // must be rejected, not followed past the node array.
  lkh::KeyTree tree(lkh::KeyTree::Config{}, Prng(8));
  for (lkh::MemberId m = 1; m <= 9; ++m) tree.join(m);
  const Bytes base = tree.serialize();
  tree.leave(4);
  tree.join(10);
  auto apply = [&](const Bytes& b) {
    (void)lkh::KeyTree::apply_delta(base, b);
  };
  fuzz(apply, 117);
  mutate(apply, tree.delta_since(base));
}

TEST(WireFuzz, MemberKeyStateSurvivesGarbage) {
  // Checkpointed member key blocks travel inside the checkpoint blob.
  fuzz([](const Bytes& b) { lkh::MemberKeyState::deserialize(b); }, 116);
}

template <typename M>
class WireSchema : public ::testing::Test {};
TYPED_TEST_SUITE(WireSchema, core::samples::SchemaTypes,
                 core::samples::FormatName);

TYPED_TEST(WireSchema, SurvivesGarbage) {
  fuzz([](const Bytes& b) { core::decode<TypeParam>(b); },
       200 + static_cast<std::uint64_t>(TypeParam::kType));
}

TYPED_TEST(WireSchema, SurvivesFlipsAndTruncations) {
  mutate([](const Bytes& b) { core::decode<TypeParam>(b); },
         core::encode(core::samples::sample<TypeParam>().value));
}

TYPED_TEST(WireSchema, RoundTripIsExact) {
  Bytes bytes = core::encode(core::samples::sample<TypeParam>().value);
  EXPECT_EQ(core::encode(core::decode<TypeParam>(bytes)), bytes);
}

template <typename R>
class StateSchema : public ::testing::Test {};
TYPED_TEST_SUITE(StateSchema, core::samples::RecordTypes,
                 core::samples::FormatName);

TYPED_TEST(StateSchema, SurvivesGarbage) {
  fuzz([](const Bytes& b) { core::decode<TypeParam>(b); },
       300 + core::samples::index_in<TypeParam>(core::Records{}));
}

TYPED_TEST(StateSchema, SurvivesFlipsAndTruncations) {
  mutate([](const Bytes& b) { core::decode<TypeParam>(b); },
         core::encode(core::samples::sample<TypeParam>().value));
}

TYPED_TEST(StateSchema, RoundTripIsExact) {
  Bytes bytes = core::encode(core::samples::sample<TypeParam>().value);
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
