// Deserializer hardening: every parser that consumes network bytes must
// reject arbitrary garbage with a typed error — never crash, hang, or
// read out of bounds. Seeded random blobs + targeted mutations of valid
// encodings.
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
  fuzz([](const Bytes& b) { core::parse_envelope(b); }, 106);
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

TEST(WireFuzz, KeyRecoveryRequestBodySurvivesGarbage) {
  // The recovery request body is {client; area; epoch; nonce} behind an
  // envelope; the reader must reject short and oversized bodies alike.
  fuzz(
      [](const Bytes& b) {
        WireReader r(b);
        (void)r.u64();
        (void)r.u64();
        (void)r.u64();
        (void)r.u64();
        r.expect_done();
      },
      109);
}

TEST(WireFuzz, AreaMapUpdateBodySurvivesGarbage) {
  // {ts; bytes(directory)} behind an RS-signed envelope (DESIGN.md 14).
  fuzz(
      [](const Bytes& b) {
        Bytes fields = core::strip_mac(b);
        WireReader r(fields);
        (void)r.u64();
        core::AcDirectory::deserialize(r.bytes());
        r.expect_done();
      },
      110);
}

TEST(WireFuzz, AreaMapUpdateBodySurvivesMutation) {
  core::AcDirectory dir;
  core::AcInfo a;
  a.ac_id = core::kAcIdBase + 1;
  a.node = 4;
  a.group = 5;
  a.pubkey = to_bytes("pk");
  dir.add(a);
  dir.set_version(3);
  WireWriter w;
  w.u64(123456);
  w.bytes(dir.serialize());
  mutate(
      [](const Bytes& b) {
        Bytes fields = core::strip_mac(b);
        WireReader r(fields);
        (void)r.u64();
        core::AcDirectory::deserialize(r.bytes());
        r.expect_done();
      },
      core::with_mac(w.data()));
}

TEST(WireFuzz, LoadReportBodySurvivesGarbage) {
  // {ac_id; members; rekey_epoch; ts} — the RS-side reader.
  fuzz(
      [](const Bytes& b) {
        Bytes fields = core::strip_mac(b);
        WireReader r(fields);
        (void)r.u64();
        (void)r.u32();
        (void)r.u64();
        (void)r.u64();
        r.expect_done();
      },
      111);
}

TEST(WireFuzz, MigrateRequestBodySurvivesGarbage) {
  // {target; count; ts} — AC-side reader after pk_decrypt + strip_mac.
  fuzz(
      [](const Bytes& b) {
        Bytes fields = core::strip_mac(b);
        WireReader r(fields);
        (void)r.u64();
        (void)r.u32();
        (void)r.u64();
        r.expect_done();
      },
      112);
}

TEST(WireFuzz, MigrateDirectiveBodySurvivesGarbageAndMutation) {
  // {from_ac; client; target; ts; bytes(map envelope)} — member-side reader.
  auto parse = [](const Bytes& b) {
    Bytes fields = core::strip_mac(b);
    WireReader r(fields);
    (void)r.u64();
    (void)r.u64();
    (void)r.u64();
    (void)r.u64();
    (void)r.bytes();
    r.expect_done();
  };
  fuzz(parse, 113);
  WireWriter w;
  w.u64(core::kAcIdBase);
  w.u64(42);
  w.u64(core::kAcIdBase + 2);
  w.u64(999999);
  w.bytes(to_bytes("embedded-map-envelope"));
  mutate(parse, core::with_mac(w.data()));
}

TEST(WireFuzz, JoinShedBodySurvivesGarbage) {
  // {retry_after_ms} — the member-side reader of the advisory shed reply.
  fuzz(
      [](const Bytes& b) {
        Bytes fields = core::strip_mac(b);
        WireReader r(fields);
        (void)r.u64();
        r.expect_done();
      },
      114);
}

TEST(WireFuzz, CheckpointHeaderSurvivesGarbageAndMutation) {
  fuzz([](const Bytes& b) { core::read_checkpoint_header(b); }, 115);
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
  mutate([](const Bytes& b) { core::read_checkpoint_header(b); }, w.data());
}

TEST(WireFuzz, MemberKeyStateSurvivesGarbage) {
  // Checkpointed member key blocks travel inside the checkpoint blob.
  fuzz([](const Bytes& b) { lkh::MemberKeyState::deserialize(b); }, 116);
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
