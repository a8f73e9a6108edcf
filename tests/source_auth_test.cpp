// Hash chains and TESLA-style source authentication (the paper's [3]
// reference for authenticating multicast data senders).
#include <gtest/gtest.h>

#include "common/error.h"
#include "crypto/hash_chain.h"
#include "crypto/hmac.h"
#include "mykil/records.h"
#include "mykil/source_auth.h"

namespace mykil::core {
namespace {

using crypto::HashChain;
using crypto::Prng;

TEST(HashChain, AnchorVerifiesEveryElement) {
  Prng prng(1);
  HashChain chain(20, prng);
  for (std::size_t i = 1; i <= 20; ++i) {
    EXPECT_TRUE(HashChain::verify(chain.element(i), i, chain.anchor())) << i;
  }
}

TEST(HashChain, WrongIndexFails) {
  Prng prng(2);
  HashChain chain(10, prng);
  EXPECT_FALSE(HashChain::verify(chain.element(5), 4, chain.anchor()));
  EXPECT_FALSE(HashChain::verify(chain.element(5), 6, chain.anchor()));
}

TEST(HashChain, ForgedElementFails) {
  Prng prng(3);
  HashChain chain(10, prng);
  Bytes forged = chain.element(5);
  forged[0] ^= 1;
  EXPECT_FALSE(HashChain::verify(forged, 5, chain.anchor()));
}

TEST(HashChain, ElementsChainForward) {
  // H(k_i) == k_{i-1}: revealing k_i reveals everything below, nothing above.
  Prng prng(4);
  HashChain chain(10, prng);
  EXPECT_TRUE(HashChain::verify(chain.element(7), 2, chain.element(5)));
  EXPECT_FALSE(HashChain::verify(chain.element(5), 2, chain.element(7)));
}

TEST(HashChain, BoundsChecked) {
  Prng prng(5);
  HashChain chain(3, prng);
  EXPECT_THROW((void)chain.element(0), Error);
  EXPECT_THROW((void)chain.element(4), Error);
  EXPECT_THROW(HashChain(0, prng), Error);
}

// ---------------------------------------------------------------- TESLA

struct TeslaRig {
  TeslaRig()
      : prng(42),
        sender(net::sec(0), net::msec(100), 2, 100, prng),
        verifier(sender.params()) {}
  Prng prng;
  TeslaSender sender;
  TeslaVerifier verifier;
};

TEST(Tesla, ParamsRoundTrip) {
  TeslaRig rig;
  TeslaParams p = rig.sender.params();
  TeslaParams back = decode<TeslaParams>(encode(p));
  EXPECT_EQ(back.anchor, p.anchor);
  EXPECT_EQ(back.interval, p.interval);
  EXPECT_EQ(back.disclosure_lag, p.disclosure_lag);
  EXPECT_EQ(back.chain_length, p.chain_length);
}

TEST(Tesla, PacketRoundTrip) {
  TeslaRig rig;
  TeslaPacket p = rig.sender.stamp(to_bytes("hello"), net::msec(250));
  TeslaPacket back = decode<TeslaPacket>(encode(p));
  EXPECT_EQ(back.interval, p.interval);
  EXPECT_EQ(back.payload, p.payload);
  EXPECT_EQ(back.mac, p.mac);
}

TEST(Tesla, AuthenticFlowReleasesAfterDisclosure) {
  TeslaRig rig;
  // Packet in interval 1 (t=50ms), delivered promptly.
  TeslaPacket p1 = rig.sender.stamp(to_bytes("first"), net::msec(50));
  auto out = rig.verifier.on_packet(p1, net::msec(51));
  EXPECT_TRUE(out.empty());  // buffered: key not yet disclosed
  EXPECT_EQ(rig.verifier.pending(), 1u);

  // Interval 3 packet discloses interval-1's key.
  TeslaPacket p3 = rig.sender.stamp(to_bytes("third"), net::msec(250));
  out = rig.verifier.on_packet(p3, net::msec(251));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(to_string(out[0]), "first");
  EXPECT_EQ(rig.verifier.authenticated(), 1u);
  EXPECT_EQ(rig.verifier.pending(), 1u);  // p3 itself now buffered
}

TEST(Tesla, StreamOfPacketsAllAuthenticate) {
  TeslaRig rig;
  std::size_t released = 0;
  for (int i = 0; i < 20; ++i) {
    net::SimTime t = net::msec(50 + 100 * static_cast<std::uint64_t>(i));
    TeslaPacket p = rig.sender.stamp(to_bytes("pkt"), t);
    released += rig.verifier.on_packet(p, t + net::msec(1)).size();
  }
  // All but the last `lag` packets must have been released.
  EXPECT_GE(released, 18u);
  EXPECT_EQ(rig.verifier.rejected(), 0u);
}

TEST(Tesla, ForgedMacRejectedAtDisclosure) {
  TeslaRig rig;
  TeslaPacket p1 = rig.sender.stamp(to_bytes("real"), net::msec(50));
  p1.mac[0] ^= 1;  // forge
  rig.verifier.on_packet(p1, net::msec(51));
  TeslaPacket p3 = rig.sender.stamp(to_bytes("later"), net::msec(250));
  auto out = rig.verifier.on_packet(p3, net::msec(251));
  EXPECT_TRUE(out.empty());
  EXPECT_GE(rig.verifier.rejected(), 1u);
}

TEST(Tesla, LatePacketRejectedAsUnsafe) {
  // A packet from interval 1 arriving AFTER interval 1's key became
  // disclosable could be a forgery minted with the public key — rejected.
  TeslaRig rig;
  TeslaPacket p1 = rig.sender.stamp(to_bytes("slow"), net::msec(50));
  // Key of interval 1 is disclosed by interval 3 == from t=200ms.
  auto out = rig.verifier.on_packet(p1, net::msec(450));
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(rig.verifier.rejected(), 1u);
}

TEST(Tesla, ForgedDisclosedKeyIgnored) {
  TeslaRig rig;
  TeslaPacket p1 = rig.sender.stamp(to_bytes("real"), net::msec(50));
  rig.verifier.on_packet(p1, net::msec(51));
  TeslaPacket p3 = rig.sender.stamp(to_bytes("later"), net::msec(250));
  p3.disclosed_key[0] ^= 1;  // forged chain element
  auto out = rig.verifier.on_packet(p3, net::msec(251));
  EXPECT_TRUE(out.empty());       // p1 stays buffered
  EXPECT_EQ(rig.verifier.pending(), 2u);

  // The honest next packet releases everything.
  TeslaPacket p4 = rig.sender.stamp(to_bytes("fourth"), net::msec(350));
  out = rig.verifier.on_packet(p4, net::msec(351));
  EXPECT_GE(out.size(), 1u);
}

TEST(Tesla, AttackerWithoutChainCannotForge) {
  TeslaRig rig;
  Prng attacker_rng(666);
  // The attacker builds its own packet for interval 1 with a random "key".
  TeslaPacket forged;
  forged.interval = 1;
  forged.payload = to_bytes("evil payload");
  Bytes fake_key = attacker_rng.bytes(32);
  forged.mac = crypto::hmac_sha256(fake_key, forged.payload);
  rig.verifier.on_packet(forged, net::msec(51));

  // Honest disclosures arrive; the forged packet must NOT authenticate.
  for (int i = 2; i <= 5; ++i) {
    net::SimTime t = net::msec(50 + 100 * static_cast<std::uint64_t>(i - 1));
    TeslaPacket p = rig.sender.stamp(to_bytes("honest"), t);
    for (const Bytes& released : rig.verifier.on_packet(p, t + net::msec(1))) {
      EXPECT_NE(to_string(released), "evil payload");
    }
  }
  EXPECT_GE(rig.verifier.rejected(), 1u);
}

TEST(Tesla, ChainExhaustionThrows) {
  Prng prng(7);
  TeslaSender sender(net::sec(0), net::msec(100), 2, 3, prng);
  EXPECT_NO_THROW(sender.stamp(to_bytes("x"), net::msec(250)));   // interval 3
  EXPECT_THROW(sender.stamp(to_bytes("x"), net::msec(350)), Error);  // 4 > len
}

TEST(Tesla, SkippedIntervalsStillVerify) {
  // Sender silent for several intervals; the verifier bridges the gap by
  // hashing multiple steps down to its last verified element.
  TeslaRig rig;
  TeslaPacket p1 = rig.sender.stamp(to_bytes("sparse-1"), net::msec(50));
  rig.verifier.on_packet(p1, net::msec(51));
  // Next packet only in interval 9: discloses key 7, bridging 6 steps.
  TeslaPacket p9 = rig.sender.stamp(to_bytes("sparse-9"), net::msec(850));
  auto out = rig.verifier.on_packet(p9, net::msec(851));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(to_string(out[0]), "sparse-1");
}

}  // namespace
}  // namespace mykil::core
