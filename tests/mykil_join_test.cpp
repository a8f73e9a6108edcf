// The seven-step join protocol (Fig. 3), end to end over the simulated
// network, plus adversarial cases.
#include <gtest/gtest.h>

#include <memory>

#include "common/error.h"
#include "crypto/sealed.h"
#include "mykil/group.h"
#include "mykil/messages.h"

namespace mykil::core {
namespace {

net::NetworkConfig quiet_net() {
  net::NetworkConfig cfg;
  cfg.jitter = 0;
  return cfg;
}

GroupOptions logic_options(std::size_t seed = 1) {
  GroupOptions o;
  o.seed = seed;
  o.config.enable_timers = false;
  o.config.batching = false;  // immediate rekeys: simpler assertions
  return o;
}

struct World {
  explicit World(std::size_t n_areas, GroupOptions opts = logic_options())
      : net(quiet_net()), group(net, opts) {
    group.add_area();  // root
    for (std::size_t i = 1; i < n_areas; ++i) group.add_area(0);
    group.finalize();
  }
  net::Network net;
  MykilGroup group;
};

TEST(MykilJoin, SingleMemberCompletesSevenSteps) {
  World w(1);
  auto m = w.group.make_member(1, net::sec(3600));
  w.group.join_member(*m, net::sec(3600));

  EXPECT_TRUE(m->joined());
  EXPECT_EQ(w.group.rs().completed_registrations(), 1u);
  EXPECT_EQ(w.group.ac(0).member_count(), 1u);
  EXPECT_FALSE(m->sealed_ticket().empty());
  EXPECT_TRUE(m->keys().group_key() == w.group.ac(0).tree().root_key());
  EXPECT_TRUE(m->last_join_latency().has_value());
}

TEST(MykilJoin, UnauthorizedClientRejected) {
  World w(1);
  // Construct a member but do NOT authorize it at the RS.
  crypto::Prng prng(123);
  crypto::RsaKeyPair kp = crypto::rsa_generate(768, prng);
  MykilConfig cfg = w.group.config();
  Member intruder(999, cfg, std::move(kp), w.group.rs_public_key(),
                  crypto::Prng(321));
  w.net.attach(intruder);
  intruder.join(w.group.rs().id(), net::sec(3600));
  w.group.settle();

  EXPECT_FALSE(intruder.joined());
  EXPECT_EQ(w.group.rs().rejected_registrations(), 1u);
  EXPECT_EQ(w.group.ac(0).member_count(), 0u);
}

TEST(MykilJoin, DurationCappedByAuthorization) {
  World w(1);
  auto m = w.group.make_member(1, net::sec(100));  // authorized for 100 s
  w.group.join_member(*m, net::sec(999999));       // asks for much more
  ASSERT_TRUE(m->joined());
  // The issued ticket carries the capped validity.
  // (Verified indirectly: the AC evicts at valid_until; see fault tests.)
  EXPECT_FALSE(m->sealed_ticket().empty());
}

TEST(MykilJoin, MembersSpreadAcrossAreasRoundRobin) {
  World w(3);
  std::vector<std::unique_ptr<Member>> members;
  for (ClientId c = 1; c <= 6; ++c) {
    members.push_back(w.group.make_member(c, net::sec(3600)));
    w.group.join_member(*members.back(), net::sec(3600));
  }
  // Areas 1 and 2 already contain each a child?? No: only root has children
  // ACs as members. Round-robin spreads clients evenly: 2 per area.
  // Note the root area also contains 2 child ACs.
  EXPECT_EQ(w.group.ac(0).member_count(), 2u + 2u);
  EXPECT_EQ(w.group.ac(1).member_count(), 2u);
  EXPECT_EQ(w.group.ac(2).member_count(), 2u);
  for (auto& m : members) EXPECT_TRUE(m->joined());
}

TEST(MykilJoin, DataFlowsWithinArea) {
  World w(1);
  auto a = w.group.make_member(1, net::sec(3600));
  auto b = w.group.make_member(2, net::sec(3600));
  w.group.join_member(*a, net::sec(3600));
  w.group.join_member(*b, net::sec(3600));

  a->send_data(to_bytes("intra-area"));
  w.group.settle();
  ASSERT_EQ(b->received_data().size(), 1u);
  EXPECT_EQ(to_string(b->received_data()[0]), "intra-area");
}

TEST(MykilJoin, DataCrossesAreas) {
  World w(2);
  auto a = w.group.make_member(1, net::sec(3600));  // -> area 0 (round robin)
  auto b = w.group.make_member(2, net::sec(3600));  // -> area 1
  w.group.join_member(*a, net::sec(3600));
  w.group.join_member(*b, net::sec(3600));
  ASSERT_NE(a->current_ac(), b->current_ac());

  a->send_data(to_bytes("cross-area payload"));
  w.group.settle();
  ASSERT_EQ(b->received_data().size(), 1u);
  EXPECT_EQ(to_string(b->received_data()[0]), "cross-area payload");

  b->send_data(to_bytes("and back"));
  w.group.settle();
  ASSERT_EQ(a->received_data().size(), 1u);
  EXPECT_EQ(to_string(a->received_data()[0]), "and back");
}

TEST(MykilJoin, DataCrossesThreeLevelAreaChain) {
  // root <- mid <- leaf chain.
  net::Network net(quiet_net());
  MykilGroup group(net, logic_options(7));
  group.add_area();
  std::size_t mid = group.add_area(0);
  group.add_area(mid);
  group.finalize();

  auto a = group.make_member(1, net::sec(3600));
  auto b = group.make_member(2, net::sec(3600));
  auto c = group.make_member(3, net::sec(3600));
  group.join_member(*a, net::sec(3600));  // area 0
  group.join_member(*b, net::sec(3600));  // area 1
  group.join_member(*c, net::sec(3600));  // area 2

  c->send_data(to_bytes("up two levels"));
  group.settle();
  ASSERT_EQ(a->received_data().size(), 1u);
  ASSERT_EQ(b->received_data().size(), 1u);

  a->send_data(to_bytes("down two levels"));
  group.settle();
  ASSERT_EQ(c->received_data().size(), 1u);
  EXPECT_EQ(to_string(c->received_data()[0]), "down two levels");
}

TEST(MykilJoin, VoluntaryLeaveEvictsAndBlocksData) {
  World w(1);
  auto a = w.group.make_member(1, net::sec(3600));
  auto b = w.group.make_member(2, net::sec(3600));
  auto c = w.group.make_member(3, net::sec(3600));
  for (auto* m : {a.get(), b.get(), c.get()})
    w.group.join_member(*m, net::sec(3600));

  c->leave();
  w.group.settle();
  EXPECT_EQ(w.group.ac(0).member_count(), 2u);
  EXPECT_FALSE(c->joined());

  a->send_data(to_bytes("post-leave secret"));
  w.group.settle();
  EXPECT_EQ(b->received_data().size(), 1u);
  EXPECT_TRUE(c->received_data().empty());
}

TEST(MykilJoin, EvictedMemberStaleKeysUseless) {
  World w(1);
  auto a = w.group.make_member(1, net::sec(3600));
  auto b = w.group.make_member(2, net::sec(3600));
  w.group.join_member(*a, net::sec(3600));
  w.group.join_member(*b, net::sec(3600));

  // b leaves but (maliciously) keeps listening on the old group by NOT
  // dropping its network subscription — simulate by re-subscribing.
  crypto::SymmetricKey stale = b->keys().group_key();
  b->leave();
  w.group.settle();
  EXPECT_FALSE(stale == w.group.ac(0).tree().root_key());
}

TEST(MykilJoin, RekeyOnJoinPreservesBackwardSecrecy) {
  World w(1);
  auto a = w.group.make_member(1, net::sec(3600));
  w.group.join_member(*a, net::sec(3600));
  crypto::SymmetricKey old_key = w.group.ac(0).tree().root_key();

  auto b = w.group.make_member(2, net::sec(3600));
  w.group.join_member(*b, net::sec(3600));
  // The area key rotated, so b never saw old_key.
  EXPECT_FALSE(w.group.ac(0).tree().root_key() == old_key);
  EXPECT_TRUE(a->keys().group_key() == w.group.ac(0).tree().root_key());
  EXPECT_TRUE(b->keys().group_key() == w.group.ac(0).tree().root_key());
}

TEST(MykilJoin, ReplayedStep6IsIgnored) {
  World w(1);
  auto m = w.group.make_member(1, net::sec(3600));
  w.group.join_member(*m, net::sec(3600));
  ASSERT_TRUE(m->joined());
  std::uint64_t joins_before = w.group.ac(0).counters().joins;

  // An adversary replays the (captured) step-6 bytes. The pending-join
  // entry was consumed, so nothing happens.
  // We reconstruct a syntactically valid but unknown step-6 box instead of
  // capturing (the simulator does not expose sniffing): the AC must drop it.
  crypto::Prng prng(55);
  Bytes packet = wrap(JoinStep6{.nonce_ac_plus2 = 123456,  // bogus
                                .nonce_ca = 777},
                      w.group.ac(0).public_key(), prng);
  w.net.unicast(m->id(), w.group.ac(0).id(), "attack", std::move(packet));
  w.group.settle();
  EXPECT_EQ(w.group.ac(0).counters().joins, joins_before);
}

TEST(MykilJoin, ForgedStep4WithoutRsSignatureIgnored) {
  World w(1);
  // A malicious node fabricates a step-4 "introduction" for itself. It can
  // encrypt to the AC's public key but cannot produce the RS signature.
  crypto::Prng prng(66);
  crypto::RsaKeyPair attacker = crypto::rsa_generate(768, prng);
  // Signed with the attacker's own key, not the RS key.
  Bytes packet = wrap(JoinStep4{.nonce_ac = 1,
                                .client_id = 31337,
                                .ts = w.net.now(),
                                .client_pubkey = attacker.pub.serialize(),
                                .duration = net::sec(3600)},
                      w.group.ac(0).public_key(), prng, attacker.priv);

  net::NodeId fake = 0;  // send "from" the RS's node id is impossible; use any
  (void)fake;
  w.net.unicast(w.group.rs().id(), w.group.ac(0).id(), "attack",
                std::move(packet));
  w.group.settle();
  EXPECT_EQ(w.group.ac(0).member_count(), 0u);
}

TEST(MykilJoin, TwoMembersJoinConcurrently) {
  World w(1);
  auto a = w.group.make_member(1, net::sec(3600));
  auto b = w.group.make_member(2, net::sec(3600));
  // Fire both joins without settling in between.
  a->join(w.group.rs().id(), net::sec(3600));
  b->join(w.group.rs().id(), net::sec(3600));
  w.group.settle();

  EXPECT_TRUE(a->joined());
  EXPECT_TRUE(b->joined());
  EXPECT_EQ(w.group.ac(0).member_count(), 2u);
  EXPECT_TRUE(a->keys().group_key() == w.group.ac(0).tree().root_key());
  EXPECT_TRUE(b->keys().group_key() == w.group.ac(0).tree().root_key());
}

TEST(MykilJoin, ManyMembersConverge) {
  World w(2);
  std::vector<std::unique_ptr<Member>> members;
  for (ClientId c = 1; c <= 10; ++c) {
    members.push_back(w.group.make_member(c, net::sec(3600)));
    w.group.join_member(*members.back(), net::sec(3600));
  }
  for (auto& m : members) {
    ASSERT_TRUE(m->joined());
  }
  // One broadcast reaches all 9 others across both areas.
  members[0]->send_data(to_bytes("to everyone"));
  w.group.settle();
  for (std::size_t i = 1; i < members.size(); ++i) {
    EXPECT_EQ(members[i]->received_data().size(), 1u) << "member " << i;
  }
}

}  // namespace
}  // namespace mykil::core
