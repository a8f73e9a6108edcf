// The six-step rejoin protocol (Fig. 7): mobility, cohort checks,
// partitioned-network options, stolen/shared ticket attacks.
#include <gtest/gtest.h>

#include <memory>

#include "common/error.h"
#include "mykil/group.h"

namespace mykil::core {
namespace {

net::NetworkConfig quiet_net() {
  net::NetworkConfig cfg;
  cfg.jitter = 0;
  return cfg;
}

/// Fast protocol clocks so liveness-driven scenarios fit in small settles.
MykilConfig fast_config() {
  MykilConfig c;
  c.batching = false;
  c.t_idle = net::msec(100);
  c.t_active = net::msec(200);
  c.rekey_interval = net::msec(500);
  c.rejoin_check_timeout = net::msec(300);
  c.rejoin_retry_interval = net::msec(600);
  c.heartbeat_interval = net::msec(100);
  return c;
}

GroupOptions fast_options(std::uint64_t seed = 1) {
  GroupOptions o;
  o.seed = seed;
  o.config = fast_config();
  return o;
}

struct World {
  explicit World(std::size_t n_areas, GroupOptions opts = fast_options())
      : net(quiet_net()), group(net, opts) {
    group.add_area();
    for (std::size_t i = 1; i < n_areas; ++i) group.add_area(0);
    group.finalize();
  }
  net::Network net;
  MykilGroup group;
};

TEST(MykilRejoin, SkipCohortCheckMovesInstantly) {
  GroupOptions o = fast_options();
  o.config.skip_cohort_check = true;
  World w(2, o);
  auto m = w.group.make_member(1, net::sec(3600));
  w.group.join_member(*m, net::sec(3600));
  AcId origin = m->current_ac();

  AcId target = origin == w.group.ac(0).ac_id() ? w.group.ac(1).ac_id()
                                                : w.group.ac(0).ac_id();
  m->rejoin(target);
  w.group.settle();
  EXPECT_TRUE(m->joined());
  EXPECT_EQ(m->current_ac(), target);
  EXPECT_TRUE(m->last_rejoin_latency().has_value());
}

TEST(MykilRejoin, ActiveMemberMovingIsInitiallyDeniedThenAdmitted) {
  // Full cohort check: a member that is still "actively heard" at its old
  // AC is denied; once its silence exceeds the limit, the retry succeeds.
  World w(2);
  auto m = w.group.make_member(1, net::sec(3600));
  w.group.join_member(*m, net::sec(3600));
  AcId origin = m->current_ac();
  AcId target = origin == w.group.ac(0).ac_id() ? w.group.ac(1).ac_id()
                                                : w.group.ac(0).ac_id();
  std::size_t origin_idx = origin == w.group.ac(0).ac_id() ? 0 : 1;
  std::size_t target_idx = 1 - origin_idx;

  // Cut the member off from its old AC so it goes silent there, then move.
  w.net.block_link(m->id(), w.group.ac(origin_idx).id());
  w.net.block_link(w.group.ac(origin_idx).id(), m->id());
  m->rejoin(target);
  w.group.settle(net::msec(400));
  // First attempt raced the old AC's liveness record: denied.
  EXPECT_GE(w.group.ac(target_idx).counters().rejoins_denied, 0u);

  // After the old AC has not heard the member for > 5 x T_active, the
  // client-side retry goes through.
  w.group.settle(net::sec(4));
  EXPECT_TRUE(m->joined());
  EXPECT_EQ(m->current_ac(), target);
  // The old AC evicted the member during the cohort check or via its own
  // silence scan.
  EXPECT_FALSE(w.group.ac(origin_idx).has_member(1));
}

TEST(MykilRejoin, WatchdogTriggersAutomaticRejoinOnAcSilence) {
  World w(2);
  auto m = w.group.make_member(1, net::sec(3600));
  w.group.join_member(*m, net::sec(3600));
  AcId origin = m->current_ac();
  std::size_t origin_idx = origin == w.group.ac(0).ac_id() ? 0 : 1;

  // Sever both directions between the member and its AC.
  w.net.block_link(m->id(), w.group.ac(origin_idx).id());
  w.net.block_link(w.group.ac(origin_idx).id(), m->id());

  w.group.settle(net::sec(6));
  EXPECT_GE(m->watchdog_rejoins(), 1u);
  EXPECT_TRUE(m->joined());
  EXPECT_NE(m->current_ac(), origin);
}

TEST(MykilRejoin, RejoinedMemberStillReceivesData) {
  GroupOptions o = fast_options();
  o.config.skip_cohort_check = true;
  World w(2, o);
  auto a = w.group.make_member(1, net::sec(3600));
  auto b = w.group.make_member(2, net::sec(3600));
  w.group.join_member(*a, net::sec(3600));
  w.group.join_member(*b, net::sec(3600));
  ASSERT_NE(a->current_ac(), b->current_ac());

  // Move b into a's area; then a's data should reach b intra-area.
  b->rejoin(a->current_ac());
  w.group.settle();
  ASSERT_EQ(b->current_ac(), a->current_ac());

  a->send_data(to_bytes("welcome to the new area"));
  w.group.settle();
  ASSERT_GE(b->received_data().size(), 1u);
  EXPECT_EQ(to_string(b->received_data().back()), "welcome to the new area");
}

TEST(MykilRejoin, StolenTicketWithoutPrivateKeyFailsStep3) {
  // An adversary steals the sealed ticket but not the private key: it can
  // start the rejoin but cannot answer Nonce_BC+1 (it cannot decrypt
  // step 2, which is encrypted under the ticket owner's public key).
  GroupOptions o = fast_options();
  o.config.skip_cohort_check = true;
  World w(2, o);
  auto victim = w.group.make_member(1, net::sec(3600));
  w.group.join_member(*victim, net::sec(3600));

  crypto::Prng prng(500);
  crypto::RsaKeyPair thief_keys = crypto::rsa_generate(768, prng);
  Member thief(666, w.group.config(), std::move(thief_keys),
               w.group.rs_public_key(), crypto::Prng(501));
  w.net.attach(thief);
  // The thief captured the ticket and directory off the wire, but keeps
  // its own (wrong) keypair.
  victim->leak_ticket_to(thief);

  std::uint64_t rejoins_before =
      w.group.ac(0).counters().rejoins + w.group.ac(1).counters().rejoins;
  thief.rejoin(w.group.ac(0).ac_id());
  thief.rejoin(w.group.ac(1).ac_id());
  w.group.settle(net::sec(1));

  EXPECT_FALSE(thief.joined());
  EXPECT_EQ(w.group.ac(0).counters().rejoins + w.group.ac(1).counters().rejoins,
            rejoins_before);
}

TEST(MykilRejoin, SharedTicketCohortDeniedWhileOwnerActive) {
  // Section IV-B's malicious-cohort scenario: C1 shares ticket AND keypair
  // with C2; C2 tries to join area B while C1 is still active in area A.
  World w(2);
  auto c1 = w.group.make_member(1, net::sec(3600));
  w.group.join_member(*c1, net::sec(3600));
  AcId origin = c1->current_ac();
  std::size_t origin_idx = origin == w.group.ac(0).ac_id() ? 0 : 1;
  std::size_t other_idx = 1 - origin_idx;

  Member cohort(2, w.group.config(),
                crypto::rsa_generate(768, *std::make_unique<crypto::Prng>(502)),
                w.group.rs_public_key(), crypto::Prng(503));
  w.net.attach(cohort);
  c1->clone_credentials_into(cohort);

  cohort.rejoin(w.group.ac(other_idx).ac_id());
  w.group.settle(net::sec(1));

  // C1 keeps chatting so AC_A's liveness record stays fresh.
  c1->send_data(to_bytes("still here"));
  w.group.settle(net::sec(1));

  EXPECT_FALSE(cohort.joined());
  EXPECT_GE(w.group.ac(other_idx).counters().rejoins_denied, 1u);
  EXPECT_TRUE(w.group.ac(origin_idx).has_member(1));
}

TEST(MykilRejoin, PartitionPolicyDenyBlocksRejoin) {
  GroupOptions o = fast_options();
  o.config.partitioned_rejoin = PartitionedRejoinPolicy::kDeny;
  World w(2, o);
  auto m = w.group.make_member(1, net::sec(3600));
  w.group.join_member(*m, net::sec(3600));
  AcId origin = m->current_ac();
  std::size_t origin_idx = origin == w.group.ac(0).ac_id() ? 0 : 1;
  std::size_t other_idx = 1 - origin_idx;

  // Partition the two ACs from each other AND the member from its old AC.
  w.net.block_link(w.group.ac(other_idx).id(), w.group.ac(origin_idx).id());
  w.net.block_link(w.group.ac(origin_idx).id(), w.group.ac(other_idx).id());
  w.net.block_link(m->id(), w.group.ac(origin_idx).id());
  w.net.block_link(w.group.ac(origin_idx).id(), m->id());

  m->rejoin(w.group.ac(other_idx).ac_id());
  w.group.settle(net::sec(1));
  // Denied: the member never moves to the new area (it nominally remains a
  // member of its old, unreachable one — the price of option 1's safety).
  EXPECT_NE(m->current_ac(), w.group.ac(other_idx).ac_id());
  EXPECT_GE(w.group.ac(other_idx).counters().rejoins_denied, 1u);
  EXPECT_EQ(w.group.ac(other_idx).counters().rejoins, 0u);
}

TEST(MykilRejoin, PartitionPolicyNicCheckAdmits) {
  GroupOptions o = fast_options();
  o.config.partitioned_rejoin = PartitionedRejoinPolicy::kAdmitWithNicCheck;
  World w(2, o);
  auto m = w.group.make_member(1, net::sec(3600));
  w.group.join_member(*m, net::sec(3600));
  AcId origin = m->current_ac();
  std::size_t origin_idx = origin == w.group.ac(0).ac_id() ? 0 : 1;
  std::size_t other_idx = 1 - origin_idx;

  w.net.block_link(w.group.ac(other_idx).id(), w.group.ac(origin_idx).id());
  w.net.block_link(w.group.ac(origin_idx).id(), w.group.ac(other_idx).id());

  m->rejoin(w.group.ac(other_idx).ac_id());
  w.group.settle(net::sec(1));
  // NIC in the ticket matches the claimant: admitted despite the partition.
  EXPECT_TRUE(m->joined());
  EXPECT_EQ(m->current_ac(), w.group.ac(other_idx).ac_id());
}

TEST(MykilRejoin, PartitionNicCheckRejectsForeignNic) {
  // A cohort with a DIFFERENT NIC presenting a shared ticket during a
  // partition is rejected by the NIC check (option 2's defence).
  GroupOptions o = fast_options();
  o.config.partitioned_rejoin = PartitionedRejoinPolicy::kAdmitWithNicCheck;
  World w(2, o);
  auto c1 = w.group.make_member(1, net::sec(3600));
  w.group.join_member(*c1, net::sec(3600));
  AcId origin = c1->current_ac();
  std::size_t origin_idx = origin == w.group.ac(0).ac_id() ? 0 : 1;
  std::size_t other_idx = 1 - origin_idx;

  Member cohort(999, w.group.config(),  // NIC 999 != ticket's NIC 1
                crypto::rsa_generate(768, *std::make_unique<crypto::Prng>(504)),
                w.group.rs_public_key(), crypto::Prng(505));
  w.net.attach(cohort);
  c1->clone_credentials_into(cohort);

  w.net.block_link(w.group.ac(other_idx).id(), w.group.ac(origin_idx).id());
  w.net.block_link(w.group.ac(origin_idx).id(), w.group.ac(other_idx).id());

  cohort.rejoin(w.group.ac(other_idx).ac_id());
  w.group.settle(net::sec(1));
  EXPECT_FALSE(cohort.joined());
  EXPECT_GE(w.group.ac(other_idx).counters().rejoins_denied, 1u);
}

TEST(MykilRejoin, ExpiredTicketRejected) {
  GroupOptions o = fast_options();
  o.config.skip_cohort_check = true;
  World w(2, o);
  auto m = w.group.make_member(1, net::sec(2));  // authorized 2 s only
  w.group.join_member(*m, net::sec(2));
  ASSERT_TRUE(m->joined());
  AcId origin = m->current_ac();
  AcId target = origin == w.group.ac(0).ac_id() ? w.group.ac(1).ac_id()
                                                : w.group.ac(0).ac_id();

  // Let the membership period lapse, then try to move with the old ticket.
  w.group.settle(net::sec(5));
  std::size_t target_idx = target == w.group.ac(0).ac_id() ? 0 : 1;
  std::uint64_t before = w.group.ac(target_idx).counters().rejoins;
  m->rejoin(target);
  w.group.settle(net::sec(1));
  EXPECT_EQ(w.group.ac(target_idx).counters().rejoins, before);
  EXPECT_NE(m->current_ac(), target);
}

TEST(MykilRejoin, TicketReissuedOnMovePreservesValidity) {
  GroupOptions o = fast_options();
  o.config.skip_cohort_check = true;
  World w(2, o);
  auto m = w.group.make_member(1, net::sec(3600));
  w.group.join_member(*m, net::sec(3600));
  Bytes ticket_before = m->sealed_ticket();

  AcId origin = m->current_ac();
  AcId target = origin == w.group.ac(0).ac_id() ? w.group.ac(1).ac_id()
                                                : w.group.ac(0).ac_id();
  m->rejoin(target);
  w.group.settle();
  ASSERT_TRUE(m->joined());
  // New sealed ticket (new last_ac), different ciphertext.
  EXPECT_NE(m->sealed_ticket(), ticket_before);
}

TEST(MykilRejoin, LeaveDuringMoveEndsTheMove) {
  // A move keeps the member joined at its old area until the target
  // answers. A voluntary leave in that window ends the move too: the
  // target's replies must not admit the departed member, and the watchdog
  // must not retry the rejoin on its behalf.
  World w(2);
  auto m = w.group.make_member(1, net::sec(3600));
  w.group.join_member(*m, net::sec(3600));
  AcId origin = m->current_ac();
  AcId target = origin == w.group.ac(0).ac_id() ? w.group.ac(1).ac_id()
                                                : w.group.ac(0).ac_id();

  m->rejoin(target);
  m->leave();
  w.group.settle(net::sec(5));

  EXPECT_FALSE(m->joined());
  EXPECT_FALSE(m->keys().has_group_key());
  EXPECT_FALSE(m->last_rejoin_latency().has_value());
  EXPECT_EQ(m->watchdog_rejoins(), 0u);
  for (std::size_t a = 0; a < 2; ++a) {
    EXPECT_FALSE(w.group.ac(a).has_member(1)) << "area " << a;
    EXPECT_EQ(w.group.ac(a).counters().rejoins, 0u) << "area " << a;
  }
}

}  // namespace
}  // namespace mykil::core
