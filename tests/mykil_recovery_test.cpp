// Rekey gap recovery (DESIGN.md 9.2): members that miss rekey multicasts
// detect the epoch gap — from a later rekey or from the AC's idle beacon —
// and pull their current key path back over the reliable control plane.
// Data that overtakes its rekey is held for it, not recovered for.
// Forward secrecy holds throughout: non-members get no answer.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/error.h"
#include "mykil/group.h"
#include "mykil/messages.h"
#include "obs/metrics.h"

namespace mykil::core {
namespace {

net::NetworkConfig quiet_net() {
  net::NetworkConfig cfg;
  cfg.jitter = 0;
  return cfg;
}

GroupOptions fast_options(std::uint64_t seed = 1) {
  GroupOptions o;
  o.seed = seed;
  o.config.batching = true;
  o.config.t_idle = net::msec(200);
  o.config.t_active = net::msec(400);
  o.config.rekey_interval = net::msec(500);
  o.config.heartbeat_interval = net::msec(100);
  o.config.key_recovery_interval = net::msec(250);
  return o;
}

struct World {
  explicit World(GroupOptions opts = fast_options())
      : net(quiet_net()), group(net, opts) {
    group.add_area();
    group.finalize();
  }
  net::Network net;
  MykilGroup group;
};

TEST(MykilRecovery, MemberRecoversRekeyLostToBlockedLink) {
  World w;
  auto m1 = w.group.make_member(1, net::sec(3600));
  auto m2 = w.group.make_member(2, net::sec(3600));
  auto m3 = w.group.make_member(3, net::sec(3600));
  w.group.join_member(*m1, net::sec(3600));
  w.group.join_member(*m2, net::sec(3600));
  w.group.join_member(*m3, net::sec(3600));
  w.group.settle(net::sec(2));
  ASSERT_TRUE(m1->joined());

  // m1 goes deaf to the AC: it misses the eviction rekey for m2 entirely.
  w.net.block_link(w.group.ac(0).id(), m1->id());
  m2->leave();
  w.group.settle(net::sec(2));
  EXPECT_FALSE(m1->keys().group_key() == w.group.ac(0).tree().root_key());

  // Once the link heals, the next epoch-stamped multicast (rekey or idle
  // beacon) reveals the gap and the recovery exchange closes it.
  w.net.unblock_link(w.group.ac(0).id(), m1->id());
  w.group.settle(net::sec(4));
  EXPECT_TRUE(m1->joined());
  EXPECT_TRUE(m1->keys().group_key() == w.group.ac(0).tree().root_key());
  EXPECT_GT(m1->key_recoveries(), 0u);
  EXPECT_GT(w.group.ac(0).counters().key_recoveries_served, 0u);
}

TEST(MykilRecovery, CrashedMemberCatchesUpAfterRecovery) {
  World w;
  auto m1 = w.group.make_member(1, net::sec(3600));
  auto m2 = w.group.make_member(2, net::sec(3600));
  auto m3 = w.group.make_member(3, net::sec(3600));
  w.group.join_member(*m1, net::sec(3600));
  w.group.join_member(*m2, net::sec(3600));
  w.group.join_member(*m3, net::sec(3600));
  w.group.settle(net::sec(2));

  // Crash m1 briefly (well under the eviction horizon of
  // disconnect_multiplier * t_active = 2 s here), rotate the area key
  // behind its back, then bring it back.
  w.net.crash(m1->id());
  m2->leave();
  w.group.settle(net::msec(800));
  w.net.recover(m1->id());
  w.group.settle(net::sec(4));

  EXPECT_TRUE(m1->joined());
  EXPECT_TRUE(m1->keys().group_key() == w.group.ac(0).tree().root_key());
}

TEST(MykilRecovery, DepartedMemberGetsNoRecoveryAnswer) {
  // Forward secrecy: after leaving, a (forged or replayed) recovery request
  // for the departed id must be ignored — never answered with current keys.
  World w;
  auto m1 = w.group.make_member(1, net::sec(3600));
  auto m2 = w.group.make_member(2, net::sec(3600));
  w.group.join_member(*m1, net::sec(3600));
  w.group.join_member(*m2, net::sec(3600));
  m2->leave();
  w.group.settle(net::sec(2));
  ASSERT_EQ(w.group.ac(0).counters().key_recoveries_served, 0u);

  w.net.unicast(m2->id(), w.group.ac(0).id(), "mykil-recovery",
                wrap(KeyRecoveryRequest{.client_id = m2->client_id(),  // gone
                                        .ac_id = w.group.ac(0).ac_id(),
                                        .epoch = 0,
                                        .nonce = 12345}));
  w.group.settle(net::sec(1));
  EXPECT_EQ(w.group.ac(0).counters().key_recoveries_served, 0u);
}

TEST(MykilRecovery, SpoofedAndWrongAreaRequestsIgnored) {
  World w;
  auto m1 = w.group.make_member(1, net::sec(3600));
  w.group.join_member(*m1, net::sec(3600));
  w.group.settle(net::sec(1));

  // From the wrong node: anti-spoofing rejects even a valid member id.
  w.net.unicast(w.group.rs().id(), w.group.ac(0).id(), "mykil-recovery",
                wrap(KeyRecoveryRequest{.client_id = m1->client_id(),
                                        .ac_id = w.group.ac(0).ac_id(),
                                        .epoch = 0,
                                        .nonce = 1}));

  // For the wrong area: stale directory or replay, dropped on arrival.
  w.net.unicast(m1->id(), w.group.ac(0).id(), "mykil-recovery",
                wrap(KeyRecoveryRequest{.client_id = m1->client_id(),
                                        .ac_id = w.group.ac(0).ac_id() + 999,
                                        .epoch = 0,
                                        .nonce = 2}));

  w.group.settle(net::sec(1));
  EXPECT_EQ(w.group.ac(0).counters().key_recoveries_served, 0u);
  EXPECT_TRUE(m1->joined());  // and nobody crashed
}

std::uint64_t counter(const obs::MetricsRegistry& metrics, const char* name) {
  const obs::Counter* c = metrics.find_counter(name);
  return c == nullptr ? 0 : c->value();
}

/// Root area 0 and child area 1; members join round robin, so odd client
/// ids land in the root area and even ones in the child area.
struct TwoAreas {
  TwoAreas(net::NetworkConfig cfg, GroupOptions opts)
      : net(cfg), group(net, opts) {
    net.set_metrics(&metrics);
    group.add_area();
    group.add_area(0);
    group.finalize();
  }
  std::unique_ptr<Member> join(ClientId client) {
    auto m = group.make_member(client, net::sec(3600));
    group.join_member(*m, net::sec(3600));
    return m;
  }
  obs::MetricsRegistry metrics;
  net::Network net;
  MykilGroup group;
};

TEST(MykilRecovery, DataThatOvertakesItsRekeyIsHeldNotRecovered) {
  // A child AC flushes its batched rekey just before it re-seals parent-area
  // data into its area (Section III-E), so both leave at once. With a
  // per-byte link cost the smaller data packet lands first; the members
  // must hold it for the rekey in flight instead of buying the key back.
  net::NetworkConfig cfg = quiet_net();
  cfg.per_byte_latency_us = 1.0;
  GroupOptions opts = fast_options();
  opts.config.enable_timers = false;  // no timer flushes, no watchdog
  TwoAreas w(cfg, opts);
  auto root_sender = w.join(1);
  auto older_a = w.join(2);
  auto root_other = w.join(3);
  auto older_b = w.join(4);
  w.group.ac(0).flush_rekeys();
  w.group.ac(1).flush_rekeys();
  w.group.settle();
  auto root_late = w.join(5);  // so that the next join lands in area 1
  w.group.ac(0).flush_rekeys();
  w.group.settle();
  auto newcomer = w.join(6);  // leaves a join rotation pending in area 1
  ASSERT_EQ(newcomer->current_ac(), w.group.ac(1).ac_id());
  ASSERT_TRUE(w.group.ac(1).update_pending());

  root_sender->send_data(to_bytes("ahead of its rekey"));
  w.group.settle();

  for (Member* m : {older_a.get(), older_b.get(), newcomer.get()}) {
    ASSERT_EQ(m->current_ac(), w.group.ac(1).ac_id());
    ASSERT_EQ(m->received_data().size(), 1u);
    EXPECT_EQ(to_string(m->received_data()[0]), "ahead of its rekey");
    EXPECT_EQ(m->key_recoveries(), 0u);
    EXPECT_EQ(m->undecryptable_count(), 0u);
    EXPECT_EQ(m->held_count(), 0u);
  }
  EXPECT_EQ(w.group.ac(1).counters().key_recoveries_served, 0u);
  // The race did happen: every child member (the newcomer too, which the
  // pending rotation also moves) held the packet until the rekey opened it.
  EXPECT_EQ(counter(w.metrics, "member.data_held"), 3u);
  EXPECT_EQ(counter(w.metrics, "member.data_held_opened"), 3u);
  for (Member* m : {root_other.get(), root_late.get()})
    EXPECT_EQ(m->received_data().size(), 1u);
}

TEST(MykilRecovery, HeldDataBehindALostRekeyIsDeliveredAfterRecovery) {
  // A member that really lost a rekey cannot open data sealed under the key
  // it carried. Holding the packet must not hide the gap: the held packet
  // asks for a catch-up, and the reply opens it.
  TwoAreas w(quiet_net(), fast_options());
  auto root_sender = w.join(1);
  auto deaf = w.join(2);
  auto root_other = w.join(3);
  auto leaver = w.join(4);
  w.group.settle(net::sec(1));
  AreaController& child = w.group.ac(1);
  ASSERT_EQ(deaf->current_ac(), child.ac_id());
  ASSERT_EQ(leaver->current_ac(), child.ac_id());

  // The deaf member misses the child area's rekey for the leave.
  w.net.block_link(child.id(), deaf->id());
  leaver->leave();
  w.group.settle(net::msec(20));
  child.flush_rekeys();
  w.group.settle(net::msec(20));
  w.net.unblock_link(child.id(), deaf->id());
  ASSERT_FALSE(deaf->keys().group_key() == child.tree().root_key());
  ASSERT_EQ(deaf->key_recoveries(), 0u);

  // The child AC re-seals root-area data under the key the member lacks.
  root_sender->send_data(to_bytes("behind a lost rekey"));
  w.group.settle(net::msec(2));
  EXPECT_EQ(deaf->held_count(), 1u);
  EXPECT_TRUE(deaf->received_data().empty());

  w.group.settle(net::sec(1));
  ASSERT_EQ(deaf->received_data().size(), 1u);
  EXPECT_EQ(to_string(deaf->received_data()[0]), "behind a lost rekey");
  EXPECT_EQ(deaf->key_recoveries(), 1u);
  EXPECT_EQ(deaf->undecryptable_count(), 0u);
  EXPECT_EQ(deaf->held_count(), 0u);
  EXPECT_TRUE(deaf->keys().group_key() == child.tree().root_key());
  EXPECT_EQ(
      counter(w.metrics, "member.key_recovery_requests.undecryptable-data"),
      1u);
  EXPECT_EQ(counter(w.metrics, "member.data_held_opened"), 1u);
  EXPECT_EQ(root_other->received_data().size(), 1u);
}

TEST(MykilRecovery, ForgedDataWaitsForTheWatchdogAndIsDiscarded) {
  // Garbage that opens under no key is held like data racing a rekey. It
  // must not buy an RSA-signed answer on arrival: the member asks on its
  // next watchdog tick, once, the hold stays bounded, and the reply
  // discards and counts what it did not open.
  net::Network net(quiet_net());
  obs::MetricsRegistry metrics;
  net.set_metrics(&metrics);
  GroupOptions opts = fast_options();
  MykilGroup group(net, opts);
  group.add_area();
  group.finalize();
  auto victim = group.make_member(1, net::sec(3600));
  const net::SimTime timers_armed = net.now();  // watchdog phase
  group.join_member(*victim, net::sec(3600));
  group.settle(net::sec(1));
  ASSERT_TRUE(victim->joined());

  // Start just after a watchdog tick that found nothing held.
  const net::SimDuration tick = opts.config.t_idle;
  net::SimTime next_tick =
      timers_armed + ((net.now() - timers_armed) / tick + 1) * tick;
  net.run_until(next_tick + net::msec(1));
  next_tick += tick;

  const std::size_t forged = Member::kMaxHeldData + 4;
  const Bytes payload_box(40, 0xAB);  // "sealed" payload
  for (std::size_t i = 0; i < forged; ++i) {
    const Bytes key_box(40, static_cast<std::uint8_t>(i));  // "sealed" key
    net.multicast(group.rs().id(), group.ac(0).area_group(), "mykil-data",
                  wrap(Data{.msg_id = 0xF00D0000 + i,  // fresh message id
                            .sender = 99,
                            .key_box = key_box,
                            .payload_box = payload_box}));
  }
  const char* asks = "member.key_recovery_requests.undecryptable-data";
  net.run_until(next_tick - 1);
  EXPECT_EQ(counter(metrics, asks), 0u);
  EXPECT_EQ(victim->held_count(), Member::kMaxHeldData);
  EXPECT_EQ(victim->undecryptable_count(), forged - Member::kMaxHeldData);

  net.run_until(next_tick + tick - 1);  // exactly one tick
  EXPECT_EQ(counter(metrics, asks), 1u);
  EXPECT_EQ(group.ac(0).counters().key_recoveries_served, 1u);
  EXPECT_EQ(victim->key_recoveries(), 1u);
  EXPECT_EQ(victim->held_count(), 0u);
  EXPECT_EQ(victim->undecryptable_count(), forged);
  EXPECT_TRUE(victim->received_data().empty());

  group.settle(net::sec(1));  // nothing left to ask about
  EXPECT_EQ(counter(metrics, asks), 1u);
  EXPECT_TRUE(victim->joined());
}


// The child AC is a member of its parent's area (Section III-A) and keeps
// the same rekey cursor and recovery exchange toward it as a member does
// toward its own AC. The tests below watch that uplink from outside:
// through metrics and through what the two areas' members receive.

TEST(MykilRecovery, ChildAcRecoversParentRekeyLostToBlockedLink) {
  TwoAreas w(quiet_net(), fast_options());
  auto root_sender = w.join(1);
  auto child_a = w.join(2);
  auto leaver = w.join(3);
  auto child_b = w.join(4);
  w.group.settle(net::sec(1));
  AreaController& parent = w.group.ac(0);
  AreaController& child = w.group.ac(1);
  ASSERT_TRUE(child.uplink_ready());
  ASSERT_EQ(leaver->current_ac(), parent.ac_id());
  ASSERT_EQ(child_a->current_ac(), child.ac_id());

  // The child AC misses the root area's rekey for the leave.
  w.net.block_link(parent.id(), child.id());
  leaver->leave();
  w.group.settle(net::msec(20));
  parent.flush_rekeys();
  w.group.settle(net::msec(20));
  w.net.unblock_link(parent.id(), child.id());
  ASSERT_EQ(counter(w.metrics, "ac.uplink_recovery_requests"), 0u);

  // The parent's next idle beacon advertises an epoch the child never saw;
  // one catch-up closes the gap.
  w.group.settle(net::sec(1));
  EXPECT_EQ(counter(w.metrics, "ac.uplink_recovery_requests"), 1u);
  EXPECT_EQ(counter(w.metrics, "ac.uplink_recoveries"), 1u);

  // Root-area data sealed under the new root key crosses into the child
  // area again.
  root_sender->send_data(to_bytes("across the healed uplink"));
  w.group.settle(net::msec(100));
  for (Member* m : {child_a.get(), child_b.get()}) {
    ASSERT_EQ(m->received_data().size(), 1u);
    EXPECT_EQ(to_string(m->received_data()[0]), "across the healed uplink");
  }
  EXPECT_EQ(counter(w.metrics, "ac.uplink_recoveries"), 1u);
}

GroupOptions manual_options() {
  GroupOptions o = fast_options();
  o.config.enable_timers = false;  // no beacons, watchdogs or timer flushes
  return o;
}

TEST(MykilRecovery, ChildAcInstallsKeyPathsOnlyFromItsParent) {
  // A key path sealed to the child AC carries no signature and no nonce:
  // the source address is all that ties it to the parent. The child
  // forwards its members' data into the root area under its root-area key,
  // so a forged root key would cut the root area off from the child's data.
  TwoAreas w(quiet_net(), manual_options());
  auto root_member = w.join(1);
  auto child_sender = w.join(2);
  w.group.ac(0).flush_rekeys();
  w.group.ac(1).flush_rekeys();
  w.group.settle();
  AreaController& parent = w.group.ac(0);
  AreaController& child = w.group.ac(1);
  ASSERT_EQ(child_sender->current_ac(), child.ac_id());

  crypto::Prng prng(91);
  const crypto::SymmetricKey forged = crypto::SymmetricKey::random(prng);
  auto forged_path = [&] {
    return wrap(SplitUpdate{.path = {KeyPath{{0, 1'000'000, forged}}}},
                child.public_key(), prng);
  };
  w.net.unicast(w.group.rs().id(), child.id(), "attack", forged_path());
  w.group.settle();
  child_sender->send_data(to_bytes("under the parent's key"));
  w.group.settle();
  ASSERT_EQ(root_member->received_data().size(), 1u);
  EXPECT_EQ(to_string(root_member->received_data()[0]),
            "under the parent's key");

  // The same packet from the parent's node is installed: the check is the
  // sender, not a malformed packet.
  w.net.unicast(parent.id(), child.id(), "attack", forged_path());
  w.group.settle();
  child_sender->send_data(to_bytes("under the forged key"));
  w.group.settle();
  EXPECT_EQ(root_member->received_data().size(), 1u);
  EXPECT_EQ(root_member->held_count(), 1u);
}

TEST(MykilRecovery, ChildAcIgnoresARecoveryReplyWithTheWrongNonce) {
  // The parent signs a catch-up for whoever asks from the child AC's node,
  // so a signed reply alone proves nothing: the child takes only the one
  // that echoes the nonce of its own outstanding request.
  TwoAreas w(quiet_net(), manual_options());
  auto root_member = w.join(1);
  auto child_member = w.join(2);
  w.group.ac(0).flush_rekeys();
  w.group.ac(1).flush_rekeys();
  w.group.settle();
  AreaController& parent = w.group.ac(0);
  AreaController& child = w.group.ac(1);
  ASSERT_TRUE(child.uplink_ready());

  // Garbage on the root group opens under no key, so the child asks its
  // parent for a catch-up. In the same instant a request in the child's
  // name, with a nonce of the test's choosing, reaches the parent first: it
  // is answered, and the parent's per-member rate limit then drops the
  // child's own request.
  auto garbage = [&](std::uint64_t msg_id) {
    w.net.multicast(w.group.rs().id(), parent.area_group(), "mykil-data",
                    wrap(Data{.msg_id = msg_id,
                              .sender = 99,
                              .key_box = Bytes(40, 0x11),
                              .payload_box = Bytes(40, 0x22)}));
  };
  garbage(0xF00D0001);
  w.net.unicast(child.id(), parent.id(), "mykil-recovery",
                wrap(KeyRecoveryRequest{.client_id = child.ac_id(),
                                        .ac_id = parent.ac_id(),
                                        .epoch = 0,
                                        .nonce = 12345}));
  w.group.settle();
  EXPECT_EQ(parent.counters().key_recoveries_served, 1u);
  EXPECT_EQ(counter(w.metrics, "ac.key_recovery_rate_limited"), 1u);
  EXPECT_EQ(counter(w.metrics, "ac.uplink_recovery_requests"), 1u);
  EXPECT_EQ(counter(w.metrics, "ac.uplink_recoveries"), 0u);

  // The child's next request is answered with its own nonce, and taken.
  garbage(0xF00D0002);
  w.group.settle();
  EXPECT_EQ(parent.counters().key_recoveries_served, 2u);
  EXPECT_EQ(counter(w.metrics, "ac.uplink_recovery_requests"), 2u);
  EXPECT_EQ(counter(w.metrics, "ac.uplink_recoveries"), 1u);
}

}  // namespace
}  // namespace mykil::core
