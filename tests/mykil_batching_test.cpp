// Batching of rekey operations (Section III-E): aggregation of joins, of
// leaves, and of both; flush on data arrival and on the rekey timer.
#include <gtest/gtest.h>

#include <memory>

#include "common/error.h"
#include "mykil/group.h"
#include "mykil/messages.h"

namespace mykil::core {
namespace {

net::NetworkConfig quiet_net() {
  net::NetworkConfig cfg;
  cfg.jitter = 0;
  return cfg;
}

GroupOptions batching_options(std::uint64_t seed = 1) {
  GroupOptions o;
  o.seed = seed;
  o.config.batching = true;
  o.config.enable_timers = false;  // flushes driven by data/tests only
  return o;
}

struct World {
  explicit World(GroupOptions opts = batching_options()) : net(quiet_net()), group(net, opts) {
    group.add_area();
    group.finalize();
  }
  net::Network net;
  MykilGroup group;
};

std::vector<std::unique_ptr<Member>> join_n(World& w, std::size_t n,
                                            ClientId base = 1) {
  std::vector<std::unique_ptr<Member>> out;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(w.group.make_member(base + i, net::sec(3600)));
    w.group.join_member(*out.back(), net::sec(3600));
  }
  return out;
}

TEST(MykilBatching, JoinsDoNotRekeyUntilData) {
  World w;
  auto members = join_n(w, 4);
  // All four joined; the area key was never rotated by multicast.
  EXPECT_EQ(w.group.ac(0).counters().rekey_multicasts, 0u);
  EXPECT_TRUE(w.group.ac(0).update_pending());
}

TEST(MykilBatching, DataArrivalFlushesPendingJoins) {
  World w;
  auto members = join_n(w, 4);
  members[0]->send_data(to_bytes("first data packet"));
  w.group.settle();
  EXPECT_EQ(w.group.ac(0).counters().rekey_multicasts, 1u);
  EXPECT_FALSE(w.group.ac(0).update_pending());
  // Everyone ends on the rotated key and got the data... the sender used
  // the pre-rotation key, which remains valid via the fallback.
  for (std::size_t i = 1; i < members.size(); ++i) {
    EXPECT_EQ(members[i]->received_data().size(), 1u) << i;
    EXPECT_TRUE(members[i]->keys().group_key() ==
                w.group.ac(0).tree().root_key())
        << i;
  }
}

TEST(MykilBatching, ConsecutiveLeavesAggregateIntoOneRekey) {
  World w;
  auto members = join_n(w, 8);
  members[0]->send_data(to_bytes("settle joins"));
  w.group.settle();
  std::uint64_t before = w.group.ac(0).counters().rekey_multicasts;

  members[5]->leave();
  members[6]->leave();
  members[7]->leave();
  w.group.settle();
  // No data yet: leaves are pending, no rekey multicast.
  EXPECT_EQ(w.group.ac(0).counters().rekey_multicasts, before);
  EXPECT_TRUE(w.group.ac(0).update_pending());

  members[0]->send_data(to_bytes("triggers one aggregated rekey"));
  w.group.settle();
  EXPECT_EQ(w.group.ac(0).counters().rekey_multicasts, before + 1);

  // Departed members cannot decrypt the post-flush traffic.
  members[1]->send_data(to_bytes("post-flush secret"));
  w.group.settle();
  for (std::size_t i : {5u, 6u, 7u}) {
    for (const Bytes& d : members[i]->received_data()) {
      EXPECT_NE(to_string(d), "post-flush secret");
    }
  }
  for (std::size_t i : {2u, 3u, 4u}) {
    ASSERT_FALSE(members[i]->received_data().empty());
    EXPECT_EQ(to_string(members[i]->received_data().back()),
              "post-flush secret");
  }
}

TEST(MykilBatching, AggregatedRekeyAppliesOnlyPathEntries) {
  World w;
  auto members = join_n(w, 8);
  members[0]->send_data(to_bytes("settle joins"));
  w.group.settle();

  std::vector<std::uint64_t> rekeys_before, entries_before;
  for (auto& m : members) {
    rekeys_before.push_back(m->rekeys_applied());
    entries_before.push_back(m->rekey_entries_applied());
  }

  members[6]->leave();
  members[7]->leave();
  members[0]->send_data(to_bytes("flush aggregated leave"));
  w.group.settle();

  // Exactly one aggregated multicast reached each survivor, and each
  // applied it exactly once: at least the rotated root, and never more
  // entries than keys it holds — the off-path entries in the union batch
  // are skipped by lookup, not decrypt-attempted.
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(members[i]->rekeys_applied(), rekeys_before[i] + 1) << i;
    std::uint64_t applied =
        members[i]->rekey_entries_applied() - entries_before[i];
    EXPECT_GE(applied, 1u) << i;
    EXPECT_LE(applied, members[i]->keys().key_count()) << i;
  }
  // The departed pair left the area group before the flush: no multicast,
  // no application.
  for (std::size_t i : {6u, 7u}) {
    EXPECT_EQ(members[i]->rekeys_applied(), rekeys_before[i]) << i;
  }
}

TEST(MykilBatching, AggregatedLeaveSmallerThanSerialLeaves) {
  // Two identical worlds; one batches 4 leaves, the other rekeys each.
  auto rekey_bytes = [](bool batching) {
    GroupOptions o = batching_options(42);
    o.config.batching = batching;
    World w(o);
    auto members = join_n(w, 16);
    members[0]->send_data(to_bytes("flush joins"));
    w.group.settle();
    w.net.stats().reset();
    for (std::size_t i = 12; i < 16; ++i) members[i]->leave();
    w.group.settle();
    if (batching) {
      w.group.ac(0).flush_rekeys();
      w.group.settle();
    }
    return w.net.stats().sent_by_label("mykil-rekey").bytes;
  };
  std::uint64_t batched = rekey_bytes(true);
  std::uint64_t serial = rekey_bytes(false);
  EXPECT_LT(batched, serial);
  EXPECT_GT(batched, 0u);
}

TEST(MykilBatching, MixedJoinAndLeaveAggregation) {
  World w;
  auto members = join_n(w, 6);
  members[0]->send_data(to_bytes("flush initial joins"));
  w.group.settle();
  std::uint64_t before = w.group.ac(0).counters().rekey_multicasts;

  // Interleave a leave, a join, and a leave; all pending until data.
  members[5]->leave();
  auto extra = w.group.make_member(100, net::sec(3600));
  w.group.join_member(*extra, net::sec(3600));
  members[4]->leave();
  w.group.settle();
  EXPECT_EQ(w.group.ac(0).counters().rekey_multicasts, before);

  members[0]->send_data(to_bytes("one rekey covers all three events"));
  w.group.settle();
  EXPECT_EQ(w.group.ac(0).counters().rekey_multicasts, before + 1);

  // Survivors + newcomer converge on the current area key.
  for (std::size_t i : {0u, 1u, 2u, 3u}) {
    EXPECT_TRUE(members[i]->keys().group_key() ==
                w.group.ac(0).tree().root_key())
        << i;
  }
  EXPECT_TRUE(extra->keys().group_key() == w.group.ac(0).tree().root_key());
}

TEST(MykilBatching, RekeyTimerFlushesWithoutData) {
  GroupOptions o = batching_options(3);
  o.config.enable_timers = true;
  o.config.rekey_interval = net::msec(400);
  o.config.t_idle = net::msec(100);
  o.config.t_active = net::msec(200);
  World w(o);
  auto members = join_n(w, 3);
  // "(2) when a specific time interval has elapsed since the last rekeying
  // operation" — the timer alone must flush: no data is ever sent, yet the
  // pending join rotations get multicast.
  w.group.settle(net::sec(1));
  EXPECT_FALSE(w.group.ac(0).update_pending());
  EXPECT_GE(w.group.ac(0).counters().rekey_multicasts, 1u);
  EXPECT_EQ(w.net.stats().sent_by_label("mykil-data").messages, 0u);
}

TEST(MykilBatching, ExplicitFlushIsIdempotent) {
  World w;
  auto members = join_n(w, 2);
  w.group.ac(0).flush_rekeys();
  w.group.settle();
  std::uint64_t after_first = w.group.ac(0).counters().rekey_multicasts;
  w.group.ac(0).flush_rekeys();  // nothing pending now
  w.group.settle();
  EXPECT_EQ(w.group.ac(0).counters().rekey_multicasts, after_first);
}

TEST(MykilBatching, RekeyMessagesAreSignedAndVerified) {
  // A forged (unsigned / wrongly signed) rekey multicast must be ignored
  // by members.
  World w;
  auto members = join_n(w, 3);
  w.group.ac(0).flush_rekeys();
  w.group.settle();
  crypto::SymmetricKey good_key = members[0]->keys().group_key();

  // Forge a rekey: correct wire shape, attacker signature.
  crypto::Prng prng(77);
  crypto::RsaKeyPair attacker = crypto::rsa_generate(768, prng);
  lkh::RekeyMessage fake;
  fake.epoch = 999;
  Bytes packet = wrap(Rekey{.rekey = {fake}}, attacker.priv);
  w.net.multicast(members[1]->id(), w.group.ac(0).area_group(), "attack",
                  std::move(packet));
  w.group.settle();
  EXPECT_TRUE(members[0]->keys().group_key() == good_key);
}

}  // namespace
}  // namespace mykil::core
