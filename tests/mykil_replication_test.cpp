// Delta replication (DESIGN.md 9.3): a primary sends its standby what
// changed since the version the standby holds, and a full snapshot only
// when the standby needs one.
//
// The property test drives an area's tree and roster through random churn
// and requires every delta to rebuild replication_snapshot()'s bytes. The
// standby tests play the primary by hand: they seal syncs, deltas and
// heartbeats under K_shared and count the pulls the standby sends back.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "crypto/prng.h"
#include "lkh/key_tree.h"
#include "mykil/area_controller.h"
#include "mykil/group.h"
#include "mykil/messages.h"
#include "obs/metrics.h"

namespace mykil::core {
namespace {

const net::Label kRepl{"mykil-repl"};

/// An area's replicated state, changed the ways an AC changes it.
struct LiveArea {
  net::GroupId group = 3;
  AcId parent = kNoAc;
  std::uint64_t rekey_epoch = 0;
  lkh::KeyTree tree{lkh::KeyTree::Config{}, crypto::Prng(5)};
  std::map<ClientId, AreaMember> roster;

  /// What AreaController::replication_snapshot() encodes.
  [[nodiscard]] Bytes snapshot() const {
    return encode_fields<AreaSnapshot>(group, parent, rekey_epoch,
                                       tree.serialize(), roster);
  }
  void join(ClientId c, crypto::Prng& prng) {
    tree.join(c);
    roster[c] = {.node = static_cast<net::NodeId>(100 + c),
                 .pubkey = prng.bytes(96),
                 .sealed_ticket = prng.bytes(120),
                 .valid_until = prng.next_u64(),
                 .last_heard = prng.next_u64()};  // not replicated
    ++rekey_epoch;
  }
  void leave(std::span<const ClientId> clients) {
    tree.leave_batch(clients);
    for (ClientId c : clients) roster.erase(c);
    ++rekey_epoch;
  }
  /// The delta from `base` to now; `base` is advanced to now.
  AreaDelta delta_from(AreaSnapshot& base, std::uint64_t version) const {
    AreaDelta d = area_delta(base, group, parent, rekey_epoch, tree, roster);
    d.base_version = version - 1;
    d.version = version;
    apply(base, d);
    return d;
  }
};

TEST(ReplicationDelta, RebuildsTheSnapshotThroughRandomChurn) {
  crypto::Prng prng(2204);
  LiveArea area;
  for (ClientId c = 1; c <= 12; ++c) area.join(c, prng);
  AreaSnapshot base = decode<AreaSnapshot>(area.snapshot());
  ClientId next = 13;
  std::size_t delta_bytes = 0, snapshot_bytes = 0;
  for (std::uint64_t version = 2; version < 400; ++version) {
    std::vector<ClientId> ids;
    for (const auto& [c, rec] : area.roster) ids.push_back(c);
    switch (prng.uniform(7)) {
      case 0:
      case 1:
        area.join(next++, prng);
        break;
      case 2:  // a leave
        if (!ids.empty()) {
          std::vector<ClientId> one{ids[prng.uniform(ids.size())]};
          area.leave(one);
        }
        break;
      case 3: {  // a batched leave of up to four members
        std::vector<ClientId> batch;
        for (ClientId c : ids)
          if (batch.size() < 4 && prng.uniform(3) == 0) batch.push_back(c);
        if (!batch.empty()) area.leave(batch);
        break;
      }
      case 4:  // a rotation of the area key
        area.tree.rotate_root();
        ++area.rekey_epoch;
        break;
      case 5:  // a parent switch
        area.parent = prng.uniform(2) == 0 ? kNoAc : kAcIdBase + prng.uniform(4);
        break;
      case 6:  // a ticket re-issued, a member moved to another node
        if (!ids.empty()) {
          AreaMember& m = area.roster[ids[prng.uniform(ids.size())]];
          m.sealed_ticket = prng.bytes(120);
          m.node = static_cast<net::NodeId>(prng.uniform(1000));
        }
        break;
    }
    AreaDelta delta = area.delta_from(base, version);
    // Through the wire format, as a StateDelta carries it.
    EXPECT_EQ(encode(decode<AreaDelta>(encode(delta))), encode(delta));
    ASSERT_EQ(encode(base), area.snapshot()) << "version " << version;
    delta_bytes += encode(delta).size();
    snapshot_bytes += area.snapshot().size();
  }
  // A change touches one path and a few roster entries, not the area.
  EXPECT_LT(delta_bytes * 5, snapshot_bytes);
}

TEST(ReplicationDelta, AnUnchangedAreaSendsAnEmptyDelta) {
  crypto::Prng prng(7);
  LiveArea area;
  for (ClientId c = 1; c <= 5; ++c) area.join(c, prng);
  AreaSnapshot base = decode<AreaSnapshot>(area.snapshot());
  AreaDelta delta = area.delta_from(base, 2);
  EXPECT_TRUE(delta.members.empty());
  EXPECT_TRUE(delta.removed.empty());
  EXPECT_EQ(encode(base), area.snapshot());
}

TEST(ReplicationDelta, AClientBothChangedAndRemovedIsRejected) {
  crypto::Prng prng(8);
  LiveArea area;
  area.join(1, prng);
  AreaSnapshot base = decode<AreaSnapshot>(area.snapshot());
  area.join(2, prng);
  AreaDelta delta = area.delta_from(base, 2);
  ASSERT_TRUE(delta.members.contains(2));
  delta.removed.insert(2);
  EXPECT_THROW(decode<AreaDelta>(encode(delta)), ProtocolError);
}

/// Stands in for a primary: the test sends in its name and counts the
/// full-state pulls the standby sends back.
struct PrimaryStub : net::Node {
  std::size_t pulls = 0;
  void on_message(const net::Message& msg) override {
    if (parse_envelope_view(msg.payload).type == MsgType::kStateSyncRequest)
      ++pulls;
  }
};

class StandbyTest : public ::testing::Test {
 protected:
  static constexpr net::SimDuration kInterval = net::msec(100);

  StandbyTest() : net_(quiet()) {
    MykilConfig config;
    config.heartbeat_interval = kInterval;
    config.heartbeat_misses = 1000;  // no takeover: the test is the primary
    crypto::Prng keys(11);
    crypto::RsaKeyPair pair = crypto::rsa_generate(512, keys);
    standby_ = std::make_unique<AreaController>(
        kAcIdBase + 1, config, pair, k_shared_, pair.pub, crypto::Prng(12),
        AreaController::Role::kBackup);
    net_.attach(primary_);
    net_.attach(*standby_);
    standby_->start_watchdog();
    area_.group = net_.create_group();  // the standby listens in on it
    for (ClientId c = 1; c <= 6; ++c) area_.join(c, prng_);
  }

  static net::NetworkConfig quiet() {
    net::NetworkConfig cfg;
    cfg.jitter = 0;
    return cfg;
  }

  void send(Bytes packet) {
    net_.unicast(primary_.id(), standby_->id(), kRepl, std::move(packet));
  }
  void send_full(std::uint64_t version, std::uint64_t takeover = 0) {
    send(wrap(StateSync{.version = version, .takeover_epoch = takeover,
                        .snapshot = area_.snapshot()},
              k_shared_, prng_));
    base_ = decode<AreaSnapshot>(area_.snapshot());
  }
  /// A membership change, and the delta that replicates it.
  Bytes next_delta(std::uint64_t version) {
    area_.join(next_++, prng_);
    return wrap(StateDelta{.takeover_epoch = 0,
                           .delta = area_.delta_from(base_, version)},
                k_shared_, prng_);
  }
  void send_heartbeat(std::uint64_t version) {
    send(wrap(Heartbeat{.ts = net_.now(), .sync_version = version}));
  }
  void run_for(net::SimDuration d) { net_.run_until(net_.now() + d); }

  net::Network net_;
  crypto::SymmetricKey k_shared_{Bytes(16, 0x33)};
  crypto::Prng prng_{21};
  PrimaryStub primary_;
  std::unique_ptr<AreaController> standby_;
  LiveArea area_;
  AreaSnapshot base_;
  ClientId next_ = 7;
};

TEST_F(StandbyTest, AHeartbeatOvertakingItsSyncCostsNoPull) {
  send_full(1);
  run_for(net::msec(10));
  // The primary syncs and its heartbeat leaves in the same instant; the
  // smaller heartbeat lands first and names a version not yet held.
  Bytes delta = next_delta(2);
  send_heartbeat(2);
  run_for(net::usec(30));
  send(std::move(delta));
  run_for(5 * kInterval);
  EXPECT_EQ(primary_.pulls, 0u);
  EXPECT_EQ(standby_->last_synced_snapshot(), area_.snapshot());
}

TEST_F(StandbyTest, ReorderedDeltasApplyWithoutAPull) {
  send_full(1);
  run_for(net::msec(10));
  Bytes second = next_delta(2);
  Bytes third = next_delta(3);
  Bytes fourth = next_delta(4);
  send(fourth);
  run_for(net::usec(30));
  send(third);
  run_for(net::usec(30));
  send(second);
  run_for(5 * kInterval);
  EXPECT_EQ(primary_.pulls, 0u);
  EXPECT_EQ(standby_->last_synced_snapshot(), area_.snapshot());
}

TEST_F(StandbyTest, ALostDeltaCostsOnePullWithinTwoIntervals) {
  send_full(1);
  run_for(net::msec(10));
  (void)next_delta(2);  // lost
  send(next_delta(3));  // held: its base never arrives
  run_for(2 * kInterval);
  EXPECT_EQ(primary_.pulls, 1u);
  EXPECT_NE(standby_->last_synced_snapshot(), area_.snapshot());
  send_full(4);  // the primary answers the pull
  run_for(5 * kInterval);
  EXPECT_EQ(primary_.pulls, 1u);
  EXPECT_EQ(standby_->last_synced_snapshot(), area_.snapshot());
}

TEST_F(StandbyTest, AHeartbeatPastTheLastSyncCostsOnePull) {
  send_full(1);
  run_for(net::msec(10));
  (void)next_delta(2);  // lost, and nothing follows it
  send_heartbeat(2);
  run_for(net::msec(10));
  EXPECT_EQ(primary_.pulls, 0u);  // it might still be in flight
  run_for(2 * kInterval);
  EXPECT_EQ(primary_.pulls, 1u);
}

TEST_F(StandbyTest, AnOlderSyncNeverStepsTheStandbyBack) {
  Bytes older = wrap(StateSync{.version = 1, .takeover_epoch = 0,
                               .snapshot = area_.snapshot()},
                     k_shared_, prng_);
  area_.join(next_++, prng_);
  send_full(2);
  run_for(net::usec(30));
  send(std::move(older));  // the earlier sync, overtaken
  run_for(5 * kInterval);
  EXPECT_EQ(standby_->last_synced_snapshot(), area_.snapshot());
  EXPECT_EQ(primary_.pulls, 0u);
}

TEST_F(StandbyTest, AStaleDeltaIsIgnored) {
  send_full(1);
  run_for(net::msec(10));
  Bytes second = next_delta(2);
  send_full(3);  // a pull answered before the delta arrived
  run_for(net::msec(10));
  send(second);
  run_for(5 * kInterval);
  EXPECT_EQ(standby_->last_synced_snapshot(), area_.snapshot());
  EXPECT_EQ(primary_.pulls, 0u);
}

TEST(DeltaReplication, APrimaryAnswersARivalsDeltaWithAPull) {
  // Only the sealed full exchange settles a split brain: a delta reaching
  // a primary is treated as a rival's heartbeat.
  net::NetworkConfig cfg;
  cfg.jitter = 0;
  net::Network net(cfg);
  crypto::Prng keys(3);
  crypto::RsaKeyPair pair = crypto::rsa_generate(512, keys);
  crypto::SymmetricKey k_shared(Bytes(16, 0x44));
  AreaController primary(kAcIdBase + 1, MykilConfig{}, pair, k_shared,
                         pair.pub, crypto::Prng(4));
  PrimaryStub rival;
  net.attach(primary);
  net.attach(rival);
  primary.open_area(net);
  crypto::Prng prng(5);
  AreaDelta delta;
  delta.version = 1;
  net.unicast(rival.id(), primary.id(), kRepl,
              wrap(StateDelta{.takeover_epoch = 9, .delta = delta}, k_shared,
                   prng));
  net.run_until(net.now() + net::msec(5));
  EXPECT_EQ(rival.pulls, 1u);
  EXPECT_EQ(primary.role(), AreaController::Role::kPrimary);
}

TEST(DeltaReplication, ADroppedDeltaCostsExactlyOneFullSnapshot) {
  // A real primary and standby: one delta lost on the link, the next one
  // held, one pull, one full snapshot, and deltas again after it.
  net::NetworkConfig cfg;
  cfg.jitter = 0;
  net::Network net(cfg);
  obs::MetricsRegistry metrics;
  net.set_metrics(&metrics);
  GroupOptions opts;
  opts.seed = 3;
  opts.with_backups = true;
  opts.config.batching = false;
  opts.config.heartbeat_interval = net::msec(100);
  MykilGroup group(net, opts);
  group.add_area();
  group.finalize();
  std::vector<std::unique_ptr<Member>> members;
  for (ClientId c = 1; c <= 4; ++c) {
    members.push_back(group.make_member(c, net::sec(3600)));
    group.join_member(*members.back(), net::sec(3600));
  }
  group.settle(net::msec(500));
  AreaController& primary = group.ac(0);
  AreaController& standby = *group.backup(0);
  ASSERT_EQ(standby.last_synced_snapshot(), primary.replication_snapshot());
  auto full = [&](const char* reason) {
    const obs::Counter* c =
        metrics.find_counter(std::string("ac.repl_full.") + reason);
    return c == nullptr ? 0 : c->value();
  };
  EXPECT_EQ(full("request"), 0u);
  EXPECT_GT(metrics.find_counter("ac.repl_delta")->value(), 0u);

  net.block_link(primary.id(), standby.id());
  members[0]->leave();
  group.settle(net::msec(1));
  net.unblock_link(primary.id(), standby.id());
  members[1]->leave();
  group.settle(net::msec(210));  // two heartbeat intervals, and the reply
  EXPECT_EQ(full("request"), 1u);
  EXPECT_EQ(standby.last_synced_snapshot(), primary.replication_snapshot());
  members[2]->leave();
  group.settle(net::sec(1));
  EXPECT_EQ(full("request"), 1u);
  EXPECT_EQ(standby.last_synced_snapshot(), primary.replication_snapshot());
}

}  // namespace
}  // namespace mykil::core
