// Simulator edge cases: run control, config validation, shard-local
// timers, the engine profile at every worker count, group dynamics.
#include <gtest/gtest.h>

#include "common/error.h"
#include "net/network.h"

namespace mykil::net {
namespace {

class Counter : public Node {
 public:
  void on_message(const Message&) override { ++messages; }
  void on_timer(std::uint64_t) override { ++timers; }
  int messages = 0;
  int timers = 0;
};

NetworkConfig quiet() {
  NetworkConfig cfg;
  cfg.jitter = 0;
  return cfg;
}

TEST(NetworkEdge, RunReturnsZeroWhenIdle) {
  Network net(quiet());
  Counter a;
  net.attach(a);
  EXPECT_TRUE(net.idle());
  EXPECT_EQ(net.run(), 0u);
  net.set_timer(a.id(), msec(1), 0);
  EXPECT_FALSE(net.idle());
  EXPECT_EQ(net.run(), 1u);
  EXPECT_TRUE(net.idle());
  EXPECT_EQ(net.run(), 0u);
  EXPECT_EQ(a.timers, 1);
}

TEST(NetworkEdge, ZeroBaseLatencyIsRejected) {
  // base_latency is the window width: zero would leave no lookahead.
  EXPECT_THROW(Network(NetworkConfig{.base_latency = 0}), SimError);
}

TEST(NetworkEdge, RunUntilAdvancesClockEvenWithoutEvents) {
  Network net(quiet());
  EXPECT_EQ(net.now(), 0u);
  net.run_until(sec(10));
  EXPECT_EQ(net.now(), sec(10));
}

TEST(NetworkEdge, ClockNeverMovesBackward) {
  Network net(quiet());
  Counter a;
  net.attach(a);
  net.run_until(sec(5));
  net.set_timer(a.id(), msec(1), 0);
  net.run();
  EXPECT_EQ(net.now(), sec(5) + msec(1));
}

TEST(NetworkEdge, SelfUnicastDelivers) {
  Network net(quiet());
  Counter a;
  net.attach(a);
  net.unicast(a.id(), a.id(), "self", Bytes(1, 0));
  net.run();
  EXPECT_EQ(a.messages, 1);
}

TEST(NetworkEdge, MulticastToEmptyGroupIsNoop) {
  Network net(quiet());
  Counter a;
  net.attach(a);
  GroupId g = net.create_group();
  net.multicast(a.id(), g, "mc", Bytes(10, 0));
  net.run();
  EXPECT_EQ(net.stats().recv_total().messages, 0u);
  // The send itself is still accounted (it went out on the wire).
  EXPECT_EQ(net.stats().sent_total().messages, 1u);
}

TEST(NetworkEdge, DoubleJoinGroupIsIdempotent) {
  Network net(quiet());
  Counter a, b;
  net.attach(a);
  net.attach(b);
  GroupId g = net.create_group();
  net.join_group(g, b.id());
  net.join_group(g, b.id());
  EXPECT_EQ(net.group_size(g), 1u);
  net.multicast(a.id(), g, "mc", Bytes(1, 0));
  net.run();
  EXPECT_EQ(b.messages, 1);  // exactly one delivery
}

TEST(NetworkEdge, CrashRecoverIdempotent) {
  Network net(quiet());
  Counter a;
  net.attach(a);
  net.crash(a.id());
  net.crash(a.id());  // second crash: no-op
  net.recover(a.id());
  net.recover(a.id());  // second recover: no-op
  EXPECT_TRUE(net.is_up(a.id()));
}

TEST(NetworkEdge, TimerDuringCrashSuppressedButLaterTimersFire) {
  Network net(quiet());
  Counter a;
  net.attach(a);
  net.set_timer(a.id(), msec(1), 1);
  net.crash(a.id());
  net.run();
  EXPECT_EQ(a.timers, 0);
  net.recover(a.id());
  net.set_timer(a.id(), msec(1), 2);
  net.run();
  EXPECT_EQ(a.timers, 1);
}

TEST(NetworkEdge, ZeroByteMessageDelivered) {
  Network net(quiet());
  Counter a, b;
  net.attach(a);
  net.attach(b);
  net.unicast(a.id(), b.id(), "empty", Bytes{});
  net.run();
  EXPECT_EQ(b.messages, 1);
  EXPECT_EQ(net.stats().recv_total().bytes, 0u);
}

/// Forwards a hop counter to itself until it reaches zero: one event per
/// window on its own shard.
class Chain : public Node {
 public:
  void on_message(const Message& msg) override {
    std::uint8_t left = msg.payload.view()[0];
    if (left > 0)
      network().unicast(id(), id(), "hop",
                        Bytes(1, static_cast<std::uint8_t>(left - 1)));
  }
  void on_timer(std::uint64_t) override {}
};

/// Arms and cancels timers on `peer` from its own handler.
class CrossShardArmer : public Node {
 public:
  void on_message(const Message&) override {
    try {
      network().set_timer(peer, msec(1), 0);
    } catch (const SimError&) {
      ++set_refused;
    }
    try {
      network().cancel_timer(peer_timer);
    } catch (const SimError&) {
      ++cancel_refused;
    }
  }
  void on_timer(std::uint64_t) override {}
  NodeId peer = kNoNode;
  Network::TimerId peer_timer = 0;
  int set_refused = 0;
  int cancel_refused = 0;
};

TEST(NetworkEdge, CrossShardTimerFromCallbackThrowsAtOneWorker) {
  // Timers are shard-local at every worker count: the calling thread may
  // already have drained the other shard past the timer's due time.
  Network net(quiet());
  CrossShardArmer a;
  Counter b;
  net.attach(a);
  net.attach(b);
  net.set_shard(b.id(), 1);
  a.peer = b.id();
  a.peer_timer = net.set_timer(b.id(), sec(1), 7);  // outside the loop: ok
  net.unicast(a.id(), a.id(), "go", Bytes(1, 0));
  net.run();
  EXPECT_EQ(a.set_refused, 1);
  EXPECT_EQ(a.cancel_refused, 1);
  EXPECT_EQ(b.timers, 1);  // the refused cancel left b's timer armed
}

TEST(NetworkEdge, EngineProfileIsFilledAtOneWorker) {
  Network net(quiet());
  net.enable_engine_profile(true);
  Chain a, b;
  net.attach(a);
  net.attach(b);
  net.set_shard(b.id(), 1);
  net.unicast(a.id(), a.id(), "hop", Bytes(1, 200));
  net.unicast(b.id(), b.id(), "hop", Bytes(1, 200));
  net.run();
  EngineProfile p = net.engine_profile();
  EXPECT_GT(p.windows, 0u);
  EXPECT_EQ(p.solo_windows, p.windows);  // no pool: every window is inline
  ASSERT_EQ(p.shards.size(), 2u);
  for (const ShardProfile& sh : p.shards) {
    EXPECT_EQ(sh.events, 201u);
    EXPECT_GT(sh.busy_ms, 0.0);
    EXPECT_EQ(sh.stall_ms, 0.0);  // no barrier, no stall
  }
}

TEST(NetworkEdge, IdleShardsChargeNoBarrierStall) {
  Network net(quiet());
  net.set_workers(2);
  net.enable_engine_profile(true);
  Chain a, b;
  Counter idle;
  net.attach(a);
  net.attach(b);
  net.attach(idle);
  net.set_shard(a.id(), 1);
  net.set_shard(b.id(), 2);
  net.set_shard(idle.id(), 3);
  net.unicast(a.id(), a.id(), "hop", Bytes(1, 200));
  net.unicast(b.id(), b.id(), "hop", Bytes(1, 200));
  net.run();
  EngineProfile p = net.engine_profile();
  ASSERT_EQ(p.shards.size(), 4u);
  EXPECT_LT(p.solo_windows, p.windows);  // the chains shared pool epochs
  EXPECT_EQ(p.shards[1].events, 201u);
  EXPECT_EQ(p.shards[2].events, 201u);
  EXPECT_EQ(p.shards[0].stall_ms, 0.0);
  EXPECT_EQ(p.shards[3].stall_ms, 0.0);
}

}  // namespace
}  // namespace mykil::net
