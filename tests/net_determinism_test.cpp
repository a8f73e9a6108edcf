// Scheduler-overhaul guarantees: the slab/heap event queue preserves the
// seeded delivery order exactly (digest-compared across runs), timer
// cancellation leaves no residue, and multicast fan-out shares one payload
// buffer instead of copying per receiver.
// The parallel-engine section at the bottom pins the sharded scheduler's
// core promise: the delivery schedule is bit-identical for every worker
// count and to a one-shard run, including under cross-shard ties,
// mid-window fault injection, and the counter-mode PRF the jitter/drop
// coins draw from.
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "crypto/prng.h"
#include "net/network.h"

namespace mykil::net {
namespace {

/// FNV-1a over the full delivery stream: (time, to, label name, payload).
/// Any reordering, relabeling, or payload change produces a new digest.
class DigestNode : public Node {
 public:
  explicit DigestNode(std::uint64_t* digest) : digest_(digest) {}

  void on_message(const Message& msg) override {
    mix(network().now());
    mix(id());
    for (char c : msg.label.name()) mix(static_cast<std::uint8_t>(c));
    for (std::uint8_t b : msg.payload.view()) mix(b);
  }
  void on_timer(std::uint64_t token) override {
    mix(network().now());
    mix(token);
  }

 private:
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      *digest_ ^= (v >> (8 * i)) & 0xFF;
      *digest_ *= 0x100000001B3ull;
    }
  }
  std::uint64_t* digest_;
};

constexpr std::uint64_t kFnvOffset = 0xCBF29CE484222325ull;

/// A fixed jitter+loss workload: multicasts, unicasts, timers, a crash and
/// a cancel, all scheduled identically each call. Only the seed varies.
std::uint64_t run_workload(std::uint64_t seed) {
  NetworkConfig cfg;
  cfg.seed = seed;
  cfg.drop_probability = 0.1;  // exercises the per-delivery coin
  Network net(cfg);
  std::uint64_t digest = kFnvOffset;

  std::deque<DigestNode> nodes;
  for (int i = 0; i < 16; ++i) net.attach(nodes.emplace_back(&digest));
  GroupId g = net.create_group();
  for (NodeId i = 0; i < 12; ++i) net.join_group(g, i);

  for (int round = 0; round < 30; ++round) {
    net.multicast(0, g, "mc", Bytes(64, static_cast<std::uint8_t>(round)));
    net.unicast(1, 13, "uc", Bytes(16, static_cast<std::uint8_t>(round)));
    auto t1 = net.set_timer(2, usec(100 + round), 7);
    net.set_timer(3, usec(50), 8);
    if (round % 3 == 0) net.cancel_timer(t1);
    if (round == 10) net.crash(14);
    if (round == 20) net.recover(14);
    net.run_until(net.now() + usec(500));
  }
  net.run();
  return digest;
}

TEST(Determinism, SameSeedSameDeliveryDigest) {
  EXPECT_EQ(run_workload(42), run_workload(42));
  EXPECT_EQ(run_workload(7), run_workload(7));
}

TEST(Determinism, DifferentSeedDifferentDigest) {
  // Jitter + drop coins differ, so the streams must diverge.
  EXPECT_NE(run_workload(42), run_workload(43));
}

TEST(Determinism, EqualTimeDeliveriesKeepSendOrder) {
  NetworkConfig cfg;
  cfg.jitter = 0;
  cfg.per_byte_latency_us = 0;  // every send lands at the same instant
  Network net(cfg);

  struct OrderNode : Node {
    void on_message(const Message& msg) override {
      order->push_back(msg.payload.view()[0]);
    }
    std::vector<std::uint8_t>* order = nullptr;
  };
  std::vector<std::uint8_t> order;
  OrderNode a, b;
  a.order = b.order = &order;
  net.attach(a);
  net.attach(b);
  for (std::uint8_t i = 0; i < 50; ++i)
    net.unicast(a.id(), b.id(), "t", Bytes(1, i));
  net.run();
  ASSERT_EQ(order.size(), 50u);
  for (std::uint8_t i = 0; i < 50; ++i) EXPECT_EQ(order[i], i);
}

class SilentNode : public Node {
 public:
  void on_message(const Message&) override {}
  void on_timer(std::uint64_t) override {}
};

TEST(TimerCancellation, CancelHeavyChurnLeavesNoResidue) {
  // ARQ-shaped churn: arm a retransmit timer, cancel it when the "ack"
  // arrives, repeat. The old std::set bookkeeping kept one entry per
  // cancel-after-fire forever; the slot scheme must end the run empty.
  Network net;
  SilentNode n;
  net.attach(n);

  std::vector<Network::TimerId> armed;
  for (int round = 0; round < 2000; ++round) {
    Network::TimerId t = net.set_timer(0, usec(100), 1);
    armed.push_back(t);
    // Half the timers are cancelled while pending (the ack arrived in
    // time); every round also re-cancels an already-fired timer (a late
    // ack), which must be a no-op, not a leak.
    if (round % 2 == 0) net.cancel_timer(t);
    if (armed.size() >= 3) net.cancel_timer(armed[armed.size() - 3]);
    net.run_until(net.now() + usec(300));
  }
  net.run();
  EXPECT_EQ(net.cancelled_timers_pending(), 0u);
  EXPECT_EQ(net.queued_events(), 0u);
  // The slab is bounded by peak queue depth (a handful of in-flight
  // timers), not by the 2000 timers scheduled over the run.
  EXPECT_LT(net.event_pool_slots(), 64u);
}

TEST(TimerCancellation, StaleIdOnRecycledSlotIsIgnored) {
  Network net;
  SilentNode n;
  net.attach(n);
  auto first = net.set_timer(0, usec(10), 1);
  net.run();  // fires; its slot returns to the free list
  auto second = net.set_timer(0, usec(10), 2);
  net.cancel_timer(first);  // stale id, same slot: must not touch `second`
  EXPECT_EQ(net.cancelled_timers_pending(), 0u);
  net.cancel_timer(second);
  EXPECT_EQ(net.cancelled_timers_pending(), 1u);
  net.run();
  EXPECT_EQ(net.cancelled_timers_pending(), 0u);
  (void)first;
}

class Capture : public Node {
 public:
  void on_message(const Message& msg) override { got.push_back(msg); }
  std::vector<Message> got;
};

TEST(ZeroCopyFanout, MulticastSharesOnePayloadBuffer) {
  NetworkConfig cfg;
  cfg.jitter = 0;
  Network net(cfg);
  std::vector<Capture> nodes(8);
  for (auto& n : nodes) net.attach(n);
  GroupId g = net.create_group();
  for (NodeId i = 0; i < 8; ++i) net.join_group(g, i);

  net.multicast(0, g, "mc", Bytes(1024, 0x5A));
  net.run();

  const std::uint8_t* buf = nullptr;
  std::size_t receivers = 0;
  for (auto& n : nodes) {
    for (const Message& m : n.got) {
      ++receivers;
      EXPECT_EQ(m.payload.size(), 1024u);
      if (buf == nullptr)
        buf = m.payload.data();
      else
        EXPECT_EQ(m.payload.data(), buf);  // same buffer, not a copy
    }
  }
  EXPECT_EQ(receivers, 7u);  // everyone but the sender
}

TEST(ZeroCopyFanout, StatsRecordCopiedVsExpandedBytes) {
  NetworkConfig cfg;
  cfg.jitter = 0;
  Network net(cfg);
  std::vector<Capture> nodes(10);
  for (auto& n : nodes) net.attach(n);
  GroupId g = net.create_group();
  for (NodeId i = 0; i < 10; ++i) net.join_group(g, i);

  net.multicast(0, g, "mc", Bytes(500, 1));
  net.run();

  // One materialized buffer vs. nine would-be per-receiver copies.
  EXPECT_EQ(net.stats().fanout_copied().messages, 1u);
  EXPECT_EQ(net.stats().fanout_copied().bytes, 500u);
  EXPECT_EQ(net.stats().fanout_expanded().messages, 9u);
  EXPECT_EQ(net.stats().fanout_expanded().bytes, 9u * 500u);
}

TEST(Labels, InternedLabelsResolveAndCompare) {
  Label a{"det-test-label"};
  Label b{"det-test-label"};
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.id(), b.id());
  EXPECT_EQ(a.name(), "det-test-label");
  EXPECT_FALSE(Label::find("det-test-label").empty());
  EXPECT_TRUE(Label::find("det-test-never-interned").empty());
  EXPECT_TRUE(Label{}.empty());
}

/// Callback-driven cross-shard traffic: every received hop forwards to a
/// node five shards away and churns a self-timer, so the schedule is built
/// almost entirely from inside worker-executed callbacks.
///
/// Each node folds ONLY its own observations (a node lives on exactly one
/// shard, so its callbacks are sequential); the workload combines the
/// per-node digests in node-id order AFTER the run. A single shared
/// accumulator would encode the cross-shard interleaving — which is
/// exactly what parallel execution is free to vary.
class HopNode : public Node {
 public:
  explicit HopNode(NodeId peer) : peer_(peer) {}

  void on_message(const Message& msg) override {
    mix(network().now());
    mix(id());
    for (std::uint8_t b : msg.payload.view()) mix(b);
    std::uint8_t hops = msg.payload.view()[0];
    if (hops > 0) network().unicast(id(), peer_, "hop", Bytes(24, hops - 1));
    if (timer_armed_) network().cancel_timer(timer_);
    timer_ = network().set_timer(id(), usec(75), hops);
    timer_armed_ = true;
  }
  void on_timer(std::uint64_t token) override {
    timer_armed_ = false;
    mix(network().now());
    mix(id());
    mix(token);
  }

  [[nodiscard]] std::uint64_t digest() const { return digest_; }

 private:
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      digest_ ^= (v >> (8 * i)) & 0xFF;
      digest_ *= 0x100000001B3ull;
    }
  }
  std::uint64_t digest_ = kFnvOffset;
  NodeId peer_;
  Network::TimerId timer_ = 0;
  bool timer_armed_ = false;
};

std::uint64_t fold_digests(const std::deque<HopNode>& nodes) {
  std::uint64_t d = kFnvOffset;
  for (const HopNode& n : nodes) {
    std::uint64_t v = n.digest();
    for (int i = 0; i < 8; ++i) {
      d ^= (v >> (8 * i)) & 0xFF;
      d *= 0x100000001B3ull;
    }
  }
  return d;
}

/// One run: 12 nodes on `shards` shards, jitter + drop coins live,
/// traffic generated from callbacks, main-thread kicks between windows.
std::uint64_t run_sharded_workload(std::uint64_t seed, unsigned workers,
                                   std::uint32_t shards) {
  NetworkConfig cfg;
  cfg.seed = seed;
  cfg.drop_probability = 0.05;
  Network net(cfg);
  net.set_workers(workers);

  std::deque<HopNode> nodes;
  for (NodeId i = 0; i < 12; ++i) {
    net.attach(nodes.emplace_back((i + 5) % 12));
    net.set_shard(i, i % shards);
  }
  for (int round = 0; round < 6; ++round) {
    for (NodeId i = 0; i < 4; ++i)
      net.unicast(i, (i + 3) % 12, "kick",
                  Bytes(24, static_cast<std::uint8_t>(20 + round)));
    net.run_until(net.now() + usec(700));
  }
  net.run();
  return fold_digests(nodes);
}

TEST(ParallelDeterminism, WorkerCountDoesNotChangeTheDigest) {
  // One shard drains in the global (at, key) order: the reference.
  std::uint64_t reference = run_sharded_workload(42, 1, 1);
  for (unsigned workers : {1u, 2u, 8u})
    EXPECT_EQ(reference, run_sharded_workload(42, workers, 4))
        << "workers=" << workers;
  // And the digest is still seed-sensitive in parallel mode.
  EXPECT_NE(reference, run_sharded_workload(43, 8, 4));
}

/// Mid-window fault injection: run_until cuts inside a conservative window
/// (700us deadline, 200us lookahead), then crash/partition/heal/recover are
/// applied at that exact virtual instant. The schedule downstream of the
/// faults must still be worker-count independent.
std::uint64_t run_fault_workload(unsigned workers, std::uint32_t shards) {
  NetworkConfig cfg;
  cfg.seed = 9;
  Network net(cfg);
  net.set_workers(workers);

  std::deque<HopNode> nodes;
  for (NodeId i = 0; i < 8; ++i) {
    net.attach(nodes.emplace_back((i + 5) % 8));
    net.set_shard(i, i % shards);
  }
  for (NodeId i = 0; i < 4; ++i) net.unicast(i, i + 4, "kick", Bytes(24, 60));
  net.run_until(net.now() + usec(350));  // stops mid-window
  net.crash(3);
  net.set_partition(6, 1);
  net.run_until(net.now() + usec(350));
  net.heal_partitions();
  net.recover(3);
  net.run();
  return fold_digests(nodes);
}

TEST(ParallelDeterminism, FaultsInjectedMidWindowStayDeterministic) {
  std::uint64_t reference = run_fault_workload(1, 1);
  for (unsigned workers : {1u, 2u, 8u})
    EXPECT_EQ(reference, run_fault_workload(workers, 4))
        << "workers=" << workers;
}

/// Two senders on different shards emit equal-time messages at a collector
/// on a third shard. The canonical merge key orders ties by sender id, then
/// per-sender send order — for every worker count.
TEST(ParallelDeterminism, CrossShardTiesBreakBySenderThenSendOrder) {
  struct Fanner : Node {
    void on_message(const Message& msg) override {
      if (msg.label == Label{"go"}) {
        network().unicast(id(), target, "tie", Bytes(8, tag));
        network().unicast(id(), target, "tie",
                          Bytes(8, static_cast<std::uint8_t>(tag + 1)));
      }
    }
    NodeId target = 0;
    std::uint8_t tag = 0;
  };
  struct Collector : Node {
    void on_message(const Message& msg) override {
      order.push_back(msg.payload.view()[0]);
    }
    std::vector<std::uint8_t> order;
  };

  for (unsigned workers : {1u, 2u, 8u}) {
    NetworkConfig cfg;
    cfg.jitter = 0;
    cfg.per_byte_latency_us = 0;  // all four sends land at the same tick
    Network net(cfg);
    net.set_workers(workers);
    Fanner a, b;
    Collector c;
    net.attach(a);
    net.attach(b);
    net.attach(c);
    net.set_shard(a.id(), 1);
    net.set_shard(b.id(), 2);
    net.set_shard(c.id(), 3);
    a.target = b.target = c.id();
    a.tag = 10;
    b.tag = 20;
    // Equal-size "go" messages sent back-to-back arrive simultaneously.
    net.unicast(c.id(), a.id(), "go", Bytes(8, 0));
    net.unicast(c.id(), b.id(), "go", Bytes(8, 0));
    net.run();
    ASSERT_EQ(c.order.size(), 4u) << "workers=" << workers;
    EXPECT_EQ(c.order, (std::vector<std::uint8_t>{10, 11, 20, 21}))
        << "workers=" << workers;
  }
}

// StreamPrf golden values: the (seed, stream, counter) -> bits mapping is
// load-bearing for every recorded same-seed digest (BENCH_chaos.json, the
// chaos regression seeds). If one of these changes, the derivation changed
// and every golden digest in the repo must be regenerated — deliberately.
TEST(StreamPrfGolden, KnownAnswerVectors) {
  crypto::StreamPrf prf(42);
  EXPECT_EQ(prf.u64(0, 0), 0x3e38f58f3ef55542ull);
  EXPECT_EQ(prf.u64(0, 1), 0x36a99571e3ae93b6ull);
  EXPECT_EQ(prf.u64(1, 0), 0x2fb15fbd447ba549ull);
  // Stream id as the simulator derives it: (node+1) << 8 | purpose.
  EXPECT_EQ(prf.u64((7ull << 8) | 1, 3), 0xe332c478086c1d4full);
  crypto::StreamPrf other(43);
  EXPECT_EQ(other.u64(0, 0), 0xd0d4df8b5f9b3548ull);
}

TEST(StreamPrfGolden, DrawsAreOrderIndependent) {
  crypto::StreamPrf prf(42);
  // Interleave arbitrary other draws: coordinates alone determine values.
  (void)prf.u64(99, 1234);
  std::uint64_t ctr = 0;
  EXPECT_EQ(prf.uniform(5, ctr, 1000), 907u);
  EXPECT_EQ(ctr, 1u);
  (void)prf.u64(5, 77);  // same stream, different counter: no interference
  EXPECT_DOUBLE_EQ(prf.uniform_double(5, ctr), 0.75449816955940485);
  EXPECT_EQ(ctr, 2u);
  crypto::StreamPrf again(42);
  std::uint64_t c2 = 0;
  EXPECT_EQ(again.uniform(5, c2, 1000), 907u);
}

}  // namespace
}  // namespace mykil::net
