// KeyTree snapshot serialization (the replication payload of Section IV-C).
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/error.h"
#include "common/wire.h"
#include "crypto/sealed.h"
#include "lkh/key_tree.h"
#include "lkh/member_state.h"

namespace mykil::lkh {
namespace {

KeyTree build_tree(unsigned fanout, std::size_t members, std::uint64_t seed) {
  KeyTree::Config cfg;
  cfg.fanout = fanout;
  KeyTree t(cfg, crypto::Prng(seed));
  for (MemberId m = 0; m < members; ++m) t.join(m);
  return t;
}

TEST(KeyTreeSerialize, EmptyTreeRoundTrip) {
  KeyTree::Config cfg;
  KeyTree t(cfg, crypto::Prng(1));
  KeyTree back = KeyTree::deserialize(t.serialize(), crypto::Prng(2));
  EXPECT_EQ(back.member_count(), 0u);
  EXPECT_EQ(back.node_count(), 1u);
  EXPECT_TRUE(back.root_key() == t.root_key());
}

TEST(KeyTreeSerialize, PopulatedTreeRoundTrip) {
  KeyTree t = build_tree(4, 50, 3);
  Bytes snap = t.serialize();
  KeyTree back = KeyTree::deserialize(snap, crypto::Prng(99));

  EXPECT_EQ(back.member_count(), t.member_count());
  EXPECT_EQ(back.node_count(), t.node_count());
  EXPECT_EQ(back.max_depth(), t.max_depth());
  EXPECT_EQ(back.epoch(), t.epoch());
  EXPECT_TRUE(back.root_key() == t.root_key());
  for (MemberId m = 0; m < 50; ++m) {
    ASSERT_TRUE(back.contains(m));
    auto p1 = t.path_keys(m);
    auto p2 = back.path_keys(m);
    ASSERT_EQ(p1.size(), p2.size());
    for (std::size_t i = 0; i < p1.size(); ++i) {
      EXPECT_EQ(p1[i].node, p2[i].node);
      EXPECT_TRUE(p1[i].key == p2[i].key);
      EXPECT_EQ(p1[i].version, p2[i].version);
    }
  }
  back.check_invariants();
}

TEST(KeyTreeSerialize, RoundTripAfterChurn) {
  KeyTree t = build_tree(4, 40, 5);
  for (MemberId m = 0; m < 40; m += 3) t.leave(m);
  for (MemberId m = 100; m < 110; ++m) t.join(m);

  KeyTree back = KeyTree::deserialize(t.serialize(), crypto::Prng(7));
  EXPECT_EQ(back.member_count(), t.member_count());
  back.check_invariants();

  // The restored tree is OPERATIONAL: a member tracked against the
  // original can follow a rekey produced by the restored instance.
  MemberKeyState state;
  state.install(t.path_keys(101));
  RekeyMessage msg = back.leave(104);
  state.apply(msg);
  EXPECT_TRUE(state.group_key() == back.root_key());
}

TEST(KeyTreeSerialize, PruneModeFreeListPreserved) {
  KeyTree::Config cfg;
  cfg.fanout = 4;
  cfg.prune_on_leave = true;
  KeyTree t(cfg, crypto::Prng(11));
  for (MemberId m = 0; m < 9; ++m) t.join(m);
  t.leave(3);  // vacated but NOT reusable in prune mode

  KeyTree back = KeyTree::deserialize(t.serialize(), crypto::Prng(12));
  back.check_invariants();
  // Joining must behave identically in both instances (same split/no-split
  // decision), proving the free list round-tripped exactly.
  auto out1 = t.join(100);
  auto out2 = back.join(100);
  EXPECT_EQ(out1.split, out2.split);
  EXPECT_EQ(out1.leaf, out2.leaf);
}

// wire_size() is computed arithmetically (sizing a candidate batch must not
// materialize it); it must agree byte-for-byte with serialize().
TEST(RekeyWireSize, EmptyMessageMatchesSerializedSize) {
  RekeyMessage msg;
  msg.epoch = 42;
  EXPECT_EQ(msg.wire_size(), msg.serialize().size());
}

TEST(RekeyWireSize, VariedBoxSizesMatchSerializedSize) {
  RekeyMessage msg;
  msg.epoch = 7;
  for (std::size_t len : {0u, 1u, 17u, 48u, 1000u}) {
    RekeyEntry e;
    e.target = static_cast<NodeIndex>(len);
    e.version = len * 3 + 1;
    e.encrypted_under = static_cast<NodeIndex>(len + 1);
    e.box = Bytes(len, 0xAB);
    msg.entries.push_back(std::move(e));
    EXPECT_EQ(msg.wire_size(), msg.serialize().size());
  }
}

TEST(RekeyWireSize, RealTreeRekeysMatchSerializedSize) {
  KeyTree t = build_tree(4, 30, 29);
  RekeyMessage leave_msg = t.leave(11);
  EXPECT_EQ(leave_msg.wire_size(), leave_msg.serialize().size());
  auto join_out = t.join(200);
  EXPECT_EQ(join_out.multicast.wire_size(),
            join_out.multicast.serialize().size());
}

TEST(KeyTreeSerialize, TruncatedSnapshotRejected) {
  KeyTree t = build_tree(4, 10, 13);
  Bytes snap = t.serialize();
  snap.resize(snap.size() / 2);
  EXPECT_THROW(KeyTree::deserialize(snap, crypto::Prng(1)), Error);
}

TEST(KeyTreeSerialize, CorruptFreeIndexRejected) {
  KeyTree t = build_tree(4, 3, 17);
  Bytes snap = t.serialize();
  // The trailing bytes encode the free-leaf list; smash the last index.
  snap[snap.size() - 1] = 0xFF;
  snap[snap.size() - 2] = 0xFF;
  EXPECT_THROW(KeyTree::deserialize(snap, crypto::Prng(1)), Error);
}

class SerializeChurnProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SerializeChurnProperty, SnapshotAtRandomPointsAlwaysConsistent) {
  crypto::Prng rng(GetParam());
  KeyTree::Config cfg;
  cfg.fanout = static_cast<unsigned>(2 + rng.uniform(4));
  KeyTree t(cfg, crypto::Prng(GetParam() * 3 + 1));
  std::set<MemberId> present;
  MemberId next = 0;
  for (int step = 0; step < 150; ++step) {
    if (present.empty() || rng.uniform(100) < 60) {
      t.join(next);
      present.insert(next++);
    } else {
      auto it = present.begin();
      std::advance(it, static_cast<std::ptrdiff_t>(rng.uniform(present.size())));
      t.leave(*it);
      present.erase(it);
    }
    if (step % 37 == 0) {
      KeyTree back = KeyTree::deserialize(t.serialize(), crypto::Prng(step));
      back.check_invariants();
      ASSERT_EQ(back.member_count(), present.size());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerializeChurnProperty,
                         ::testing::Values(21u, 22u, 23u));

// Node-level deltas (the standby's side of DESIGN.md 9.3): applying a delta
// to the image it was taken against rebuilds serialize()'s bytes.

class DeltaChurnProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DeltaChurnProperty, ApplyRebuildsTheSnapshotBytes) {
  crypto::Prng rng(GetParam());
  KeyTree::Config cfg;
  cfg.fanout = static_cast<unsigned>(2 + rng.uniform(4));
  KeyTree t(cfg, crypto::Prng(GetParam() * 5 + 2));
  std::vector<MemberId> present;
  MemberId next = 0;
  Bytes base = t.serialize();
  for (int step = 0; step < 300; ++step) {
    std::uint64_t op = present.empty() ? 0 : rng.uniform(10);
    if (op < 5) {
      t.join(next);
      present.push_back(next++);
    } else if (op < 7) {
      std::size_t i = rng.uniform(present.size());
      t.leave(present[i]);
      present.erase(present.begin() + static_cast<std::ptrdiff_t>(i));
    } else if (op < 9) {
      std::vector<MemberId> batch;
      for (std::size_t i = present.size(); i-- > 0 && batch.size() < 5;)
        if (rng.uniform(3) == 0) {
          batch.push_back(present[i]);
          present.erase(present.begin() + static_cast<std::ptrdiff_t>(i));
        }
      if (!batch.empty()) t.leave_batch(batch);
    } else {
      t.rotate_root();
    }
    // Deltas span one change or several: a standby may hold an older base.
    if (rng.uniform(3) == 0) continue;
    Bytes now = t.serialize();
    Bytes delta = t.delta_since(base);
    ASSERT_EQ(KeyTree::apply_delta(base, delta), now) << "step " << step;
    if (present.size() > 32) {
      EXPECT_LT(delta.size() * 2, now.size());
    }
    base = std::move(now);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeltaChurnProperty,
                         ::testing::Values(31u, 32u, 33u, 34u));

TEST(KeyTreeDelta, ALeaveRewritesOnlyItsPath) {
  KeyTree t = build_tree(4, 64, 5);
  Bytes base = t.serialize();
  std::size_t depth = t.depth_of(17);
  t.leave(17);
  Bytes delta = t.delta_since(base);
  WireReader r(delta);
  r.u64();  // epoch
  EXPECT_EQ(r.u32(), t.node_count());
  EXPECT_EQ(r.u32(), depth + 1);  // the vacated leaf and its ancestors
}

/// Overwrite the u32 at `offset`.
Bytes with_u32(Bytes bytes, std::size_t offset, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    bytes[offset + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(v >> (24 - 8 * i));
  return bytes;
}

TEST(KeyTreeDelta, RejectsOutOfRangeNodeIndices) {
  KeyTree t = build_tree(4, 8, 7);
  Bytes base = t.serialize();
  t.leave(3);
  Bytes delta = t.delta_since(base);
  ASSERT_EQ(KeyTree::apply_delta(base, delta), t.serialize());
  // epoch u64 | node count u32 | changed u32 | index u32, record ... | free
  const auto count = static_cast<std::uint32_t>(t.node_count());
  EXPECT_THROW(KeyTree::apply_delta(base, with_u32(delta, 16, count)),
               WireError);  // a changed node past the last
  EXPECT_THROW(KeyTree::apply_delta(base, with_u32(delta, 20, count)),
               WireError);  // a parent link past the last node
  EXPECT_THROW(KeyTree::apply_delta(base, with_u32(delta, delta.size() - 4,
                                                   count)),
               WireError);  // a free leaf past the last node
  EXPECT_THROW(KeyTree::apply_delta(base, with_u32(delta, 8, count - 1)),
               WireError);  // fewer nodes than the base
  EXPECT_THROW(KeyTree::apply_delta(base, with_u32(delta, 8, count + 1)),
               WireError);  // a new node the delta does not carry
}

}  // namespace
}  // namespace mykil::lkh
