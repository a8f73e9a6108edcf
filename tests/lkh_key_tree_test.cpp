// KeyTree: join/leave mechanics, split policy, batching, secrecy properties.
#include <gtest/gtest.h>

#include <set>

#include "common/error.h"
#include "crypto/sealed.h"
#include "lkh/key_tree.h"
#include "lkh/member_state.h"

namespace mykil::lkh {
namespace {

KeyTree make_tree(unsigned fanout = 4, bool prune = false) {
  KeyTree::Config cfg;
  cfg.fanout = fanout;
  cfg.prune_on_leave = prune;
  return KeyTree(cfg, crypto::Prng(42));
}

TEST(KeyTree, StartsEmptyWithRootOnly) {
  KeyTree t = make_tree();
  EXPECT_EQ(t.member_count(), 0u);
  EXPECT_EQ(t.node_count(), 1u);
  EXPECT_EQ(t.max_depth(), 0u);
}

TEST(KeyTree, FanoutBelowTwoRejected) {
  KeyTree::Config cfg;
  cfg.fanout = 1;
  EXPECT_THROW(KeyTree(cfg, crypto::Prng(1)), ProtocolError);
}

TEST(KeyTree, FirstJoinOccupiesRoot) {
  KeyTree t = make_tree();
  auto out = t.join(1);
  EXPECT_EQ(out.leaf, 0u);
  EXPECT_FALSE(out.split);
  EXPECT_TRUE(out.multicast.entries.empty());  // nobody to rekey yet
  ASSERT_EQ(out.member_path.size(), 1u);
  EXPECT_EQ(out.member_path[0].node, 0u);
  EXPECT_EQ(t.member_count(), 1u);
  t.check_invariants();
}

TEST(KeyTree, SecondJoinSplitsRoot) {
  KeyTree t = make_tree(4);
  t.join(1);
  auto out = t.join(2);
  EXPECT_TRUE(out.split);
  EXPECT_EQ(out.split_member, 1u);
  EXPECT_EQ(t.node_count(), 5u);  // root + 4 children
  EXPECT_EQ(t.depth_of(1), 1u);
  EXPECT_EQ(t.depth_of(2), 1u);
  // Root key rotated for member 1: one multicast entry.
  ASSERT_EQ(out.multicast.entries.size(), 1u);
  EXPECT_EQ(out.multicast.entries[0].target, 0u);
  t.check_invariants();
}

TEST(KeyTree, JoinsFillFreeSlotsBeforeSplitting) {
  KeyTree t = make_tree(4);
  t.join(1);
  t.join(2);  // split: creates 4 leaves, 2 free
  t.join(3);
  t.join(4);
  EXPECT_EQ(t.node_count(), 5u);  // no further splits needed
  EXPECT_EQ(t.member_count(), 4u);
  auto out5 = t.join(5);  // now the tree is full again -> split
  EXPECT_TRUE(out5.split);
  EXPECT_EQ(t.node_count(), 9u);
  t.check_invariants();
}

TEST(KeyTree, DuplicateJoinThrows) {
  KeyTree t = make_tree();
  t.join(1);
  EXPECT_THROW(t.join(1), ProtocolError);
}

TEST(KeyTree, UnknownLeaveThrows) {
  KeyTree t = make_tree();
  EXPECT_THROW(t.leave(99), ProtocolError);
}

TEST(KeyTree, JoinRotatesRootKey) {
  KeyTree t = make_tree();
  t.join(1);
  crypto::SymmetricKey before = t.root_key();
  t.join(2);
  EXPECT_FALSE(before == t.root_key());
}

TEST(KeyTree, LeaveRotatesAllPathKeys) {
  KeyTree t = make_tree(2);
  for (MemberId m = 1; m <= 8; ++m) t.join(m);
  crypto::SymmetricKey root_before = t.root_key();
  std::size_t depth = t.depth_of(5);
  RekeyMessage msg = t.leave(5);
  EXPECT_FALSE(root_before == t.root_key());
  // Entries cover every level of the departed path; each internal node on
  // the path emits up to fanout entries (only live children).
  std::set<NodeIndex> targets;
  for (const auto& e : msg.entries) targets.insert(e.target);
  EXPECT_EQ(targets.size(), depth);  // every ancestor incl. root rekeyed
  t.check_invariants();
}

TEST(KeyTree, LeaveKeepsLeafForReuse) {
  KeyTree t = make_tree(4);
  for (MemberId m = 1; m <= 5; ++m) t.join(m);
  std::size_t nodes_before = t.node_count();
  t.leave(3);
  auto out = t.join(100);
  EXPECT_FALSE(out.split);                     // reused the vacated leaf
  EXPECT_EQ(t.node_count(), nodes_before);     // no growth
  t.check_invariants();
}

TEST(KeyTree, PruneModeDoesNotReuseLeaves) {
  KeyTree t = make_tree(4, /*prune=*/true);
  for (MemberId m = 1; m <= 5; ++m) t.join(m);
  // 5 members: root + 4 + 4 = 9 nodes; two never-occupied leaves free.
  t.leave(3);
  t.leave(4);
  std::size_t nodes_before = t.node_count();
  t.join(100);  // consumes pre-split free leaf
  t.join(101);  // consumes the other pre-split free leaf
  t.join(102);  // must split: vacated leaves of 3/4 are not reusable
  EXPECT_GT(t.node_count(), nodes_before);
  t.check_invariants();

  // Contrast: the default (no-prune) tree reuses both vacated leaves.
  KeyTree nt = make_tree(4, /*prune=*/false);
  for (MemberId m = 1; m <= 5; ++m) nt.join(m);
  nt.leave(3);
  nt.leave(4);
  std::size_t nt_before = nt.node_count();
  nt.join(100);
  nt.join(101);
  nt.join(102);
  nt.join(103);
  EXPECT_EQ(nt.node_count(), nt_before);
  nt.check_invariants();
}

// Prune mode never reuses a vacated leaf, so once its last member leaves
// the tree has no free leaf and no occupied one to split. The next join
// must still find a fresh leaf with a fresh key.
TEST(KeyTree, PruneModeJoinAfterTreeEmpties) {
  KeyTree t = make_tree(4, /*prune=*/true);
  const crypto::SymmetricKey first_leaf_key = t.join(1).member_path.back().key;
  t.leave(1);
  ASSERT_EQ(t.member_count(), 0u);

  auto out = t.join(2);
  t.check_invariants();
  EXPECT_TRUE(t.contains(2));
  EXPECT_NE(out.leaf, 0u);  // the vacated root leaf is not reused
  EXPECT_FALSE(out.split);  // nobody was moved
  EXPECT_FALSE(out.member_path.back().key == first_leaf_key);
  EXPECT_TRUE(out.member_path.front().key == t.root_key());

  auto next = t.join(3);
  t.check_invariants();
  EXPECT_EQ(t.member_count(), 2u);
  EXPECT_FALSE(next.split);  // takes a spare sibling of member 2's leaf
}

// Random churn in prune mode that empties the tree again and again.
class KeyTreePruneChurnProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(KeyTreePruneChurnProperty, ChurnThroughEmptyTreeKeepsInvariants) {
  const unsigned fanout = GetParam();
  KeyTree t = make_tree(fanout, /*prune=*/true);
  crypto::Prng rng(fanout);
  std::set<MemberId> present;
  MemberId next = 0;
  int emptied = 0;
  for (int step = 0; step < 300; ++step) {
    if (present.empty() || rng.uniform(100) < 45) {
      auto out = t.join(next);
      EXPECT_TRUE(out.member_path.front().key == t.root_key());
      present.insert(next++);
    } else {
      auto it = present.begin();
      std::advance(it, static_cast<std::ptrdiff_t>(rng.uniform(present.size())));
      t.leave(*it);
      present.erase(it);
      if (present.empty()) ++emptied;
    }
    t.check_invariants();
    ASSERT_EQ(t.member_count(), present.size()) << "step " << step;
  }
  EXPECT_GE(emptied, 5);
}

INSTANTIATE_TEST_SUITE_P(Fanout, KeyTreePruneChurnProperty,
                         ::testing::Values(2u, 4u));

TEST(KeyTree, ReusedLeafGetsFreshKey) {
  KeyTree t = make_tree(4);
  for (MemberId m = 1; m <= 5; ++m) t.join(m);
  auto path3 = t.path_keys(3);
  crypto::SymmetricKey leaf_key_of_3 = path3.back().key;
  t.leave(3);
  auto out = t.join(100);
  EXPECT_FALSE(out.split);
  EXPECT_FALSE(leaf_key_of_3 == out.member_path.back().key);
}

TEST(KeyTree, PathKeysRootFirst) {
  KeyTree t = make_tree(2);
  for (MemberId m = 1; m <= 4; ++m) t.join(m);
  auto path = t.path_keys(2);
  EXPECT_EQ(path.front().node, 0u);
  EXPECT_EQ(path.size(), t.depth_of(2) + 1);
  EXPECT_EQ(t.keys_held_by(2), path.size());
}

TEST(KeyTree, BatchLeaveUpdatesSharedAncestorsOnce) {
  // Fig. 6 scenario: two leaves under nearby subtrees; the shared ancestors
  // (incl. root) must appear once in the batch but twice across two
  // individual leaves.
  KeyTree t1 = make_tree(2);
  KeyTree t2 = make_tree(2);
  for (MemberId m = 1; m <= 16; ++m) {
    t1.join(m);
    t2.join(m);
  }
  MemberId victims[2] = {5, 6};

  RekeyMessage batch = t1.leave_batch(victims);
  std::size_t batch_bytes = batch.wire_size();

  std::size_t serial_bytes =
      t2.leave(victims[0]).wire_size() + t2.leave(victims[1]).wire_size();

  EXPECT_LT(batch_bytes, serial_bytes);

  std::set<NodeIndex> batch_targets;
  for (const auto& e : batch.entries) batch_targets.insert(e.target);
  // Each target appears exactly once as a refreshed key.
  EXPECT_EQ(batch_targets.size(),
            std::set<NodeIndex>(batch_targets).size());
  t1.check_invariants();
  t2.check_invariants();
}

TEST(KeyTree, BatchLeaveOfAllMembersEmptiesTree) {
  KeyTree t = make_tree(4);
  std::vector<MemberId> all;
  for (MemberId m = 1; m <= 10; ++m) {
    t.join(m);
    all.push_back(m);
  }
  RekeyMessage msg = t.leave_batch(all);
  EXPECT_EQ(t.member_count(), 0u);
  // No live children remain anywhere: nothing can receive entries.
  EXPECT_TRUE(msg.entries.empty());
  t.check_invariants();
}

TEST(KeyTree, MemberCanFollowRekeys) {
  KeyTree t = make_tree(4);
  auto out1 = t.join(1);
  MemberKeyState m1;
  m1.install(out1.member_path);
  EXPECT_TRUE(m1.group_key() == t.root_key());

  // Member 2 joins: m1 applies the rotation (and split update if moved).
  auto out2 = t.join(2);
  if (out2.split && out2.split_member == 1) m1.install(out2.split_member_update);
  m1.apply(out2.multicast);
  EXPECT_TRUE(m1.group_key() == t.root_key());

  MemberKeyState m2;
  m2.install(out2.member_path);
  EXPECT_TRUE(m2.group_key() == t.root_key());

  // Member 2 leaves: m1 applies the leave rekey.
  RekeyMessage leave_msg = t.leave(2);
  m1.apply(leave_msg);
  EXPECT_TRUE(m1.group_key() == t.root_key());
}

TEST(KeyTree, EvictedMemberCannotRecoverNewRootKey) {
  KeyTree t = make_tree(4);
  std::vector<MemberKeyState> states(8);
  for (MemberId m = 0; m < 8; ++m) {
    auto out = t.join(m);
    states[m].install(out.member_path);
    for (MemberId prev = 0; prev < m; ++prev) {
      if (out.split && out.split_member == prev)
        states[prev].install(out.split_member_update);
      states[prev].apply(out.multicast);
    }
  }
  // Member 3 is evicted; everyone applies the rekey, including (the
  // attacker simulation) member 3's stale state.
  RekeyMessage msg = t.leave(3);
  for (MemberId m = 0; m < 8; ++m) {
    if (m == 3) {
      EXPECT_EQ(states[3].apply(msg), 0u) << "evicted member decrypted a key";
      EXPECT_FALSE(states[3].group_key() == t.root_key());
    } else {
      EXPECT_GT(states[m].apply(msg), 0u);
      EXPECT_TRUE(states[m].group_key() == t.root_key());
    }
  }
}

TEST(KeyTree, LateJoinerCannotReadOldRootKey) {
  KeyTree t = make_tree(4);
  auto out1 = t.join(1);
  MemberKeyState m1;
  m1.install(out1.member_path);
  crypto::SymmetricKey old_root = t.root_key();

  auto out2 = t.join(2);  // rotates root
  MemberKeyState m2;
  m2.install(out2.member_path);
  EXPECT_FALSE(m2.group_key() == old_root);  // backward secrecy
}

// Property sweep over random churn: structure stays consistent and a
// tracked member always ends with the live root key.
class KeyTreeChurnProperty
    : public ::testing::TestWithParam<std::tuple<unsigned, std::uint64_t>> {};

TEST_P(KeyTreeChurnProperty, RandomChurnPreservesInvariants) {
  auto [fanout, seed] = GetParam();
  KeyTree::Config cfg;
  cfg.fanout = fanout;
  KeyTree t(cfg, crypto::Prng(seed));
  crypto::Prng rng(seed ^ 0xABCD);

  std::set<MemberId> present;
  MemberId next = 0;
  for (int step = 0; step < 400; ++step) {
    bool do_join = present.empty() || rng.uniform(100) < 55;
    if (do_join) {
      t.join(next);
      present.insert(next);
      ++next;
    } else {
      auto it = present.begin();
      std::advance(it, static_cast<std::ptrdiff_t>(rng.uniform(present.size())));
      t.leave(*it);
      present.erase(it);
    }
  }
  t.check_invariants();
  EXPECT_EQ(t.member_count(), present.size());
  for (MemberId m : present) {
    EXPECT_TRUE(t.contains(m));
    EXPECT_EQ(t.path_keys(m).front().node, 0u);
  }
}

TEST_P(KeyTreeChurnProperty, TrackedMemberFollowsAllRekeys) {
  auto [fanout, seed] = GetParam();
  KeyTree::Config cfg;
  cfg.fanout = fanout;
  KeyTree t(cfg, crypto::Prng(seed));
  crypto::Prng rng(seed ^ 0x1234);

  // Member 0 joins first and stays; we replay every rekey to its state.
  auto out0 = t.join(0);
  MemberKeyState tracked;
  tracked.install(out0.member_path);

  std::set<MemberId> others;
  MemberId next = 1;
  for (int step = 0; step < 200; ++step) {
    if (others.empty() || rng.uniform(100) < 55) {
      auto out = t.join(next);
      if (out.split && out.split_member == 0)
        tracked.install(out.split_member_update);
      tracked.apply(out.multicast);
      others.insert(next);
      ++next;
    } else {
      auto it = others.begin();
      std::advance(it, static_cast<std::ptrdiff_t>(rng.uniform(others.size())));
      tracked.apply(t.leave(*it));
      others.erase(it);
    }
    ASSERT_TRUE(tracked.group_key() == t.root_key()) << "step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(
    FanoutAndSeed, KeyTreeChurnProperty,
    ::testing::Combine(::testing::Values(2u, 3u, 4u, 8u),
                       ::testing::Values(7u, 1337u)));

TEST(KeyTree, DepthScalesLogarithmically) {
  KeyTree t = make_tree(4);
  for (MemberId m = 0; m < 1024; ++m) t.join(m);
  // A perfectly balanced 4-ary tree of 1024 members has depth 5.
  EXPECT_LE(t.max_depth(), 6u);
  EXPECT_GE(t.max_depth(), 5u);
}

TEST(KeyTree, LeaveRekeySizeMatchesFanoutDepthFormula) {
  // Section V-C: leave rekey entries ~ fanout x depth boxes (minus the
  // vacated leaf and empty subtrees).
  KeyTree t = make_tree(2);
  for (MemberId m = 0; m < 64; ++m) t.join(m);  // full binary tree, depth 6
  RekeyMessage msg = t.leave(10);
  // depth 6: root..leaf-parent = 6 updated nodes, each with 2 children,
  // minus the vacated leaf's entry = 11.
  EXPECT_EQ(msg.entries.size(), 11u);
}

}  // namespace
}  // namespace mykil::lkh
