// Server-side logical key hierarchy (LKH, Wong/Gouda/Lam key graphs).
//
// This single data structure backs both:
//   - the LKH baseline's group-wide key tree (one tree for all members), and
//   - Mykil's per-area auxiliary key tree (one tree per area, root = area
//     key), including the paper's Mykil-specific policies: leaves are NOT
//     pruned on leave (Section III-D) and a full tree grows by splitting
//     the shallowest, leftmost leaf into `fanout` children (Section III-C).
//
// The tree owns real key material and produces real ciphertext rekey
// messages (sym_seal boxes), so the member side genuinely decrypts its way
// to the new keys — forward/backward secrecy are testable properties, not
// assumptions.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <vector>

#include "crypto/keys.h"
#include "crypto/prng.h"
#include "lkh/rekey.h"

namespace mykil::lkh {

inline constexpr MemberId kNoMember = 0xFFFFFFFFFFFFFFFF;

class KeyTree {
 public:
  struct Config {
    /// Children per internal node. The paper uses 4 ("a tree structure
    /// with each node having four children provides the best overall
    /// performance"), though its printed byte counts assume 2; both are
    /// reproduced by the benchmarks.
    unsigned fanout = 4;
    /// Mykil does not prune vacated leaves (cheap future joins); classic
    /// LKH implementations may. Kept configurable for the ablation bench.
    bool prune_on_leave = false;
    /// Refresh the root (group/area) key on every join — required for
    /// backward secrecy; disabled only by the batching layer, which
    /// refreshes once per batch instead.
    bool rekey_root_on_join = true;
  };

  /// Result of admitting one member.
  struct JoinOutcome {
    NodeIndex leaf = kNoNodeIndex;
    /// Keys the new member must receive by secure unicast (root..leaf).
    std::vector<PathKey> member_path;
    /// Key update multicast to existing members (may be empty for the
    /// first member or when rekey_root_on_join is off).
    RekeyMessage multicast;
    /// When the tree was full, an existing member was moved down a level;
    /// it must receive its new leaf key by secure unicast.
    bool split = false;
    MemberId split_member = kNoMember;
    std::vector<PathKey> split_member_update;
  };

  KeyTree(Config config, crypto::Prng prng);

  /// Admit member `m`. Throws ProtocolError if already present.
  JoinOutcome join(MemberId m);

  /// Remove member `m`, rekeying every key on its path (root included).
  /// Throws ProtocolError if unknown.
  RekeyMessage leave(MemberId m);

  /// Aggregated leave (Section III-E): every key in the union of the
  /// departing members' paths is updated exactly once.
  RekeyMessage leave_batch(std::span<const MemberId> members);

  /// Rotate only the root (group/area) key: E_oldroot(newroot). Used by the
  /// batching layer to cover a burst of joins with one multicast.
  RekeyMessage rotate_root();

  /// Snapshot the complete tree (structure, keys, versions, occupancy) for
  /// primary-backup replication of an area controller (Section IV-C).
  [[nodiscard]] Bytes serialize() const;
  /// Rebuild a tree from a snapshot. `prng` seeds future key generation.
  static KeyTree deserialize(ByteView data, crypto::Prng prng);
  /// What changed since `base`, a serialize() image of this tree taken
  /// earlier: the epoch, the node count, each node whose serialized record
  /// differs, and the free list. O(changed nodes) bytes: a membership change
  /// rewrites one root-to-leaf path.
  [[nodiscard]] Bytes delta_since(ByteView base) const;
  /// serialize()'s bytes for the tree a delta_since(base) was taken of,
  /// rebuilt from `base`. Throws WireError on a malformed delta, a node
  /// index or link outside the new node count, or a shrinking tree.
  [[nodiscard]] static Bytes apply_delta(ByteView base, ByteView delta);

  [[nodiscard]] const crypto::SymmetricKey& root_key() const;
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }
  [[nodiscard]] std::size_t member_count() const { return leaf_of_.size(); }
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] bool contains(MemberId m) const { return leaf_of_.contains(m); }

  /// Edges from root to the member's leaf.
  [[nodiscard]] std::size_t depth_of(MemberId m) const;
  [[nodiscard]] std::size_t max_depth() const;
  /// Number of keys the member holds (path length incl. root and leaf) —
  /// the paper's per-member storage metric (Section V-A).
  [[nodiscard]] std::size_t keys_held_by(MemberId m) const;

  /// Current keys on the member's path, root first.
  [[nodiscard]] std::vector<PathKey> path_keys(MemberId m) const;

  /// Number of keys stored at the server (every tree node holds one) —
  /// the paper's controller storage metric (Section V-A).
  [[nodiscard]] std::size_t stored_keys() const { return nodes_.size(); }

  /// Structural self-check; throws ProtocolError on violation. Used by the
  /// property tests after random join/leave sequences.
  void check_invariants() const;

 private:
  struct TreeNode {
    NodeIndex parent = kNoNodeIndex;
    std::vector<NodeIndex> children;  // empty => leaf
    crypto::SymmetricKey key;
    std::uint64_t version = 0;
    MemberId member = kNoMember;  // occupant if an occupied leaf
    std::uint16_t depth = 0;
    std::uint32_t subtree_members = 0;
  };

  [[nodiscard]] bool is_leaf(NodeIndex n) const {
    return nodes_[n].children.empty();
  }
  void refresh_key(NodeIndex n);
  void bump_counters(NodeIndex leaf, int delta);
  std::vector<PathKey> path_of_leaf(NodeIndex leaf) const;
  /// Shared implementation of leave/leave_batch.
  RekeyMessage do_leave(std::span<const MemberId> members);

  Config config_;
  crypto::Prng prng_;
  std::uint64_t epoch_ = 0;
  std::vector<TreeNode> nodes_;
  std::map<MemberId, NodeIndex> leaf_of_;
  /// Vacant leaves, shallowest/leftmost first.
  std::set<std::pair<std::uint16_t, NodeIndex>> free_leaves_;
  /// Occupied leaves, shallowest/leftmost first (split candidates).
  std::set<std::pair<std::uint16_t, NodeIndex>> occupied_leaves_;
};

}  // namespace mykil::lkh
