#include "lkh/key_tree.h"

#include <algorithm>

#include "common/error.h"
#include "common/wire.h"
#include "crypto/sealed.h"

namespace mykil::lkh {

namespace {

/// serialize()'s bytes cut at its parts: views into the image.
struct Image {
  ByteView config;  ///< fanout and the two policy flags
  std::vector<ByteView> nodes;
  ByteView free_list;  ///< its count, then the indices
};

/// A node record's bytes besides its children: parent, child count, key,
/// version, occupant, depth and subtree count.
constexpr std::size_t kNodeFixedBytes =
    4 + 1 + crypto::SymmetricKey::kSize + 8 + 8 + 2 + 4;

/// A node record as serialize() writes it, its children after the child
/// count. Every link must name one of `count` nodes.
ByteView take_node(WireReader& r, std::uint32_t count) {
  ByteView head = r.take(5);
  std::size_t children = head[4];
  ByteView tail = r.take(4 * children + kNodeFixedBytes - head.size());
  ByteView record(head.data(), head.size() + tail.size());
  WireReader links(record);
  NodeIndex parent = links.u32();
  if (parent != kNoNodeIndex && parent >= count)
    throw WireError("parent index out of range");
  links.u8();
  for (std::size_t c = 0; c < children; ++c)
    if (links.u32() >= count) throw WireError("child index out of range");
  return record;
}

/// Reads a node count, rejecting one the bytes left cannot hold.
std::uint32_t read_node_count(WireReader& r) {
  std::uint32_t count = r.u32();
  if (count > r.remaining() / kNodeFixedBytes)
    throw WireError("node count exceeds buffer");
  return count;
}

Image split(ByteView image) {
  WireReader r(image);
  Image out;
  out.config = r.take(3);
  r.u64();  // the epoch
  std::uint32_t count = read_node_count(r);
  out.nodes.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i)
    out.nodes.push_back(take_node(r, count));
  out.free_list = r.rest();
  return out;
}

}  // namespace

KeyTree::KeyTree(Config config, crypto::Prng prng)
    : config_(config), prng_(std::move(prng)) {
  if (config_.fanout < 2) throw ProtocolError("KeyTree fanout must be >= 2");
  TreeNode root;
  root.key = crypto::SymmetricKey::random(prng_);
  root.depth = 0;
  nodes_.push_back(std::move(root));
  free_leaves_.insert({0, 0});
}

const crypto::SymmetricKey& KeyTree::root_key() const { return nodes_[0].key; }

void KeyTree::refresh_key(NodeIndex n) {
  nodes_[n].key = crypto::SymmetricKey::random(prng_);
  ++nodes_[n].version;
}

void KeyTree::bump_counters(NodeIndex leaf, int delta) {
  for (NodeIndex n = leaf;; n = nodes_[n].parent) {
    nodes_[n].subtree_members =
        static_cast<std::uint32_t>(static_cast<int>(nodes_[n].subtree_members) + delta);
    if (n == 0) break;
  }
}

RekeyMessage KeyTree::rotate_root() {
  // E_oldroot(newroot): by convention, an entry whose encrypted_under
  // equals its target is sealed with that node's previous key.
  crypto::SymmetricKey old_root = nodes_[0].key;
  refresh_key(0);
  RekeyMessage msg;
  msg.epoch = ++epoch_;
  RekeyEntry e;
  e.target = 0;
  e.version = nodes_[0].version;
  e.encrypted_under = 0;
  e.box = crypto::sym_seal(old_root, nodes_[0].key.bytes(), prng_);
  msg.entries.push_back(std::move(e));
  return msg;
}

std::vector<PathKey> KeyTree::path_of_leaf(NodeIndex leaf) const {
  std::vector<PathKey> path;
  for (NodeIndex n = leaf;; n = nodes_[n].parent) {
    path.push_back({n, nodes_[n].version, nodes_[n].key});
    if (n == 0) break;
  }
  std::reverse(path.begin(), path.end());  // root first
  return path;
}

KeyTree::JoinOutcome KeyTree::join(MemberId m) {
  if (m == kNoMember) throw ProtocolError("invalid member id");
  if (leaf_of_.contains(m)) throw ProtocolError("member already in tree");

  JoinOutcome out;

  // Backward secrecy: rotate the group key before the newcomer sees it.
  if (config_.rekey_root_on_join && member_count() > 0) {
    out.multicast = rotate_root();
  }

  if (!free_leaves_.empty()) {
    // Reuse a vacant leaf — with a FRESH key: the previous occupant still
    // knows the old leaf key and must not be able to read future rekey
    // entries encrypted under it.
    auto it = free_leaves_.begin();
    NodeIndex leaf = it->second;
    free_leaves_.erase(it);
    refresh_key(leaf);
    nodes_[leaf].member = m;
    occupied_leaves_.insert({nodes_[leaf].depth, leaf});
    leaf_of_[m] = leaf;
    bump_counters(leaf, +1);
    out.leaf = leaf;
  } else {
    // Tree full: split the shallowest, leftmost occupied leaf (III-C). A
    // pruned tree its last member left has none; it splits its shallowest
    // vacated leaf, and the newcomer takes a fresh child there.
    NodeIndex split_node = kNoNodeIndex;
    if (!occupied_leaves_.empty()) {
      split_node = occupied_leaves_.begin()->second;
      occupied_leaves_.erase(occupied_leaves_.begin());
    } else {
      for (NodeIndex n = 0; n < nodes_.size(); ++n)
        if (is_leaf(n) && (split_node == kNoNodeIndex ||
                           nodes_[n].depth < nodes_[split_node].depth))
          split_node = n;
    }

    MemberId moved = nodes_[split_node].member;
    nodes_[split_node].member = kNoMember;

    std::uint16_t child_depth =
        static_cast<std::uint16_t>(nodes_[split_node].depth + 1);
    NodeIndex first_child = static_cast<NodeIndex>(nodes_.size());
    for (unsigned c = 0; c < config_.fanout; ++c) {
      TreeNode child;
      child.parent = split_node;
      child.key = crypto::SymmetricKey::random(prng_);
      child.depth = child_depth;
      nodes_.push_back(std::move(child));
      nodes_[split_node].children.push_back(first_child + c);
    }

    // Child 0: the moved member, if any. Child 1: the newcomer. Rest:
    // vacant.
    NodeIndex moved_leaf = first_child;
    NodeIndex new_leaf = first_child + 1;
    nodes_[new_leaf].member = m;
    leaf_of_[m] = new_leaf;
    occupied_leaves_.insert({child_depth, new_leaf});
    for (unsigned c = 2; c < config_.fanout; ++c)
      free_leaves_.insert({child_depth, first_child + c});
    bump_counters(new_leaf, +1);

    if (moved == kNoMember) {
      free_leaves_.insert({child_depth, moved_leaf});
    } else {
      nodes_[moved_leaf].member = moved;
      leaf_of_[moved] = moved_leaf;
      occupied_leaves_.insert({child_depth, moved_leaf});
      // The moved member kept its subtree count at split_node; re-home
      // the counter one level down.
      nodes_[moved_leaf].subtree_members = 1;
      out.split = true;
      out.split_member = moved;
      out.split_member_update.push_back(
          {moved_leaf, nodes_[moved_leaf].version, nodes_[moved_leaf].key});
    }
    out.leaf = new_leaf;
  }

  out.member_path = path_of_leaf(out.leaf);
  return out;
}

RekeyMessage KeyTree::leave(MemberId m) {
  MemberId ms[1] = {m};
  return do_leave(ms);
}

RekeyMessage KeyTree::leave_batch(std::span<const MemberId> members) {
  return do_leave(members);
}

RekeyMessage KeyTree::do_leave(std::span<const MemberId> members) {
  // Phase 1: vacate every departing leaf, collect affected ancestors.
  std::set<std::pair<std::uint16_t, NodeIndex>> affected;  // (depth, node)
  for (MemberId m : members) {
    auto it = leaf_of_.find(m);
    if (it == leaf_of_.end()) throw ProtocolError("leave: member not in tree");
    NodeIndex leaf = it->second;
    bump_counters(leaf, -1);
    nodes_[leaf].member = kNoMember;
    occupied_leaves_.erase({nodes_[leaf].depth, leaf});
    leaf_of_.erase(it);

    if (config_.prune_on_leave) {
      // Classic-LKH ablation mode: the vacated leaf is never reused.
      // (Nodes are kept in the vector for index stability; the leaf is
      // simply not added to the free list.)
    } else {
      free_leaves_.insert({nodes_[leaf].depth, leaf});
    }

    // Every key from the leaf's parent to the root is compromised.
    for (NodeIndex n = nodes_[leaf].parent; n != kNoNodeIndex;
         n = nodes_[n].parent) {
      affected.insert({nodes_[n].depth, n});
      if (n == 0) break;
    }
    if (leaf == 0) {
      // Degenerate single-member tree where the root is the leaf.
      affected.insert({0, 0});
    }
  }

  // Phase 2: refresh affected keys bottom-up (deepest first) and emit one
  // entry per (affected node, live child). Children processed before their
  // parents already hold their new key, matching Fig. 6's E_K12'(K6') shape.
  RekeyMessage msg;
  msg.epoch = ++epoch_;
  for (auto it = affected.rbegin(); it != affected.rend(); ++it) {
    NodeIndex n = it->second;
    refresh_key(n);
    for (NodeIndex c : nodes_[n].children) {
      if (nodes_[c].subtree_members == 0) continue;  // nobody holds this key
      RekeyEntry e;
      e.target = n;
      e.version = nodes_[n].version;
      e.encrypted_under = c;
      e.box = crypto::sym_seal(nodes_[c].key, nodes_[n].key.bytes(), prng_);
      msg.entries.push_back(std::move(e));
    }
  }
  return msg;
}

std::size_t KeyTree::depth_of(MemberId m) const {
  auto it = leaf_of_.find(m);
  if (it == leaf_of_.end()) throw ProtocolError("depth_of: member not in tree");
  return nodes_[it->second].depth;
}

std::size_t KeyTree::max_depth() const {
  std::size_t d = 0;
  for (const TreeNode& n : nodes_) d = std::max<std::size_t>(d, n.depth);
  return d;
}

std::size_t KeyTree::keys_held_by(MemberId m) const { return depth_of(m) + 1; }

std::vector<PathKey> KeyTree::path_keys(MemberId m) const {
  auto it = leaf_of_.find(m);
  if (it == leaf_of_.end()) throw ProtocolError("path_keys: member not in tree");
  return path_of_leaf(it->second);
}

Bytes KeyTree::serialize() const {
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(config_.fanout));
  w.u8(config_.prune_on_leave ? 1 : 0);
  w.u8(config_.rekey_root_on_join ? 1 : 0);
  w.u64(epoch_);
  w.u32(static_cast<std::uint32_t>(nodes_.size()));
  for (const TreeNode& n : nodes_) {
    w.u32(n.parent);
    w.u8(static_cast<std::uint8_t>(n.children.size()));
    for (NodeIndex c : n.children) w.u32(c);
    w.raw(n.key.bytes());
    w.u64(n.version);
    w.u64(n.member);
    w.u16(n.depth);
    w.u32(n.subtree_members);
  }
  // occupied_leaves_/leaf_of_ are derivable from the nodes; the free set is
  // serialized explicitly because prune mode excludes vacated leaves.
  w.u32(static_cast<std::uint32_t>(free_leaves_.size()));
  for (const auto& [depth, idx] : free_leaves_) w.u32(idx);
  return w.take();
}

KeyTree KeyTree::deserialize(ByteView data, crypto::Prng prng) {
  WireReader r(data);
  Config cfg;
  cfg.fanout = r.u8();
  cfg.prune_on_leave = r.u8() != 0;
  cfg.rekey_root_on_join = r.u8() != 0;
  KeyTree t(cfg, std::move(prng));
  t.nodes_.clear();
  t.free_leaves_.clear();
  t.epoch_ = r.u64();
  std::uint32_t count = read_node_count(r);
  t.nodes_.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    TreeNode n;
    n.parent = r.u32();
    std::uint8_t nchildren = r.u8();
    for (std::uint8_t c = 0; c < nchildren; ++c) n.children.push_back(r.u32());
    // check_invariants follows these links: each must name a node.
    if (n.parent != kNoNodeIndex && n.parent >= count)
      throw WireError("parent index out of range");
    for (NodeIndex c : n.children)
      if (c >= count) throw WireError("child index out of range");
    n.key = crypto::SymmetricKey(r.take(crypto::SymmetricKey::kSize));
    n.version = r.u64();
    n.member = r.u64();
    n.depth = r.u16();
    n.subtree_members = r.u32();
    t.nodes_.push_back(std::move(n));
  }
  std::uint32_t nfree = r.u32();
  std::vector<NodeIndex> free_list;
  for (std::uint32_t i = 0; i < nfree; ++i) free_list.push_back(r.u32());
  r.expect_done();
  // Rebuild the derived indices.
  for (NodeIndex i = 0; i < t.nodes_.size(); ++i) {
    const TreeNode& n = t.nodes_[i];
    if (!n.children.empty()) continue;
    if (n.member != kNoMember) {
      t.leaf_of_[n.member] = i;
      t.occupied_leaves_.insert({n.depth, i});
    }
  }
  for (NodeIndex idx : free_list) {
    if (idx >= t.nodes_.size()) throw WireError("free leaf index out of range");
    t.free_leaves_.insert({t.nodes_[idx].depth, idx});
  }
  t.check_invariants();
  return t;
}

Bytes KeyTree::delta_since(ByteView base) const {
  Bytes now = serialize();
  Image before = split(base);
  Image after = split(now);
  std::vector<NodeIndex> changed;
  for (NodeIndex i = 0; i < after.nodes.size(); ++i)
    if (i >= before.nodes.size() ||
        !std::ranges::equal(before.nodes[i], after.nodes[i]))
      changed.push_back(i);
  WireWriter w;
  w.u64(epoch_);
  w.u32(static_cast<std::uint32_t>(after.nodes.size()));
  w.u32(static_cast<std::uint32_t>(changed.size()));
  for (NodeIndex i : changed) {
    w.u32(i);
    w.raw(after.nodes[i]);
  }
  w.raw(after.free_list);
  return w.take();
}

Bytes KeyTree::apply_delta(ByteView base, ByteView delta) {
  Image tree = split(base);
  WireReader r(delta);
  std::uint64_t epoch = r.u64();
  std::uint32_t count = r.u32();
  std::uint32_t changed = read_node_count(r);
  if (count < tree.nodes.size()) throw WireError("a key tree never shrinks");
  if (count - tree.nodes.size() > changed)
    throw WireError("new nodes missing from the delta");
  std::size_t old_count = tree.nodes.size();
  tree.nodes.resize(count);
  for (std::uint32_t k = 0, last = 0; k < changed; ++k) {
    NodeIndex i = r.u32();
    if (i >= count) throw WireError("node index out of range");
    if (k > 0 && i <= last) throw WireError("node indices out of order");
    last = i;
    tree.nodes[i] = take_node(r, count);
  }
  for (std::size_t i = old_count; i < count; ++i)
    if (tree.nodes[i].empty()) throw WireError("new nodes missing from the delta");
  std::uint32_t nfree = r.u32();
  if (nfree != r.remaining() / 4 || r.remaining() % 4 != 0)
    throw WireError("free list does not fill the delta");
  WireWriter w;
  w.raw(tree.config);
  w.u64(epoch);
  w.u32(count);
  for (ByteView node : tree.nodes) w.raw(node);
  w.u32(nfree);
  for (std::uint32_t k = 0; k < nfree; ++k) {
    NodeIndex i = r.u32();
    if (i >= count) throw WireError("free leaf index out of range");
    w.u32(i);
  }
  return w.take();
}

void KeyTree::check_invariants() const {
  std::size_t members_seen = 0;
  for (NodeIndex n = 0; n < nodes_.size(); ++n) {
    const TreeNode& node = nodes_[n];
    if (n != 0 && node.parent == kNoNodeIndex)
      throw ProtocolError("non-root node without parent");
    if (n != 0 && nodes_[node.parent].depth + 1 != node.depth)
      throw ProtocolError("depth inconsistent with parent");
    for (NodeIndex c : node.children) {
      if (nodes_[c].parent != n) throw ProtocolError("child parent mismatch");
    }
    if (!node.children.empty() && node.children.size() != config_.fanout)
      throw ProtocolError("internal node with wrong fanout");
    if (node.member != kNoMember) {
      if (!node.children.empty()) throw ProtocolError("occupied internal node");
      auto it = leaf_of_.find(node.member);
      if (it == leaf_of_.end() || it->second != n)
        throw ProtocolError("leaf_of map out of sync");
      ++members_seen;
    }
    // subtree_members must equal occupied leaves beneath.
    std::uint32_t expect = node.member != kNoMember ? 1 : 0;
    for (NodeIndex c : node.children) expect += nodes_[c].subtree_members;
    if (node.subtree_members != expect)
      throw ProtocolError("subtree member counter out of sync");
  }
  if (members_seen != leaf_of_.size())
    throw ProtocolError("member count mismatch");
  for (const auto& [depth, n] : free_leaves_) {
    if (!nodes_[n].children.empty() || nodes_[n].member != kNoMember)
      throw ProtocolError("free_leaves_ contains non-vacant node");
    if (nodes_[n].depth != depth) throw ProtocolError("free leaf depth stale");
  }
  for (const auto& [depth, n] : occupied_leaves_) {
    if (nodes_[n].member == kNoMember)
      throw ProtocolError("occupied_leaves_ contains vacant node");
    if (nodes_[n].depth != depth)
      throw ProtocolError("occupied leaf depth stale");
  }
}

}  // namespace mykil::lkh
