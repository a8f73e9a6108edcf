#include "mykil/records.h"

#include "crypto/sha256.h"
#include "lkh/key_tree.h"

namespace mykil::core {

namespace {

/// A roster entry's replicated fields; the clocks start over at a standby.
AreaMember replicated(const AreaMember& m) {
  return {.node = m.node, .pubkey = m.pubkey, .sealed_ticket = m.sealed_ticket,
          .valid_until = m.valid_until};
}

}  // namespace

AreaDelta area_delta(const AreaSnapshot& base, net::GroupId area_group,
                     AcId parent, std::uint64_t rekey_epoch,
                     const lkh::KeyTree& tree,
                     const std::map<ClientId, AreaMember>& members) {
  AreaDelta d;
  d.area_group = area_group;
  d.parent = parent;
  d.rekey_epoch = rekey_epoch;
  d.tree = tree.delta_since(base.tree);
  // Both rosters are ordered by client id: one merged walk.
  auto old = base.members.begin();
  for (const auto& [cid, rec] : members) {
    for (; old != base.members.end() && old->first < cid; ++old)
      d.removed.insert(d.removed.end(), old->first);
    bool same = old != base.members.end() && old->first == cid &&
                old->second.fields() == rec.fields();
    if (old != base.members.end() && old->first == cid) ++old;
    if (!same) d.members.emplace_hint(d.members.end(), cid, replicated(rec));
  }
  for (; old != base.members.end(); ++old)
    d.removed.insert(d.removed.end(), old->first);
  return d;
}

void apply(AreaSnapshot& snapshot, const AreaDelta& delta) {
  snapshot.tree = lkh::KeyTree::apply_delta(snapshot.tree, delta.tree);
  snapshot.area_group = delta.area_group;
  snapshot.parent = delta.parent;
  snapshot.rekey_epoch = delta.rekey_epoch;
  for (ClientId cid : delta.removed) snapshot.members.erase(cid);
  for (const auto& [cid, rec] : delta.members)
    snapshot.members.insert_or_assign(cid, rec);
}

Checkpoint Checkpoint::of(CheckpointHeader header, const CheckpointBody& body) {
  Checkpoint ck{.header = std::move(header), .body = encode(body)};
  ck.header.digest = crypto::Sha256::digest(ck.body);
  return ck;
}

void Checkpoint::validate() const {
  if (crypto::Sha256::digest(body) != header.digest)
    throw ProtocolError("checkpoint digest does not match its body");
}

}  // namespace mykil::core
