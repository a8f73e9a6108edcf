#include "lkh/member_state.h"

#include <algorithm>

#include "common/error.h"
#include "common/wire.h"
#include "crypto/sealed.h"

namespace mykil::lkh {

void MemberKeyState::install(const std::vector<PathKey>& path) {
  for (const PathKey& pk : path) {
    auto it = keys_.find(pk.node);
    if (it != keys_.end() && it->second.version >= pk.version) continue;
    if (pk.node == 0 && it != keys_.end()) remember_root(it->second);
    keys_[pk.node] = {pk.key, pk.version};
  }
}

void MemberKeyState::reinstall(const std::vector<PathKey>& path) {
  // Version counters are per key-server instance and can regress across a
  // primary/backup takeover, so an authoritative path (a nonce-bound key
  // recovery answer) must not be filtered through them: replace wholesale.
  auto root = keys_.find(0);
  if (root != keys_.end()) remember_root(root->second);
  keys_.clear();
  for (const PathKey& pk : path) keys_[pk.node] = {pk.key, pk.version};
}

std::size_t MemberKeyState::apply(const RekeyMessage& msg) {
  std::size_t updated = 0;
  for (const RekeyEntry& e : msg.entries) {
    auto enc_it = keys_.find(e.encrypted_under);
    if (enc_it == keys_.end()) continue;  // not for us
    auto tgt_it = keys_.find(e.target);
    if (tgt_it != keys_.end() && tgt_it->second.version >= e.version)
      continue;  // already current (duplicate delivery)
    Bytes raw = crypto::sym_open(enc_it->second.key, e.box);
    if (e.target == 0 && tgt_it != keys_.end()) remember_root(tgt_it->second);
    keys_[e.target] = {crypto::SymmetricKey(raw), e.version};
    ++updated;
  }
  return updated;
}

const crypto::SymmetricKey& MemberKeyState::group_key() const {
  auto it = keys_.find(0);
  if (it == keys_.end()) throw ProtocolError("member holds no group key");
  return it->second.key;
}

Bytes MemberKeyState::serialize() const {
  std::vector<NodeIndex> order;
  order.reserve(keys_.size());
  for (const auto& [node, held] : keys_) order.push_back(node);
  std::sort(order.begin(), order.end());
  WireWriter w;
  w.u32(static_cast<std::uint32_t>(order.size()));
  for (NodeIndex node : order) {
    const Held& h = keys_.at(node);
    w.u32(node);
    w.u64(h.version);
    w.bytes(h.key.bytes());
  }
  w.u8(prev_root_.has_value() ? 1 : 0);
  if (prev_root_.has_value()) w.bytes(prev_root_->bytes());
  return w.take();
}

MemberKeyState MemberKeyState::deserialize(ByteView data) {
  WireReader r(data);
  MemberKeyState st;
  std::uint32_t n = r.u32();
  for (std::uint32_t i = 0; i < n; ++i) {
    NodeIndex node = r.u32();
    std::uint64_t version = r.u64();
    st.keys_[node] = {crypto::SymmetricKey(r.view()), version};
  }
  if (r.u8() != 0) st.prev_root_ = crypto::SymmetricKey(r.view());
  r.expect_done();
  return st;
}

std::uint64_t MemberKeyState::version_of(NodeIndex node) const {
  auto it = keys_.find(node);
  if (it == keys_.end()) throw ProtocolError("version_of: key not held");
  return it->second.version;
}

}  // namespace mykil::lkh
