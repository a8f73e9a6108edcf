#include "iolus/iolus.h"

#include "common/error.h"
#include "common/wire.h"

namespace mykil::iolus {

namespace {

const net::Label kLabelJoin{"iolus-join"};
const net::Label kLabelRekey{"iolus-rekey"};
const net::Label kLabelData{"iolus-data"};

Bytes data_message(std::uint64_t msg_id, const crypto::SymmetricKey& group_key,
                   const crypto::SymmetricKey& data_key, ByteView payload_box,
                   crypto::Prng& prng) {
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(MsgType::kData));
  w.u64(msg_id);
  w.bytes(crypto::sym_seal(group_key, data_key.bytes(), prng));
  w.bytes(payload_box);
  return w.take();
}

/// Open a box under `current`, falling back to `prev`. Returns nullopt if
/// neither key verifies.
std::optional<Bytes> open_with_fallback(
    const crypto::SymmetricKey& current,
    const std::optional<crypto::SymmetricKey>& prev, ByteView box) {
  try {
    return crypto::sym_open(current, box);
  } catch (const AuthError&) {
  }
  if (prev) {
    try {
      return crypto::sym_open(*prev, box);
    } catch (const AuthError&) {
    }
  }
  return std::nullopt;
}

}  // namespace

Gsa::Gsa(MemberId gsa_member_id, crypto::RsaKeyPair keypair, crypto::Prng prng)
    : gsa_member_id_(gsa_member_id),
      keypair_(std::move(keypair)),
      prng_(std::move(prng)),
      subgroup_key_(crypto::SymmetricKey::random(prng_)) {}

void Gsa::open_subgroup(net::Network& net) {
  subgroup_ = net.create_group();
  net.join_group(subgroup_, id());  // the GSA hears its own subgroup
  open_ = true;
}

void Gsa::connect_to_parent(net::NodeId parent) {
  uplink_ = Uplink{};
  uplink_->parent = parent;
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(MsgType::kJoinRequest));
  w.u64(gsa_member_id_);
  w.bytes(keypair_.pub.serialize());
  network().unicast(id(), parent, kLabelJoin, w.take());
}

void Gsa::rekey_for_join() {
  // O(1): multicast the new key under the old one.
  crypto::SymmetricKey old_key = subgroup_key_;
  prev_subgroup_key_ = old_key;
  subgroup_key_ = crypto::SymmetricKey::random(prng_);
  if (members_.empty()) return;
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(MsgType::kRekeyJoin));
  w.bytes(crypto::sym_seal(old_key, subgroup_key_.bytes(), prng_));
  network().multicast(id(), subgroup_, kLabelRekey, w.take());
}

void Gsa::rekey_for_leave() {
  // O(m): one unicast per remaining member under its pairwise key. This is
  // Iolus's leave cost, the comparison point of Fig. 8.
  prev_subgroup_key_ = subgroup_key_;
  subgroup_key_ = crypto::SymmetricKey::random(prng_);
  for (const auto& [mid, rec] : members_) {
    WireWriter w;
    w.u8(static_cast<std::uint8_t>(MsgType::kRekeyLeave));
    w.bytes(crypto::sym_seal(rec.pairwise, subgroup_key_.bytes(), prng_));
    network().unicast(id(), rec.node, kLabelRekey, w.take());
  }
}

void Gsa::handle_join(const net::Message& msg) {
  if (!open_) throw ProtocolError("Gsa subgroup not opened");
  WireReader r(msg.payload);
  (void)r.u8();
  MemberId member = r.u64();
  crypto::RsaPublicKey pub = crypto::RsaPublicKey::deserialize(r.bytes());
  r.expect_done();
  if (members_.contains(member)) return;  // duplicate join

  // Rotate the subgroup key first (backward secrecy), then admit.
  rekey_for_join();

  MemberRecord rec;
  rec.node = msg.from;
  rec.pairwise = crypto::SymmetricKey::random(prng_);
  members_[member] = rec;

  WireWriter inner;
  inner.u32(subgroup_);
  inner.raw(rec.pairwise.bytes());
  inner.raw(subgroup_key_.bytes());
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(MsgType::kJoinReply));
  w.bytes(crypto::pk_encrypt(pub, inner.data(), prng_));
  network().unicast(id(), msg.from, kLabelJoin, w.take());
}

void Gsa::handle_leave(const net::Message& msg) {
  WireReader r(msg.payload);
  (void)r.u8();
  MemberId member = r.u64();
  r.expect_done();
  if (members_.erase(member) == 0) return;  // unknown/duplicate
  rekey_for_leave();
}

void Gsa::forward_data(std::uint64_t msg_id,
                       const crypto::SymmetricKey& data_key,
                       ByteView payload_box, net::GroupId into,
                       const crypto::SymmetricKey& group_key) {
  network().multicast(id(), into, kLabelData,
                      data_message(msg_id, group_key, data_key,
                                   payload_box, prng_));
}

void Gsa::handle_data(const net::Message& msg) {
  WireReader r(msg.payload);
  (void)r.u8();
  std::uint64_t msg_id = r.u64();
  Bytes key_box = r.bytes();
  Bytes payload_box = r.bytes();
  r.expect_done();
  if (!seen_data_.insert(msg_id)) return;  // already forwarded

  // Which side did it arrive on?
  bool from_own = msg.group == subgroup_;
  bool from_parent =
      uplink_ && uplink_->ready && msg.group == uplink_->parent_subgroup;
  if (!from_own && !from_parent) return;

  std::optional<Bytes> data_key_raw;
  if (from_own) {
    data_key_raw = open_with_fallback(subgroup_key_, prev_subgroup_key_, key_box);
  } else {
    data_key_raw = open_with_fallback(uplink_->parent_subgroup_key,
                                      uplink_->prev_parent_subgroup_key, key_box);
  }
  if (!data_key_raw) return;  // key rotated underneath us; drop
  crypto::SymmetricKey data_key(std::move(*data_key_raw));

  // Translate across the boundary: re-encrypt K_d for the other side.
  if (from_own && uplink_ && uplink_->ready) {
    forward_data(msg_id, data_key, payload_box, uplink_->parent_subgroup,
                 uplink_->parent_subgroup_key);
  }
  if (from_parent) {
    forward_data(msg_id, data_key, payload_box, subgroup_, subgroup_key_);
  }
}

void Gsa::handle_uplink_message(const net::Message& msg) {
  WireReader r(msg.payload);
  auto type = static_cast<MsgType>(r.u8());
  switch (type) {
    case MsgType::kJoinReply: {
      Bytes inner = crypto::pk_decrypt(keypair_.priv, r.bytes());
      r.expect_done();
      WireReader ir(inner);
      uplink_->parent_subgroup = ir.u32();
      uplink_->pairwise =
          crypto::SymmetricKey(ir.take(crypto::SymmetricKey::kSize));
      uplink_->parent_subgroup_key =
          crypto::SymmetricKey(ir.take(crypto::SymmetricKey::kSize));
      ir.expect_done();
      network().join_group(uplink_->parent_subgroup, id());
      uplink_->ready = true;
      break;
    }
    case MsgType::kRekeyJoin: {
      auto raw = open_with_fallback(uplink_->parent_subgroup_key,
                                    uplink_->prev_parent_subgroup_key, r.bytes());
      if (raw) {
        uplink_->prev_parent_subgroup_key = uplink_->parent_subgroup_key;
        uplink_->parent_subgroup_key = crypto::SymmetricKey(*raw);
      }
      break;
    }
    case MsgType::kRekeyLeave: {
      try {
        Bytes raw = crypto::sym_open(uplink_->pairwise, r.bytes());
        uplink_->prev_parent_subgroup_key = uplink_->parent_subgroup_key;
        uplink_->parent_subgroup_key = crypto::SymmetricKey(raw);
      } catch (const AuthError&) {
        // Sealed for someone else (e.g. our own subgroup's member reading a
        // different pairwise key) — ignore.
      }
      break;
    }
    default:
      break;
  }
}

void Gsa::on_message(const net::Message& msg) {
  try {
    dispatch(msg);
  } catch (const Error&) {
    // Malformed or hostile input must never crash a controller.
  }
}

void Gsa::dispatch(const net::Message& msg) {
  WireReader r(msg.payload);
  auto type = static_cast<MsgType>(r.u8());
  switch (type) {
    case MsgType::kJoinRequest:
      handle_join(msg);
      break;
    case MsgType::kLeaveRequest:
      handle_leave(msg);
      break;
    case MsgType::kData:
      handle_data(msg);
      break;
    case MsgType::kJoinReply:
      if (uplink_ && !uplink_->ready) handle_uplink_message(msg);
      break;
    case MsgType::kRekeyJoin:
      // Subgroup-key rotation in the parent subgroup (multicast).
      if (uplink_ && uplink_->ready && msg.group == uplink_->parent_subgroup)
        handle_uplink_message(msg);
      break;
    case MsgType::kRekeyLeave:
      if (uplink_ && uplink_->ready) handle_uplink_message(msg);
      break;
  }
}

IolusMember::IolusMember(MemberId member_id, crypto::RsaKeyPair keypair,
                         crypto::Prng prng)
    : member_id_(member_id),
      keypair_(std::move(keypair)),
      prng_(std::move(prng)) {}

void IolusMember::join(net::NodeId gsa) {
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(MsgType::kJoinRequest));
  w.u64(member_id_);
  w.bytes(keypair_.pub.serialize());
  network().unicast(id(), gsa, kLabelJoin, w.take());
}

void IolusMember::leave(net::NodeId gsa) {
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(MsgType::kLeaveRequest));
  w.u64(member_id_);
  network().unicast(id(), gsa, kLabelJoin, w.take());
  if (joined_) network().leave_group(subgroup_, id());
  joined_ = false;
}

const crypto::SymmetricKey& IolusMember::subgroup_key() const {
  if (!joined_) throw ProtocolError("member not joined");
  return subgroup_key_;
}

void IolusMember::send_data(ByteView payload) {
  if (!joined_) throw ProtocolError("send_data before join completed");
  crypto::SymmetricKey data_key = crypto::SymmetricKey::random(prng_);
  Bytes payload_box = crypto::sym_seal(data_key, payload, prng_);
  std::uint64_t msg_id = prng_.next_u64();
  seen_data_.insert(msg_id);  // don't re-consume our own forwarded copy
  network().multicast(id(), subgroup_, kLabelData,
                      data_message(msg_id, subgroup_key_, data_key,
                                   payload_box, prng_));
}

void IolusMember::on_message(const net::Message& msg) {
  try {
    dispatch(msg);
  } catch (const Error&) {
    // Clients must be unconditionally robust to network garbage.
  }
}

void IolusMember::dispatch(const net::Message& msg) {
  WireReader r(msg.payload);
  auto type = static_cast<MsgType>(r.u8());
  switch (type) {
    case MsgType::kJoinReply: {
      Bytes inner = crypto::pk_decrypt(keypair_.priv, r.bytes());
      r.expect_done();
      WireReader ir(inner);
      subgroup_ = ir.u32();
      pairwise_ = crypto::SymmetricKey(ir.take(crypto::SymmetricKey::kSize));
      subgroup_key_ = crypto::SymmetricKey(ir.take(crypto::SymmetricKey::kSize));
      ir.expect_done();
      network().join_group(subgroup_, id());
      joined_ = true;
      break;
    }
    case MsgType::kRekeyJoin: {
      if (!joined_) break;
      auto raw = open_with_fallback(subgroup_key_, prev_subgroup_key_, r.bytes());
      if (raw) {
        prev_subgroup_key_ = subgroup_key_;
        subgroup_key_ = crypto::SymmetricKey(*raw);
      }
      break;
    }
    case MsgType::kRekeyLeave: {
      if (!joined_) break;
      try {
        Bytes raw = crypto::sym_open(pairwise_, r.bytes());
        prev_subgroup_key_ = subgroup_key_;
        subgroup_key_ = crypto::SymmetricKey(raw);
      } catch (const AuthError&) {
        // Not for us (we never see others' unicasts, but be robust).
      }
      break;
    }
    case MsgType::kData: {
      if (!joined_) break;
      std::uint64_t msg_id = r.u64();
      if (!seen_data_.insert(msg_id)) break;
      Bytes key_box = r.bytes();
      Bytes payload_box = r.bytes();
      auto data_key_raw =
          open_with_fallback(subgroup_key_, prev_subgroup_key_, key_box);
      if (!data_key_raw) {
        ++undecryptable_count_;
        break;
      }
      crypto::SymmetricKey data_key(std::move(*data_key_raw));
      received_data_.push_back(crypto::sym_open(data_key, payload_box));
      break;
    }
    default:
      break;
  }
}

}  // namespace mykil::iolus
