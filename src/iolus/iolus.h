// Iolus baseline (Mittra, SIGCOMM'97): group-based hierarchy of subgroups.
//
// The multicast group is split into subgroups, each run by a Group Security
// Agent (GSA). Subgroups form a tree: a child GSA is an ordinary member of
// its parent's subgroup, so it holds both subgroup keys and can re-encrypt
// traffic across the boundary. Key facts the paper's evaluation relies on:
//
//   - every member shares a pairwise secret key with its GSA,
//   - join: the GSA multicasts E_old(new subgroup key) — O(1),
//   - leave: the GSA unicasts E_pairwise_i(new subgroup key) to each of the
//     m remaining members — O(m), the 80 KB-per-leave figure of Section V-C,
//   - data: the sender picks a random key K_d, multicasts
//     {E_subgroup(K_d), E_Kd(payload)}; GSAs translate E_subgroup(K_d)
//     between subgroups and re-forward, so the payload is encrypted once.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "common/id_set.h"
#include "crypto/rsa.h"
#include "crypto/sealed.h"
#include "net/network.h"

namespace mykil::iolus {

using MemberId = std::uint64_t;

enum class MsgType : std::uint8_t {
  kJoinRequest = 1,
  kJoinReply = 2,
  kRekeyJoin = 3,   ///< multicast: E_old(new subgroup key)
  kRekeyLeave = 4,  ///< unicast per member: E_pairwise(new subgroup key)
  kLeaveRequest = 5,
  kData = 6,
};

/// Group Security Agent: controller of one subgroup; optionally an uplink
/// member of a parent GSA's subgroup (forming the subgroup tree).
class Gsa : public net::Node {
 public:
  Gsa(MemberId gsa_member_id, crypto::RsaKeyPair keypair, crypto::Prng prng);

  /// Create this GSA's subgroup. Call after Network::attach.
  void open_subgroup(net::Network& net);
  /// Join `parent`'s subgroup as a member (builds the tree). The parent
  /// must already be attached and open. Completes asynchronously.
  void connect_to_parent(net::NodeId parent);

  void on_message(const net::Message& msg) override;

  [[nodiscard]] net::GroupId subgroup() const { return subgroup_; }
  [[nodiscard]] std::size_t member_count() const { return members_.size(); }
  [[nodiscard]] const crypto::SymmetricKey& subgroup_key() const {
    return subgroup_key_;
  }
  [[nodiscard]] bool uplink_ready() const { return uplink_.has_value() ? uplink_->ready : true; }

 private:
  void dispatch(const net::Message& msg);
  void handle_join(const net::Message& msg);
  void handle_leave(const net::Message& msg);
  void handle_data(const net::Message& msg);
  void handle_uplink_message(const net::Message& msg);
  void rekey_for_join();
  void rekey_for_leave();
  /// Re-encrypt the data key and forward into `group` (if not the origin).
  void forward_data(std::uint64_t msg_id, const crypto::SymmetricKey& data_key,
                    ByteView payload_box, net::GroupId into,
                    const crypto::SymmetricKey& group_key);

  struct MemberRecord {
    net::NodeId node = net::kNoNode;
    crypto::SymmetricKey pairwise;
  };
  /// Uplink (this GSA as a member of the parent subgroup).
  struct Uplink {
    net::NodeId parent = net::kNoNode;
    bool ready = false;
    net::GroupId parent_subgroup = 0;
    crypto::SymmetricKey parent_subgroup_key;
    std::optional<crypto::SymmetricKey> prev_parent_subgroup_key;
    crypto::SymmetricKey pairwise;  // with parent GSA
  };

  MemberId gsa_member_id_;
  crypto::RsaKeyPair keypair_;
  crypto::Prng prng_;
  net::GroupId subgroup_ = 0;
  bool open_ = false;
  crypto::SymmetricKey subgroup_key_;
  std::optional<crypto::SymmetricKey> prev_subgroup_key_;
  std::map<MemberId, MemberRecord> members_;
  std::optional<Uplink> uplink_;
  IdSet seen_data_;  ///< loop suppression for forwarding
};

/// An ordinary Iolus member.
class IolusMember : public net::Node {
 public:
  IolusMember(MemberId member_id, crypto::RsaKeyPair keypair,
              crypto::Prng prng);

  void join(net::NodeId gsa);
  void leave(net::NodeId gsa);
  /// Pick a random data key K_d, multicast {E_subgroup(K_d), E_Kd(payload)}.
  void send_data(ByteView payload);

  void on_message(const net::Message& msg) override;

  [[nodiscard]] bool joined() const { return joined_; }
  [[nodiscard]] const crypto::SymmetricKey& subgroup_key() const;
  [[nodiscard]] const std::vector<Bytes>& received_data() const {
    return received_data_;
  }
  [[nodiscard]] std::size_t undecryptable_count() const {
    return undecryptable_count_;
  }
  [[nodiscard]] std::size_t keys_held() const {
    // Pairwise + subgroup key: the paper's Section V-A storage figure.
    return joined_ ? 2u : 0u;
  }

 private:
  void dispatch(const net::Message& msg);

  MemberId member_id_;
  crypto::RsaKeyPair keypair_;
  crypto::Prng prng_;
  bool joined_ = false;
  net::GroupId subgroup_ = 0;
  crypto::SymmetricKey subgroup_key_;
  std::optional<crypto::SymmetricKey> prev_subgroup_key_;
  crypto::SymmetricKey pairwise_;
  std::vector<Bytes> received_data_;
  IdSet seen_data_;
  std::size_t undecryptable_count_ = 0;
};

}  // namespace mykil::iolus
