// One seat in an area's key tree: the member side of the area's key stream
// (DESIGN.md 9.2).
//
// Section III-A makes a child AC a member of its parent's area, so a seat
// has two kinds of owner: a Member holds one in its AC's area, a non-root
// AreaController one in its parent's (its uplink). The seat keeps the AC's
// id, node and group, the path keys, the rekey-epoch cursor, the
// key-recovery exchange and the alive/silence clocks, and the rules that
// move them. It never touches the network: the owner hands it what arrived,
// sends what it returns, and adds its own follow-up.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "crypto/data_plane.h"
#include "crypto/prng.h"
#include "crypto/rsa.h"
#include "lkh/member_state.h"
#include "mykil/config.h"
#include "mykil/directory.h"
#include "mykil/messages.h"
#include "net/message.h"

namespace mykil::core {

class AreaSeat {
 public:
  AreaSeat() = default;
  /// Aimed at `ac`, holding no keys yet: an uplink join in flight.
  AreaSeat(AcId ac, net::NodeId node, net::GroupId group, net::SimTime now)
      : ac_(ac), node_(node), group_(group), last_heard_(now) {}
  /// Restored from a checkpoint.
  AreaSeat(AcId ac, net::NodeId node, net::GroupId group, std::uint64_t epoch,
           lkh::MemberKeyState keys)
      : ac_(ac), node_(node), group_(group), keys_(std::move(keys)),
        epoch_(epoch) {}

  /// Point at `ac` before its keys arrive (join step 5).
  void aim(AcId ac, net::NodeId node) {
    ac_ = ac;
    node_ = node;
  }
  /// Take the seat from a join, rejoin or uplink reply: `path` replaces
  /// every held key, the cursor moves to `epoch`, a pending recovery ends.
  void enter(AcId ac, net::NodeId node, net::GroupId group,
             const std::vector<lkh::PathKey>& path, std::uint64_t epoch,
             net::SimTime now);
  void clear_keys() { keys_.clear(); }

  // Alive and silence clocks (Section IV-A).
  void heard(net::SimTime now) { last_heard_ = now; }
  void sent(net::SimTime now) { last_sent_ = now; }
  /// The ARQ layer gave up on `to`: if that is the AC, zero the silence
  /// clock so the owner's next liveness check acts.
  void unreachable(net::NodeId to) {
    if (to == node_) last_heard_ = 0;
  }
  [[nodiscard]] bool silent(net::SimTime now, const MykilConfig& config) const {
    return now - last_heard_ > config.ac_silence_limit();
  }
  /// The alive message `self` owes the AC after t_active without sending.
  std::optional<Bytes> alive_due(ClientId self, net::SimTime now,
                                 const MykilConfig& config);

  /// A rekey's outcome: `entries` keys applied, or the recovery trigger.
  struct Rekeyed {
    bool applied = false;
    std::size_t entries = 0;
    const char* recover = nullptr;  ///< "rekey-gap" or "stale-key"
  };
  /// A rekey multicast on the seat's group, signed by the AC. With reliable
  /// control the epoch cursor drops duplicates and detects lost rekeys;
  /// without it every rekey is applied blindly.
  Rekeyed apply_rekey(const AcDirectory& directory, const net::Message& msg,
                      const EnvelopeView& env, const MykilConfig& config);
  /// A split update sealed to us. Unsigned and not fresh: it is taken only
  /// from the nodes the directory lists for the AC.
  void install_key_path(const AcDirectory& directory, net::NodeId from,
                        const EnvelopeView& env,
                        const crypto::RsaPrivateKey& self_priv);

  /// A KeyRecoveryRequest from `self` under a fresh nonce; nullopt without
  /// reliable control or within key_recovery_interval of the last one.
  std::optional<Bytes> request_recovery(ClientId self, net::SimTime now,
                                        const MykilConfig& config,
                                        crypto::Prng& prng);
  /// A KeyRecoveryReply signed by the AC, naming it and echoing our nonce.
  /// True when it completed the recovery.
  bool accept_recovery_reply(const AcDirectory& directory,
                             const EnvelopeView& env,
                             const crypto::RsaPrivateKey& self_priv);
  void cancel_recovery() { recovery_pending_ = false; }
  /// An idle beacon from the AC past our cursor: we lost the final rekey
  /// of a burst, which no later rekey would reveal.
  [[nodiscard]] bool beacon_gap(const Alive& alive) const {
    const auto* beacon = std::get_if<AliveBeacon>(&alive.from);
    return beacon != nullptr && beacon->ac_id == ac_ && beacon->epoch > epoch_;
  }

  /// A data packet's key box (its K_d) sealed under the group key.
  [[nodiscard]] Bytes seal_data_key(ByteView data_key,
                                    crypto::Prng& prng) const {
    return data_plane_.get(keys_.group_key()).seal(data_key, prng);
  }
  /// A data packet's K_d, its key box opened under the group key, else the
  /// one before it: a sender may race a rotation. nullopt if neither opens
  /// it or it holds no key. Allocates nothing once both contexts are built.
  [[nodiscard]] std::optional<crypto::SymmetricKey> open_data_key(
      ByteView box) const {
    return data_plane_.open_key(box, keys_.group_key(),
                                keys_.previous_group_key());
  }

  /// Follow a TakeOver (Section IV-C) that is fresh — a replay must not
  /// point anyone at a node demoted since — and signed by the named area:
  /// the directory lists the announced node as that area's primary, and a
  /// `seat` in that area addresses it. `seat` may be null.
  static void follow_takeover(AcDirectory& directory, AreaSeat* seat,
                              const EnvelopeView& env, net::SimTime now,
                              const MykilConfig& config);

  [[nodiscard]] AcId ac_id() const { return ac_; }
  [[nodiscard]] net::NodeId node() const { return node_; }
  [[nodiscard]] net::GroupId group() const { return group_; }
  [[nodiscard]] const lkh::MemberKeyState& keys() const { return keys_; }
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }
  [[nodiscard]] bool recovery_pending() const { return recovery_pending_; }
  [[nodiscard]] net::SimTime recovery_started() const {
    return recovery_started_;
  }

 private:
  AcId ac_ = kNoAc;
  net::NodeId node_ = net::kNoNode;
  net::GroupId group_ = 0;
  lkh::MemberKeyState keys_;
  std::uint64_t epoch_ = 0;  ///< rekey-stream position
  bool recovery_pending_ = false;
  std::uint64_t recovery_nonce_ = 0;
  net::SimTime last_recovery_request_ = 0;
  net::SimTime recovery_started_ = 0;
  net::SimTime last_heard_ = 0;
  net::SimTime last_sent_ = 0;
  /// Filling it is invisible to callers, hence mutable.
  mutable crypto::DataPlaneCache data_plane_;
};

}  // namespace mykil::core
