// Area controller (AC): the per-area authority of Mykil.
//
// Responsibilities (Section III-A): (1) manage the area's cryptographic
// keys via a per-area auxiliary key tree; (2) forward multicast data across
// area boundaries; (3) manage member mobility and failures; (4) maintain
// the auxiliary key tree; (5) manage member join and leave events.
//
// On top of that, this class implements:
//   - the AC half of the join protocol (steps 4, 6, 7 of Fig. 3),
//   - the rejoin protocol (Fig. 7) on both the new-area (AC_B) and
//     old-area (AC_A) sides, including the partitioned-network options,
//   - batching of join/leave rekeys (Section III-E),
//   - failure detection via alive messages (Section IV-A), unilateral
//     member eviction, and parent-switching (Section IV-C),
//   - primary-backup replication with heartbeats and takeover
//     (Section IV-C): construct a second instance with Role::kBackup and
//     point the primary at it via set_backup().
//
// A non-root AC is a member of its parent's area (Section III-A): its
// uplink is an AreaSeat, as a Member's membership is. The AC adds its own
// metrics, the parent switch, and its beacon guard.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "common/id_set.h"
#include "crypto/prng.h"
#include "crypto/rsa.h"
#include "lkh/key_tree.h"
#include "lkh/rekey.h"
#include "mykil/area_seat.h"
#include "mykil/config.h"
#include "mykil/directory.h"
#include "mykil/messages.h"
#include "mykil/records.h"
#include "mykil/ticket.h"
#include "net/arq.h"
#include "net/network.h"

namespace mykil::core {

class AreaController : public net::Node {
 public:
  using Role = AcRole;

  AreaController(AcId ac_id, MykilConfig config, crypto::RsaKeyPair keypair,
                 crypto::SymmetricKey k_shared, crypto::RsaPublicKey rs_pub,
                 crypto::Prng prng, Role role = Role::kPrimary);

  // ---- setup (primary role) ----

  /// Create this AC's area: multicast group + protocol timers.
  /// Call after Network::attach.
  void open_area(net::Network& net);
  /// Install the AC directory (identical content at every AC).
  void set_directory(AcDirectory directory) { directory_ = std::move(directory); }
  /// Where the registration server lives: destination for load reports.
  void set_rs_node(net::NodeId rs) { rs_node_ = rs; }
  /// Preferred parent when a map update activates this (spare) AC.
  void set_parent_hint(AcId parent) { parent_hint_ = parent; }
  /// Join `parent`'s area (Section III-A): this AC becomes a member of the
  /// parent's auxiliary key tree, enabling cross-area data forwarding.
  void connect_to_parent(AcId parent);
  /// Start replicating to a backup instance (heartbeats + state sync).
  void set_backup(net::NodeId backup_node);

  // ---- setup (backup role) ----
  /// Backup instances need only attach + set_directory + start_watchdog;
  /// they learn everything else from state-sync messages.
  void start_watchdog();

  void on_message(const net::Message& msg) override;
  void on_timer(std::uint64_t token) override;
  void on_crash() override;
  void on_recover() override;

  /// Force a batched-rekey flush now (tests/benchmarks; normally triggered
  /// by data arrival or the rekey timer).
  void flush_rekeys();

  /// Toggle Section IV-B's optional cohort check (steps 4-5 of the rejoin
  /// protocol) at runtime — the V-D benchmark measures both variants.
  void set_skip_cohort_check(bool skip) { config_.skip_cohort_check = skip; }

  // ---- introspection ----
  [[nodiscard]] AcId ac_id() const { return ac_id_; }
  [[nodiscard]] Role role() const { return role_; }
  [[nodiscard]] net::GroupId area_group() const { return area_group_; }
  [[nodiscard]] const lkh::KeyTree& tree() const { return *tree_; }
  [[nodiscard]] std::size_t member_count() const { return members_.size(); }
  [[nodiscard]] bool has_member(ClientId c) const { return members_.contains(c); }
  /// Current member roster (includes child ACs joined to this area).
  [[nodiscard]] std::vector<ClientId> member_ids() const {
    std::vector<ClientId> out;
    out.reserve(members_.size());
    for (const auto& [cid, rec] : members_) out.push_back(cid);
    return out;
  }
  [[nodiscard]] const AcDirectory& directory() const { return directory_; }
  /// Whether the current area map lists this AC (spares are dormant until a
  /// split activates them; a merged-away AC goes dormant again).
  [[nodiscard]] bool active_in_map() const {
    return directory_.find(ac_id_) != nullptr;
  }
  [[nodiscard]] bool uplink_ready() const {
    return uplink_ && uplink_->ready;
  }
  [[nodiscard]] AcId parent_ac() const {
    return uplink_ ? uplink_->seat.ac_id() : kNoAc;
  }
  [[nodiscard]] const crypto::RsaPublicKey& public_key() const {
    return keypair_.pub;
  }
  [[nodiscard]] bool update_pending() const {
    return pending_join_rotation_ || !pending_leaves_.empty();
  }
  /// Monotone counter stamped onto every rekey multicast (DESIGN.md 9.2).
  [[nodiscard]] std::uint64_t rekey_epoch() const { return rekey_epoch_; }
  /// Bumped on every promotion; the split-brain tie-breaker (DESIGN.md 9.3).
  [[nodiscard]] std::uint64_t takeover_epoch() const { return takeover_epoch_; }
  /// Current replicable state: the AreaSnapshot record a full sync sends.
  [[nodiscard]] Bytes replication_snapshot() const;
  /// Backup role: the snapshot it holds, every delta received applied, in
  /// replication_snapshot()'s encoding; empty before the first sync.
  [[nodiscard]] Bytes last_synced_snapshot() const;
  [[nodiscard]] const net::ArqEndpoint& arq() const { return arq_; }

  /// Checkpoint the full controller state (role, epochs, directory, tree +
  /// roster via the replication snapshot, departed tickets). See
  /// mykil/checkpoint.h for the restore contract.
  [[nodiscard]] AcState checkpoint_state() const;
  void restore_state(AcState state);

  struct Counters {
    std::uint64_t joins = 0;
    std::uint64_t rejoins = 0;
    std::uint64_t rejoins_denied = 0;
    std::uint64_t evictions = 0;
    std::uint64_t rekey_multicasts = 0;
    std::uint64_t data_forwards = 0;
    std::uint64_t parent_switches = 0;
    std::uint64_t takeovers = 0;
    std::uint64_t demotions = 0;
    std::uint64_t key_recoveries_served = 0;
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }

 private:
  struct PendingRejoin {  ///< step 1/2 done, awaiting step 3
    net::NodeId client_node = net::kNoNode;
    ClientId claimed_nic = 0;
    Ticket ticket;
  };
  struct AwaitingCohortCheck {  ///< step 4 sent to AC_A, awaiting step 5
    net::NodeId client_node = net::kNoNode;
    ClientId claimed_nic = 0;
    Ticket ticket;
    net::Network::TimerId timeout_timer = 0;
    /// Causal context of the client's rejoin, captured at step 3. The
    /// step-4/5 round trip propagates it on the wire, but the TIMEOUT
    /// path resolves the rejoin from a timer callback (empty ambient) —
    /// re-applying this keeps step 6 on the client's flow.
    net::TraceContext trace;
  };
  struct Uplink {
    AreaSeat seat;  ///< our seat in the parent's area
    bool ready = false;  ///< the parent answered our uplink join
    net::SimTime last_attempt = 0;  ///< when the join request went out
  };

  // Message handlers; each reads the envelope on_message parsed, a view
  // into msg.payload.
  void handle_join_step4(const EnvelopeView& env);
  void handle_join_step6(const net::Message& msg, const EnvelopeView& env);
  /// Shared tail of step 6: admit and send step 7.
  void complete_join(std::uint64_t nonce_response, net::NodeId client_node,
                     std::uint64_t nonce_ca);
  void handle_rejoin_step1(const net::Message& msg, const EnvelopeView& env);
  void handle_rejoin_step3(const EnvelopeView& env);
  void handle_rejoin_step4(const net::Message& msg, const EnvelopeView& env);
  void handle_rejoin_step5(const EnvelopeView& env);
  void handle_uplink_join(const net::Message& msg, const EnvelopeView& env);
  void handle_uplink_reply(const EnvelopeView& env);
  void handle_alive(const net::Message& msg, const EnvelopeView& env);
  void handle_data(const net::Message& msg, const EnvelopeView& env);
  void handle_leave_request(const net::Message& msg, const EnvelopeView& env);
  void handle_state_sync(const net::Message& msg, const EnvelopeView& env);
  void handle_state_delta(const net::Message& msg, const EnvelopeView& env);
  void handle_state_sync_request(const net::Message& msg);
  void handle_heartbeat(const net::Message& msg, const EnvelopeView& env);
  /// Demoted-primary courtesy: re-announce the takeover, unicast, to a
  /// member that still addresses us (it missed the original multicast).
  void redirect_to_primary(const net::Message& msg);
  void handle_key_recovery_request(const net::Message& msg,
                                   const EnvelopeView& env);
  void handle_area_map_update(const net::Message& msg, const EnvelopeView& env);
  void handle_migrate_request(const EnvelopeView& env);

  // internals
  /// Admit `client` into the tree and area; returns the unicast path keys.
  std::vector<lkh::PathKey> admit(ClientId client, net::NodeId node,
                                  ByteView pubkey);
  void schedule_leave(ClientId client);
  /// Compose the wire epoch: (takeover_epoch_ << 40) | rekey counter —
  /// strictly monotone across takeovers (DESIGN.md 9.2).
  [[nodiscard]] std::uint64_t stream_epoch(std::uint64_t rekey) const;
  /// Stamp `msg` with the next rekey epoch, sign, and multicast it into the
  /// area, with tracing/metrics (`batched_leaves` > 0 when the rekey
  /// collapses a leave batch).
  void emit_rekey(lkh::RekeyMessage msg, std::size_t batched_leaves);
  void multicast_area(net::Label label, Bytes payload);
  void send_alive_if_idle();
  void scan_members();
  void check_parent_liveness();
  void switch_parent();
  void finish_rejoin(std::uint64_t k_id, const AwaitingCohortCheck& s,
                     bool cohort_confirmed_gone);
  void admit_rejoin(const AwaitingCohortCheck& s);
  void deny_rejoin(const AwaitingCohortCheck& s);
  /// Replicate to the standby (DESIGN.md 9.3): the delta since the last
  /// sync, or the whole area when `full_reason` says why the standby needs
  /// it ("new-backup", "request", "promotion", "adoption", "restore").
  void sync_backup(const char* full_reason = nullptr);
  /// Make `standby` our standby: heartbeats, then the whole area.
  void replicate_to(net::NodeId standby, const char* full_reason);
  /// Standby: whether a sync at (takeover epoch, version) is newer than the
  /// snapshot held; an older one is a late duplicate, never a step back.
  [[nodiscard]] bool newer_than_held(std::uint64_t takeover,
                                     std::uint64_t version) const;
  /// Standby: apply the early deltas that chain onto the snapshot held,
  /// drop those it has passed, and start or stop the gap clock.
  void apply_early_deltas();
  /// Take over the area a snapshot describes: tree, roster, group, uplink.
  void load_snapshot(AreaSnapshot snapshot);
  void promote_to_primary();
  /// Step down after losing the split-brain tie-break (DESIGN.md 9.3).
  void demote_to_backup(net::NodeId new_primary);
  void start_primary_timers();
  /// Ask the parent for a sealed catch-up of OUR path in its tree.
  void request_uplink_recovery(const char* trigger);
  /// Report this area's load (members, rekey epoch) to the RS.
  void send_load_report();
  /// Hand up to migrate_batch members a signed migrate directive; re-armed
  /// on a timer while quota remains.
  void issue_migrate_directives();
  /// How long a directed member gets to complete its move before the
  /// directive expires. Half the eviction horizon: long enough for a rejoin
  /// with retries, short enough that a lost rejoin confirmation does not
  /// leave the member dual-owned for a full silence window on top.
  [[nodiscard]] net::SimDuration migrate_window() const {
    return config_.member_silence_limit() / 2;
  }
  /// React to our own activation/deactivation after adopting a new map.
  void apply_map_transition(bool was_active);
  /// Lazy ARQ setup (the network is only known after attach).
  void ensure_arq();
  /// Unicast control traffic through the ARQ layer.
  void send_ctrl(net::NodeId to, net::Label label, Bytes payload);
  [[nodiscard]] std::uint64_t timer_token(std::uint64_t kind) const;
  [[nodiscard]] Bytes issue_ticket(ClientId client, ByteView pubkey,
                                   net::SimTime join_time,
                                   net::SimTime valid_until);
  [[nodiscard]] bool ts_fresh(net::SimTime ts) const {
    return config_.ts_fresh(ts, network().now());
  }

  AcId ac_id_;
  MykilConfig config_;
  crypto::RsaKeyPair keypair_;
  crypto::SymmetricKey k_shared_;
  crypto::RsaPublicKey rs_pub_;
  crypto::Prng prng_;
  Role role_;

  std::optional<lkh::KeyTree> tree_;
  net::GroupId area_group_ = 0;
  bool open_ = false;
  AcDirectory directory_;

  std::map<ClientId, AreaMember> members_;
  std::map<ClientId, Bytes> departed_tickets_;  ///< for rejoin confirmations
  /// RS introductions (step 4) awaiting the client's step 6, by Nonce_AC+2.
  std::map<std::uint64_t, JoinStep4> pending_joins_;
  /// Step 6 can overtake the RS's step-4 introduction under reordering;
  /// park it until the introduction arrives. Keyed by Nonce_AC+2.
  struct EarlyStep6 {
    net::NodeId client_node = net::kNoNode;
    std::uint64_t nonce_ca = 0;
  };
  std::map<std::uint64_t, EarlyStep6> early_step6_;
  std::map<std::uint64_t, PendingRejoin> pending_rejoins_;  // by Nonce_BC+1
  std::map<std::uint64_t, AwaitingCohortCheck> awaiting_cohort_;  // by K_id

  std::optional<Uplink> uplink_;
  IdSet seen_data_;
  /// Area key before the most recent rotation: senders race rekeys.
  std::optional<crypto::SymmetricKey> prev_area_key_;
  /// Sealing contexts of the area key and prev_area_key_.
  crypto::DataPlaneCache area_data_plane_;
  /// One-shot rejoin-timeout timers: token -> K_id of the awaited check.
  static constexpr std::uint64_t kRejoinTokenBase = 1000;
  std::map<std::uint64_t, std::uint64_t> rejoin_timeout_tokens_;
  std::uint64_t next_timer_token_ = kRejoinTokenBase;

  // batching state
  bool pending_join_rotation_ = false;
  std::vector<lkh::MemberId> pending_leaves_;
  net::SimTime last_area_tx_ = 0;
  net::SimTime last_member_scan_ = 0;
  net::SimTime last_fresh_rekey_ = 0;

  // replication
  net::NodeId backup_node_ = net::kNoNode;
  /// The other replica of this area, whatever its current role: the standby
  /// we sync to as a primary, or the primary we watch as a backup. Promotion
  /// re-points replication at this node (the one we displaced).
  net::NodeId peer_node_ = net::kNoNode;
  net::SimTime last_heartbeat_rx_ = 0;
  /// The area as the standby holds it: for a primary, what it last sent
  /// (the base of its next delta); for a standby, what it received.
  std::optional<AreaSnapshot> synced_;
  /// Incremented per sync_backup; carried in heartbeats so the backup can
  /// detect a missed sync and pull the whole area (DESIGN.md 9.3).
  std::uint64_t sync_version_ = 0;
  /// Backup role: version of synced_.
  std::uint64_t peer_sync_version_ = 0;
  /// Backup role: what the primary sent or announced beyond synced_.
  struct SyncGap {
    /// Deltas that arrived before their base, by (takeover epoch, base
    /// version); at most kMaxEarlyDeltas, the nearest kept.
    std::map<std::pair<std::uint64_t, std::uint64_t>, AreaDelta> early;
    std::uint64_t announced = 0;  ///< the newest version a heartbeat named
    /// Since when the standby has been behind: a whole heartbeat interval
    /// behind means a sync was lost, not overtaken, and costs a full pull.
    std::optional<net::SimTime> since;
  };
  static constexpr std::size_t kMaxEarlyDeltas = 8;
  SyncGap gap_;
  /// Incremented on every promotion; the higher epoch wins a split brain.
  std::uint64_t takeover_epoch_ = 0;
  /// Backup role: per-sender rate limit on takeover redirects.
  std::map<net::NodeId, net::SimTime> last_redirect_;

  // reliability (ARQ + rekey gap recovery)
  net::ArqEndpoint arq_;
  /// Stamped onto every rekey multicast; replicated to the backup.
  std::uint64_t rekey_epoch_ = 0;
  /// See Member::timer_gen_: bumped on crash, demotion, and promotion.
  std::uint32_t timer_gen_ = 0;

  /// Causal context of an in-progress takeover heal (heartbeat miss ->
  /// promotion -> StateSync -> first rekey). active() while the heal span
  /// is open; the first emit_rekey after promotion closes it.
  net::TraceContext takeover_trace_;

  // online area management (DESIGN.md 14)
  net::NodeId rs_node_ = net::kNoNode;
  AcId parent_hint_ = kNoAc;
  /// The raw signed AreaMapUpdate envelope most recently adopted: embedded
  /// in migrate directives so the member can verify the target area exists
  /// before its own map catches up, and re-multicast into the area.
  Bytes latest_map_payload_;
  AcId migrate_target_ = kNoAc;
  std::size_t migrate_quota_ = 0;

  Counters counters_;
};

}  // namespace mykil::core
