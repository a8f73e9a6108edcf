// Mykil group member (client).
//
// Drives the client half of the join protocol (steps 1, 3, 6 of Fig. 3)
// and the rejoin protocol (steps 1, 3 of Fig. 7), sends and receives
// encrypted multicast data, and runs the paper's failure detection:
// periodic alive messages toward its AC (T_active) and a disconnection
// watchdog (5 x T_idle of AC silence) that triggers an automatic
// ticket-rejoin at another area controller.
//
// Its side of the area's key stream is an AreaSeat, as a child AC's uplink
// is. The member adds its own follow-up: holding data that overtakes its
// rekey, its counters, and a ticket rejoin when recovery never completes.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/id_set.h"
#include "crypto/prng.h"
#include "crypto/rsa.h"
#include "lkh/member_state.h"
#include "mykil/area_seat.h"
#include "mykil/config.h"
#include "mykil/directory.h"
#include "mykil/records.h"
#include "mykil/ticket.h"
#include "mykil/wire.h"
#include "net/arq.h"
#include "net/network.h"

namespace mykil::core {

class Member : public net::Node {
 public:
  Member(ClientId nic_id, MykilConfig config, crypto::RsaKeyPair keypair,
         crypto::RsaPublicKey rs_pub, crypto::Prng prng);

  /// Begin the full 7-step registration+join via the registration server.
  void join(net::NodeId rs_node, net::SimDuration requested_duration);
  /// Begin a ticket rejoin at the given AC (requires a ticket from a
  /// previous join). Used for mobility and after disconnection.
  void rejoin(AcId target_ac);
  /// Voluntary leave: informs the AC and drops all keys.
  void leave();
  /// Encrypt and multicast application data into the current area.
  void send_data(ByteView payload);
  /// Arm alive/watchdog timers (call once after Network::attach).
  void start_timers();

  void on_message(const net::Message& msg) override;
  void on_timer(std::uint64_t token) override;
  void on_crash() override;
  void on_recover() override;

  // ---- introspection ----
  [[nodiscard]] ClientId client_id() const { return nic_id_; }
  [[nodiscard]] bool joined() const { return joined_; }
  [[nodiscard]] AcId current_ac() const { return seat_.ac_id(); }
  [[nodiscard]] const lkh::MemberKeyState& keys() const { return seat_.keys(); }
  [[nodiscard]] const std::vector<Bytes>& received_data() const {
    return received_data_;
  }
  /// Data packets this member discarded unread: held packets (see
  /// held_count()) that an authoritative key recovery did not open, the
  /// oldest packet pushed out of a full hold, and packets still held when
  /// the membership ends or restarts. Every count is one packet this member
  /// could not read.
  [[nodiscard]] std::size_t undecryptable_count() const {
    return undecryptable_count_;
  }
  /// Data packets waiting for the rekey that carries their key
  /// (DESIGN.md 9.2); never more than kMaxHeldData.
  [[nodiscard]] std::size_t held_count() const { return held_data_.size(); }
  static constexpr std::size_t kMaxHeldData = 16;
  [[nodiscard]] const Bytes& sealed_ticket() const { return sealed_ticket_; }
  [[nodiscard]] const AcDirectory& directory() const { return directory_; }
  /// Timing of the last completed join / rejoin (for the V-D benchmark).
  [[nodiscard]] std::optional<net::SimDuration> last_join_latency() const {
    return join_latency_;
  }
  [[nodiscard]] std::optional<net::SimDuration> last_rejoin_latency() const {
    return rejoin_latency_;
  }
  /// Number of automatic rejoins triggered by the disconnection watchdog.
  [[nodiscard]] std::uint64_t watchdog_rejoins() const {
    return watchdog_rejoins_;
  }
  /// Rekey-stream epoch this member has caught up to (DESIGN.md 9.2).
  [[nodiscard]] std::uint64_t area_epoch() const { return seat_.epoch(); }
  /// Rekey multicasts that updated at least one held key, and the total
  /// number of entries actually applied (off-path entries are skipped and
  /// never counted). The batching benchmarks assert these.
  [[nodiscard]] std::uint64_t rekeys_applied() const { return rekeys_applied_; }
  [[nodiscard]] std::uint64_t rekey_entries_applied() const {
    return rekey_entries_applied_;
  }
  /// Completed key-recovery catch-ups (gap, stale-key or held-data
  /// triggered).
  [[nodiscard]] std::uint64_t key_recoveries() const { return key_recoveries_; }
  /// Directed migrations obeyed (split/merge rebalancing, DESIGN.md 14.2).
  [[nodiscard]] std::uint64_t migrations() const { return migrations_; }
  [[nodiscard]] const net::ArqEndpoint& arq() const { return arq_; }

  /// Checkpoint the member's dynamic protocol state (membership, ticket,
  /// directory, held keys). Key material itself re-derives from seeded
  /// construction on restore; see mykil/checkpoint.h.
  [[nodiscard]] MemberState checkpoint_state() const;
  void restore_state(MemberState state);

  /// Simulate a malicious cohort: copy this member's credentials (ticket +
  /// keypair) into another Member instance. Test-support API.
  void clone_credentials_into(Member& other) const {
    other.sealed_ticket_ = sealed_ticket_;
    other.keypair_ = keypair_;
    other.directory_ = directory_;
  }
  /// Simulate a wire thief: the ticket and directory leak, but NOT the
  /// private key. Test-support API.
  void leak_ticket_to(Member& other) const {
    other.sealed_ticket_ = sealed_ticket_;
    other.directory_ = directory_;
  }

 private:
  // Each handler reads the envelope on_message parsed, a view into
  // msg.payload.
  void handle_join_step2(const EnvelopeView& env);
  void handle_join_step5(const EnvelopeView& env);
  void handle_join_step7(const net::Message& msg, const EnvelopeView& env);
  void handle_rejoin_step2(const EnvelopeView& env);
  void handle_rejoin_step6(const net::Message& msg, const EnvelopeView& env);
  void handle_rekey(const net::Message& msg, const EnvelopeView& env);
  void handle_data(const net::Message& msg, const EnvelopeView& env);
  /// Open a data packet's sealed data key and payload under the current or
  /// the previous group key; nullopt when neither opens it.
  [[nodiscard]] std::optional<Bytes> try_open(ByteView key_box,
                                              ByteView payload_box) const;
  /// Deliver the held packets that open now. After an authoritative key
  /// recovery (`recovered`) the rest are discarded and counted.
  void retry_held(bool recovered);
  /// Discard every held packet unread: the membership it arrived in ended.
  void discard_held();
  /// RS load-shed reply to step 1: back off before retrying the join.
  void handle_join_shed(const net::Message& msg, const EnvelopeView& env);
  /// Versioned directory push (RS-signed, re-multicast by our AC).
  void handle_area_map_update(const EnvelopeView& env);
  /// Our AC directs us to rejoin a sibling area (split/merge rebalancing).
  void handle_migrate_directive(const EnvelopeView& env);
  /// AC idle-beacon: start key recovery when it reveals a lost rekey.
  void handle_ac_beacon(const EnvelopeView& env);
  void handle_key_recovery_reply(const EnvelopeView& env);
  void trigger_mobility_rejoin();
  /// Next directory entry after the current rejoin target (wrapping) — the
  /// retry rotation that unsticks rejoins aimed at a stale AC address.
  [[nodiscard]] AcId next_rejoin_target() const;
  /// Ask the AC for a sealed current-key catch-up (rate limited).
  void request_key_recovery(const char* trigger);
  /// Lazy ARQ setup (the network is only known after attach).
  void ensure_arq();
  /// Unicast control traffic through the ARQ layer.
  void send_ctrl(net::NodeId to, net::Label label, Bytes payload);
  [[nodiscard]] std::uint64_t timer_token(std::uint64_t kind) const;

  ClientId nic_id_;
  MykilConfig config_;
  crypto::RsaKeyPair keypair_;
  crypto::RsaPublicKey rs_pub_;
  crypto::Prng prng_;

  // join/rejoin session state
  std::uint64_t nonce_cw_ = 0;
  std::uint64_t nonce_ca_ = 0;
  std::uint64_t nonce_cb_ = 0;
  net::NodeId rs_node_ = net::kNoNode;
  bool join_in_progress_ = false;
  net::SimDuration requested_duration_ = 0;
  AcId rejoin_target_ = kNoAc;
  net::SimTime join_started_ = 0;
  net::SimTime rejoin_started_ = 0;
  std::optional<net::SimDuration> join_latency_;
  std::optional<net::SimDuration> rejoin_latency_;

  // membership state
  bool joined_ = false;
  AreaSeat seat_;  ///< our seat in the current AC's area
  Bytes sealed_ticket_;
  AcDirectory directory_;

  // liveness
  bool rejoin_in_progress_ = false;
  std::uint64_t watchdog_rejoins_ = 0;
  /// Earliest time the watchdog may retry step 1 after an RS load-shed.
  net::SimTime join_backoff_until_ = 0;
  std::uint64_t migrations_ = 0;
  /// Bumped on crash so timers armed before the failure are ignored when
  /// they fire after recovery (the simulator suppresses only timers whose
  /// due time falls inside the down window).
  std::uint32_t timer_gen_ = 0;

  // reliability (ARQ + rekey gap recovery)
  net::ArqEndpoint arq_;
  std::uint64_t key_recoveries_ = 0;
  std::uint64_t rekeys_applied_ = 0;
  std::uint64_t rekey_entries_applied_ = 0;

  std::vector<Bytes> received_data_;
  IdSet seen_data_;
  std::size_t undecryptable_count_ = 0;
  /// A data packet that opened under neither group key, usually because it
  /// overtook the rekey carrying its key. The views point into `buf`, the
  /// shared multicast buffer, which keeps them valid.
  struct HeldData {
    net::Payload buf;
    ByteView key_box;
    ByteView payload_box;
  };
  std::vector<HeldData> held_data_;  ///< FIFO, oldest first
};

}  // namespace mykil::core
