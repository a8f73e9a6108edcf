// Registration server: steps 1–5 of the join protocol (Fig. 3).
//
// Holds the authorization database (who may join and for how long — the
// paper's credit-card stand-in), mutually authenticates clients with a
// challenge-response over nonces, picks an area for each admitted client,
// and introduces the client to that area's controller.
//
// Beyond the paper, the RS is also the topology owner for online area
// management (DESIGN.md 14): it versions the AC directory, drives area
// splits and merges from per-area load reports, and shields itself from
// flash crowds with a token-bucket admission queue in front of step 1.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <set>

#include "crypto/prng.h"
#include "crypto/rsa.h"
#include "mykil/config.h"
#include "mykil/directory.h"
#include "mykil/records.h"
#include "mykil/wire.h"
#include "net/arq.h"
#include "net/network.h"

namespace mykil::core {

class RegistrationServer : public net::Node {
 public:
  RegistrationServer(MykilConfig config, crypto::RsaKeyPair keypair,
                     crypto::Prng prng);

  /// Authorization database: allow `client` to join for `duration`.
  void authorize(ClientId client, net::SimDuration duration);

  /// Register an area controller (and optional backup) in the directory.
  void register_ac(AcInfo info) { durable_.directory.add(std::move(info)); }
  /// Register a dormant spare AC: provisioned and reachable but not in the
  /// directory, so it receives no members until a split activates it.
  void register_spare(AcInfo info) {
    durable_.spares.push_back(std::move(info));
  }
  [[nodiscard]] const AcDirectory& directory() const {
    return durable_.directory;
  }

  /// Arm the admission-drain and rebalance timers (no-ops when the
  /// corresponding config knobs are disabled). Called once after the
  /// directory is assembled.
  void start_timers();

  [[nodiscard]] const crypto::RsaPublicKey& public_key() const {
    return keypair_.pub;
  }

  void on_message(const net::Message& msg) override;
  void on_timer(std::uint64_t token) override;
  void on_recover() override;

  /// Number of join registrations completed (step 4+5 sent).
  [[nodiscard]] std::uint64_t completed_registrations() const {
    return durable_.completed;
  }
  /// Join attempts rejected (bad auth, bad nonce, replay).
  [[nodiscard]] std::uint64_t rejected_registrations() const {
    return durable_.rejected;
  }
  /// Step-1 requests turned away with a retry-after reply.
  [[nodiscard]] std::uint64_t sheds() const { return durable_.sheds; }
  [[nodiscard]] std::size_t admission_queue_depth() const {
    return admission_queue_.size();
  }
  [[nodiscard]] std::uint64_t map_version() const {
    return durable_.directory.version();
  }
  [[nodiscard]] std::uint64_t area_splits() const { return durable_.splits; }
  [[nodiscard]] std::uint64_t area_merges() const { return durable_.merges; }
  [[nodiscard]] std::uint64_t reconfig_timeouts() const {
    return durable_.timeouts;
  }
  [[nodiscard]] std::size_t spare_count() const {
    return durable_.spares.size();
  }

  /// Checkpoint the RS's durable state (directory + auth + load estimates;
  /// in-flight nonce handshakes and the admission queue are dropped — the
  /// clients' watchdogs restart those). See mykil/checkpoint.h.
  [[nodiscard]] RsState checkpoint_state() const;
  void restore_state(RsState state);

 private:
  struct Session {
    net::NodeId client_node = net::kNoNode;
    ClientId client_id = 0;
    Bytes client_pubkey;  // serialized
    std::uint64_t nonce_wc = 0;
    net::SimDuration duration = 0;
  };
  /// One step-1 request parked in the admission queue.
  struct Parked {
    net::NodeId from = net::kNoNode;
    Bytes payload;
  };
  /// Per-area load as last reported by the AC.
  struct AreaLoad {
    std::size_t members = 0;
    std::uint64_t rekey_epoch = 0;
    net::SimTime at = 0;
  };
  /// The one in-flight split or merge (the RS serializes reconfigurations).
  struct Reconfig {
    bool split = false;
    AcId source = kNoAc;
    AcId target = kNoAc;
    net::SimTime started = 0;
    std::size_t members_at_start = 0;
    std::size_t moved_goal = 0;  ///< split: members the source was asked to shed
  };

  void handle_step1(net::NodeId from, const EnvelopeView& env);
  void handle_step3(const EnvelopeView& env);
  void handle_load_report(const net::Message& msg, const EnvelopeView& env);
  /// Token-bucket front door for step 1; either admits inline, parks the
  /// request, or sheds it with a retry-after reply.
  void admit_step1(const net::Message& msg, const EnvelopeView& env);
  void refill_bucket();
  void drain_admission_queue();
  void rebalance();
  void start_split(AcId hot, std::size_t members);
  void start_merge(AcId cold);
  void finish_reconfig(bool timed_out);
  /// Bump the map version and push the signed directory to every AC pair
  /// (`extra` additionally receives it when it just left the map).
  void broadcast_map_update(const AcInfo* extra = nullptr);
  void send_migrate_request(const AcInfo& src, AcId target, std::uint32_t count);
  /// Lazy ARQ setup (the network is only known after attach).
  void ensure_arq();
  /// Unicast control traffic through the ARQ layer.
  void send_ctrl(net::NodeId to, net::Label label, Bytes payload);
  /// Round-robin area placement ("proximity to the client, load balancing,
  /// etc." — we rotate, which is load balancing).
  const AcInfo& pick_area();

  MykilConfig config_;
  crypto::RsaKeyPair keypair_;
  crypto::Prng prng_;
  /// What a checkpoint carries; everything else here is volatile.
  RsState durable_;
  /// Sessions awaiting step 3, keyed by the expected Nonce_WC + 1.
  std::map<std::uint64_t, Session> pending_;
  net::ArqEndpoint arq_;

  // ---- admission control (DESIGN.md 14.3) ----
  double tokens_ = 0;
  net::SimTime last_refill_ = 0;
  std::deque<Parked> admission_queue_;

  // ---- dynamic area management (DESIGN.md 14.1-14.2) ----
  std::map<AcId, AreaLoad> loads_;
  /// Merge sources mid-drain — excluded from placement.
  std::set<AcId> draining_;
  std::optional<Reconfig> reconfig_;
  bool timers_started_ = false;
  std::uint32_t timer_gen_ = 0;
};

}  // namespace mykil::core
