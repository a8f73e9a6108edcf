// Protocol parameters for Mykil (Sections III–IV).
#pragma once

#include <cstdint>

#include "net/arq.h"
#include "net/sim_time.h"

namespace mykil::core {

/// How an area controller handles a rejoin when the member's previous area
/// controller is unreachable (Section IV-B's two options).
enum class PartitionedRejoinPolicy : std::uint8_t {
  /// Option 1: deny the rejoin — no mobility across partitions, but ticket
  /// sharing by malicious cohorts is impossible.
  kDeny = 1,
  /// Option 2: admit after verifying the NIC identifier in the ticket —
  /// mobility keeps working across partitions at some cohort-sharing risk.
  kAdmitWithNicCheck = 2,
};

struct MykilConfig {
  // ---- key tree (Section III-C) ----
  unsigned tree_fanout = 4;

  // ---- batching (Section III-E) ----
  /// Aggregate join/leave events and rekey only when multicast data arrives
  /// or the rekey interval elapses. Disabling rekeys immediately per event.
  bool batching = true;
  /// Maximum time between rekeys while events are pending ("a specific
  /// time interval has elapsed since the last rekeying operation").
  net::SimDuration rekey_interval = net::sec(5);
  /// Rotate the area key on the rekey interval even with NO pending
  /// membership events — "rekeying under the latter condition preserves
  /// the freshness of the area key" (Section III-E / key freshness,
  /// Section II property 1).
  bool periodic_fresh_rekey = false;

  // ---- area sizing (Section V-A) ----
  /// Registration stops assigning new members to an area at this size
  /// ("we limit the membership size of an area to about 5000 members").
  /// 0 disables the cap.
  std::size_t max_area_members = 0;

  // ---- failure detection (Section IV-A) ----
  /// AC multicasts an alive message after this much in-area silence.
  net::SimDuration t_idle = net::sec(1);
  /// A member unicasts an alive message after this much silence toward
  /// its AC. "Typically much larger than T_idle."
  net::SimDuration t_active = net::sec(4);
  /// Disconnection threshold multiplier (the paper's example uses 5x).
  unsigned disconnect_multiplier = 5;

  // ---- rejoin (Section IV-B) ----
  PartitionedRejoinPolicy partitioned_rejoin = PartitionedRejoinPolicy::kAdmitWithNicCheck;
  /// How long AC_B waits for AC_A's step-5 answer before applying the
  /// partitioned-rejoin policy.
  net::SimDuration rejoin_check_timeout = net::sec(2);
  /// Skip steps 4–5 entirely (the 0.28 s variant measured in Section V-D).
  bool skip_cohort_check = false;
  /// Client-side retry: a rejoin that got no answer (denied, lost, or the
  /// old AC still counted us as active) is retried after this long.
  net::SimDuration rejoin_retry_interval = net::sec(3);
  /// Ticket validity granted at registration.
  net::SimDuration ticket_validity = net::sec(3600);

  // ---- replication (Section IV-C) ----
  net::SimDuration heartbeat_interval = net::sec(1);
  /// Backup takes over after this many missed heartbeats.
  unsigned heartbeat_misses = 3;

  // ---- reliable control plane (ARQ + rekey gap recovery, DESIGN.md 9) ----
  /// Master switch: wrap unicast control traffic in the ARQ layer and let
  /// members recover missed rekeys via KeyRecoveryRequest. Disabling this
  /// restores the fire-and-forget control plane (the chaos harness uses it
  /// as a regression guard that the layer is load-bearing).
  bool reliable_control = true;
  /// Retransmission parameters for the ARQ layer (net/arq.h).
  net::ArqConfig arq;
  /// Client-side spacing between KeyRecoveryRequest retries.
  net::SimDuration key_recovery_interval = net::msec(500);
  /// AC-side per-member rate limit on key-recovery answers (each answer
  /// costs an RSA signature, a private-key operation ~10x dearer than the
  /// public-key encryption that seals it; this bounds what a confused or
  /// malicious member can extract).
  net::SimDuration key_recovery_min_interval = net::msec(200);

  // ---- flash-crowd admission control (DESIGN.md 14.3) ----
  /// Token-bucket refill rate, registrations per second, for join step 1 at
  /// the registration server. 0 disables admission control entirely (every
  /// request is processed inline, the pre-existing behavior).
  double admission_rate = 0.0;
  /// Bucket capacity: how many registrations may burst through at once.
  std::size_t admission_burst = 4;
  /// Bounded queue for over-rate step-1 requests; overflow is load-shed
  /// with a retry-after reply instead of being silently dropped.
  std::size_t admission_queue_limit = 16;
  /// How often the queue-drain timer refills the bucket and services the
  /// backlog.
  net::SimDuration admission_drain_interval = net::msec(100);
  /// Backoff hint carried in a load-shed reply; the client's watchdog
  /// defers its join retry until it elapses.
  net::SimDuration shed_retry_after = net::sec(2);

  // ---- dynamic area management (DESIGN.md 14.1-14.2) ----
  /// AC -> RS load-report cadence (members, rekey epoch). 0 disables the
  /// reports (and with them the rebalancer's inputs).
  net::SimDuration load_report_interval = 0;
  /// RS rebalance-scan cadence. 0 disables splits and merges entirely.
  net::SimDuration rebalance_interval = 0;
  /// An area reporting at least this many members is split (half of them
  /// migrate to a freshly activated spare AC). 0 disables splits.
  std::size_t area_split_threshold = 0;
  /// A dynamically activated area reporting at most this many members is
  /// drained into a sibling and deactivated. 0 disables merges.
  std::size_t area_merge_threshold = 0;
  /// Members per migrate request batch during a split.
  std::size_t migrate_batch = 4;

  // ---- simulation control ----
  /// Arm the periodic protocol timers (alive, eviction scans, rekey
  /// interval, heartbeats). Protocol-logic tests that drive the network
  /// manually disable them so the event queue can drain.
  bool enable_timers = true;

  // ---- replay protection ----
  /// Maximum clock skew accepted on timestamped messages.
  net::SimDuration ts_window = net::sec(30);

  [[nodiscard]] net::SimDuration member_silence_limit() const {
    return disconnect_multiplier * t_active;
  }
  [[nodiscard]] net::SimDuration ac_silence_limit() const {
    return disconnect_multiplier * t_idle;
  }
  /// A message stamped `ts` is within ts_window of `now` (replay check).
  [[nodiscard]] bool ts_fresh(net::SimTime ts, net::SimTime now) const {
    return (now >= ts ? now - ts : ts - now) <= ts_window;
  }
};

}  // namespace mykil::core
