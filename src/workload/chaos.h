// Deterministic chaos-schedule harness (DESIGN.md 9.5).
//
// From a single seed, run_chaos() builds a replicated multi-area Mykil
// deployment, then interleaves fault injection (node crashes and
// recoveries, partitions and heals, drop-probability ramps, blocked links)
// with membership churn (joins, leaves, moves, data). After the injection
// window it removes every fault, lets the system quiesce, and asserts the
// global invariants the fault-tolerance design promises:
//
//   1. every live member holds the current key of its area (liveness),
//   2. no departed member holds any area's current key (forward secrecy),
//   3. each area has exactly one acting primary (split brains resolved),
//   4. each standby's replicated snapshot byte-equals the acting
//      primary's current state (replication caught up),
//   5. every live member is owned by at most one acting primary (online
//      splits/merges never double-book a member, DESIGN.md 14),
//   6. no area's composite key epoch ever moved backward during the run.
//
// With `dynamic_areas` the schedule additionally provisions spare ACs,
// throws flash crowds and mass departures at the deployment, and lets the
// RS split hot areas / merge cold ones mid-chaos. With
// `checkpoint_restore` the run is stopped at half time, serialized,
// rebuilt from the seed, restored, and resumed — the invariants must hold
// on the resumed run exactly as they do on an uninterrupted one.
//
// The same schedule with `reliable_control = false` is the regression
// guard: the fire-and-forget control plane demonstrably fails it, which
// proves the ARQ + key-recovery machinery is load-bearing rather than
// decorative.
#pragma once

#include <cstdint>
#include <string>

#include "net/network.h"
#include "net/sim_time.h"

namespace mykil::obs {
class Tracer;
}

namespace mykil::workload {

struct ChaosOptions {
  std::uint64_t seed = 1;
  std::size_t areas = 3;    ///< root + (areas-1) children
  std::size_t members = 10;
  /// Fault/churn injection window.
  net::SimDuration duration = net::sec(30);
  /// Fault-free settling after the window. Must exceed the eviction
  /// horizon (member_silence_limit, 20 s at defaults) plus a rekey batch
  /// interval so every lost leave is resolved before the invariant check.
  net::SimDuration quiesce = net::sec(40);
  /// Packet-loss floor during the window; ramps raise it toward max_drop.
  double base_drop = 0.2;
  double max_drop = 0.35;
  bool with_backups = true;
  bool crash_primaries = true;
  /// The switch the regression guard flips off.
  bool reliable_control = true;
  /// Online area management (DESIGN.md 14): provision spare ACs, enable
  /// RS admission control + split/merge rebalancing, and extend the
  /// schedule with flash-crowd and mass-departure events.
  bool dynamic_areas = false;
  /// Dormant spare ACs provisioned for splits (dynamic_areas only).
  std::size_t spare_areas = 2;
  /// Latecomer members (created but not joined) that flash-crowd events
  /// register in bursts (dynamic_areas only).
  std::size_t flash_pool = 6;
  /// Stop the run at duration/2, checkpoint it, rebuild the deployment
  /// from the seed, restore, and resume (DESIGN.md 14.4).
  bool checkpoint_restore = false;
  /// Non-empty: also write the captured checkpoint blob to this file.
  std::string checkpoint_path;
  /// Simulator worker threads (net::Network::set_workers). The report —
  /// including its digest — is identical for every value; the determinism
  /// tests assert exactly that.
  unsigned workers = 1;
  /// Extra one-way latency between nodes in different sites (areas). 0
  /// (default) models a flat LAN and leaves every historical digest
  /// untouched; > 0 models a WAN split and lets the engine widen its
  /// conservative windows. Changes the schedule — and so the digest — but
  /// identically for every worker count and placement.
  net::SimDuration inter_site_latency = 0;

  // ---- observability (none of these fields may change the digest) ----

  /// Attach a caller-owned tracer for the whole run. Trace ids come from
  /// deterministic per-origin counters, so tracing a run leaves its digest
  /// bit-identical (DESIGN.md 13.1).
  obs::Tracer* tracer = nullptr;
  /// Non-zero: pump MetricsRegistry::sample() every interval of virtual
  /// time at conservative-window boundaries (worker-count-invariant).
  net::SimDuration metrics_interval = 0;
  /// Non-empty: write the sampled time series (mykil-metrics-v1 JSONL)
  /// here after the run.
  std::string metrics_jsonl_path;
  /// Collect per-shard engine statistics (wall-clock; diagnostics only).
  bool engine_profile = false;
};

struct ChaosReport {
  // Injection tallies (what the schedule actually threw at the run).
  std::size_t member_crashes = 0;
  std::size_t primary_crashes = 0;
  std::size_t partitions = 0;
  std::size_t drop_ramps = 0;
  std::size_t link_blocks = 0;
  std::size_t churn_events = 0;  ///< leaves + rejoins + moves + data

  // Invariant results after quiesce.
  std::size_t live_members = 0;
  std::size_t live_in_sync = 0;
  std::size_t live_out_of_sync = 0;   ///< invariant 1 violations
  std::size_t stale_key_holders = 0;  ///< invariant 2 violations
  std::size_t areas_without_primary = 0;  ///< invariant 3 violations
  std::size_t split_brains = 0;           ///< invariant 3 violations
  std::size_t backups_out_of_sync = 0;    ///< invariant 4 violations
  std::size_t multi_owner_members = 0;    ///< invariant 5 violations
  std::size_t epoch_regressions = 0;      ///< invariant 6 violations
  /// Joined members absent from every acting primary's roster after
  /// quiesce. Diagnostic, not a convergence gate: the member's own
  /// watchdog resolves this by rejoining on its next silence horizon.
  std::size_t orphan_members = 0;

  // Online area management (dynamic_areas / checkpoint_restore runs).
  std::uint64_t map_version = 0;   ///< final directory version at the RS
  std::uint64_t area_splits = 0;
  std::uint64_t area_merges = 0;
  std::uint64_t migrations = 0;    ///< member moves obeying a directive
  std::uint64_t sheds = 0;         ///< step-1 requests turned away
  bool restored = false;           ///< run was checkpointed and resumed
  std::size_t checkpoint_bytes = 0;

  // Repair work the protocol performed (diagnostics, not invariants).
  std::uint64_t retransmits = 0;
  std::uint64_t arq_give_ups = 0;
  std::uint64_t key_recoveries = 0;
  std::uint64_t takeovers = 0;
  std::uint64_t redirects = 0;
  std::uint64_t rekey_multicasts = 0;
  net::SimTime finished_at = 0;  ///< simulated end time
  /// Time-series samples taken (options.metrics_interval > 0). NOT folded
  /// into the digest: the digest must stay identical with sampling off.
  std::size_t metric_samples = 0;
  /// Engine statistics (options.engine_profile). Wall-clock diagnostics;
  /// also excluded from the digest.
  net::EngineProfile profile;

  /// FNV-1a over every schedule tally, invariant result, repair counter,
  /// and the network's total message/byte counters. Two runs produced the
  /// same digest iff they executed the same schedule with the same
  /// outcomes — the cross-worker determinism gate compares exactly this.
  std::uint64_t digest = 0;

  [[nodiscard]] bool converged() const {
    return live_members > 0 && live_out_of_sync == 0 &&
           stale_key_holders == 0 && areas_without_primary == 0 &&
           split_brains == 0 && backups_out_of_sync == 0 &&
           multi_owner_members == 0 && epoch_regressions == 0;
  }
};

/// Run one chaos schedule to completion. Everything — topology, schedule,
/// key material — derives from options.seed, so a failing seed replays
/// exactly under a debugger or tracer.
ChaosReport run_chaos(const ChaosOptions& options);

/// A run as one BENCH_chaos.json row: a flat one-line JSON object, newline
/// included, that names the options chaos_golden replays it with.
std::string chaos_row(const ChaosOptions& options, const ChaosReport& report);

}  // namespace mykil::workload
