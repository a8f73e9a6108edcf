// End-to-end gate for the chaos harness (DESIGN.md 9.5): three seeds of
// randomized crash/partition/drop/churn injection must converge to the
// fault-tolerance invariants, and the SAME schedule with the reliable
// control plane disabled must fail — proving the ARQ + recovery machinery
// is what carries the system, not luck. Standalone (non-gtest) because a
// full schedule is seconds of wall time and one binary run keeps ctest
// output readable.
#include <cstdio>
#include <initializer_list>

#include "workload/chaos.h"

int main() {
  using mykil::workload::ChaosOptions;
  using mykil::workload::ChaosReport;

  int failures = 0;

  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    ChaosOptions opt;
    opt.seed = seed;
    ChaosReport rep = mykil::workload::run_chaos(opt);
    std::printf("chaos seed %llu: %s (live %zu/%zu in sync, %zu takeovers, "
                "%llu retransmits, %llu key recoveries)\n",
                (unsigned long long)seed,
                rep.converged() ? "converged" : "FAILED", rep.live_in_sync,
                rep.live_members, rep.takeovers,
                (unsigned long long)rep.retransmits,
                (unsigned long long)rep.key_recoveries);
    if (!rep.converged()) ++failures;
    // The schedule must actually have injected faults, or the pass is
    // vacuous.
    if (rep.primary_crashes + rep.member_crashes == 0 || rep.partitions == 0) {
      std::printf("chaos seed %llu: schedule injected no faults\n",
                  (unsigned long long)seed);
      ++failures;
    }
  }

  // Regression guard: seed 3 without ARQ demonstrably diverges (the same
  // seed converges with the reliable control plane on, above).
  ChaosOptions no_arq;
  no_arq.seed = 3;
  no_arq.reliable_control = false;
  ChaosReport rep = mykil::workload::run_chaos(no_arq);
  std::printf("chaos seed 3 (no ARQ): %s\n",
              rep.converged() ? "converged — guard LOST its teeth" : "fails as expected");
  if (rep.converged()) ++failures;

  return failures == 0 ? 0 : 1;
}
