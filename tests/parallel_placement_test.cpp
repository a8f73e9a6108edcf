// Placement-determinism gate (DESIGN.md 11.4): shard placement is a pure
// locality hint, so a chaos schedule must produce ONE digest no matter how
// units are placed or how many workers execute it.
//
// Each sweep runs the same seeded schedule at workers 1/2/8, which locality
// placement packs onto 1, 4 and up to 16 shards — three placements, one
// digest. Three sweeps:
//   1. dynamic_areas, so spares, splits and merges exercise the affinity
//      edges the placer actually uses.
//   2. the same schedule with inter-site latency > 0, which widens the
//      conservative window (adaptive lookahead): a different schedule than
//      sweep 1 — wider windows batch group ops differently — but again ONE
//      digest across worker counts.
//   3. a crash-heavy seed under the widened lookahead: primary crashes land
//      mid-window, where a placement- or worker-dependent merge order
//      would show up first.
#include <cstdio>

#include "workload/chaos.h"

namespace {

using namespace mykil;

constexpr unsigned kWorkers[] = {1, 2, 8};

/// Run the schedule at every worker count; return true iff all digests
/// match the first and every run converged.
bool sweep(const char* name, const workload::ChaosOptions& base) {
  std::uint64_t digest = 0;
  for (unsigned workers : kWorkers) {
    workload::ChaosOptions opt = base;
    opt.workers = workers;
    workload::ChaosReport rep = workload::run_chaos(opt);
    std::printf("parallel_placement[%s]: workers=%u digest=%016llx %s\n",
                name, workers, static_cast<unsigned long long>(rep.digest),
                rep.converged() ? "converged" : "FAILED");
    if (!rep.converged()) return false;
    if (digest == 0) {
      digest = rep.digest;
    } else if (rep.digest != digest) {
      std::printf("parallel_placement[%s]: FAIL — digest depends on "
                  "placement or worker count\n", name);
      return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  using namespace mykil;

  // Sweep 1: flat LAN, dynamic areas (spares + split/merge traffic).
  workload::ChaosOptions opt;
  opt.seed = 5;
  opt.dynamic_areas = true;
  if (!sweep("dynamic", opt)) return 1;

  // Sweep 2: WAN split between areas. The engine widens its window to
  // base + inter-site latency; the digest moves vs sweep 1 (a different
  // schedule) but must stay placement- and worker-invariant.
  opt.inter_site_latency = net::usec(500);
  if (!sweep("dynamic+lookahead", opt)) return 1;

  // Sweep 3: crash-heavy seed under the widened lookahead — faults land
  // mid-window where merge-order bugs would first desynchronize shards.
  workload::ChaosOptions crash;
  crash.seed = 2;
  crash.crash_primaries = true;
  crash.inter_site_latency = net::usec(500);
  if (!sweep("faults+lookahead", crash)) return 1;

  std::printf("parallel_placement: PASS — one digest per schedule across "
              "workers 1/2/8\n");
  return 0;
}
