// Locality-aware shard placement (DESIGN.md 11.4).
//
// The parallel engine's cost model is simple: events that stay inside a
// shard are free, events that cross shards ride the window-barrier merge.
// Placement therefore wants chatty units — an area controller and its
// parent, the registration server and its hottest areas, a spare and the
// area it will split — on the same shard, while still spreading total load
// across the target shard count.
//
// place_units() solves that with two deterministic passes:
//   1. affinity clustering: walk the affinity edges from heaviest to
//      lightest, union-find merging endpoint clusters unless the merged
//      load would exceed the per-shard fair-share cap;
//   2. LPT packing: sort clusters by load (heaviest first) and drop each
//      onto the least-loaded shard.
// Unit 0 (by convention the RS) is renumbered onto shard 0 afterwards.
//
// Placement is a pure locality hint: the engine's canonical event order —
// and therefore every digest — is identical for every assignment. All tie
// breaks below use unit indices, never pointers or hash order, so the same
// input yields the same placement on every host.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mykil::core {

/// Undirected affinity between two placement units. Weight is relative
/// expected message volume; only the ordering matters.
struct PlacementEdge {
  std::size_t a = 0;
  std::size_t b = 0;
  double weight = 0.0;
};

struct PlacementInput {
  /// Number of units to place. Convention: unit 0 is the RS, unit i + 1 is
  /// area i (spares included).
  std::size_t units = 0;
  /// Shards to pack into (>= 1).
  std::uint32_t target_shards = 1;
  /// Per-unit relative load; entries missing from the vector default to 1.
  std::vector<double> load;
  /// Affinity edges. Out-of-range endpoints and non-positive weights are
  /// ignored.
  std::vector<PlacementEdge> affinity;
};

/// Shard index per unit, in [0, target_shards). Unit 0's cluster lands on
/// shard 0. Deterministic for a given input.
[[nodiscard]] std::vector<std::uint32_t> place_units(const PlacementInput& in);

}  // namespace mykil::core
