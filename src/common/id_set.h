// Flat set of 64-bit message ids: the duplicate filter on the data path.
//
// Every data delivery first asks "seen this id before?", so the set sits on
// the receive path of every member and AC. It is one power-of-two array
// probed linearly and kept at most half full; id 0 marks an empty slot and
// is tracked by a side flag. An insert costs one hash and, almost always,
// one cache line, where a red-black tree of ~1,000 ids costs ~10 dependent
// misses plus a node allocation.
//
// Ids come off the wire, so under a fixed hash a sender could choose ids
// that pile into one run and turn every probe into a scan. The slot index
// is therefore SipHash-1-3 of the id under a 128-bit key drawn once per
// process from std::random_device. For ids chosen without the key the hash
// acts as a random function, and at load <= 1/2 every probe run is then
// O(log n) with high probability: the bound the tree gave. The key never
// comes from a protocol Prng and the set has no iteration order, so its
// answers, and every simulation digest, do not depend on it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mykil {

class IdSet {
 public:
  struct Key {
    std::uint64_t k0 = 0;
    std::uint64_t k1 = 0;
  };
  /// The per-process key, drawn from std::random_device on first use.
  static Key process_key();

  IdSet() : IdSet(process_key()) {}
  explicit IdSet(Key key) : key_(key) {}

  /// Add `id`; true when it was absent (what std::set::insert().second says).
  bool insert(std::uint64_t id);
  [[nodiscard]] std::size_t size() const { return used_ + (has_zero_ ? 1 : 0); }
  /// Drop every id and release the table.
  void clear();
  /// Longest run of occupied slots: the most slots any probe can visit.
  /// Diagnostic for the probe-bound tests.
  [[nodiscard]] std::size_t longest_run() const;

 private:
  /// Slot holding `id`, or the empty slot that ends its probe run.
  [[nodiscard]] std::size_t find(std::uint64_t id) const;
  void grow();

  Key key_;
  std::vector<std::uint64_t> slots_;  ///< 0 = empty; size is a power of two
  std::size_t used_ = 0;              ///< non-zero ids in slots_
  bool has_zero_ = false;
};

}  // namespace mykil
