// One thread's least-recently-used set of per-modulus state: the Montgomery
// contexts RSA runs on (MontgomeryContext::cached) and the blinding pairs
// beside them (rsa.cpp). Entries are found by the modulus's low 64 bits and
// confirmed on the whole modulus. They live on the heap, so a returned
// reference survives the set growing; only eviction ends it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "crypto/bignum.h"

namespace mykil::crypto {

/// T exposes the modulus it was built for as `modulus()`.
template <typename T>
class ModulusCache {
 public:
  explicit ModulusCache(std::size_t capacity) : capacity_(capacity) {}

  /// The entry for `n`; on a miss, `make()` builds it, replacing the least
  /// recently used entry once `capacity` are held.
  template <typename Make>
  T& get(const BigUInt& n, Make&& make) {
    const std::uint64_t tag = n.low_u64();
    for (Slot& s : slots_) {
      if (s.tag == tag && s.value->modulus() == n) {
        s.stamp = ++clock_;
        return *s.value;
      }
    }
    Slot fresh{tag, ++clock_, std::make_unique<T>(make())};
    if (slots_.size() < capacity_) {
      slots_.push_back(std::move(fresh));
      return *slots_.back().value;
    }
    Slot& victim = *std::min_element(
        slots_.begin(), slots_.end(),
        [](const Slot& a, const Slot& b) { return a.stamp < b.stamp; });
    victim = std::move(fresh);
    return *victim.value;
  }

 private:
  struct Slot {
    std::uint64_t tag;    ///< low 64 bits of the modulus
    std::uint64_t stamp;  ///< clock_ at the last lookup
    std::unique_ptr<T> value;
  };
  std::size_t capacity_;
  std::vector<Slot> slots_;
  std::uint64_t clock_ = 0;
};

}  // namespace mykil::crypto
