#include "common/id_set.h"

#include <random>
#include <utility>

namespace mykil {
namespace {

constexpr std::size_t kMinSlots = 16;

constexpr std::uint64_t rotl(std::uint64_t x, int b) {
  return x << b | x >> (64 - b);
}

/// SipHash-1-3 (Aumasson and Bernstein) of the 8-byte little-endian
/// encoding of `m`: one message block, then the length-only final block.
std::uint64_t siphash13(IdSet::Key k, std::uint64_t m) {
  std::uint64_t v0 = k.k0 ^ 0x736f6d6570736575ULL;
  std::uint64_t v1 = k.k1 ^ 0x646f72616e646f6dULL;
  std::uint64_t v2 = k.k0 ^ 0x6c7967656e657261ULL;
  std::uint64_t v3 = k.k1 ^ 0x7465646279746573ULL;
  auto round = [&] {
    v0 += v1; v1 = rotl(v1, 13); v1 ^= v0; v0 = rotl(v0, 32);
    v2 += v3; v3 = rotl(v3, 16); v3 ^= v2;
    v0 += v3; v3 = rotl(v3, 21); v3 ^= v0;
    v2 += v1; v1 = rotl(v1, 17); v1 ^= v2; v2 = rotl(v2, 32);
  };
  auto compress = [&](std::uint64_t block) {
    v3 ^= block;
    round();
    v0 ^= block;
  };
  compress(m);
  compress(std::uint64_t{8} << 56);
  v2 ^= 0xff;
  round();
  round();
  round();
  return v0 ^ v1 ^ v2 ^ v3;
}

}  // namespace

IdSet::Key IdSet::process_key() {
  static const Key key = [] {
    std::random_device rd;
    auto word = [&rd] { return std::uint64_t{rd()} << 32 | rd(); };
    return Key{word(), word()};
  }();
  return key;
}

std::size_t IdSet::find(std::uint64_t id) const {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = siphash13(key_, id) & mask;
  while (slots_[i] != 0 && slots_[i] != id) i = (i + 1) & mask;
  return i;
}

bool IdSet::insert(std::uint64_t id) {
  if (id == 0) return !std::exchange(has_zero_, true);
  if (slots_.empty()) slots_.assign(kMinSlots, 0);
  std::size_t i = find(id);
  if (slots_[i] == id) return false;
  if (2 * (used_ + 1) > slots_.size()) {
    grow();
    i = find(id);
  }
  slots_[i] = id;
  ++used_;
  return true;
}

void IdSet::grow() {
  std::vector<std::uint64_t> old = std::exchange(
      slots_, std::vector<std::uint64_t>(2 * slots_.size(), 0));
  for (std::uint64_t id : old)
    if (id != 0) slots_[find(id)] = id;
}

void IdSet::clear() {
  slots_ = {};
  used_ = 0;
  has_zero_ = false;
}

std::size_t IdSet::longest_run() const {
  // Load <= 1/2 leaves an empty slot; scanning from one counts a run that
  // wraps past the end of the array in one piece.
  std::size_t start = 0;
  while (start < slots_.size() && slots_[start] != 0) ++start;
  std::size_t longest = 0;
  std::size_t run = 0;
  for (std::size_t n = 0; n < slots_.size(); ++n) {
    run = slots_[(start + n) & (slots_.size() - 1)] != 0 ? run + 1 : 0;
    if (run > longest) longest = run;
  }
  return longest;
}

}  // namespace mykil
