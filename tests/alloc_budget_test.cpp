// Heap budget of the data receive path (DESIGN.md 12).
//
// Every member opens every data packet: K_d under the area key, then the
// payload under K_d. The construction needs only SHA-256 compressions and
// Speck blocks, so the primitives on that path must not allocate, and a
// whole delivery keeps one heap block: the plaintext the member retains.
// This binary replaces the global operator new with a counting one to pin
// both budgets.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "crypto/data_plane.h"
#include "crypto/hmac.h"
#include "crypto/keys.h"
#include "crypto/sealed.h"
#include "mykil/area_seat.h"
#include "mykil/group.h"
#include "mykil/messages.h"

namespace {

std::atomic<std::size_t> g_allocations{0};

// Out of line, so that the compiler never sees a block from operator new
// reach free() and warn about a mismatch the replacement makes safe.
[[gnu::noinline]] void* allocate(std::size_t n) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }

}  // namespace

// Every plain and nothrow form is replaced, so that no block is allocated
// by one allocator and freed by another (the sanitizers supply their own
// forms of whichever ones a program leaves out).
void* operator new(std::size_t n) {
  if (void* p = allocate(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return allocate(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return allocate(n);
}
void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  release(p);
}

namespace mykil {
namespace {

/// Heap blocks `f` allocates.
template <typename F>
std::size_t allocations_in(F&& f) {
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  f();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

Bytes pattern(std::size_t len, std::uint8_t salt) {
  Bytes b(len);
  for (std::size_t i = 0; i < len; ++i)
    b[i] = static_cast<std::uint8_t>(i * 29 + salt);
  return b;
}

TEST(AllocBudget, CounterSeesHeapBlocks) {
  EXPECT_EQ(allocations_in([] {
              int* volatile p = new int(7);  // volatile: not elided
              delete p;
            }),
            1u);
}

TEST(AllocBudget, DeriveAllocatesNothing) {
  crypto::Prng prng(1);
  const crypto::SymmetricKey key = crypto::SymmetricKey::random(prng);
  crypto::SymmetricKey enc, mac;
  EXPECT_EQ(allocations_in([&] {
              enc = key.derive("enc");
              mac = key.derive("mac");
            }),
            0u);
  EXPECT_FALSE(enc == mac);
}

TEST(AllocBudget, HmacKeyMacAndVerifyAllocateNothing) {
  const Bytes message = pattern(72, 3);
  for (std::size_t key_len : {16, 64, 100}) {  // 100: hashed first
    const Bytes key = pattern(key_len, 9);
    const Bytes tag = crypto::hmac_sha256(key, message);
    bool full = false, truncated = false, forged = true;
    EXPECT_EQ(allocations_in([&] {
                crypto::HmacKey k(key);
                std::array<std::uint8_t, crypto::HmacKey::kTagSize> out;
                k.mac_into(message, out);
                full = k.verify(message, tag);
                truncated = k.verify(message, ByteView(tag.data(), 16));
                forged = k.verify(ByteView(message.data(), 71), tag);
              }),
              0u)
        << "key of " << key_len << " bytes";
    EXPECT_TRUE(full);
    EXPECT_TRUE(truncated);
    EXPECT_FALSE(forged);
  }
}

TEST(AllocBudget, DataPlaneKeyOpenIntoAllocatesNothing) {
  crypto::Prng prng(2);
  const crypto::SymmetricKey key = crypto::SymmetricKey::random(prng);
  const Bytes plain = pattern(64, 5);
  const Bytes box = crypto::sym_seal(key, plain, prng);
  std::array<std::uint8_t, 64> out{};
  bool ok = false;
  EXPECT_EQ(allocations_in([&] {
              // A one-shot open: the context is built for this box alone.
              ok = crypto::DataPlaneKey(key).open_into(box, out);
            }),
            0u);
  ASSERT_TRUE(ok);
  EXPECT_TRUE(std::equal(out.begin(), out.end(), plain.begin()));
}

TEST(AllocBudget, AreaSeatOpenDataKeyAllocatesNothing) {
  crypto::Prng prng(3);
  const crypto::SymmetricKey previous = crypto::SymmetricKey::random(prng);
  const crypto::SymmetricKey current = crypto::SymmetricKey::random(prng);
  lkh::MemberKeyState keys;
  keys.install({{0, 1, previous}});
  keys.install({{0, 2, current}});  // keeps `previous` for in-flight data
  core::AreaSeat seat(1, 1, 1, 2, keys);

  const crypto::SymmetricKey data_key = crypto::SymmetricKey::random(prng);
  const Bytes under_current =
      crypto::DataPlaneKey(current).seal(data_key.bytes(), prng);
  const Bytes under_previous =
      crypto::DataPlaneKey(previous).seal(data_key.bytes(), prng);
  // The first opens build the two cached contexts.
  ASSERT_TRUE(seat.open_data_key(under_current) == data_key);
  ASSERT_TRUE(seat.open_data_key(under_previous) == data_key);

  std::optional<crypto::SymmetricKey> a, b;
  EXPECT_EQ(allocations_in([&] {
              a = seat.open_data_key(under_current);
              b = seat.open_data_key(under_previous);
            }),
            0u);
  EXPECT_TRUE(a == data_key);
  EXPECT_TRUE(b == data_key);
}

TEST(AllocBudget, MemberDeliveryKeepsOneHeapBlock) {
  net::NetworkConfig net_cfg;
  net_cfg.jitter = 0;
  net::Network net(net_cfg);
  core::GroupOptions opts;
  opts.config.enable_timers = false;
  core::MykilGroup group(net, opts);
  group.add_area();
  group.finalize();
  auto member = group.make_member(1, net::sec(3600));
  group.join_member(*member, net::sec(3600));
  ASSERT_TRUE(member->joined());

  // Packets built the way Member::send_data seals them, 64-byte payloads
  // as in the data_fanout workload.
  constexpr std::size_t kPackets = 1000;
  crypto::Prng prng(4);
  const crypto::DataPlaneKey area(member->keys().group_key());
  std::vector<net::Message> packets;
  for (std::size_t i = 0; i <= kPackets; ++i) {
    const crypto::SymmetricKey data_key = crypto::SymmetricKey::random(prng);
    const Bytes key_box = area.seal(data_key.bytes(), prng);
    const Bytes payload_box = crypto::sym_seal(
        data_key, pattern(64, static_cast<std::uint8_t>(i)), prng);
    net::Message msg;
    msg.from = group.ac(0).id();
    msg.group = group.ac(0).area_group();
    msg.payload = core::wrap(core::Data{.msg_id = 1000 + i,
                                        .sender = 2,
                                        .key_box = key_box,
                                        .payload_box = payload_box});
    packets.push_back(std::move(msg));
  }
  member->on_message(packets.front());  // builds the cached area context

  const std::size_t before = member->received_data().size();
  const std::size_t blocks = allocations_in([&] {
    for (std::size_t i = 1; i <= kPackets; ++i) member->on_message(packets[i]);
  });
  const std::size_t delivered = member->received_data().size() - before;
  ASSERT_EQ(delivered, kPackets);
  EXPECT_EQ(member->received_data().back(),
            pattern(64, static_cast<std::uint8_t>(kPackets)));
  const double per_delivery =
      static_cast<double>(blocks) / static_cast<double>(delivered);
  EXPECT_LE(per_delivery, 2.0) << blocks << " heap blocks over " << delivered
                               << " deliveries";
}

}  // namespace
}  // namespace mykil
