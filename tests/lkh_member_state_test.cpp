// MemberKeyState: the client-side key cache, tested directly.
#include <gtest/gtest.h>

#include "common/error.h"
#include "crypto/sealed.h"
#include "lkh/member_state.h"

namespace mykil::lkh {
namespace {

crypto::SymmetricKey key(std::uint64_t seed) {
  crypto::Prng prng(seed);
  return crypto::SymmetricKey::random(prng);
}

TEST(MemberKeyState, EmptyStateHasNoGroupKey) {
  MemberKeyState s;
  EXPECT_FALSE(s.has_group_key());
  EXPECT_EQ(s.key_count(), 0u);
  EXPECT_THROW((void)s.group_key(), ProtocolError);
  EXPECT_THROW((void)s.version_of(0), ProtocolError);
}

TEST(MemberKeyState, InstallAndQuery) {
  MemberKeyState s;
  s.install({{0, 1, key(1)}, {5, 1, key(2)}, {12, 1, key(3)}});
  EXPECT_TRUE(s.has_group_key());
  EXPECT_EQ(s.key_count(), 3u);
  EXPECT_TRUE(s.holds(5));
  EXPECT_FALSE(s.holds(6));
  EXPECT_TRUE(s.group_key() == key(1));
  EXPECT_EQ(s.version_of(12), 1u);
}

TEST(MemberKeyState, InstallIgnoresStaleVersions) {
  MemberKeyState s;
  s.install({{0, 5, key(10)}});
  s.install({{0, 3, key(11)}});  // older version: ignored
  EXPECT_TRUE(s.group_key() == key(10));
  EXPECT_EQ(s.version_of(0), 5u);
  s.install({{0, 6, key(12)}});  // newer: applied
  EXPECT_TRUE(s.group_key() == key(12));
}

TEST(MemberKeyState, ApplySkipsEntriesForOtherSubtrees) {
  crypto::Prng prng(7);
  MemberKeyState s;
  s.install({{0, 1, key(1)}, {3, 1, key(3)}});

  RekeyMessage msg;
  RekeyEntry foreign;  // encrypted under node 4, which we don't hold
  foreign.target = 0;
  foreign.version = 2;
  foreign.encrypted_under = 4;
  foreign.box = crypto::sym_seal(key(99), key(50).bytes(), prng);
  msg.entries.push_back(foreign);
  EXPECT_EQ(s.apply(msg), 0u);
  EXPECT_TRUE(s.group_key() == key(1));  // untouched
}

TEST(MemberKeyState, ApplyDecryptsUnderHeldChildKey) {
  crypto::Prng prng(8);
  MemberKeyState s;
  s.install({{0, 1, key(1)}, {3, 1, key(3)}});

  crypto::SymmetricKey new_root = key(42);
  RekeyMessage msg;
  RekeyEntry e;
  e.target = 0;
  e.version = 2;
  e.encrypted_under = 3;
  e.box = crypto::sym_seal(key(3), new_root.bytes(), prng);
  msg.entries.push_back(e);
  EXPECT_EQ(s.apply(msg), 1u);
  EXPECT_TRUE(s.group_key() == new_root);
  EXPECT_EQ(s.version_of(0), 2u);
}

TEST(MemberKeyState, ApplyIsIdempotentOnDuplicateDelivery) {
  crypto::Prng prng(9);
  MemberKeyState s;
  s.install({{0, 1, key(1)}});
  RekeyMessage msg;
  RekeyEntry e;
  e.target = 0;
  e.version = 2;
  e.encrypted_under = 0;  // rotation convention: sealed under previous self
  e.box = crypto::sym_seal(key(1), key(2).bytes(), prng);
  msg.entries.push_back(e);
  EXPECT_EQ(s.apply(msg), 1u);
  EXPECT_EQ(s.apply(msg), 0u);  // duplicate: version already current
  EXPECT_TRUE(s.group_key() == key(2));
}

TEST(MemberKeyState, PreviousGroupKeyTracked) {
  crypto::Prng prng(10);
  MemberKeyState s;
  s.install({{0, 1, key(1)}});
  EXPECT_FALSE(s.previous_group_key().has_value());
  RekeyMessage msg;
  RekeyEntry e;
  e.target = 0;
  e.version = 2;
  e.encrypted_under = 0;
  e.box = crypto::sym_seal(key(1), key(2).bytes(), prng);
  msg.entries.push_back(e);
  s.apply(msg);
  ASSERT_TRUE(s.previous_group_key().has_value());
  EXPECT_TRUE(*s.previous_group_key() == key(1));
}

TEST(MemberKeyState, TamperedEntryThrows) {
  crypto::Prng prng(11);
  MemberKeyState s;
  s.install({{0, 1, key(1)}});
  RekeyMessage msg;
  RekeyEntry e;
  e.target = 0;
  e.version = 2;
  e.encrypted_under = 0;
  e.box = crypto::sym_seal(key(1), key(2).bytes(), prng);
  e.box[4] ^= 1;  // tamper
  msg.entries.push_back(e);
  EXPECT_THROW(s.apply(msg), AuthError);
}

TEST(MemberKeyState, ClearDropsEverything) {
  MemberKeyState s;
  s.install({{0, 1, key(1)}, {7, 1, key(2)}});
  s.clear();
  EXPECT_FALSE(s.has_group_key());
  EXPECT_EQ(s.key_count(), 0u);
  EXPECT_FALSE(s.previous_group_key().has_value());
}

}  // namespace
}  // namespace mykil::lkh
