// Tickets, wire envelopes, and the AC directory.
#include <gtest/gtest.h>

#include "common/error.h"
#include "mykil/directory.h"
#include "mykil/messages.h"
#include "mykil/records.h"
#include "mykil/ticket.h"

namespace mykil::core {
namespace {

crypto::SymmetricKey test_key() {
  crypto::Prng prng(77);
  return crypto::SymmetricKey::random(prng);
}

Ticket sample_ticket() {
  Ticket t;
  t.join_time = net::sec(100);
  t.valid_until = net::sec(4000);
  t.member_id = 0xAABBCCDDEE01;  // "NIC MAC"
  t.member_pubkey = to_bytes("serialized-public-key");
  t.last_ac = 42;
  return t;
}

TEST(Ticket, SerializeRoundTrip) {
  Ticket t = sample_ticket();
  EXPECT_EQ(decode<Ticket>(encode(t)), t);
}

TEST(Ticket, SealOpenRoundTrip) {
  crypto::Prng prng(1);
  crypto::SymmetricKey k = test_key();
  Bytes sealed = seal_ticket(sample_ticket(), k, prng);
  Ticket back = open_ticket(sealed, k, net::sec(200));
  EXPECT_EQ(back, sample_ticket());
}

TEST(Ticket, SealedContentsAreOpaque) {
  crypto::Prng prng(1);
  Bytes sealed = seal_ticket(sample_ticket(), test_key(), prng);
  // The NIC id must not appear in the clear.
  Bytes plain = encode(sample_ticket());
  auto it = std::search(sealed.begin(), sealed.end(), plain.begin(), plain.end());
  EXPECT_EQ(it, sealed.end());
}

TEST(Ticket, TamperedTicketRejected) {
  crypto::Prng prng(1);
  crypto::SymmetricKey k = test_key();
  Bytes sealed = seal_ticket(sample_ticket(), k, prng);
  sealed[sealed.size() / 2] ^= 1;
  EXPECT_THROW(open_ticket(sealed, k, net::sec(200)), AuthError);
}

TEST(Ticket, WrongSharedKeyRejected) {
  crypto::Prng prng(1);
  Bytes sealed = seal_ticket(sample_ticket(), test_key(), prng);
  crypto::Prng prng2(999);
  crypto::SymmetricKey other = crypto::SymmetricKey::random(prng2);
  EXPECT_THROW(open_ticket(sealed, other, net::sec(200)), AuthError);
}

TEST(Ticket, ExpiredTicketRejected) {
  crypto::Prng prng(1);
  crypto::SymmetricKey k = test_key();
  Bytes sealed = seal_ticket(sample_ticket(), k, prng);
  EXPECT_THROW(open_ticket(sealed, k, net::sec(4001)), ProtocolError);
  EXPECT_NO_THROW(open_ticket(sealed, k, net::sec(4000)));  // boundary
}

TEST(WireMac, RoundTrip) {
  Bytes fields = to_bytes("nonce and friends");
  Bytes blob = with_mac(fields);
  ByteView stripped = strip_mac(blob);
  EXPECT_EQ(Bytes(stripped.begin(), stripped.end()), fields);
  EXPECT_EQ(stripped.data(), blob.data());  // a view, not a copy
}

TEST(WireMac, DetectsTampering) {
  Bytes blob = with_mac(to_bytes("nonce and friends"));
  blob[0] ^= 1;
  EXPECT_THROW(strip_mac(blob), AuthError);
}

TEST(WireMac, TooShortRejected) {
  Bytes blob(5, 0);
  EXPECT_THROW(strip_mac(blob), AuthError);
}

TEST(WireEnvelope, UnsignedRoundTrip) {
  Bytes packet = wrap(LeaveRequest{.client_id = 42});
  EnvelopeView env = parse_envelope_view(packet);
  EXPECT_EQ(env.type, MsgType::kLeaveRequest);
  EXPECT_EQ(unwrap<LeaveRequest>(env).client_id, 42u);
  EXPECT_TRUE(env.sig.empty());
}

lkh::RekeyMessage sample_rekey() {
  lkh::RekeyMessage rk;
  rk.epoch = 7;
  rk.entries.push_back({1, 2, 3, to_bytes("payload")});
  return rk;
}

TEST(WireEnvelope, SignedRoundTripAndVerify) {
  crypto::Prng prng(5);
  crypto::RsaKeyPair kp = crypto::rsa_generate(512, prng);
  Bytes packet = wrap(Rekey{.rekey = {sample_rekey()}}, kp.priv);
  EnvelopeView env = parse_envelope_view(packet);
  EXPECT_EQ(env.type, MsgType::kRekey);
  EXPECT_TRUE(verify_envelope(env, kp.pub));
  EXPECT_EQ(unwrap<Rekey>(env).rekey.value.serialize(),
            sample_rekey().serialize());

  // Wrong key fails; unsigned envelope fails.
  crypto::Prng prng2(6);
  crypto::RsaKeyPair other = crypto::rsa_generate(512, prng2);
  EXPECT_FALSE(verify_envelope(env, other.pub));
  Bytes unsigned_packet = wrap(LeaveRequest{.client_id = 42});
  EXPECT_FALSE(verify_envelope(parse_envelope_view(unsigned_packet), kp.pub));
}

TEST(WireEnvelope, SignatureCoversBox) {
  crypto::Prng prng(5);
  crypto::RsaKeyPair kp = crypto::rsa_generate(512, prng);
  Bytes packet = wrap(Rekey{.rekey = {sample_rekey()}}, kp.priv);
  packet[6] ^= 1;  // first box byte, after type, flag and box length
  EXPECT_FALSE(verify_envelope(parse_envelope_view(packet), kp.pub));
}

TEST(Directory, AddFindPromote) {
  AcDirectory dir;
  crypto::Prng prng(5);
  crypto::RsaKeyPair primary = crypto::rsa_generate(512, prng);
  crypto::RsaKeyPair backup = crypto::rsa_generate(512, prng);

  AcInfo info;
  info.ac_id = 7;
  info.node = 10;
  info.pubkey = primary.pub.serialize();
  info.backup_node = 11;
  info.backup_pubkey = backup.pub.serialize();
  dir.add(info);

  ASSERT_NE(dir.find(7), nullptr);
  EXPECT_EQ(dir.find(7)->node, 10u);
  EXPECT_EQ(dir.find(99), nullptr);
  EXPECT_TRUE(dir.find(7)->has_backup());

  dir.promote_backup(7);
  EXPECT_EQ(dir.find(7)->node, 11u);
  // The demoted primary becomes the standby (roles swap, not clear).
  EXPECT_TRUE(dir.find(7)->has_backup());
  EXPECT_EQ(dir.find(7)->backup_node, 10u);
  dir.promote_backup(7);  // the old primary takes over again
  EXPECT_EQ(dir.find(7)->node, 10u);
  EXPECT_EQ(dir.find(7)->backup_node, 11u);
}

TEST(Directory, DuplicateIdRejected) {
  AcDirectory dir;
  AcInfo a;
  a.ac_id = 1;
  a.pubkey = to_bytes("x");
  dir.add(a);
  EXPECT_THROW(dir.add(a), ProtocolError);
}

TEST(Directory, VerifyAcceptsPrimaryAndBackupKeys) {
  AcDirectory dir;
  crypto::Prng prng(5);
  crypto::RsaKeyPair primary = crypto::rsa_generate(512, prng);
  crypto::RsaKeyPair backup = crypto::rsa_generate(512, prng);
  crypto::RsaKeyPair stranger = crypto::rsa_generate(512, prng);

  AcInfo info;
  info.ac_id = 7;
  info.pubkey = primary.pub.serialize();
  info.backup_node = 11;
  info.backup_pubkey = backup.pub.serialize();
  dir.add(info);

  Bytes data = to_bytes("message");
  EXPECT_TRUE(dir.verify(7, data, crypto::rsa_sign(primary.priv, data)));
  EXPECT_TRUE(dir.verify(7, data, crypto::rsa_sign(backup.priv, data)));
  EXPECT_FALSE(dir.verify(7, data, crypto::rsa_sign(stranger.priv, data)));
  EXPECT_FALSE(dir.verify(99, data, crypto::rsa_sign(primary.priv, data)));
}

TEST(Directory, SerializeRoundTrip) {
  AcDirectory dir;
  AcInfo a;
  a.ac_id = 1;
  a.node = 2;
  a.pubkey = to_bytes("pk-a");
  dir.add(a);
  AcInfo b;
  b.ac_id = 5;
  b.node = 6;
  b.pubkey = to_bytes("pk-b");
  b.backup_node = 7;
  b.backup_pubkey = to_bytes("pk-b2");
  dir.add(b);

  AcDirectory back = decode<AcDirectory>(encode(dir));
  EXPECT_EQ(back.size(), 2u);
  EXPECT_EQ(back.find(5)->backup_node, 7u);
  EXPECT_EQ(back.find(1)->pubkey, to_bytes("pk-a"));
}

}  // namespace
}  // namespace mykil::core
