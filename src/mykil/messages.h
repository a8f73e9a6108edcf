// The Mykil message schema: every MsgType defined once (DESIGN.md 3.7).
//
// Each message is a struct whose MYKIL_MESSAGE line names its type tag, its
// protection and its ordered wire fields. That one list drives encode and
// decode, so the sender, the receiver, the fuzzer and the golden-bytes test
// all read the same definition:
//   wrap(JoinStep6{...}, ac_pub, prng_)       encode, MAC, seal, envelope
//   unwrap<JoinStep6>(env, keypair_.priv)     decrypt, strip MAC, decode
// unwrap checks no signature: each handler keeps its own order of
// signature, decryption and freshness checks. The field codec is schema.h's.
#pragma once

#include <cstdint>
#include <variant>

#include "common/error.h"
#include "crypto/prng.h"
#include "crypto/sealed.h"
#include "lkh/rekey.h"
#include "mykil/directory.h"
#include "mykil/records.h"
#include "mykil/schema.h"
#include "mykil/wire.h"

namespace mykil::core {

/// How a message's fields travel inside its envelope.
enum class Protection : std::uint8_t {
  kSealed,        ///< {fields; MAC}_Pub_recipient
  kSealedSigned,  ///< the same ; Sig_Prv_sender over the box
  kMac,           ///< fields; MAC, in clear
  kMacSigned,     ///< fields; MAC, in clear ; Sig_Prv_sender
  kPlain,         ///< fields in clear
  kPlainSigned,   ///< fields in clear ; Sig_Prv_sender
  kShared,        ///< fields sealed under K_shared.derive("sync")
};
constexpr bool is_signed(Protection p) {
  return p == Protection::kSealedSigned || p == Protection::kMacSigned ||
         p == Protection::kPlainSigned;
}
constexpr bool is_sealed(Protection p) {
  return p == Protection::kSealed || p == Protection::kSealedSigned;
}
constexpr bool has_clear_mac(Protection p) {
  return p == Protection::kMac || p == Protection::kMacSigned;
}
/// The box holds the fields themselves: decoded views point into the packet.
constexpr bool is_in_clear(Protection p) {
  return p != Protection::kShared && !is_sealed(p);
}

/// Declares a message: its MsgType, its Protection, its ordered fields.
#define MYKIL_MESSAGE(type, protection, ...)                         \
  static constexpr MsgType kType = MsgType::type;                    \
  static constexpr Protection kProtection = Protection::protection;  \
  MYKIL_FIELDS(__VA_ARGS__)

// Join, Fig. 3.

struct JoinStep1 {  // client -> RS: {[auth-info]; Pub_k; Nonce_CW}
  ClientId client_id = 0;
  net::SimDuration duration = 0;  ///< requested membership period
  Bytes client_pubkey;
  std::uint64_t nonce_cw = 0;
  MYKIL_MESSAGE(kJoinStep1, kSealed, client_id, duration, client_pubkey,
                nonce_cw)
};

struct JoinStep2 {  // RS -> client: {Nonce_CW+1; Nonce_WC}
  std::uint64_t nonce_cw_plus1 = 0;
  std::uint64_t nonce_wc = 0;
  MYKIL_MESSAGE(kJoinStep2, kSealed, nonce_cw_plus1, nonce_wc)
};

struct JoinStep3 {  // client -> RS: {Nonce_WC+1}
  std::uint64_t nonce_wc_plus1 = 0;
  MYKIL_MESSAGE(kJoinStep3, kSealed, nonce_wc_plus1)
};

struct JoinStep4 {  // RS -> AC: {Nonce_AC; K_id; ts; Pub_k; duration}
  std::uint64_t nonce_ac = 0;
  ClientId client_id = 0;
  net::SimTime ts = 0;
  Bytes client_pubkey;
  net::SimDuration duration = 0;  ///< granted membership period
  MYKIL_MESSAGE(kJoinStep4, kSealedSigned, nonce_ac, client_id, ts,
                client_pubkey, duration)
};

struct JoinStep5 {  // RS -> client: {Nonce_AC+1; AC; directory}
  std::uint64_t nonce_ac_plus1 = 0;
  AcId ac_id = 0;
  net::NodeId ac_node = 0;
  Bytes ac_pubkey;  ///< also in the directory
  AcDirectory directory;
  MYKIL_MESSAGE(kJoinStep5, kSealedSigned, nonce_ac_plus1, ac_id, ac_node,
                ac_pubkey, directory)
};

struct JoinStep6 {  // client -> AC: {Nonce_AC+2; Nonce_CA}
  std::uint64_t nonce_ac_plus2 = 0;
  std::uint64_t nonce_ca = 0;
  MYKIL_MESSAGE(kJoinStep6, kSealed, nonce_ac_plus2, nonce_ca)
};

struct JoinStep7 {  // AC -> client: {Nonce_CA+1; ticket; [aux-keys]}
  std::uint64_t nonce_ca_plus1 = 0;
  Bytes ticket;
  AcId ac_id = 0;
  net::GroupId group = 0;
  KeyPath path;
  std::uint64_t epoch = 0;  ///< rekey-stream entry point
  MYKIL_MESSAGE(kJoinStep7, kSealed, nonce_ca_plus1, ticket, ac_id, group, path,
                epoch)
};

// Rejoin, Fig. 7.

struct RejoinStep1 {  // client -> AC_B: {Nonce_CB; NIC id; ticket}
  std::uint64_t nonce_cb = 0;
  ClientId client_id = 0;  ///< the claimed NIC id
  Bytes ticket;
  MYKIL_MESSAGE(kRejoinStep1, kSealed, nonce_cb, client_id, ticket)
};

struct RejoinStep2 {  // AC_B -> client: {Nonce_CB+1; Nonce_BC}
  std::uint64_t nonce_cb_plus1 = 0;
  std::uint64_t nonce_bc = 0;
  MYKIL_MESSAGE(kRejoinStep2, kSealed, nonce_cb_plus1, nonce_bc)
};

struct RejoinStep3 {  // client -> AC_B: {Nonce_BC+1}
  std::uint64_t nonce_bc_plus1 = 0;
  MYKIL_MESSAGE(kRejoinStep3, kSealed, nonce_bc_plus1)
};

struct RejoinStep4 {  // AC_B -> AC_A: has the client left?
  AcId requester = 0;
  ClientId client_id = 0;
  net::SimTime ts = 0;
  MYKIL_MESSAGE(kRejoinStep4, kSealedSigned, requester, client_id, ts)
};

struct RejoinStep5 {  // AC_A -> AC_B: the answer
  AcId responder = 0;
  ClientId client_id = 0;
  bool gone = false;
  Bytes ticket;  ///< AC_A's copy; the client's was checked
  net::SimTime ts = 0;
  MYKIL_MESSAGE(kRejoinStep5, kSealedSigned, responder, client_id, gone, ticket,
                ts)
};

struct RejoinStep6 {  // AC_B -> client: {ticket; [aux-keys]}
  Bytes ticket;
  AcId ac_id = 0;
  net::GroupId group = 0;
  KeyPath path;
  std::uint64_t epoch = 0;  ///< rekey-stream entry point
  MYKIL_MESSAGE(kRejoinStep6, kSealedSigned, ticket, ac_id, group, path, epoch)
};

// Area tree (Sections III-A, IV-C).

struct AcUplinkJoin {  // AC -> parent AC
  AcId child = 0;
  net::SimTime ts = 0;
  MYKIL_MESSAGE(kAcUplinkJoin, kSealedSigned, child, ts)
};

struct AcUplinkReply {  // parent AC -> AC
  AcId parent = 0;
  net::GroupId group = 0;
  KeyPath path;
  net::SimTime ts = 0;
  std::uint64_t epoch = 0;  ///< where the child enters the stream
  MYKIL_MESSAGE(kAcUplinkReply, kSealedSigned, parent, group, path, ts, epoch)
};

// Steady state.

struct AliveBeacon {  // an AC's idle beacon, advertising its rekey epoch
  AcId ac_id = 0;
  std::uint64_t epoch = 0;
  MYKIL_FIELDS(ac_id, epoch)
};

struct AliveMember {  // a member's (or child AC's) liveness signal
  ClientId client_id = 0;
  MYKIL_FIELDS(client_id)
};

struct Alive {  // AC multicast (kind 0), member unicast (kind 1)
  std::variant<AliveBeacon, AliveMember> from;
  MYKIL_MESSAGE(kAlive, kPlain, from)
};

struct Rekey {  // AC multicast (Section III-E)
  Bare<lkh::RekeyMessage> rekey;
  MYKIL_MESSAGE(kRekey, kPlainSigned, rekey)
};

struct SplitUpdate {  // AC -> member moved by a leaf split
  Bare<KeyPath> path;
  MYKIL_MESSAGE(kSplitUpdate, kSealed, path)
};

struct Data {  // member multicast, forwarded by ACs
  std::uint64_t msg_id = 0;
  ClientId sender = 0;
  ByteView key_box;  ///< K_d under the area key
  ByteView payload_box;  ///< the payload under K_d
  MYKIL_MESSAGE(kData, kPlain, msg_id, sender, key_box, payload_box)
};

struct LeaveRequest {  // member -> AC
  ClientId client_id = 0;
  MYKIL_MESSAGE(kLeaveRequest, kPlain, client_id)
};

// Primary-backup replication (Section IV-C).

struct StateSync {  // primary -> backup
  std::uint64_t version = 0;
  std::uint64_t takeover_epoch = 0;
  Bytes snapshot;  ///< an encoded AreaSnapshot (records.h), kept as received
  MYKIL_MESSAGE(kStateSync, kShared, version, takeover_epoch, snapshot)
};

struct Heartbeat {  // primary -> backup
  net::SimTime ts = 0;  ///< the sender's clock
  std::uint64_t sync_version = 0;  ///< reveals a missed StateSync
  MYKIL_MESSAGE(kHeartbeat, kPlain, ts, sync_version)
};

struct TakeOver {  // backup multicast in area; also a redirect
  AcId ac_id = 0;
  net::NodeId node = 0;  ///< the acting primary
  net::SimTime ts = 0;
  MYKIL_MESSAGE(kTakeOver, kMacSigned, ac_id, node, ts)
};

// Reliable control plane (DESIGN.md 9).

struct KeyRecoveryRequest {  // member -> AC, child AC -> parent
  ClientId client_id = 0;
  AcId ac_id = 0;
  std::uint64_t epoch = 0;  ///< unused: replies carry the full path
  std::uint64_t nonce = 0;
  MYKIL_MESSAGE(kKeyRecoveryRequest, kPlain, client_id, ac_id, epoch, nonce)
};

struct KeyRecoveryReply {  // AC -> member
  std::uint64_t nonce_plus1 = 0;
  AcId ac_id = 0;
  std::uint64_t epoch = 0;
  KeyPath path;
  MYKIL_MESSAGE(kKeyRecoveryReply, kSealedSigned, nonce_plus1, ac_id, epoch,
                path)
};

struct StateSyncRequest {  // backup -> primary; no fields
  MYKIL_MESSAGE(kStateSyncRequest, kPlain)
};

struct StateDelta {  // primary -> backup, once it holds a snapshot
  std::uint64_t takeover_epoch = 0;
  AreaDelta delta;
  MYKIL_MESSAGE(kStateDelta, kShared, takeover_epoch, delta)
};

// Online area management (DESIGN.md 14).

struct AreaMapUpdate {  // RS -> AC, AC -> area (verbatim)
  net::SimTime ts = 0;
  AcDirectory directory;
  MYKIL_MESSAGE(kAreaMapUpdate, kMacSigned, ts, directory)
};

struct LoadReport {  // AC -> RS
  AcId ac_id = 0;
  std::uint32_t members = 0;  ///< child ACs excluded
  std::uint64_t rekey_epoch = 0;
  net::SimTime ts = 0;
  MYKIL_MESSAGE(kLoadReport, kMacSigned, ac_id, members, rekey_epoch, ts)
};

struct MigrateRequest {  // RS -> AC: move `count` members
  AcId target = 0;
  std::uint32_t count = 0;
  net::SimTime ts = 0;
  MYKIL_MESSAGE(kMigrateRequest, kSealedSigned, target, count, ts)
};

struct MigrateDirective {  // AC -> member
  AcId from_ac = 0;
  ClientId client_id = 0;
  AcId target = 0;
  net::SimTime ts = 0;
  Bytes map_update;  ///< the latest AreaMapUpdate packet, or empty
  MYKIL_MESSAGE(kMigrateDirective, kMacSigned, from_ac, client_id, target, ts,
                map_update)
};

struct JoinShed {  // RS -> client: advisory, so unsigned
  std::uint64_t retry_after_ms = 0;
  MYKIL_MESSAGE(kJoinShed, kMac, retry_after_ms)
};

/// The schema: one entry per MsgType.
#define MYKIL_MESSAGES(X)                                                   \
  X(JoinStep1) X(JoinStep2) X(JoinStep3) X(JoinStep4) X(JoinStep5)          \
  X(JoinStep6) X(JoinStep7) X(RejoinStep1) X(RejoinStep2) X(RejoinStep3)    \
  X(RejoinStep4) X(RejoinStep5) X(RejoinStep6) X(AcUplinkJoin)              \
  X(AcUplinkReply) X(Alive) X(Rekey) X(SplitUpdate) X(Data) X(LeaveRequest) \
  X(StateSync) X(Heartbeat) X(TakeOver) X(KeyRecoveryRequest)               \
  X(KeyRecoveryReply) X(StateSyncRequest) X(AreaMapUpdate) X(LoadReport)    \
  X(MigrateRequest) X(MigrateDirective) X(JoinShed) X(StateDelta)

using Messages = MYKIL_TYPE_LIST(MYKIL_MESSAGES);

namespace schema {

MYKIL_MESSAGES(MYKIL_LISTED)

// One case per schema entry and no default: a MsgType value without an
// entry is an unhandled enumerator (an error, by the pragma), and a type
// with two entries is a duplicate case label. A new message type thus
// cannot compile without an entry, nor, since the tests iterate Messages,
// without its fuzz and golden coverage.
#pragma GCC diagnostic push
#pragma GCC diagnostic error "-Wswitch"
constexpr bool defined(MsgType t) {
  switch (t) {
#define MYKIL_CASE(M) case M::kType:
    MYKIL_MESSAGES(MYKIL_CASE)
#undef MYKIL_CASE
    return true;
  }
  return false;
}
#pragma GCC diagnostic pop

template <typename M, typename Seal>
Bytes wrap(const M& m, const crypto::RsaPrivateKey* signer, Seal seal) {
  static_assert(!has_views<M> || is_in_clear(M::kProtection),
                "a decrypted body is a temporary: views into it would dangle");
  Bytes fields = encode(m);
  if constexpr (has_clear_mac(M::kProtection))
    return envelope(M::kType, with_mac(fields), signer);
  else if constexpr (is_in_clear(M::kProtection))
    return envelope(M::kType, fields, signer);
  else
    return envelope(M::kType, seal(fields), signer);
}

}  // namespace schema

// wrap: one overload per protection; signed types take the signer.
template <typename M>
  requires(M::kProtection == Protection::kPlain ||
           M::kProtection == Protection::kMac)
Bytes wrap(const M& m) {
  return schema::wrap(m, nullptr, nullptr);
}

template <typename M>
  requires(is_signed(M::kProtection) && is_in_clear(M::kProtection))
Bytes wrap(const M& m, const crypto::RsaPrivateKey& signer) {
  return schema::wrap(m, &signer, nullptr);
}

template <typename M>
  requires(M::kProtection == Protection::kSealed)
Bytes wrap(const M& m, const crypto::RsaPublicKey& to, crypto::Prng& prng) {
  return schema::wrap(m, nullptr, [&](ByteView fields) {
    return crypto::pk_encrypt(to, with_mac(fields), prng);
  });
}

template <typename M>
  requires(M::kProtection == Protection::kSealedSigned)
Bytes wrap(const M& m, const crypto::RsaPublicKey& to, crypto::Prng& prng,
           const crypto::RsaPrivateKey& signer) {
  return schema::wrap(m, &signer, [&](ByteView fields) {
    return crypto::pk_encrypt(to, with_mac(fields), prng);
  });
}

template <typename M>
  requires(M::kProtection == Protection::kShared)
Bytes wrap(const M& m, const crypto::SymmetricKey& k_shared,
           crypto::Prng& prng) {
  return schema::wrap(m, nullptr, [&](ByteView fields) {
    return crypto::sym_seal(k_shared.derive("sync"), fields, prng);
  });
}

// unwrap: the reverse, after the caller's own signature check, if any.
template <typename M>
  requires(is_in_clear(M::kProtection))
M unwrap(const EnvelopeView& env) {
  if (env.type != M::kType) throw WireError("unexpected message type");
  if constexpr (has_clear_mac(M::kProtection))
    return decode<M>(strip_mac(env.box));
  else
    return decode<M>(env.box);
}

template <typename M>
  requires(is_sealed(M::kProtection))
M unwrap(const EnvelopeView& env, const crypto::RsaPrivateKey& recipient) {
  if (env.type != M::kType) throw WireError("unexpected message type");
  Bytes inner = crypto::pk_decrypt(recipient, env.box);
  return decode<M>(strip_mac(inner));
}

template <typename M>
  requires(M::kProtection == Protection::kShared)
M unwrap(const EnvelopeView& env, const crypto::SymmetricKey& k_shared) {
  if (env.type != M::kType) throw WireError("unexpected message type");
  Bytes fields = crypto::sym_open(k_shared.derive("sync"), env.box);
  return decode<M>(fields);
}

}  // namespace mykil::core
