// Wire conventions for the Mykil protocols (Figs. 3 and 7).
//
// Every protocol step has the shape
//     { fields...; MAC }_Pub_recipient            (optionally) ; Sig_Prv_sender
// which we realize as:
//   inner  = serialized fields || SHA-256(fields)      ("MAC" — integrity
//            inside the encryption, exactly the paper's construction)
//   box    = pk_encrypt(recipient public key, inner)   (hybrid when large)
//   packet = type byte || box [|| signature over box]
//
// Each message's fields and protection are defined once, in messages.h;
// this header holds the envelope around them.
#pragma once

#include <cstdint>

#include "common/bytes.h"
#include "common/wire.h"
#include "crypto/rsa.h"

namespace mykil::core {

/// The type tag of every message; messages.h defines each one's fields,
/// protection and direction.
enum class MsgType : std::uint8_t {
  // Join, Fig. 3, and rejoin, Fig. 7.
  kJoinStep1 = 1, kJoinStep2 = 2, kJoinStep3 = 3, kJoinStep4 = 4,
  kJoinStep5 = 5, kJoinStep6 = 6, kJoinStep7 = 7,
  kRejoinStep1 = 10, kRejoinStep2 = 11, kRejoinStep3 = 12,
  kRejoinStep4 = 13, kRejoinStep5 = 14, kRejoinStep6 = 15,
  // Area tree (Sections III-A, IV-C) and steady state.
  kAcUplinkJoin = 20, kAcUplinkReply = 21, kAlive = 22, kRekey = 23,
  kSplitUpdate = 24, kData = 25, kLeaveRequest = 26,
  // Replication (Section IV-C) and the reliable control plane (DESIGN.md 9).
  kStateSync = 30, kHeartbeat = 31, kTakeOver = 32, kKeyRecoveryRequest = 33,
  kKeyRecoveryReply = 34, kStateSyncRequest = 35,
  // Online area management (DESIGN.md 14).
  kAreaMapUpdate = 36, kLoadReport = 37, kMigrateRequest = 38,
  kMigrateDirective = 39, kJoinShed = 40,
  // Replication deltas (DESIGN.md 9.3).
  kStateDelta = 41,
};

/// Append SHA-256(fields) to the fields — the paper's per-message MAC.
Bytes with_mac(ByteView fields);
/// Verify the trailing MAC and return the fields before it, as a view into
/// `blob`; throws AuthError on mismatch. A temporary blob is rejected at
/// compile time.
ByteView strip_mac(ByteView blob);
ByteView strip_mac(Bytes&&) = delete;

/// packet = type || signed flag || bytes(box) [|| bytes(Sig_Prv(box))],
/// signed when `signer` is given.
Bytes envelope(MsgType type, ByteView box,
               const crypto::RsaPrivateKey* signer);

/// A parsed envelope whose `box` and `sig` point into the packet: no copy,
/// valid only while the packet lives (a handler keeps it for one call). A
/// temporary packet is rejected at compile time.
struct EnvelopeView {
  MsgType type{};
  ByteView box;
  ByteView sig;  ///< empty when unsigned
};
/// Parse either envelope form (presence of the signature is format-driven).
EnvelopeView parse_envelope_view(ByteView packet);
EnvelopeView parse_envelope_view(Bytes&&) = delete;

/// Verify an envelope's signature over its box. Returns false when the
/// envelope is unsigned or verification fails.
bool verify_envelope(const EnvelopeView& env, const crypto::RsaPublicKey& pub);

}  // namespace mykil::core
