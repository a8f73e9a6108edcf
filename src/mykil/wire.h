// Wire conventions for the Mykil protocols (Figs. 3 and 7).
//
// Every protocol step has the shape
//     { fields...; MAC }_Pub_recipient            (optionally) ; Sig_Prv_sender
// which we realize as:
//   inner  = serialized fields || SHA-256(fields)      ("MAC" — integrity
//            inside the encryption, exactly the paper's construction)
//   box    = pk_encrypt(recipient public key, inner)   (hybrid when large)
//   packet = type byte || box [|| signature over box]
#pragma once

#include <cstdint>

#include "common/bytes.h"
#include "common/wire.h"
#include "crypto/rsa.h"

namespace mykil::core {

enum class MsgType : std::uint8_t {
  // Join protocol, Fig. 3.
  kJoinStep1 = 1,   // client -> RS
  kJoinStep2 = 2,   // RS -> client
  kJoinStep3 = 3,   // client -> RS
  kJoinStep4 = 4,   // RS -> AC (signed)
  kJoinStep5 = 5,   // RS -> client (signed)
  kJoinStep6 = 6,   // client -> AC
  kJoinStep7 = 7,   // AC -> client

  // Rejoin protocol, Fig. 7.
  kRejoinStep1 = 10,  // client -> AC_B
  kRejoinStep2 = 11,  // AC_B -> client
  kRejoinStep3 = 12,  // client -> AC_B
  kRejoinStep4 = 13,  // AC_B -> AC_A (signed)
  kRejoinStep5 = 14,  // AC_A -> AC_B (signed)
  kRejoinStep6 = 15,  // AC_B -> client (signed)

  // Area management (Sections III-A, IV-C).
  kAcUplinkJoin = 20,   // AC -> parent AC (signed)
  kAcUplinkReply = 21,  // parent AC -> AC (signed)

  // Steady state.
  kAlive = 22,         // AC multicast / member unicast
  kRekey = 23,         // AC multicast, signed
  kSplitUpdate = 24,   // AC -> member unicast
  kData = 25,          // member multicast, forwarded by ACs
  kLeaveRequest = 26,  // member -> AC (voluntary leave)

  // Primary-backup replication (Section IV-C).
  kStateSync = 30,  // primary -> backup
  kHeartbeat = 31,  // primary -> backup
  kTakeOver = 32,   // backup multicast in area, signed

  // Reliable control plane (loss recovery, DESIGN.md 9).
  kKeyRecoveryRequest = 33,  // member -> AC (also child AC -> parent AC)
  kKeyRecoveryReply = 34,    // AC -> member, signed
  kStateSyncRequest = 35,    // backup -> primary (version mismatch)

  // Online area management (DESIGN.md 14).
  kAreaMapUpdate = 36,     // RS -> AC (signed), AC -> area multicast
  kLoadReport = 37,        // AC -> RS
  kMigrateRequest = 38,    // RS -> AC (signed, sealed)
  kMigrateDirective = 39,  // AC -> member (signed)
  kJoinShed = 40,          // RS -> client (advisory, unauthenticated)
};

/// Append SHA-256(fields) to the fields — the paper's per-message MAC.
Bytes with_mac(ByteView fields);
/// Verify and strip the trailing MAC; throws AuthError on mismatch.
Bytes strip_mac(ByteView blob);

/// packet = type || bytes(box)
Bytes envelope(MsgType type, ByteView box);
/// packet = type || bytes(box) || bytes(sig_Prv(box))
Bytes signed_envelope(MsgType type, ByteView box,
                      const crypto::RsaPrivateKey& signer);

/// A parsed envelope whose `box` and `sig` point into the packet: no copy,
/// valid only while the packet lives (the data path keeps it for one
/// handler call). A temporary packet is rejected at compile time.
struct EnvelopeView {
  MsgType type{};
  ByteView box;
  ByteView sig;  ///< empty when unsigned
};
/// Parse either envelope form (presence of the signature is format-driven).
EnvelopeView parse_envelope_view(ByteView packet);
EnvelopeView parse_envelope_view(Bytes&&) = delete;

/// Owning form of EnvelopeView: box and sig copied out of the packet.
struct Envelope {
  MsgType type;
  Bytes box;
  Bytes sig;  ///< empty when unsigned
};
Envelope parse_envelope(ByteView packet);

/// Verify an envelope's signature over its box. Returns false when the
/// envelope is unsigned or verification fails.
bool verify_envelope(const Envelope& env, const crypto::RsaPublicKey& pub);

}  // namespace mykil::core
