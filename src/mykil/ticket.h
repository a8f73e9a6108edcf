// Mobility tickets (Section IV-B).
//
// "A ticket works like a ski pass": issued at registration, it lets a
// member rejoin a *different* area without repeating the seven-step join.
// Contents are sealed under K_shared, a symmetric key shared by all area
// controllers, so any AC can verify and re-issue tickets but members and
// outsiders cannot forge or alter them.
#pragma once

#include <cstdint>

#include "common/bytes.h"
#include "crypto/keys.h"
#include "crypto/prng.h"
#include "mykil/schema.h"
#include "net/sim_time.h"

namespace mykil::core {

/// Stable identity of an area controller across the group (independent of
/// its network NodeId, which changes if a backup takes over).
using AcId = std::uint64_t;
inline constexpr AcId kNoAc = 0xFFFFFFFFFFFFFFFF;
/// AcIds are allocated from this base ("AC" in ASCII). Child ACs joined to a
/// parent area have ClientIds in this range too, which lets a migration
/// sweep distinguish real members from nested area controllers.
inline constexpr AcId kAcIdBase = 0x4143000000000000;
/// Member identity — the paper suggests the NIC's MAC address.
using ClientId = std::uint64_t;

struct Ticket {
  net::SimTime join_time = 0;      ///< when the member registered
  net::SimTime valid_until = 0;    ///< expiry ("validity period")
  ClientId member_id = 0;          ///< NIC MAC stand-in
  Bytes member_pubkey;             ///< serialized RsaPublicKey
  AcId last_ac = 0;                ///< AC of the last area joined
  MYKIL_RECORD(join_time, valid_until, member_id, member_pubkey, last_ac)

  friend bool operator==(const Ticket&, const Ticket&) = default;
};

/// Seal a ticket under K_shared (confidentiality + the paper's MAC).
Bytes seal_ticket(const Ticket& ticket, const crypto::SymmetricKey& k_shared,
                  crypto::Prng& prng);

/// Open and verify a sealed ticket. Throws AuthError on tampering and
/// ProtocolError if expired at `now`.
Ticket open_ticket(ByteView sealed, const crypto::SymmetricKey& k_shared,
                   net::SimTime now);

}  // namespace mykil::core
