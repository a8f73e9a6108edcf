#include "mykil/ticket.h"

#include "common/error.h"
#include "crypto/sealed.h"
#include "mykil/records.h"

namespace mykil::core {

Bytes seal_ticket(const Ticket& ticket, const crypto::SymmetricKey& k_shared,
                  crypto::Prng& prng) {
  // sym_seal = Speck-CTR + HMAC: the HMAC is the ticket's tamper-evident
  // "bar code"; Speck keeps the NIC id and public key confidential too.
  return crypto::sym_seal(k_shared.derive("ticket"), encode(ticket), prng);
}

Ticket open_ticket(ByteView sealed, const crypto::SymmetricKey& k_shared,
                   net::SimTime now) {
  Bytes raw = crypto::sym_open(k_shared.derive("ticket"), sealed);
  Ticket t = decode<Ticket>(raw);
  if (now > t.valid_until) throw ProtocolError("ticket expired");
  return t;
}

}  // namespace mykil::core
