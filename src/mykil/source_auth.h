// TESLA-style multicast source authentication.
//
// Section III-E: signing every key-update with RSA is affordable because
// batching makes rekeys rare, but "for authenticating the source of a
// multicast data, we can use faster methods such as those proposed in
// [16], [3]". This module implements the [3]-style scheme: delayed
// symmetric-key disclosure over a one-way hash chain.
//
//   - Time is divided into intervals of `interval` simulated time.
//   - The sender owns a hash chain; interval i uses MAC key derived from
//     chain element k_i.
//   - A packet sent in interval i carries: i, MAC_{k_i}(payload), and the
//     DISCLOSED key k_{i-d} of an earlier interval (d = disclosure lag).
//   - Receivers buffer packets and accept one only when a LATER disclosure
//     reveals its interval key, the key verifies against the sender's
//     anchor, AND the packet arrived before its key could have been
//     disclosed (the TESLA safety condition) — otherwise a forger who saw
//     the disclosed key could have minted the MAC.
//
// The anchor + start time + interval are the sender's authenticated
// bootstrap data (distributed like any public key, e.g. in the AC
// directory or the join reply).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "crypto/hash_chain.h"
#include "crypto/hmac.h"
#include "crypto/keys.h"
#include "mykil/schema.h"
#include "net/sim_time.h"

namespace mykil::core {

/// Authenticated bootstrap parameters a receiver needs about a sender.
struct TeslaParams {
  Bytes anchor;                    ///< hash-chain anchor k_0
  net::SimTime start = 0;          ///< beginning of interval 1
  net::SimDuration interval = 0;   ///< interval length
  std::uint32_t disclosure_lag = 2;///< d: key of interval i disclosed in i+d
  std::size_t chain_length = 0;    ///< last usable interval index
  MYKIL_RECORD(anchor, start, interval, disclosure_lag, chain_length)
};

/// An authenticated packet on the wire.
struct TeslaPacket {
  std::uint32_t interval = 0;       ///< i: interval the MAC key belongs to
  Bytes payload;
  Bytes mac;                        ///< HMAC_{K_i}(payload)
  std::uint32_t disclosed_index = 0;///< j = i - d (0: nothing disclosed yet)
  Bytes disclosed_key;              ///< chain element k_j
  MYKIL_RECORD(interval, payload, mac, disclosed_index, disclosed_key)
};

/// Sender side: owns the chain, stamps packets.
class TeslaSender {
 public:
  TeslaSender(net::SimTime start, net::SimDuration interval,
              std::uint32_t disclosure_lag, std::size_t chain_length,
              crypto::Prng& prng);

  [[nodiscard]] TeslaParams params() const;
  /// Build an authenticated packet for `payload` at simulated time `now`.
  /// Throws ProtocolError once the chain is exhausted.
  TeslaPacket stamp(ByteView payload, net::SimTime now) const;

 private:
  [[nodiscard]] std::uint32_t interval_of(net::SimTime now) const;

  net::SimTime start_;
  net::SimDuration interval_;
  std::uint32_t lag_;
  crypto::HashChain chain_;
  /// Precomputed MAC key for the interval last stamped: every packet within
  /// one interval reuses it, skipping the HMAC key-schedule per packet.
  mutable std::uint32_t mac_key_interval_ = 0;
  mutable std::optional<crypto::HmacKey> mac_key_;
};

/// Receiver side: buffers packets until their keys are disclosed.
class TeslaVerifier {
 public:
  explicit TeslaVerifier(TeslaParams params);

  /// Feed a received packet with its arrival time. Returns all payloads
  /// that became AUTHENTIC as a result (possibly released from the
  /// buffer). Packets that arrived too late to be safe, or whose MAC or
  /// key fails verification, are silently discarded (counted).
  std::vector<Bytes> on_packet(const TeslaPacket& packet, net::SimTime now);

  [[nodiscard]] std::size_t pending() const { return buffered_.size(); }
  [[nodiscard]] std::size_t rejected() const { return rejected_; }
  [[nodiscard]] std::size_t authenticated() const { return authenticated_; }

 private:
  /// TESLA safety: at arrival time, the packet's interval key must not yet
  /// be disclosable.
  [[nodiscard]] bool safe(std::uint32_t interval, net::SimTime arrival) const;
  /// Verify a disclosed chain element and cache it.
  bool accept_key(std::uint32_t index, ByteView key);
  std::vector<Bytes> release_ready();

  TeslaParams params_;
  /// Verified chain elements, by index (sparse; monotone growth).
  std::map<std::uint32_t, Bytes> keys_;
  std::uint32_t highest_verified_ = 0;  ///< highest verified chain index
  struct Buffered {
    Bytes payload;
    Bytes mac;
  };
  std::multimap<std::uint32_t, Buffered> buffered_;  // by interval
  std::size_t rejected_ = 0;
  std::size_t authenticated_ = 0;
};

}  // namespace mykil::core
