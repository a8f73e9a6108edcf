#include "mykil/source_auth.h"

#include "common/error.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"

namespace mykil::core {

namespace {

/// MAC key for an interval: derived from the chain element so disclosing
/// the element reveals the MAC key but not vice versa... (both directions
/// are fine here; derivation separates the domains).
Bytes mac_key_from_element(ByteView element) {
  return crypto::Sha256::digest(concat(to_bytes("tesla-mac"), element));
}

}  // namespace

TeslaSender::TeslaSender(net::SimTime start, net::SimDuration interval,
                         std::uint32_t disclosure_lag,
                         std::size_t chain_length, crypto::Prng& prng)
    : start_(start),
      interval_(interval),
      lag_(disclosure_lag),
      chain_(chain_length, prng) {
  if (interval == 0) throw ProtocolError("TESLA interval must be > 0");
  if (disclosure_lag == 0) throw ProtocolError("TESLA lag must be >= 1");
}

TeslaParams TeslaSender::params() const {
  TeslaParams p;
  p.anchor = chain_.anchor();
  p.start = start_;
  p.interval = interval_;
  p.disclosure_lag = lag_;
  p.chain_length = chain_.length();
  return p;
}

std::uint32_t TeslaSender::interval_of(net::SimTime now) const {
  if (now < start_) throw ProtocolError("TESLA: time before schedule start");
  return static_cast<std::uint32_t>((now - start_) / interval_ + 1);
}

TeslaPacket TeslaSender::stamp(ByteView payload, net::SimTime now) const {
  std::uint32_t i = interval_of(now);
  if (i > chain_.length()) throw ProtocolError("TESLA chain exhausted");

  TeslaPacket pkt;
  pkt.interval = i;
  pkt.payload = Bytes(payload.begin(), payload.end());
  if (!mac_key_ || mac_key_interval_ != i) {
    mac_key_.emplace(mac_key_from_element(chain_.element(i)));
    mac_key_interval_ = i;
  }
  pkt.mac = mac_key_->mac(payload);
  if (i > lag_) {
    pkt.disclosed_index = i - lag_;
    pkt.disclosed_key = chain_.element(i - lag_);
  }
  return pkt;
}

TeslaVerifier::TeslaVerifier(TeslaParams params) : params_(std::move(params)) {
  if (params_.interval == 0) throw ProtocolError("TESLA interval must be > 0");
}

bool TeslaVerifier::safe(std::uint32_t interval, net::SimTime arrival) const {
  // Key of interval i is disclosed by packets of interval i+d, i.e. from
  // time start + (i+d-1)*interval onward. The packet is safe iff it
  // arrived strictly before that moment.
  net::SimTime disclosure_time =
      params_.start +
      (static_cast<net::SimTime>(interval) + params_.disclosure_lag - 1) *
          params_.interval;
  return arrival < disclosure_time;
}

bool TeslaVerifier::accept_key(std::uint32_t index, ByteView key) {
  if (index == 0 || index > params_.chain_length) return false;
  auto known = keys_.find(index);
  if (known != keys_.end()) return true;  // already have it
  // Verify against the nearest verified predecessor (or the anchor).
  std::uint32_t base_index = 0;
  ByteView base = params_.anchor;
  if (highest_verified_ != 0 && highest_verified_ < index) {
    base_index = highest_verified_;
    base = keys_[highest_verified_];
  }
  if (!crypto::HashChain::verify(key, index - base_index, base)) return false;
  keys_[index] = Bytes(key.begin(), key.end());
  if (index > highest_verified_) highest_verified_ = index;
  return true;
}

std::vector<Bytes> TeslaVerifier::release_ready() {
  // A verified element k_j derives every earlier element by hashing down:
  // k_{j-1} = H(k_j). Materialize keys for buffered intervals on demand.
  auto key_for = [this](std::uint32_t index) -> const Bytes* {
    auto it = keys_.find(index);
    if (it != keys_.end()) return &it->second;
    if (index == 0 || index > highest_verified_) return nullptr;
    Bytes cur = keys_[highest_verified_];
    for (std::uint32_t j = highest_verified_; j > index; --j)
      cur = crypto::Sha256::digest(cur);
    auto [ins, _] = keys_.emplace(index, std::move(cur));
    return &ins->second;
  };

  std::vector<Bytes> out;
  // Packets of one interval share a MAC key; rebuild the keyed state only
  // when the interval changes (buffered_ iterates in interval order).
  std::uint32_t key_interval = 0;
  std::optional<crypto::HmacKey> mac_key;
  for (auto it = buffered_.begin(); it != buffered_.end();) {
    const Bytes* element = key_for(it->first);
    if (element == nullptr) {
      ++it;
      continue;
    }
    if (!mac_key || key_interval != it->first) {
      mac_key.emplace(mac_key_from_element(*element));
      key_interval = it->first;
    }
    if (mac_key->verify(it->second.payload, it->second.mac)) {
      out.push_back(std::move(it->second.payload));
      ++authenticated_;
    } else {
      ++rejected_;  // forged MAC caught at disclosure time
    }
    it = buffered_.erase(it);
  }
  return out;
}

std::vector<Bytes> TeslaVerifier::on_packet(const TeslaPacket& packet,
                                            net::SimTime now) {
  // A disclosed key helps regardless of whether this packet itself is
  // accepted.
  if (packet.disclosed_index != 0) {
    accept_key(packet.disclosed_index, packet.disclosed_key);
  }

  if (packet.interval == 0 || packet.interval > params_.chain_length ||
      !safe(packet.interval, now)) {
    // Late (or bogus-interval) packet: its key may already be public, so
    // the MAC proves nothing. Discard — the TESLA security condition.
    ++rejected_;
  } else {
    buffered_.insert({packet.interval, {packet.payload, packet.mac}});
  }
  return release_ready();
}

}  // namespace mykil::core
