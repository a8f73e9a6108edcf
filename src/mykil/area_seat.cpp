#include "mykil/area_seat.h"

#include "common/error.h"

namespace mykil::core {

void AreaSeat::enter(AcId ac, net::NodeId node, net::GroupId group,
                     const std::vector<lkh::PathKey>& path,
                     std::uint64_t epoch, net::SimTime now) {
  ac_ = ac;
  node_ = node;
  group_ = group;
  keys_.clear();
  keys_.install(path);
  epoch_ = epoch;
  recovery_pending_ = false;
  last_heard_ = now;
}

std::optional<Bytes> AreaSeat::alive_due(ClientId self, net::SimTime now,
                                         const MykilConfig& config) {
  if (now - last_sent_ < config.t_active) return std::nullopt;
  last_sent_ = now;
  return wrap(Alive{.from = AliveMember{.client_id = self}});
}

AreaSeat::Rekeyed AreaSeat::apply_rekey(const AcDirectory& directory,
                                        const net::Message& msg,
                                        const EnvelopeView& env,
                                        const MykilConfig& config) {
  if (msg.group != group_) return {};
  // Key update messages are signed by the area controller (Section III-E).
  if (!directory.verify(ac_, env.box, env.sig)) return {};
  lkh::RekeyMessage rk = unwrap<Rekey>(env).rekey.value;
  if (config.reliable_control) {
    if (rk.epoch <= epoch_) return {};  // duplicate or already caught up
    // Skipped rekeys may have rotated keys on our own path, leaving this
    // one's entries unreadable: ask for a current-path catch-up instead.
    if (rk.epoch > epoch_ + 1) return {.recover = "rekey-gap"};
  }
  std::size_t entries = 0;
  try {
    entries = keys_.apply(rk);
  } catch (const AuthError&) {
    // A held key no longer matches what the AC encrypted under: we missed
    // an update the epoch stream did not expose.
    return {.recover = "stale-key"};
  }
  if (rk.epoch > epoch_) epoch_ = rk.epoch;
  return {.applied = true, .entries = entries};
}

void AreaSeat::install_key_path(const AcDirectory& directory,
                                net::NodeId from, const EnvelopeView& env,
                                const crypto::RsaPrivateKey& self_priv) {
  const AcInfo* info = directory.find(ac_);
  if (info == nullptr || (from != info->node && from != info->backup_node))
    return;
  keys_.install(unwrap<SplitUpdate>(env, self_priv).path.value);
}

std::optional<Bytes> AreaSeat::request_recovery(ClientId self,
                                                net::SimTime now,
                                                const MykilConfig& config,
                                                crypto::Prng& prng) {
  if (!config.reliable_control) return std::nullopt;
  if (recovery_pending_ &&
      now - last_recovery_request_ < config.key_recovery_interval)
    return std::nullopt;
  if (!recovery_pending_) recovery_started_ = now;
  recovery_pending_ = true;
  last_recovery_request_ = now;
  recovery_nonce_ = prng.next_u64();
  // The AC authenticates the requester by membership record and source
  // node, and seals its answer to the requester's registered key.
  return wrap(KeyRecoveryRequest{.client_id = self, .ac_id = ac_,
                                 .epoch = epoch_, .nonce = recovery_nonce_});
}

bool AreaSeat::accept_recovery_reply(const AcDirectory& directory,
                                     const EnvelopeView& env,
                                     const crypto::RsaPrivateKey& self_priv) {
  if (!directory.verify(ac_, env.box, env.sig)) return false;
  auto reply = unwrap<KeyRecoveryReply>(env, self_priv);
  if (reply.ac_id != ac_) return false;
  // The nonce echo binds the reply to our outstanding request (anti-replay).
  if (!recovery_pending_ || reply.nonce_plus1 != recovery_nonce_ + 1)
    return false;
  if (reply.epoch < epoch_) {
    // Built before a rekey we have since applied: installed wholesale it
    // would roll keys back unseen. Take what the version guard allows and
    // leave the recovery pending, so the owner's retry asks again.
    keys_.install(reply.path);
    return false;
  }
  // Authoritative: key versions are per instance and can regress across a
  // takeover, so the version-guarded install() could ignore the new
  // primary's keys. Replace the whole path instead.
  keys_.reinstall(reply.path);
  epoch_ = reply.epoch;
  recovery_pending_ = false;
  return true;
}

void AreaSeat::follow_takeover(AcDirectory& directory, AreaSeat* seat,
                               const EnvelopeView& env, net::SimTime now,
                               const MykilConfig& config) {
  auto [who, new_node, ts] = unwrap<TakeOver>(env);
  if (!config.ts_fresh(ts, now)) return;
  if (!directory.verify(who, env.box, env.sig)) return;
  // promote_backup swaps the roles: swap only when the directory does not
  // already list the announced node, so a repeat does not swap them back.
  if (const AcInfo* info = directory.find(who);
      info != nullptr && info->node != new_node)
    directory.promote_backup(who);
  if (seat != nullptr && seat->ac_ == who) {
    seat->node_ = new_node;
    seat->last_heard_ = now;
  }
}

}  // namespace mykil::core
