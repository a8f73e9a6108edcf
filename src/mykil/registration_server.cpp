#include "mykil/registration_server.h"

#include <algorithm>

#include "common/error.h"
#include "crypto/sealed.h"
#include "mykil/messages.h"
#include "obs/metrics.h"

namespace mykil::core {

namespace {
const net::Label kLabelJoin{"mykil-join"};
const net::Label kLabelAdmin{"mykil-admin"};

constexpr std::uint64_t kTimerAdmission = 1;
constexpr std::uint64_t kTimerRebalance = 2;
/// A reconfiguration that has not completed after this many rebalance
/// intervals is abandoned (the map change, if any, stays).
constexpr std::uint64_t kReconfigTimeoutIntervals = 10;
}  // namespace

RegistrationServer::RegistrationServer(MykilConfig config,
                                       crypto::RsaKeyPair keypair,
                                       crypto::Prng prng)
    : config_(config), keypair_(std::move(keypair)), prng_(std::move(prng)) {
  tokens_ = static_cast<double>(config_.admission_burst);
}

void RegistrationServer::authorize(ClientId client, net::SimDuration duration) {
  durable_.auth_db[client] = duration;
}

void RegistrationServer::ensure_arq() {
  if (arq_.bound()) return;
  arq_.bind(network(), id(), config_.arq, config_.reliable_control,
            prng_.next_u64());
  // No give-up escalation: an unreachable client simply never joins, and
  // its own watchdog restarts the handshake.
}

void RegistrationServer::send_ctrl(net::NodeId to, net::Label label,
                                   Bytes payload) {
  ensure_arq();
  arq_.send(to, label, std::move(payload));
}

void RegistrationServer::start_timers() {
  if (!config_.enable_timers || timers_started_) return;
  timers_started_ = true;
  last_refill_ = network().now();
  std::uint64_t gen = static_cast<std::uint64_t>(timer_gen_) << 32;
  if (config_.admission_rate > 0)
    network().set_timer(id(), config_.admission_drain_interval,
                        kTimerAdmission | gen);
  if (config_.rebalance_interval > 0)
    network().set_timer(id(), config_.rebalance_interval,
                        kTimerRebalance | gen);
}

void RegistrationServer::on_timer(std::uint64_t token) {
  ensure_arq();
  if (arq_.on_timer(token)) return;  // retransmission timers (bit 63)
  if ((token >> 32) != timer_gen_) return;  // pre-crash timer
  std::uint64_t gen = static_cast<std::uint64_t>(timer_gen_) << 32;
  switch (token & 0xFFFFFFFFull) {
    case kTimerAdmission:
      drain_admission_queue();
      network().set_timer(id(), config_.admission_drain_interval,
                          kTimerAdmission | gen);
      return;
    case kTimerRebalance:
      rebalance();
      network().set_timer(id(), config_.rebalance_interval,
                          kTimerRebalance | gen);
      return;
    default:
      return;
  }
}

void RegistrationServer::on_recover() {
  if (arq_.bound()) arq_.on_recover();
  // Crashing dropped the pending timers along with the parked requests;
  // bump the generation and re-arm from scratch.
  bool was_running = timers_started_;
  admission_queue_.clear();
  ++timer_gen_;
  timers_started_ = false;
  if (was_running) start_timers();
}

void RegistrationServer::on_message(const net::Message& raw) {
  ensure_arq();
  net::Message unwrapped;
  net::ArqEndpoint::Rx rx = arq_.on_message(raw, unwrapped);
  if (rx == net::ArqEndpoint::Rx::kConsumed) return;
  const net::Message& msg =
      rx == net::ArqEndpoint::Rx::kDeliver ? unwrapped : raw;

  try {
    EnvelopeView env = parse_envelope_view(msg.payload);
    switch (env.type) {
      case MsgType::kJoinStep1: return admit_step1(msg, env);
      case MsgType::kJoinStep3: return handle_step3(env);
      case MsgType::kLoadReport: return handle_load_report(msg, env);
      default: return;  // not for the RS
    }
  } catch (const Error&) {
    // Malformed, unauthentic, or replayed input: drop, never crash.
    ++durable_.rejected;
  }
}

// --------------------------------------------------- admission (DESIGN 14.3)

void RegistrationServer::refill_bucket() {
  net::SimTime now = network().now();
  if (now > last_refill_) {
    double elapsed = net::to_seconds(now - last_refill_);
    tokens_ = std::min(static_cast<double>(config_.admission_burst),
                       tokens_ + elapsed * config_.admission_rate);
    last_refill_ = now;
  }
}

void RegistrationServer::admit_step1(const net::Message& msg,
                                     const EnvelopeView& env) {
  if (config_.admission_rate <= 0) {
    handle_step1(msg.from, env);  // admission control disabled: inline path
    return;
  }
  refill_bucket();
  auto* m = network().metrics();
  if (tokens_ >= 1.0) {
    tokens_ -= 1.0;
    if (m != nullptr) m->counter("rs.admitted").inc();
    handle_step1(msg.from, env);
    return;
  }
  if (admission_queue_.size() < config_.admission_queue_limit) {
    admission_queue_.push_back({msg.from, msg.payload.clone()});
    if (m != nullptr)
      m->gauge("rs.admission_queue_depth")
          .set(static_cast<std::int64_t>(admission_queue_.size()));
    return;
  }
  // Queue full: shed with a retry-after hint. The reply is a plain unsigned
  // advisory — a cheap datagram under overload, and the worst a forger can
  // do is delay one client's retry by the backoff.
  ++durable_.sheds;
  if (m != nullptr) {
    m->counter("rs.sheds").inc();
    m->gauge("rs.admission_queue_depth")
        .set(static_cast<std::int64_t>(admission_queue_.size()));
  }
  network().unicast(
      id(), msg.from, kLabelAdmin,
      wrap(JoinShed{.retry_after_ms = config_.shed_retry_after / 1000}));
}

void RegistrationServer::drain_admission_queue() {
  refill_bucket();
  while (tokens_ >= 1.0 && !admission_queue_.empty()) {
    Parked p = std::move(admission_queue_.front());
    admission_queue_.pop_front();
    tokens_ -= 1.0;
    if (auto* m = network().metrics()) m->counter("rs.admitted").inc();
    try {
      handle_step1(p.from, parse_envelope_view(p.payload));
    } catch (const Error&) {
      ++durable_.rejected;
    }
  }
  if (auto* m = network().metrics())
    m->gauge("rs.admission_queue_depth")
        .set(static_cast<std::int64_t>(admission_queue_.size()));
}

void RegistrationServer::handle_step1(net::NodeId from,
                                      const EnvelopeView& env) {
  auto step = unwrap<JoinStep1>(env, keypair_.priv);
  auto auth = durable_.auth_db.find(step.client_id);
  if (auth == durable_.auth_db.end()) {
    ++durable_.rejected;
    return;  // not eligible; silently ignore (no oracle for attackers)
  }

  Session s{.client_node = from, .client_id = step.client_id,
            .client_pubkey = step.client_pubkey, .nonce_wc = prng_.next_u64(),
            .duration = std::min(step.duration, auth->second)};
  pending_[s.nonce_wc + 1] = s;

  crypto::RsaPublicKey pub =
      crypto::RsaPublicKey::deserialize(step.client_pubkey);
  send_ctrl(from, kLabelJoin,
            wrap(JoinStep2{.nonce_cw_plus1 = step.nonce_cw + 1,
                           .nonce_wc = s.nonce_wc},
                 pub, prng_));
}

const AcInfo& RegistrationServer::pick_area() {
  if (durable_.directory.empty())
    throw ProtocolError("registration server has no registered areas");
  // Round-robin ("load balancing"), skipping areas at the configured cap
  // (Section V-A limits areas to "about 5000 members"). If every area is
  // full, fall back to plain round-robin — denial would strand authorized
  // clients.
  const std::vector<AcInfo>& areas = durable_.directory.entries();
  for (std::size_t tries = 0; tries < areas.size(); ++tries) {
    const AcInfo& info = areas[durable_.next_area % areas.size()];
    ++durable_.next_area;
    if (draining_.contains(info.ac_id)) continue;  // mid-merge: no new members
    if (config_.max_area_members == 0 ||
        durable_.assigned[info.ac_id] < config_.max_area_members) {
      ++durable_.assigned[info.ac_id];
      return info;
    }
  }
  const AcInfo& info = areas[durable_.next_area % areas.size()];
  ++durable_.next_area;
  ++durable_.assigned[info.ac_id];
  return info;
}

void RegistrationServer::handle_step3(const EnvelopeView& env) {
  // Step 3 authenticates the client.
  auto step = unwrap<JoinStep3>(env, keypair_.priv);
  auto it = pending_.find(step.nonce_wc_plus1);
  if (it == pending_.end()) {
    ++durable_.rejected;
    return;  // wrong challenge answer or replay
  }
  Session s = it->second;
  pending_.erase(it);

  const AcInfo& area = pick_area();
  std::uint64_t nonce_ac = prng_.next_u64();
  net::SimTime now = network().now();

  // Step 4 introduces the client to its AC; step 5 hands the client the
  // AC and the directory. Both are signed by the RS.
  send_ctrl(area.node, kLabelJoin,
            wrap(JoinStep4{.nonce_ac = nonce_ac, .client_id = s.client_id,
                           .ts = now, .client_pubkey = s.client_pubkey,
                           .duration = s.duration},
                 crypto::RsaPublicKey::deserialize(area.pubkey), prng_,
                 keypair_.priv));
  send_ctrl(s.client_node, kLabelJoin,
            wrap(JoinStep5{.nonce_ac_plus1 = nonce_ac + 1, .ac_id = area.ac_id,
                           .ac_node = area.node, .ac_pubkey = area.pubkey,
                           .directory = durable_.directory},
                 crypto::RsaPublicKey::deserialize(s.client_pubkey), prng_,
                 keypair_.priv));
  ++durable_.completed;
}

// ------------------------------------------- rebalancing (DESIGN 14.1-14.2)

void RegistrationServer::handle_load_report(const net::Message& msg,
                                            const EnvelopeView& env) {
  auto [ac_id, members, rekey_epoch, ts] = unwrap<LoadReport>(env);
  net::SimTime now = network().now();
  if (ts + config_.ts_window < now || ts > now + config_.ts_window)
    throw AuthError("load report outside timestamp window");
  if (!durable_.directory.verify(ac_id, env.box, env.sig))
    throw AuthError("load report signature rejected");
  const AcInfo* info = durable_.directory.find(ac_id);
  if (info == nullptr) return;  // raced a merge removal: stale but harmless
  if (msg.from != info->node && msg.from != info->backup_node)
    throw AuthError("load report from unregistered node");
  // Reports from the backup's address mean a takeover happened that no
  // signed announcement has told us about yet — adopt the new orientation.
  if (msg.from == info->backup_node && info->has_backup())
    durable_.directory.promote_backup(ac_id);

  loads_[ac_id] = {members, rekey_epoch, now};
  // Load reports supersede the join-time estimate for this area.
  durable_.assigned[ac_id] = members;

  // Completion checks ride on the report that proves them, not on the next
  // rebalance tick, so the latency histogram measures the protocol.
  if (!reconfig_) return;
  if (reconfig_->split) {
    // A split is done when the new area holds the members the source was
    // asked to shed. Judging by the source's own shrinkage is wrong: joins
    // admitted mid-reconfiguration land on the source too, so its count can
    // stay above any snapshot-based floor forever.
    if (ac_id == reconfig_->target && members >= reconfig_->moved_goal)
      finish_reconfig(false);
  } else if (ac_id == reconfig_->source && members == 0) {
    finish_reconfig(false);
  }
}

void RegistrationServer::rebalance() {
  if (config_.rebalance_interval == 0) return;
  net::SimTime now = network().now();
  if (reconfig_) {
    if (now - reconfig_->started >=
        kReconfigTimeoutIntervals * config_.rebalance_interval)
      finish_reconfig(true);
    return;  // one reconfiguration at a time
  }
  // Hottest area first: split beats merge when both are possible.
  if (config_.area_split_threshold > 0 && !durable_.spares.empty()) {
    AcId hot = kNoAc;
    std::size_t hot_members = 0;
    for (const auto& [ac_id, load] : loads_) {
      if (draining_.contains(ac_id)) continue;
      if (durable_.directory.find(ac_id) == nullptr) continue;
      if (load.members >= config_.area_split_threshold &&
          load.members > hot_members) {
        hot = ac_id;
        hot_members = load.members;
      }
    }
    if (hot != kNoAc) {
      start_split(hot, hot_members);
      return;
    }
  }
  if (config_.area_merge_threshold > 0 && durable_.directory.size() > 1) {
    for (AcId cold : durable_.dynamic) {
      auto load = loads_.find(cold);
      if (load == loads_.end() || draining_.contains(cold)) continue;
      if (load->second.members <= config_.area_merge_threshold) {
        start_merge(cold);
        return;
      }
    }
  }
}

void RegistrationServer::start_split(AcId hot, std::size_t members) {
  AcInfo spare = std::move(durable_.spares.back());
  durable_.spares.pop_back();
  AcId target = spare.ac_id;
  durable_.directory.add(std::move(spare));
  durable_.dynamic.insert(target);
  durable_.assigned[target] = 0;
  reconfig_ = Reconfig{true, hot, target, network().now(), members,
                       members / 2};
  ++durable_.splits;
  if (auto* m = network().metrics()) m->counter("rs.area_splits").inc();
  broadcast_map_update();
  const AcInfo* src = durable_.directory.find(hot);
  send_migrate_request(*src, target,
                       static_cast<std::uint32_t>(members / 2));
}

void RegistrationServer::start_merge(AcId cold) {
  // Drain into the least-loaded sibling still accepting members.
  AcId target = kNoAc;
  std::size_t target_members = SIZE_MAX;
  for (const AcInfo& e : durable_.directory.entries()) {
    if (e.ac_id == cold || draining_.contains(e.ac_id)) continue;
    auto load = durable_.assigned.find(e.ac_id);
    std::size_t m = load != durable_.assigned.end() ? load->second : 0;
    if (m < target_members) {
      target = e.ac_id;
      target_members = m;
    }
  }
  if (target == kNoAc) return;
  auto load = loads_.find(cold);
  std::size_t members = load == loads_.end() ? 0 : load->second.members;
  draining_.insert(cold);
  reconfig_ = Reconfig{false, cold, target, network().now(), members, 0};
  const AcInfo* src = durable_.directory.find(cold);
  send_migrate_request(*src, target, 0xFFFFFFFF);
}

void RegistrationServer::finish_reconfig(bool timed_out) {
  Reconfig r = *reconfig_;
  reconfig_.reset();
  if (timed_out) {
    ++durable_.timeouts;
    if (auto* m = network().metrics()) m->counter("rs.reconfig_timeouts").inc();
    // A timed-out split keeps its new area (it is live and owns members); a
    // timed-out merge simply reopens the source for placement.
    draining_.erase(r.source);
    return;
  }
  if (auto* m = network().metrics())
    m->histogram("rs.reconfig_latency_us")
        .record(network().now() - r.started);
  if (r.split) return;  // map already updated at start
  // Merge drained: retire the area from the map and return the pair to the
  // spare pool for a future split.
  const AcInfo* info = durable_.directory.find(r.source);
  if (info == nullptr) return;
  AcInfo retired = *info;
  durable_.directory.remove(r.source);
  durable_.dynamic.erase(r.source);
  draining_.erase(r.source);
  loads_.erase(r.source);
  durable_.assigned.erase(r.source);
  ++durable_.merges;
  if (auto* m = network().metrics()) m->counter("rs.area_merges").inc();
  broadcast_map_update(&retired);
  durable_.spares.push_back(std::move(retired));
}

void RegistrationServer::broadcast_map_update(const AcInfo* extra) {
  durable_.directory.set_version(durable_.directory.version() + 1);
  if (auto* m = network().metrics())
    m->gauge("rs.map_version")
        .set(static_cast<std::int64_t>(durable_.directory.version()));
  Bytes payload = wrap(
      AreaMapUpdate{.ts = network().now(), .directory = durable_.directory},
      keypair_.priv);
  auto push = [&](const AcInfo& e) {
    send_ctrl(e.node, kLabelAdmin, payload);
    if (e.has_backup()) send_ctrl(e.backup_node, kLabelAdmin, payload);
  };
  for (const AcInfo& e : durable_.directory.entries()) push(e);
  if (extra != nullptr) push(*extra);
}

void RegistrationServer::send_migrate_request(const AcInfo& src, AcId target,
                                              std::uint32_t count) {
  send_ctrl(src.node, kLabelAdmin,
            wrap(MigrateRequest{.target = target, .count = count,
                                .ts = network().now()},
                 crypto::RsaPublicKey::deserialize(src.pubkey), prng_,
                 keypair_.priv));
}

// ------------------------------------------------ checkpoint (DESIGN 14.4)

RsState RegistrationServer::checkpoint_state() const { return durable_; }

void RegistrationServer::restore_state(RsState state) {
  durable_ = std::move(state);
  // In-flight nonce handshakes, parked step-1 requests, and the one
  // in-flight reconfiguration are dropped: client watchdogs restart joins,
  // and the rebalancer re-detects imbalance from fresh load reports.
  pending_.clear();
  admission_queue_.clear();
  reconfig_.reset();
  draining_.clear();
  loads_.clear();
  tokens_ = static_cast<double>(config_.admission_burst);
  last_refill_ = network().now();
  prng_.mix(0x52455354u /* "REST" */);
  if (auto* m = network().metrics())
    m->gauge("rs.map_version")
        .set(static_cast<std::int64_t>(durable_.directory.version()));
}

}  // namespace mykil::core
