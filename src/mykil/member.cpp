#include "mykil/member.h"

#include <algorithm>
#include <string>

#include "common/error.h"
#include "crypto/sealed.h"
#include "mykil/messages.h"

namespace mykil::core {

namespace {

// Interned once at startup; per-send cost is a 2-byte copy.
const net::Label kLabelJoin{"mykil-join"};
const net::Label kLabelRejoin{"mykil-rejoin"};
const net::Label kLabelData{"mykil-data"};
const net::Label kLabelAlive{"mykil-alive"};
const net::Label kLabelRecovery{"mykil-recovery"};

constexpr std::uint64_t kTimerAlive = 1;
constexpr std::uint64_t kTimerWatchdog = 2;

}  // namespace

std::uint64_t Member::timer_token(std::uint64_t kind) const {
  return kind | (static_cast<std::uint64_t>(timer_gen_) << 32);
}

void Member::ensure_arq() {
  if (arq_.bound()) return;
  arq_.bind(network(), id(), config_.arq, config_.reliable_control,
            prng_.next_u64());
  arq_.set_give_up_handler([this](net::NodeId to, const std::string&) {
    // Escalate to the existing failure-detection path: zeroing the AC
    // silence clock makes the watchdog treat the AC as unreachable and
    // trigger a mobility rejoin on its next tick.
    if (joined_) seat_.unreachable(to);
  });
}

void Member::send_ctrl(net::NodeId to, net::Label label, Bytes payload) {
  ensure_arq();
  arq_.send(to, label, std::move(payload));
}

Member::Member(ClientId nic_id, MykilConfig config, crypto::RsaKeyPair keypair,
               crypto::RsaPublicKey rs_pub, crypto::Prng prng)
    : nic_id_(nic_id),
      config_(config),
      keypair_(std::move(keypair)),
      rs_pub_(std::move(rs_pub)),
      prng_(std::move(prng)) {}

void Member::start_timers() {
  ensure_arq();
  if (!config_.enable_timers) return;
  network().set_timer(id(), config_.t_active, timer_token(kTimerAlive));
  network().set_timer(id(), config_.t_idle, timer_token(kTimerWatchdog));
}

void Member::on_crash() {
  // Crash-stop: keys and tickets survive (they model durable client
  // state), but timers armed before the failure must not drive the
  // protocol after recovery with pre-crash generation state.
  ++timer_gen_;
}

void Member::on_recover() {
  seat_.heard(network().now());  // grace period before the watchdog
  seat_.cancel_recovery();
  if (arq_.bound()) arq_.on_recover();
  start_timers();
}

void Member::join(net::NodeId rs_node, net::SimDuration requested_duration) {
  rs_node_ = rs_node;
  requested_duration_ = requested_duration;
  join_in_progress_ = true;
  nonce_cw_ = prng_.next_u64();
  join_started_ = network().now();
  net::Network& net = network();
  net::TraceContext outer = net.current_trace();
  if (auto* t = net.tracer()) {
    // Root a causal trace: every message of this join (and its ARQ
    // retries) inherits the context via the ambient-propagation rule, so
    // the whole member<->RS<->AC exchange binds into one flow.
    net.set_current_trace({net.new_trace_id(id()), nic_id_});
    t->span_begin(obs::EventKind::kJoin, nic_id_, id(), join_started_);
    t->flow_start(obs::EventKind::kFlow, net.current_trace().trace_id, id(),
                  join_started_, kLabelJoin);
  }

  // Step 1. The auth-info is our client id plus the membership duration
  // we are "paying" for.
  send_ctrl(rs_node, kLabelJoin,
            wrap(JoinStep1{.client_id = nic_id_,
                           .duration = requested_duration,
                           .client_pubkey = keypair_.pub.serialize(),
                           .nonce_cw = nonce_cw_},
                 rs_pub_, prng_));
  net.set_current_trace(outer);
}

void Member::handle_join_step2(const EnvelopeView& env) {
  auto step = unwrap<JoinStep2>(env, keypair_.priv);
  // Authenticate the RS: only the holder of the well-known key's private
  // half could read Nonce_CW and answer Nonce_CW + 1.
  if (step.nonce_cw_plus1 != nonce_cw_ + 1)
    throw AuthError("registration server failed the nonce challenge");
  send_ctrl(rs_node_, kLabelJoin,
            wrap(JoinStep3{.nonce_wc_plus1 = step.nonce_wc + 1}, rs_pub_,
                 prng_));
}

void Member::handle_join_step5(const EnvelopeView& env) {
  // Signed by the RS — verify before trusting the AC handle inside.
  if (!verify_envelope(env, rs_pub_)) throw AuthError("step-5 signature bad");
  auto step = unwrap<JoinStep5>(env, keypair_.priv);
  directory_ = std::move(step.directory);
  seat_.aim(step.ac_id, step.ac_node);

  nonce_ca_ = prng_.next_u64();
  const AcInfo* info = directory_.find(step.ac_id);
  if (info == nullptr) throw ProtocolError("assigned AC missing from directory");
  crypto::RsaPublicKey pub = crypto::RsaPublicKey::deserialize(info->pubkey);
  // Subscribe to the area's multicast group now: a rekey triggered by a
  // concurrent join must not slip past us between steps 6 and 7.
  network().join_group(info->group, id());
  send_ctrl(step.ac_node, kLabelJoin,
            wrap(JoinStep6{.nonce_ac_plus2 = step.nonce_ac_plus1 + 1,
                           .nonce_ca = nonce_ca_},
                 pub, prng_));
  seat_.sent(network().now());
}

void Member::handle_join_step7(const net::Message& msg,
                               const EnvelopeView& env) {
  auto step = unwrap<JoinStep7>(env, keypair_.priv);
  if (step.nonce_ca_plus1 != nonce_ca_ + 1)
    throw AuthError("area controller failed the nonce challenge");

  sealed_ticket_ = std::move(step.ticket);
  seat_.enter(step.ac_id, msg.from, step.group, step.path, step.epoch,
              network().now());
  discard_held();
  network().join_group(step.group, id());
  joined_ = true;
  join_in_progress_ = false;
  join_latency_ = network().now() - join_started_;
  if (auto* t = network().tracer()) {
    t->span_end(obs::EventKind::kJoin, nic_id_, id(), network().now());
    net::TraceContext ctx = network().current_trace();
    if (ctx.active())
      t->flow_end(obs::EventKind::kFlow, ctx.trace_id, id(), network().now(),
                  kLabelJoin);
  }
  if (auto* m = network().metrics())
    m->histogram("member.join_latency_us").record(*join_latency_);
}

void Member::rejoin(AcId target_ac) {
  if (sealed_ticket_.empty()) throw ProtocolError("rejoin without a ticket");
  const AcInfo* info = directory_.find(target_ac);
  if (info == nullptr) throw ProtocolError("rejoin target not in directory");
  rejoin_target_ = target_ac;
  rejoin_in_progress_ = true;
  rejoin_started_ = network().now();
  nonce_cb_ = prng_.next_u64();
  net::Network& net = network();
  net::TraceContext outer = net.current_trace();
  if (auto* t = net.tracer()) {
    // Root the end-to-end rejoin trace (ticket presentation -> AC verify
    // -> cohort check -> key install): the paper's headline handoff
    // latency measured as ONE exchange, not summed parts.
    net.set_current_trace({net.new_trace_id(id()), nic_id_});
    t->span_begin(obs::EventKind::kRejoin, nic_id_, id(), rejoin_started_);
    t->flow_start(obs::EventKind::kFlow, net.current_trace().trace_id, id(),
                  rejoin_started_, kLabelRejoin);
  }

  // Subscribe early (see handle_join_step5 for why).
  network().join_group(info->group, id());

  crypto::RsaPublicKey pub = crypto::RsaPublicKey::deserialize(info->pubkey);
  send_ctrl(info->node, kLabelRejoin,
            wrap(RejoinStep1{.nonce_cb = nonce_cb_, .client_id = nic_id_,
                             .ticket = sealed_ticket_},
                 pub, prng_));
  net.set_current_trace(outer);
}

void Member::handle_rejoin_step2(const EnvelopeView& env) {
  if (!rejoin_in_progress_) return;
  auto step = unwrap<RejoinStep2>(env, keypair_.priv);
  if (step.nonce_cb_plus1 != nonce_cb_ + 1)
    throw AuthError("rejoin AC failed the nonce challenge");

  const AcInfo* info = directory_.find(rejoin_target_);
  if (info == nullptr) return;
  crypto::RsaPublicKey pub = crypto::RsaPublicKey::deserialize(info->pubkey);
  send_ctrl(info->node, kLabelRejoin,
            wrap(RejoinStep3{.nonce_bc_plus1 = step.nonce_bc + 1}, pub,
                 prng_));
}

void Member::handle_rejoin_step6(const net::Message& msg,
                                 const EnvelopeView& env) {
  if (!rejoin_in_progress_ ||
      !directory_.verify(rejoin_target_, env.box, env.sig))
    return;
  auto step = unwrap<RejoinStep6>(env, keypair_.priv);

  if (joined_ && seat_.group() != step.group)
    network().leave_group(seat_.group(), id());
  sealed_ticket_ = std::move(step.ticket);
  seat_.enter(step.ac_id, msg.from, step.group, step.path, step.epoch,
              network().now());
  discard_held();
  network().join_group(step.group, id());
  joined_ = true;
  rejoin_in_progress_ = false;
  rejoin_latency_ = network().now() - rejoin_started_;
  if (auto* t = network().tracer()) {
    auto span =
        t->span_end(obs::EventKind::kRejoin, nic_id_, id(), network().now());
    net::TraceContext ctx = network().current_trace();
    if (ctx.active())
      t->flow_end(obs::EventKind::kFlow, ctx.trace_id, id(), network().now(),
                  kLabelRejoin);
    // Trace-DERIVED end-to-end latency: the span pairing, not an ad-hoc
    // timestamp pair, is the source of truth (ISSUE 7 / DESIGN.md 13.1).
    if (span)
      if (auto* m = network().metrics())
        m->histogram("trace.rejoin_latency_us").record(*span);
  }
  if (auto* m = network().metrics())
    m->histogram("member.rejoin_latency_us").record(*rejoin_latency_);
}

void Member::leave() {
  if (!joined_) return;
  send_ctrl(seat_.node(), kLabelJoin,
            wrap(LeaveRequest{.client_id = nic_id_}));
  network().leave_group(seat_.group(), id());
  rejoin_in_progress_ = false;  // a move in flight ends with the membership
  seat_.clear_keys();
  discard_held();
  joined_ = false;
}

void Member::send_data(ByteView payload) {
  if (!joined_) throw ProtocolError("send_data before join completed");
  // Iolus-style data path (Section III): random K_d, payload under K_d,
  // K_d under the area key; one multicast carries both.
  crypto::SymmetricKey data_key = crypto::SymmetricKey::random(prng_);
  std::uint64_t msg_id = prng_.next_u64();
  seen_data_.insert(msg_id);
  Bytes key_box = seat_.seal_data_key(data_key.bytes(), prng_);
  Bytes payload_box = crypto::sym_seal(data_key, payload, prng_);
  network().multicast(id(), seat_.group(), kLabelData,
                      wrap(Data{.msg_id = msg_id, .sender = nic_id_,
                                .key_box = key_box,
                                .payload_box = payload_box}));
  seat_.sent(network().now());  // the AC hears area traffic
}

void Member::handle_rekey(const net::Message& msg, const EnvelopeView& env) {
  if (!joined_) return;
  AreaSeat::Rekeyed rekeyed = seat_.apply_rekey(directory_, msg, env, config_);
  if (rekeyed.recover != nullptr) return request_key_recovery(rekeyed.recover);
  if (!rekeyed.applied) return;
  if (rekeyed.entries > 0) {
    ++rekeys_applied_;
    rekey_entries_applied_ += rekeyed.entries;
  }
  // Data that overtook this rekey opens now. A held packet that still does
  // not means we are more than one rotation behind (or its sender is).
  retry_held(false);
  if (!held_data_.empty()) request_key_recovery("undecryptable-data");
}

void Member::handle_data(const net::Message& msg, const EnvelopeView& env) {
  if (!joined_ || msg.group != seat_.group()) return;
  auto data = unwrap<Data>(env);
  if (!seen_data_.insert(data.msg_id)) return;

  if (auto plain = try_open(data.key_box, data.payload_box)) {
    received_data_.push_back(std::move(*plain));
    return;
  }
  // Sealed under a group key we do not hold. An AC flushes its rekeys just
  // before it re-seals forwarded data (Section III-E), so both leave at
  // once and the smaller data packet can arrive first: hold it for the
  // rekey in flight. The next rekey, or the watchdog, asks for a catch-up
  // if the packet stays unreadable.
  if (held_data_.size() == kMaxHeldData) {
    held_data_.erase(held_data_.begin());
    ++undecryptable_count_;
  }
  held_data_.push_back({msg.payload, data.key_box, data.payload_box});
  if (auto* m = network().metrics()) m->counter("member.data_held").inc();
}

std::optional<Bytes> Member::try_open(ByteView key_box,
                                      ByteView payload_box) const {
  std::optional<crypto::SymmetricKey> data_key = seat_.open_data_key(key_box);
  if (!data_key || payload_box.size() < crypto::kSealOverhead)
    return std::nullopt;
  // K_d seals one packet: open it once, straight into the bytes we keep.
  Bytes plain(payload_box.size() - crypto::kSealOverhead);
  if (!crypto::DataPlaneKey(*data_key).open_into(payload_box, plain))
    return std::nullopt;
  return plain;
}

void Member::retry_held(bool recovered) {
  std::vector<HeldData> held = std::move(held_data_);
  held_data_.clear();
  for (HeldData& h : held) {
    if (auto plain = try_open(h.key_box, h.payload_box)) {
      received_data_.push_back(std::move(*plain));
      if (auto* m = network().metrics())
        m->counter("member.data_held_opened").inc();
    } else if (recovered) {
      ++undecryptable_count_;
    } else {
      held_data_.push_back(std::move(h));
    }
  }
}

void Member::discard_held() {
  undecryptable_count_ += held_data_.size();
  held_data_.clear();
}

void Member::handle_ac_beacon(const EnvelopeView& env) {
  if (joined_ && seat_.beacon_gap(unwrap<Alive>(env)))
    request_key_recovery("beacon-gap");
}

void Member::request_key_recovery(const char* trigger) {
  if (!joined_) return;
  net::SimTime now = network().now();
  auto request = seat_.request_recovery(nic_id_, now, config_, prng_);
  if (!request) return;
  if (auto* t = network().tracer())
    t->instant(obs::EventKind::kKeyRecovery, id(), now, nic_id_, seat_.epoch(),
               trigger);
  if (auto* m = network().metrics())
    m->counter(std::string("member.key_recovery_requests.") + trigger).inc();
  send_ctrl(seat_.node(), kLabelRecovery, std::move(*request));
}

void Member::handle_key_recovery_reply(const EnvelopeView& env) {
  if (!joined_ ||
      !seat_.accept_recovery_reply(directory_, env, keypair_.priv))
    return;
  ++key_recoveries_;
  if (auto* m = network().metrics())
    m->counter("member.key_recoveries").inc();
  // Held data this catch-up does not open came from a sender behind the
  // rekey stream, or is garbage.
  retry_held(true);
}

void Member::handle_join_shed(const net::Message& msg,
                              const EnvelopeView& env) {
  // Advisory and unauthenticated (the RS sheds precisely because it cannot
  // afford a signature per rejected request). Worst case a forger delays
  // this one join by the clamped interval; the watchdog still retries.
  if (!join_in_progress_ || joined_ || msg.from != rs_node_) return;
  std::uint64_t retry_after_ms =
      std::min<std::uint64_t>(unwrap<JoinShed>(env).retry_after_ms, 60'000);
  join_backoff_until_ = network().now() + net::msec(retry_after_ms);
  if (auto* m = network().metrics()) m->counter("member.sheds_received").inc();
}

void Member::handle_area_map_update(const EnvelopeView& env) {
  // RS-signed directory push, re-multicast into the area by our AC. The
  // signature is the authority and adopt() enforces version monotonicity,
  // so no freshness window is needed beyond replay being a no-op.
  if (!verify_envelope(env, rs_pub_)) return;
  if (!directory_.adopt(unwrap<AreaMapUpdate>(env).directory)) return;
  if (auto* m = network().metrics()) m->counter("member.map_updates").inc();
  if (joined_ && directory_.find(seat_.ac_id()) == nullptr) {
    // Our area was retired by a merge and we missed the migrate directive
    // (lost, or we were down). The map itself is the fallback signal: drop
    // the dead membership and take the ticket to a surviving area.
    network().leave_group(seat_.group(), id());
    seat_.clear_keys();
    joined_ = false;
    if (!rejoin_in_progress_ && !sealed_ticket_.empty() &&
        !directory_.entries().empty())
      rejoin(directory_.entries().front().ac_id);
  }
}

void Member::handle_migrate_directive(const EnvelopeView& env) {
  auto directive = unwrap<MigrateDirective>(env);
  if (!joined_ || directive.from_ac != seat_.ac_id() ||
      directive.client_id != nic_id_)
    return;
  // Only our own AC may move us, and only recently (replayed directives
  // must not bounce us back after a later move).
  if (!directory_.verify(directive.from_ac, env.box, env.sig)) return;
  if (!config_.ts_fresh(directive.ts, network().now())) return;
  if (!directive.map_update.empty()) {
    // The directive carries the RS's latest signed map so we can learn a
    // freshly split target before our own copy catches up.
    try {
      EnvelopeView map_env = parse_envelope_view(directive.map_update);
      if (map_env.type == MsgType::kAreaMapUpdate &&
          verify_envelope(map_env, rs_pub_))
        directory_.adopt(unwrap<AreaMapUpdate>(map_env).directory);
    } catch (const Error&) {
    }
  }
  if (directive.target == seat_.ac_id() || rejoin_in_progress_) return;
  if (directory_.find(directive.target) == nullptr) return;
  ++migrations_;
  if (auto* m = network().metrics()) m->counter("member.migrations").inc();
  rejoin(directive.target);
}

AcId Member::next_rejoin_target() const {
  const std::vector<AcInfo>& entries = directory_.entries();
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (entries[i].ac_id == rejoin_target_)
      return entries[(i + 1) % entries.size()].ac_id;
  }
  return rejoin_target_;
}

void Member::trigger_mobility_rejoin() {
  if (sealed_ticket_.empty() || rejoin_in_progress_) return;
  seat_.cancel_recovery();  // the rejoin supersedes any pending catch-up
  // Choose a preferred AC that is not the silent one.
  for (const AcInfo& e : directory_.entries()) {
    if (e.ac_id == seat_.ac_id()) continue;
    ++watchdog_rejoins_;
    joined_ = false;  // we are cut off; stop claiming membership
    rejoin(e.ac_id);
    return;
  }
}

void Member::on_timer(std::uint64_t token) {
  ensure_arq();
  if (arq_.on_timer(token)) return;           // retransmission timers
  if ((token >> 32) != timer_gen_) return;    // armed before a crash
  switch (token & 0xFFFFFFFFull) {
    case kTimerAlive: {
      if (joined_)
        if (auto alive = seat_.alive_due(nic_id_, network().now(), config_))
          network().unicast(id(), seat_.node(), kLabelAlive,
                            std::move(*alive));
      network().set_timer(id(), config_.t_active, timer_token(kTimerAlive));
      return;
    }
    case kTimerWatchdog: {
      net::SimTime now = network().now();
      if (join_in_progress_ && !joined_) {
        // A lossy network can eat any of the seven join messages; restart
        // the handshake with fresh nonces. An RS load-shed pushes the
        // retry out further (handle_join_shed), flattening flash crowds.
        if (now - join_started_ > config_.rejoin_retry_interval &&
            now >= join_backoff_until_)
          join(rs_node_, requested_duration_);
      } else if (rejoin_in_progress_) {
        // Denied or lost: try again, rotating through the directory. A
        // retry against the SAME node can be stuck forever when our entry
        // for the target is stale (we missed a takeover announcement while
        // crashed); the next area over answers — or redirects us.
        if (now - rejoin_started_ > config_.rejoin_retry_interval)
          rejoin(next_rejoin_target());
      } else if (joined_ && seat_.silent(now, config_)) {
        trigger_mobility_rejoin();
      }
      // A recovery answer can itself be lost; re-ask on the same cadence.
      // But recovery answered by nothing for the full disconnection horizon
      // means either the AC is gone or we were silently evicted while away
      // (the AC refuses evicted members by design) — the watchdog cannot
      // see the latter because the AC's multicasts keep refreshing the
      // silence clock. The ticket rejoin path resolves both.
      if (joined_ && seat_.recovery_pending()) {
        if (now - seat_.recovery_started() > config_.ac_silence_limit())
          trigger_mobility_rejoin();
        else
          request_key_recovery("retry");
      } else if (joined_ && !held_data_.empty()) {
        // Held data whose rekey never came: it was lost, or a forger sent
        // garbage, which then costs the AC one answer per tick at most.
        request_key_recovery("undecryptable-data");
      }
      network().set_timer(id(), config_.t_idle, timer_token(kTimerWatchdog));
      return;
    }
    default:
      return;
  }
}

// ------------------------------------------------ checkpoint (DESIGN 14.4)

MemberState Member::checkpoint_state() const {
  MemberPhase phase = joined_              ? MemberPhase::kJoined
                      : join_in_progress_   ? MemberPhase::kJoining
                      : rejoin_in_progress_ ? MemberPhase::kRejoining
                                            : MemberPhase::kIdle;
  return {.phase = phase, .rs_node = rs_node_,
          .requested_duration = requested_duration_, .ac = seat_.ac_id(),
          .ac_node = seat_.node(), .area_group = seat_.group(),
          .area_epoch = seat_.epoch(), .rejoin_target = rejoin_target_,
          .sealed_ticket = sealed_ticket_, .directory = directory_,
          .keys = seat_.keys(), .watchdog_rejoins = watchdog_rejoins_,
          .key_recoveries = key_recoveries_, .migrations = migrations_};
}

void Member::restore_state(MemberState s) {
  MemberPhase phase = s.phase;
  rs_node_ = s.rs_node;
  requested_duration_ = s.requested_duration;
  rejoin_target_ = s.rejoin_target;
  sealed_ticket_ = std::move(s.sealed_ticket);
  directory_ = std::move(s.directory);
  seat_ = AreaSeat(s.ac, s.ac_node, s.area_group, s.area_epoch,
                   std::move(s.keys));
  watchdog_rejoins_ = s.watchdog_rejoins;
  key_recoveries_ = s.key_recoveries;
  migrations_ = s.migrations;

  // In-flight handshakes are NOT resumed: their nonces died with the peer's
  // volatile state. A member captured mid-join/mid-rejoin restarts the
  // exchange from scratch — same convergence, fresh randomness.
  ++timer_gen_;
  prng_.mix(0x52455354u);
  joined_ = (phase == MemberPhase::kJoined);
  join_in_progress_ = false;
  rejoin_in_progress_ = false;
  join_backoff_until_ = 0;
  seen_data_.clear();
  received_data_.clear();
  discard_held();
  seat_.heard(network().now());  // grace period before the watchdog
  seat_.sent(network().now());
  if (joined_ && directory_.find(seat_.ac_id()) == nullptr) {
    // Captured after a merge retired our area but before we acted on it.
    joined_ = false;
    phase = MemberPhase::kRejoining;
    if (!directory_.entries().empty())
      rejoin_target_ = directory_.entries().front().ac_id;
  }
  if (joined_) network().join_group(seat_.group(), id());
  start_timers();
  if (phase == MemberPhase::kJoining) {
    join(rs_node_, requested_duration_);
  } else if (phase == MemberPhase::kRejoining && !sealed_ticket_.empty() &&
             directory_.find(rejoin_target_) != nullptr) {
    rejoin(rejoin_target_);
  }
}

void Member::on_message(const net::Message& raw) {
  // Any frame from our AC — including a bare ARQ ack — is a sign of life.
  if (raw.from == seat_.node()) seat_.heard(network().now());

  ensure_arq();
  net::Message unwrapped;
  net::ArqEndpoint::Rx rx = arq_.on_message(raw, unwrapped);
  if (rx == net::ArqEndpoint::Rx::kConsumed) return;
  const net::Message& msg =
      rx == net::ArqEndpoint::Rx::kDeliver ? unwrapped : raw;

  try {
    EnvelopeView env = parse_envelope_view(msg.payload);
    switch (env.type) {
      case MsgType::kJoinStep2: return handle_join_step2(env);
      case MsgType::kJoinStep5: return handle_join_step5(env);
      case MsgType::kJoinStep7: return handle_join_step7(msg, env);
      case MsgType::kRejoinStep2: return handle_rejoin_step2(env);
      case MsgType::kRejoinStep6: return handle_rejoin_step6(msg, env);
      case MsgType::kRekey: return handle_rekey(msg, env);
      case MsgType::kSplitUpdate:
        return seat_.install_key_path(directory_, msg.from, env,
                                      keypair_.priv);
      case MsgType::kData: return handle_data(msg, env);
      case MsgType::kTakeOver:
        return AreaSeat::follow_takeover(directory_, &seat_, env,
                                         network().now(), config_);
      case MsgType::kAlive: return handle_ac_beacon(env);
      case MsgType::kKeyRecoveryReply: return handle_key_recovery_reply(env);
      case MsgType::kJoinShed: return handle_join_shed(msg, env);
      case MsgType::kAreaMapUpdate: return handle_area_map_update(env);
      case MsgType::kMigrateDirective: return handle_migrate_directive(env);
      default: return;
    }
  } catch (const Error&) {
    // Hostile or stale input: drop. Clients must be unconditionally robust
    // to network garbage.
  }
}

}  // namespace mykil::core
