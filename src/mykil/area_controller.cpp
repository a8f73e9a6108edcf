#include "mykil/area_controller.h"

#include <algorithm>

#include "common/error.h"
#include "crypto/sealed.h"
#include "mykil/messages.h"

namespace mykil::core {

namespace {

// Interned once at startup; per-send cost is a 2-byte copy.
const net::Label kLabelJoin{"mykil-join"};
const net::Label kLabelRejoin{"mykil-rejoin"};
const net::Label kLabelRekey{"mykil-rekey"};
const net::Label kLabelData{"mykil-data"};
const net::Label kLabelAlive{"mykil-alive"};
const net::Label kLabelRepl{"mykil-repl"};
const net::Label kLabelArea{"mykil-area"};
const net::Label kLabelRecovery{"mykil-recovery"};
const net::Label kLabelAdmin{"mykil-admin"};

// Recurring timer tokens.
constexpr std::uint64_t kTimerIdle = 1;
constexpr std::uint64_t kTimerMemberScan = 2;
constexpr std::uint64_t kTimerRekey = 3;
constexpr std::uint64_t kTimerHeartbeat = 4;
constexpr std::uint64_t kTimerBackupWatch = 5;
constexpr std::uint64_t kTimerLoadReport = 6;
constexpr std::uint64_t kTimerMigrate = 7;

}  // namespace

AreaController::AreaController(AcId ac_id, MykilConfig config,
                               crypto::RsaKeyPair keypair,
                               crypto::SymmetricKey k_shared,
                               crypto::RsaPublicKey rs_pub, crypto::Prng prng,
                               Role role)
    : ac_id_(ac_id),
      config_(config),
      keypair_(std::move(keypair)),
      k_shared_(std::move(k_shared)),
      rs_pub_(std::move(rs_pub)),
      prng_(std::move(prng)),
      role_(role) {
  lkh::KeyTree::Config tree_cfg;
  tree_cfg.fanout = config_.tree_fanout;
  tree_cfg.prune_on_leave = false;       // Section III-D
  tree_cfg.rekey_root_on_join = false;   // batching layer rotates the root
  tree_.emplace(tree_cfg, prng_.fork());
}

std::uint64_t AreaController::timer_token(std::uint64_t kind) const {
  return kind | (static_cast<std::uint64_t>(timer_gen_) << 32);
}

void AreaController::ensure_arq() {
  if (arq_.bound()) return;
  arq_.bind(network(), id(), config_.arq, config_.reliable_control,
            prng_.next_u64());
  arq_.set_give_up_handler([this](net::NodeId to, const std::string&) {
    // Escalate to the existing failure-detection paths: an unreachable
    // member is evicted by the next scan, an unreachable parent triggers a
    // parent switch on the next liveness check.
    for (auto& [cid, rec] : members_) {
      if (rec.node == to) rec.last_heard = 0;
    }
    if (uplink_) uplink_->seat.unreachable(to);
  });
}

void AreaController::send_ctrl(net::NodeId to, net::Label label,
                               Bytes payload) {
  ensure_arq();
  arq_.send(to, label, std::move(payload));
}

void AreaController::open_area(net::Network& net) {
  if (role_ != Role::kPrimary) throw ProtocolError("open_area on a backup");
  area_group_ = net.create_group();
  net.join_group(area_group_, id());
  open_ = true;
  last_area_tx_ = net.now();
  ensure_arq();
  start_primary_timers();
}

void AreaController::start_primary_timers() {
  if (!config_.enable_timers) return;
  network().set_timer(id(), config_.t_idle, timer_token(kTimerIdle));
  network().set_timer(id(), config_.t_active, timer_token(kTimerMemberScan));
  network().set_timer(id(), config_.rekey_interval, timer_token(kTimerRekey));
  if (config_.load_report_interval > 0)
    network().set_timer(id(), config_.load_report_interval,
                        timer_token(kTimerLoadReport));
}

void AreaController::set_backup(net::NodeId backup_node) {
  replicate_to(backup_node, "new-backup");
}

void AreaController::start_watchdog() {
  if (role_ != Role::kBackup) throw ProtocolError("start_watchdog on a primary");
  last_heartbeat_rx_ = network().now();
  ensure_arq();
  if (config_.enable_timers)
    network().set_timer(id(), config_.heartbeat_interval,
                        timer_token(kTimerBackupWatch));
}

void AreaController::on_crash() {
  // Crash-stop: durable state (tree, membership, tickets) survives, but
  // in-flight handshake sessions die with us — clients re-drive them via
  // their retry watchdogs. The generation bump invalidates every timer
  // armed before the failure.
  ++timer_gen_;
  pending_joins_.clear();
  early_step6_.clear();
  pending_rejoins_.clear();
  awaiting_cohort_.clear();
  rejoin_timeout_tokens_.clear();
  takeover_trace_ = {};  // an interrupted heal's span stays open in the trace
}

void AreaController::on_recover() {
  ensure_arq();
  arq_.on_recover();
  net::SimTime now = network().now();
  if (role_ == Role::kPrimary) {
    // Grace: silence accrued while WE were down is our fault, not the
    // members' — without this a recovered primary mass-evicts its area
    // (and rekeys everyone out) before a pending demotion reaches it.
    for (auto& [cid, rec] : members_) rec.last_heard = now;
    if (uplink_) uplink_->seat.heard(now);
    last_area_tx_ = now;
    if (open_) start_primary_timers();
    if (backup_node_ != net::kNoNode && config_.enable_timers)
      network().set_timer(id(), config_.heartbeat_interval,
                          timer_token(kTimerHeartbeat));
  } else {
    last_heartbeat_rx_ = now;  // grace before the takeover watchdog
    if (config_.enable_timers)
      network().set_timer(id(), config_.heartbeat_interval,
                          timer_token(kTimerBackupWatch));
  }
}

void AreaController::multicast_area(net::Label label, Bytes payload) {
  network().multicast(id(), area_group_, label, std::move(payload));
  last_area_tx_ = network().now();
}

Bytes AreaController::issue_ticket(ClientId client, ByteView pubkey,
                                   net::SimTime join_time,
                                   net::SimTime valid_until) {
  Ticket t;
  t.join_time = join_time;
  t.valid_until = valid_until;
  t.member_id = client;
  t.member_pubkey = Bytes(pubkey.begin(), pubkey.end());
  t.last_ac = ac_id_;
  return seal_ticket(t, k_shared_, prng_);
}

// ---------------------------------------------------------------- rekeying

std::uint64_t AreaController::stream_epoch(std::uint64_t rekey) const {
  // Wire epochs are (takeover epoch | per-instance rekey counter): a
  // promoted standby resumes the counter from a possibly stale snapshot,
  // and members that were AHEAD of that snapshot would discard its rekeys
  // as duplicates if the counter alone were compared. The composite stays
  // strictly monotone across takeovers, so consumers keep a single
  // "highest epoch seen" cursor and every instance change reads as a gap.
  return (takeover_epoch_ << 40) | rekey;
}

void AreaController::emit_rekey(lkh::RekeyMessage msg,
                                std::size_t batched_leaves) {
  // First rekey after a promotion: the area is cryptographically healed.
  // Re-apply the takeover context (flush_rekeys often runs from a timer,
  // where the ambient is empty) so the rekey multicast rides the takeover
  // flow, then close the heal span.
  net::TraceContext saved_trace = network().current_trace();
  bool healing = takeover_trace_.active();
  if (healing) network().set_current_trace(takeover_trace_);

  // Every rekey multicast carries the next epoch; members use the gap in
  // this stream to detect lost rekeys (DESIGN.md 9.2). Member-side key
  // application is guarded by per-entry key versions, not the epoch, so
  // overwriting whatever the tree layer put here is safe.
  msg.epoch = stream_epoch(++rekey_epoch_);
  Bytes payload = wrap(Rekey{.rekey = {std::move(msg)}}, keypair_.priv);
  if (auto* t = network().tracer()) {
    if (batched_leaves > 0)
      t->instant(obs::EventKind::kBatchFlush, id(), network().now(),
                 batched_leaves);
    t->instant(obs::EventKind::kRekeyEmit, id(), network().now(),
               payload.size(), members_.size());
  }
  if (auto* m = network().metrics()) {
    if (batched_leaves > 0)
      m->histogram("ac.batch_size").record(batched_leaves);
    m->histogram("ac.rekey_bytes").record(payload.size());
    m->histogram("ac.rekey_fanout").record(members_.size());
  }
  multicast_area(kLabelRekey, std::move(payload));
  ++counters_.rekey_multicasts;
  if (healing) {
    if (auto* t = network().tracer()) {
      auto heal = t->span_end(obs::EventKind::kTakeoverHeal, ac_id_, id(),
                              network().now());
      t->flow_end(obs::EventKind::kFlow, takeover_trace_.trace_id, id(),
                  network().now(), kLabelRekey);
      if (heal)
        if (auto* m = network().metrics())
          m->histogram("trace.takeover_latency_us").record(*heal);
    }
    takeover_trace_ = {};
    network().set_current_trace(saved_trace);
  }
  // Do NOT sync_backup here: admit() emits mid-operation (stale-leaf leave)
  // while members_ and the tree momentarily disagree, and a snapshot taken
  // then would hand a promoted standby an inconsistent membership. Every
  // caller chain ends at a consistent point that syncs (flush_rekeys, the
  // join/rejoin/uplink completions, schedule_leave).
}

void AreaController::flush_rekeys() {
  if (role_ != Role::kPrimary || !open_) return;
  lkh::RekeyMessage msg;
  std::size_t batched = 0;
  if (!pending_leaves_.empty()) {
    prev_area_key_ = tree_->root_key();
    batched = pending_leaves_.size();
    msg = tree_->leave_batch(pending_leaves_);
    pending_leaves_.clear();
    pending_join_rotation_ = false;
  } else if (pending_join_rotation_) {
    prev_area_key_ = tree_->root_key();
    msg = tree_->rotate_root();
    pending_join_rotation_ = false;
  } else {
    return;
  }
  emit_rekey(std::move(msg), batched);
  last_fresh_rekey_ = network().now();
  sync_backup();
}

std::vector<lkh::PathKey> AreaController::admit(ClientId client,
                                                net::NodeId node,
                                                ByteView pubkey) {
  // A rejoining client may still sit in the tree (stale leaf) or in the
  // pending-leave batch (left, now coming back before the flush). Clear
  // both so the new admission starts from a clean slate.
  std::erase(pending_leaves_, client);
  if (tree_->contains(client)) {
    prev_area_key_ = tree_->root_key();
    emit_rekey(tree_->leave(client), /*batched_leaves=*/0);
  }

  lkh::KeyTree::JoinOutcome out = tree_->join(client);
  if (out.split) {
    auto moved = members_.find(out.split_member);
    if (moved != members_.end()) {
      send_ctrl(moved->second.node, kLabelRekey,
                wrap(SplitUpdate{.path = {out.split_member_update}},
                     crypto::RsaPublicKey::deserialize(moved->second.pubkey),
                     prng_));
    }
  }

  AreaMember rec;
  rec.node = node;
  rec.pubkey = Bytes(pubkey.begin(), pubkey.end());
  rec.last_heard = network().now();
  members_[client] = std::move(rec);
  departed_tickets_.erase(client);

  pending_join_rotation_ = true;
  if (!config_.batching) flush_rekeys();
  // Re-read the path AFTER any immediate flush: the join reply must carry
  // the keys as they are now, not as they were before the root rotated.
  return tree_->path_keys(client);
}

void AreaController::schedule_leave(ClientId client) {
  auto it = members_.find(client);
  if (it == members_.end()) return;
  if (auto* t = network().tracer())
    t->instant(obs::EventKind::kMemberLeave, id(), network().now(), client);
  departed_tickets_[client] = it->second.sealed_ticket;
  network().leave_group(area_group_, it->second.node);
  members_.erase(it);
  if (std::find(pending_leaves_.begin(), pending_leaves_.end(), client) ==
      pending_leaves_.end()) {
    pending_leaves_.push_back(client);
  }
  if (!config_.batching) flush_rekeys();
  sync_backup();
}

// ----------------------------------------------------------- join protocol

void AreaController::handle_join_step4(const EnvelopeView& env) {
  // Signed by the registration server; verify before trusting anything.
  if (!verify_envelope(env, rs_pub_)) return;
  auto intro = unwrap<JoinStep4>(env, keypair_.priv);
  if (!ts_fresh(intro.ts)) return;  // replay (the paper's Timestamp check)
  std::uint64_t nonce_response = intro.nonce_ac + 2;
  pending_joins_[nonce_response] = std::move(intro);

  // Under network reordering the client's step 6 can arrive before this
  // introduction; if it is parked, complete the join now.
  auto early = early_step6_.find(nonce_response);
  if (early != early_step6_.end()) {
    EarlyStep6 e = early->second;
    early_step6_.erase(early);
    complete_join(nonce_response, e.client_node, e.nonce_ca);
  }
}

void AreaController::handle_join_step6(const net::Message& msg,
                                       const EnvelopeView& env) {
  auto step = unwrap<JoinStep6>(env, keypair_.priv);
  complete_join(step.nonce_ac_plus2, msg.from, step.nonce_ca);
}

void AreaController::complete_join(std::uint64_t nonce_response,
                                   net::NodeId client_node,
                                   std::uint64_t nonce_ca) {
  auto it = pending_joins_.find(nonce_response);
  if (it == pending_joins_.end()) {
    // Either an attack (bogus nonce) or the step-4 introduction is still
    // in flight: park it. A bogus entry sits harmlessly in the map — it
    // can never match a real Nonce_AC+2, which has 64 bits of entropy.
    early_step6_[nonce_response] = {client_node, nonce_ca};
    return;
  }
  JoinStep4 intro = std::move(it->second);
  pending_joins_.erase(it);

  std::vector<lkh::PathKey> path =
      admit(intro.client_id, client_node, intro.client_pubkey);
  net::SimTime now = network().now();
  Bytes sealed = issue_ticket(intro.client_id, intro.client_pubkey, now,
                              now + intro.duration);
  members_[intro.client_id].sealed_ticket = sealed;
  members_[intro.client_id].valid_until = now + intro.duration;

  // Step 7. pk_encrypt goes hybrid automatically — the paper's
  // one-time-symmetric-key workaround.
  send_ctrl(client_node, kLabelJoin,
            wrap(JoinStep7{.nonce_ca_plus1 = nonce_ca + 1, .ticket = sealed,
                           .ac_id = ac_id_, .group = area_group_, .path = path,
                           .epoch = stream_epoch(rekey_epoch_)},
                 crypto::RsaPublicKey::deserialize(
                     members_[intro.client_id].pubkey),
                 prng_));
  ++counters_.joins;
  sync_backup();
}

// --------------------------------------------------------- rejoin protocol

void AreaController::handle_rejoin_step1(const net::Message& msg,
                                         const EnvelopeView& env) {
  auto step = unwrap<RejoinStep1>(env, keypair_.priv);
  Ticket ticket = open_ticket(step.ticket, k_shared_, network().now());

  // AC-side verify span: ticket opened -> admission decision. Paired with
  // the span_end in admit_rejoin/deny_rejoin by (kind, client id).
  if (auto* t = network().tracer())
    t->span_begin(obs::EventKind::kRejoinVerify, ticket.member_id, id(),
                  network().now());

  std::uint64_t nonce_bc = prng_.next_u64();
  PendingRejoin pr;
  pr.client_node = msg.from;
  pr.claimed_nic = step.client_id;
  pr.ticket = ticket;
  pending_rejoins_[nonce_bc + 1] = std::move(pr);

  send_ctrl(msg.from, kLabelRejoin,
            wrap(RejoinStep2{.nonce_cb_plus1 = step.nonce_cb + 1,
                             .nonce_bc = nonce_bc},
                 crypto::RsaPublicKey::deserialize(ticket.member_pubkey),
                 prng_));
}

void AreaController::handle_rejoin_step3(const EnvelopeView& env) {
  auto step = unwrap<RejoinStep3>(env, keypair_.priv);
  auto it = pending_rejoins_.find(step.nonce_bc_plus1);
  if (it == pending_rejoins_.end()) return;
  PendingRejoin pr = std::move(it->second);
  pending_rejoins_.erase(it);

  AwaitingCohortCheck s;
  s.client_node = pr.client_node;
  s.claimed_nic = pr.claimed_nic;
  s.ticket = pr.ticket;
  s.trace = network().current_trace();

  if (config_.skip_cohort_check) {
    admit_rejoin(s);
    return;
  }

  if (s.ticket.last_ac == ac_id_) {
    // Rejoining the same area (e.g. after a transient disconnect). Deny
    // only if the recorded member is still actively heard from a DIFFERENT
    // node — that is the ticket-sharing cohort signature.
    auto mit = members_.find(s.ticket.member_id);
    bool active_elsewhere =
        mit != members_.end() && mit->second.node != s.client_node &&
        network().now() - mit->second.last_heard < config_.member_silence_limit();
    if (active_elsewhere) {
      deny_rejoin(s);
    } else {
      admit_rejoin(s);
    }
    return;
  }

  const AcInfo* aca = directory_.find(s.ticket.last_ac);
  if (aca == nullptr) {
    // Old AC unknown — treat like a partition.
    finish_rejoin(s.ticket.member_id, s, /*cohort_confirmed_gone=*/false);
    return;
  }

  // Steps 4–5: ask AC_A whether the client has really left.
  send_ctrl(aca->node, kLabelRejoin,
            wrap(RejoinStep4{.requester = ac_id_,
                             .client_id = s.ticket.member_id,
                             .ts = network().now()},
                 crypto::RsaPublicKey::deserialize(aca->pubkey), prng_,
                 keypair_.priv));

  std::uint64_t token = next_timer_token_++;
  s.timeout_timer =
      network().set_timer(id(), config_.rejoin_check_timeout, token);
  rejoin_timeout_tokens_[token] = s.ticket.member_id;
  awaiting_cohort_[s.ticket.member_id] = std::move(s);
}

void AreaController::handle_rejoin_step4(const net::Message& msg,
                                         const EnvelopeView& env) {
  auto step = unwrap<RejoinStep4>(env, keypair_.priv);
  if (!ts_fresh(step.ts)) return;
  if (!directory_.verify(step.requester, env.box, env.sig)) return;
  const AcInfo* req_info = directory_.find(step.requester);
  if (req_info == nullptr) return;
  ClientId k_id = step.client_id;

  bool gone = true;
  Bytes ticket_bytes;
  auto it = members_.find(k_id);
  if (it != members_.end()) {
    bool migrating = it->second.migrate_until != 0 &&
                     network().now() <= it->second.migrate_until;
    if (migrating) {
      // The member is rejoining elsewhere on OUR migrate directive: it is
      // naturally still heard here, but that is orchestration, not ticket
      // sharing. Confirm the move and release the leaf.
      ticket_bytes = it->second.sealed_ticket;
      schedule_leave(k_id);
    } else if (network().now() - it->second.last_heard <
               config_.member_silence_limit()) {
      gone = false;  // still actively with us: cohort sharing suspected
    } else {
      ticket_bytes = it->second.sealed_ticket;
      schedule_leave(k_id);  // the member has clearly moved on
    }
  } else if (auto dit = departed_tickets_.find(k_id);
             dit != departed_tickets_.end()) {
    ticket_bytes = dit->second;
  }

  send_ctrl(msg.from, kLabelRejoin,
            wrap(RejoinStep5{.responder = ac_id_, .client_id = k_id,
                             .gone = gone, .ticket = ticket_bytes,
                             .ts = network().now()},
                 crypto::RsaPublicKey::deserialize(req_info->pubkey), prng_,
                 keypair_.priv));
}

void AreaController::handle_rejoin_step5(const EnvelopeView& env) {
  auto step = unwrap<RejoinStep5>(env, keypair_.priv);
  if (!ts_fresh(step.ts)) return;
  if (!directory_.verify(step.responder, env.box, env.sig)) return;
  ClientId k_id = step.client_id;

  auto it = awaiting_cohort_.find(k_id);
  if (it == awaiting_cohort_.end()) return;  // late answer after timeout
  AwaitingCohortCheck s = std::move(it->second);
  awaiting_cohort_.erase(it);
  network().cancel_timer(s.timeout_timer);
  std::erase_if(rejoin_timeout_tokens_,
                [&](const auto& kv) { return kv.second == k_id; });

  if (step.gone) {
    admit_rejoin(s);
  } else {
    deny_rejoin(s);
  }
}

void AreaController::finish_rejoin(std::uint64_t k_id,
                                   const AwaitingCohortCheck& s,
                                   bool cohort_confirmed_gone) {
  (void)k_id;
  if (cohort_confirmed_gone) {
    admit_rejoin(s);
    return;
  }
  // Partition / no answer: Section IV-B's two options.
  switch (config_.partitioned_rejoin) {
    case PartitionedRejoinPolicy::kDeny:
      deny_rejoin(s);
      break;
    case PartitionedRejoinPolicy::kAdmitWithNicCheck:
      if (s.claimed_nic == s.ticket.member_id) {
        admit_rejoin(s);
      } else {
        deny_rejoin(s);
      }
      break;
  }
}

void AreaController::admit_rejoin(const AwaitingCohortCheck& s) {
  std::vector<lkh::PathKey> path =
      admit(s.ticket.member_id, s.client_node, s.ticket.member_pubkey);

  // Re-issue the ticket with the ORIGINAL validity — moving areas neither
  // extends nor cuts short the membership the client paid for.
  Ticket t = s.ticket;
  t.last_ac = ac_id_;
  Bytes sealed = seal_ticket(t, k_shared_, prng_);
  members_[t.member_id].sealed_ticket = sealed;
  members_[t.member_id].valid_until = t.valid_until;

  send_ctrl(s.client_node, kLabelRejoin,
            wrap(RejoinStep6{.ticket = sealed, .ac_id = ac_id_,
                             .group = area_group_, .path = path,
                             .epoch = stream_epoch(rekey_epoch_)},
                 crypto::RsaPublicKey::deserialize(t.member_pubkey), prng_,
                 keypair_.priv));
  ++counters_.rejoins;
  if (auto* t = network().tracer())
    t->span_end(obs::EventKind::kRejoinVerify, s.ticket.member_id, id(),
                network().now());
  sync_backup();
}

void AreaController::deny_rejoin(const AwaitingCohortCheck& s) {
  // No denial message on the wire; the client times out.
  ++counters_.rejoins_denied;
  if (auto* t = network().tracer())
    t->span_end(obs::EventKind::kRejoinVerify, s.ticket.member_id, id(),
                network().now());
}

// --------------------------------------------------------------- area tree

void AreaController::connect_to_parent(AcId parent) {
  const AcInfo* info = directory_.find(parent);
  if (info == nullptr) throw ProtocolError("parent AC not in directory");
  uplink_ = Uplink{
      .seat = AreaSeat(parent, info->node, info->group, network().now()),
      .last_attempt = network().now()};
  network().join_group(info->group, id());

  send_ctrl(info->node, kLabelArea,
            wrap(AcUplinkJoin{.child = ac_id_, .ts = network().now()},
                 crypto::RsaPublicKey::deserialize(info->pubkey), prng_,
                 keypair_.priv));
  // The parent AC id is part of the replicated snapshot: a standby promoted
  // from a pre-switch snapshot would rejoin the dead parent.
  sync_backup();
}

void AreaController::handle_uplink_join(const net::Message& msg,
                                        const EnvelopeView& env) {
  auto [child, ts] = unwrap<AcUplinkJoin>(env, keypair_.priv);
  if (!ts_fresh(ts)) return;
  // The directory doubles as the authorization database AI: only listed
  // ACs may link (their key must verify the signature).
  if (!directory_.verify(child, env.box, env.sig)) return;
  const AcInfo* child_info = directory_.find(child);
  if (child_info == nullptr) return;

  // The signature may be from the child's backup (post-takeover): answer
  // whichever key verifies. We encrypt to the primary key first and to the
  // backup key if the primary fails verification.
  Bytes child_pub_ser = child_info->pubkey;
  crypto::pk_count_verify();
  if (!crypto::rsa_verify(crypto::RsaPublicKey::deserialize(child_pub_ser),
                          env.box, env.sig) &&
      !child_info->backup_pubkey.empty()) {
    child_pub_ser = child_info->backup_pubkey;
  }

  std::vector<lkh::PathKey> path = admit(child, msg.from, child_pub_ser);
  net::SimTime now = network().now();
  members_[child].sealed_ticket =
      issue_ticket(child, child_pub_ser, now, now + config_.ticket_validity);
  members_[child].valid_until = now + config_.ticket_validity;

  send_ctrl(msg.from, kLabelArea,
            wrap(AcUplinkReply{.parent = ac_id_, .group = area_group_,
                               .path = path, .ts = now,
                               .epoch = stream_epoch(rekey_epoch_)},
                 crypto::RsaPublicKey::deserialize(child_pub_ser), prng_,
                 keypair_.priv));
  sync_backup();
}

void AreaController::handle_uplink_reply(const EnvelopeView& env) {
  if (!uplink_) return;
  AreaSeat& seat = uplink_->seat;
  if (!directory_.verify(seat.ac_id(), env.box, env.sig)) return;
  auto reply = unwrap<AcUplinkReply>(env, keypair_.priv);
  if (reply.parent != seat.ac_id() || !ts_fresh(reply.ts)) return;

  net::SimTime now = network().now();
  seat.enter(seat.ac_id(), seat.node(), reply.group, reply.path, reply.epoch,
             now);
  seat.sent(now);
  network().join_group(reply.group, id());
  uplink_->ready = true;
}

void AreaController::check_parent_liveness() {
  if (!uplink_) return;
  net::SimTime now = network().now();
  if (!uplink_->ready) {
    // Our uplink-join request got no answer (lost, or the parent is down):
    // try the next preferred controller.
    if (now - uplink_->last_attempt > config_.ac_silence_limit())
      switch_parent();
    return;
  }
  if (uplink_->seat.silent(now, config_)) switch_parent();
}

void AreaController::switch_parent() {
  // Pick the first directory entry that is neither us nor the unreachable
  // parent — the "list of one or more preferred area controllers"
  // (Section IV-C). If nobody else is listed, retry the same parent: it
  // may come back (disconnected operation continues meanwhile).
  AcId dead = parent_ac();
  if (uplink_ && uplink_->ready)
    network().leave_group(uplink_->seat.group(), id());
  uplink_.reset();
  for (const AcInfo& e : directory_.entries()) {
    if (e.ac_id == ac_id_ || e.ac_id == dead) continue;
    ++counters_.parent_switches;
    if (auto* t = network().tracer())
      t->instant(obs::EventKind::kParentSwitch, id(), network().now(), ac_id_,
                 e.ac_id);
    connect_to_parent(e.ac_id);
    return;
  }
  if (dead != kNoAc && directory_.find(dead) != nullptr) {
    ++counters_.parent_switches;
    if (auto* t = network().tracer())
      t->instant(obs::EventKind::kParentSwitch, id(), network().now(), ac_id_,
                 dead);
    connect_to_parent(dead);
  }
}

// -------------------------------------------------------------- steady state

void AreaController::send_alive_if_idle() {
  net::SimTime now = network().now();
  if (now - last_area_tx_ >= config_.t_idle && !members_.empty()) {
    // The beacon doubles as an epoch advertisement: a member that lost the
    // FINAL rekey of a burst has no later rekey to reveal the gap, so the
    // idle beacon is what drags it back into key recovery.
    multicast_area(kLabelAlive,
                   wrap(Alive{.from = AliveBeacon{
                                  .ac_id = ac_id_,
                                  .epoch = stream_epoch(rekey_epoch_)}}));
  }
  // As a member of the parent area, we owe the parent OUR alive messages.
  if (uplink_ && uplink_->ready)
    if (auto alive = uplink_->seat.alive_due(ac_id_, now, config_))
      network().unicast(id(), uplink_->seat.node(), kLabelAlive,
                        std::move(*alive));
}

void AreaController::scan_members() {
  net::SimTime now = network().now();
  std::vector<ClientId> silent;
  for (auto& [cid, rec] : members_) {
    if (rec.migrate_until != 0 && now > rec.migrate_until) {
      // The directive window elapsed. A member that fell silent the moment
      // the directive went out has moved — its rejoin confirmation was
      // simply lost (e.g. sent to a node we were demoted away from) — so
      // reclaim the leaf now rather than waiting out the full silence
      // horizon. One that is still heard stayed ours: the rejoin was
      // denied or the directive never landed, and membership continues.
      bool moved = rec.last_heard + migrate_window() < rec.migrate_until;
      rec.migrate_until = 0;
      if (moved) {
        silent.push_back(cid);
        continue;
      }
    }
    if (now - rec.last_heard > config_.member_silence_limit())
      silent.push_back(cid);
    else if (rec.valid_until != 0 && now > rec.valid_until)
      silent.push_back(cid);  // membership period over: evict
  }
  for (ClientId cid : silent) {
    if (auto* t = network().tracer())
      t->instant(obs::EventKind::kEviction, id(), now, cid);
    if (auto* m = network().metrics()) m->counter("ac.evictions").inc();
    schedule_leave(cid);
    ++counters_.evictions;
  }
}

void AreaController::handle_alive(const net::Message& msg,
                                  const EnvelopeView& env) {
  auto alive = unwrap<Alive>(env);
  if (const auto* member = std::get_if<AliveMember>(&alive.from)) {
    auto it = members_.find(member->client_id);
    if (it != members_.end() && it->second.node == msg.from)
      it->second.last_heard = network().now();
    return;
  }
  // Parent-area beacon (liveness is booked in on_message). Unlike a member,
  // ask only while no recovery is pending; the idle timer retries that one.
  if (uplink_ && uplink_->ready && !uplink_->seat.recovery_pending() &&
      uplink_->seat.beacon_gap(alive))
    request_uplink_recovery("beacon-gap");
}

void AreaController::handle_leave_request(const net::Message& msg,
                                          const EnvelopeView& env) {
  ClientId client = unwrap<LeaveRequest>(env).client_id;
  auto it = members_.find(client);
  if (it == members_.end()) return;
  // Anti-spoofing: the request must come from the member's own node.
  if (it->second.node != msg.from) return;
  schedule_leave(client);
}

void AreaController::handle_data(const net::Message& msg,
                                 const EnvelopeView& env) {
  auto [msg_id, sender, key_box, payload_box] = unwrap<Data>(env);

  // Any traffic from a member counts as liveness.
  if (auto it = members_.find(sender); it != members_.end())
    it->second.last_heard = network().now();

  if (!seen_data_.insert(msg_id)) return;

  // Section III-E: "The keys are updated just before the multicast data is
  // forwarded."
  flush_rekeys();

  bool from_own = msg.group == area_group_;
  bool from_parent = uplink_ && uplink_->ready &&
                     msg.group == uplink_->seat.group();
  if (!from_own && !from_parent) return;

  // A box too long or short for one key is garbage, not a sign of a stale
  // key: drop it without asking for a catch-up.
  if (key_box.size() != crypto::SymmetricKey::kSize + crypto::kSealOverhead)
    return;
  std::optional<crypto::SymmetricKey> data_key =
      from_own ? area_data_plane_.open_key(key_box, tree_->root_key(),
                                           prev_area_key_)
               : uplink_->seat.open_data_key(key_box);
  if (!data_key) {
    // In our own area the usual cause is the sender racing a rotation —
    // drop. In the parent's area it can equally be US holding a stale
    // parent key; a catch-up resolves that.
    if (from_parent) request_uplink_recovery("undecryptable-data");
    return;
  }

  auto build = [&](const Bytes& resealed) {
    return wrap(Data{.msg_id = msg_id, .sender = sender, .key_box = resealed,
                     .payload_box = payload_box});
  };

  if (from_own && uplink_ && uplink_->ready) {
    network().multicast(
        id(), uplink_->seat.group(), kLabelData,
        build(uplink_->seat.seal_data_key(data_key->bytes(), prng_)));
    uplink_->seat.sent(network().now());
    ++counters_.data_forwards;
  }
  if (from_parent) {
    multicast_area(kLabelData, build(area_data_plane_.get(tree_->root_key())
                                         .seal(data_key->bytes(), prng_)));
    ++counters_.data_forwards;
  }
}

void AreaController::redirect_to_primary(const net::Message& msg) {
  // Re-issue the takeover announcement, unicast, to a member that missed
  // the original multicast (it was crashed or partitioned at the time and
  // still addresses us). Signed with our own key: directories verify area
  // signatures against the primary AND backup keys, so the sender accepts
  // it no matter which side of the swap its stale view is on. Plain
  // unicast, not ARQ: the redirect is advisory and the member's own retry
  // loop re-triggers it until it lands.
  const AcInfo* self = directory_.find(ac_id_);
  if (self == nullptr || self->node == id() || self->node == net::kNoNode)
    return;
  net::SimTime now = network().now();
  if (auto it = last_redirect_.find(msg.from);
      it != last_redirect_.end() && now - it->second < config_.heartbeat_interval)
    return;  // per-sender rate limit: one redirect per heartbeat interval
  last_redirect_[msg.from] = now;
  network().unicast(
      id(), msg.from, kLabelArea,
      wrap(TakeOver{.ac_id = ac_id_, .node = self->node, .ts = now},
           keypair_.priv));
  if (auto* m = network().metrics()) m->counter("ac.redirects").inc();
}

// --------------------------------------------------------- key recovery

void AreaController::request_uplink_recovery(const char* trigger) {
  if (!uplink_ || !uplink_->ready) return;
  AreaSeat& seat = uplink_->seat;
  net::SimTime now = network().now();
  // In the parent's tree we are the member `ac_id_`.
  auto request = seat.request_recovery(ac_id_, now, config_, prng_);
  if (!request) return;
  if (auto* t = network().tracer())
    t->instant(obs::EventKind::kKeyRecovery, id(), now, ac_id_, seat.epoch(),
               trigger);
  if (auto* m = network().metrics())
    m->counter("ac.uplink_recovery_requests").inc();
  send_ctrl(seat.node(), kLabelRecovery, std::move(*request));
}

void AreaController::handle_key_recovery_request(const net::Message& msg,
                                                 const EnvelopeView& env) {
  if (!config_.reliable_control) return;
  // The request's epoch is unused: the reply always carries the full path.
  auto request = unwrap<KeyRecoveryRequest>(env);
  ClientId client = request.client_id;
  if (request.ac_id != ac_id_) return;  // wrong area (stale map / replay)
  auto it = members_.find(client);
  // Unknown, evicted, or departed members get no answer — forward secrecy:
  // a catch-up must never leak the current key to someone rekeyed out.
  if (it == members_.end()) return;
  AreaMember& rec = it->second;
  if (rec.node != msg.from) return;  // anti-spoofing, as for leave requests
  net::SimTime now = network().now();
  if (rec.last_recovery_reply != 0 &&
      now - rec.last_recovery_reply < config_.key_recovery_min_interval) {
    if (auto* m = network().metrics())
      m->counter("ac.key_recovery_rate_limited").inc();
    return;
  }
  rec.last_recovery_reply = now;
  rec.last_heard = now;  // a recovering member is demonstrably alive
  ++counters_.key_recoveries_served;
  if (auto* m = network().metrics())
    m->counter("ac.key_recoveries_served").inc();

  // Sealed to the member's registered key, so only the legitimate holder
  // can read it.
  send_ctrl(msg.from, kLabelRecovery,
            wrap(KeyRecoveryReply{.nonce_plus1 = request.nonce + 1,
                                  .ac_id = ac_id_,
                                  .epoch = stream_epoch(rekey_epoch_),
                                  .path = tree_->path_keys(client)},
                 crypto::RsaPublicKey::deserialize(rec.pubkey), prng_,
                 keypair_.priv));
}

// -------------------------------------- online area management (DESIGN 14)

void AreaController::send_load_report() {
  if (rs_node_ == net::kNoNode || !active_in_map()) return;
  std::size_t real = 0;
  for (const auto& [cid, rec] : members_)
    if (cid < kAcIdBase) ++real;  // child ACs are infrastructure, not load
  send_ctrl(rs_node_, kLabelAdmin,
            wrap(LoadReport{.ac_id = ac_id_,
                            .members = static_cast<std::uint32_t>(real),
                            .rekey_epoch = rekey_epoch_, .ts = network().now()},
                 keypair_.priv));
}

void AreaController::handle_area_map_update(const net::Message& msg,
                                            const EnvelopeView& env) {
  if (!verify_envelope(env, rs_pub_)) return;
  auto update = unwrap<AreaMapUpdate>(env);
  if (!ts_fresh(update.ts)) return;
  bool was_active = active_in_map();
  if (!directory_.adopt(update.directory)) return;  // stale or duplicate
  latest_map_payload_ = msg.payload.clone();
  if (auto* m = network().metrics()) m->counter("ac.map_updates").inc();
  if (role_ != Role::kPrimary) return;
  // Members learn the new map from us: forward the RS-signed envelope
  // verbatim into the area (each member re-verifies the RS signature).
  if (open_ && !members_.empty())
    multicast_area(kLabelArea, msg.payload.clone());
  apply_map_transition(was_active);
}

void AreaController::apply_map_transition(bool was_active) {
  bool now_active = active_in_map();
  if (!was_active && now_active) {
    // Activation (we are a split's target): link into the area hierarchy.
    if (!uplink_ || !uplink_->ready) {
      AcId parent = parent_hint_;
      if (parent == kNoAc || parent == ac_id_ ||
          directory_.find(parent) == nullptr) {
        parent = kNoAc;
        for (const AcInfo& e : directory_.entries()) {
          if (e.ac_id != ac_id_) {
            parent = e.ac_id;
            break;
          }
        }
      }
      uplink_.reset();
      if (parent != kNoAc) connect_to_parent(parent);
    }
    last_area_tx_ = network().now();
    return;
  }
  if (was_active && !now_active) {
    // Deactivation (merge source, fully drained): detach from the parent
    // area and go dormant. The multicast group and timers stay — a later
    // split can reactivate us with a fresh map update.
    migrate_target_ = kNoAc;
    migrate_quota_ = 0;
    if (uplink_) {
      if (uplink_->ready) {
        network().unicast(id(), uplink_->seat.node(), kLabelArea,
                          wrap(LeaveRequest{.client_id = ac_id_}));
        network().leave_group(uplink_->seat.group(), id());
      }
      uplink_.reset();
      sync_backup();
    }
  }
}

void AreaController::handle_migrate_request(const EnvelopeView& env) {
  if (!verify_envelope(env, rs_pub_)) return;  // only the RS moves members
  auto [target, count, ts] = unwrap<MigrateRequest>(env, keypair_.priv);
  if (!ts_fresh(ts)) return;
  if (target == ac_id_) return;
  migrate_target_ = target;
  migrate_quota_ = count;
  issue_migrate_directives();
}

void AreaController::issue_migrate_directives() {
  if (migrate_quota_ == 0 || migrate_target_ == kNoAc) return;
  // The target must be in OUR map before we point members at it. The map
  // update travels the same ARQ stream as the migrate request so it
  // normally already is; otherwise retry once it has caught up.
  if (directory_.find(migrate_target_) == nullptr) {
    network().set_timer(id(), config_.t_idle, timer_token(kTimerMigrate));
    return;
  }
  net::SimTime now = network().now();
  std::size_t issued = 0;
  bool eligible_left = false;
  for (auto& [cid, rec] : members_) {
    if (cid >= kAcIdBase) continue;       // child ACs are not migratable
    if (rec.migrate_until != 0) continue; // already on the move
    if (migrate_quota_ == 0 || issued >= config_.migrate_batch) {
      eligible_left = true;
      break;
    }
    rec.migrate_until = now + migrate_window();
    // Embed the map the directive relies on: the member may not have seen
    // the split yet, and rejoin() refuses targets outside its directory.
    send_ctrl(rec.node, kLabelArea,
              wrap(MigrateDirective{.from_ac = ac_id_, .client_id = cid,
                                    .target = migrate_target_, .ts = now,
                                    .map_update = latest_map_payload_},
                   keypair_.priv));
    ++issued;
    --migrate_quota_;
  }
  if (issued > 0) {
    if (auto* m = network().metrics())
      m->counter("ac.migrations").inc(issued);
  }
  // Keep batching while quota and candidates remain; also poll while
  // earlier directives are outstanding so an expired one is re-issued.
  if (migrate_quota_ > 0 && (eligible_left || issued > 0))
    network().set_timer(id(), config_.t_idle, timer_token(kTimerMigrate));
  else if (migrate_quota_ == 0)
    migrate_target_ = kNoAc;
}

// -------------------------------------------------------------- replication

Bytes AreaController::replication_snapshot() const {
  return encode_fields<AreaSnapshot>(area_group_, parent_ac(), rekey_epoch_,
                                     tree_->serialize(), members_);
}

Bytes AreaController::last_synced_snapshot() const {
  return role_ == Role::kBackup && synced_ ? encode(*synced_) : Bytes{};
}

void AreaController::sync_backup(const char* full_reason) {
  if (role_ != Role::kPrimary || backup_node_ == net::kNoNode) return;
  // Sealed under the ACs' shared key, with a version that lets the backup
  // detect a missed sync and the takeover epoch that breaks a split brain
  // (DESIGN.md 9.3). Once the standby holds what we last sent, only what
  // changed since goes out: O(log n) tree nodes and the roster entries
  // touched, not the whole area ("only a minimal state information").
  ++sync_version_;
  auto* metrics = network().metrics();
  if (full_reason == nullptr && synced_) {
    AreaDelta delta = area_delta(*synced_, area_group_, parent_ac(),
                                 rekey_epoch_, *tree_, members_);
    delta.base_version = sync_version_ - 1;
    delta.version = sync_version_;
    apply(*synced_, delta);
    network().unicast(id(), backup_node_, kLabelRepl,
                      wrap(StateDelta{.takeover_epoch = takeover_epoch_,
                                      .delta = std::move(delta)},
                           k_shared_, prng_));
    if (metrics != nullptr) metrics->counter("ac.repl_delta").inc();
    return;
  }
  Bytes snapshot = replication_snapshot();
  synced_ = decode<AreaSnapshot>(snapshot);
  network().unicast(id(), backup_node_, kLabelRepl,
                    wrap(StateSync{.version = sync_version_,
                                   .takeover_epoch = takeover_epoch_,
                                   .snapshot = std::move(snapshot)},
                         k_shared_, prng_));
  if (metrics != nullptr)
    metrics
        ->counter(std::string("ac.repl_full.") +
                  (full_reason != nullptr ? full_reason : "new-backup"))
        .inc();
}

void AreaController::replicate_to(net::NodeId standby,
                                  const char* full_reason) {
  backup_node_ = standby;
  peer_node_ = standby;
  if (config_.enable_timers)
    network().set_timer(id(), config_.heartbeat_interval,
                        timer_token(kTimerHeartbeat));
  sync_backup(full_reason);
}

void AreaController::load_snapshot(AreaSnapshot snapshot) {
  lkh::KeyTree tree = lkh::KeyTree::deserialize(snapshot.tree, prng_.fork());
  area_group_ = snapshot.area_group;
  rekey_epoch_ = snapshot.rekey_epoch;
  tree_ = std::move(tree);
  net::SimTime now = network().now();
  for (auto& [cid, rec] : snapshot.members)
    rec.last_heard = now;  // grace period after takeover
  members_ = std::move(snapshot.members);
  if (snapshot.parent != kNoAc) {
    const AcInfo* info = directory_.find(snapshot.parent);
    uplink_ = Uplink{.seat = AreaSeat(snapshot.parent,
                                      info != nullptr ? info->node
                                                      : net::kNoNode,
                                      0, now)};
  } else {
    uplink_.reset();
  }
}

void AreaController::handle_state_sync(const net::Message& msg,
                                       const EnvelopeView& env) {
  auto [version, their_takeover, snapshot] =
      unwrap<StateSync>(env, k_shared_);

  if (role_ == Role::kPrimary) {
    // Another instance of this area believes it is the authority (e.g. we
    // are an old primary that recovered after our backup took over). The
    // snapshot is authenticated by K_shared, and the higher takeover epoch
    // is the later promotion — the lower side steps down. Only this sealed
    // exchange can demote; a bare heartbeat is cheap to forge.
    if (their_takeover <= takeover_epoch_) {
      // The stale peer IS the area's standby from now on: adopt it (it may
      // have been lost across takeovers) and answer with our own state —
      // receiving the higher takeover epoch is what demotes it.
      if (backup_node_ != msg.from)
        replicate_to(msg.from, "adoption");
      else
        sync_backup("adoption");
      return;
    }
    demote_to_backup(msg.from);
    // fall through: adopt the winner's state as our standby baseline
  }
  if (!newer_than_held(their_takeover, version)) return;
  AreaSnapshot state = decode<AreaSnapshot>(snapshot);
  // First sync: learn the area group and listen in silently.
  if (!synced_) network().join_group(state.area_group, id());
  synced_ = std::move(state);
  if (their_takeover > takeover_epoch_) {
    takeover_epoch_ = their_takeover;
    gap_.announced = 0;  // versions announced before count in another epoch
  }
  peer_sync_version_ = version;
  peer_node_ = msg.from;
  last_heartbeat_rx_ = network().now();
  apply_early_deltas();
}

void AreaController::handle_state_delta(const net::Message& msg,
                                        const EnvelopeView& env) {
  auto [their_takeover, delta] = unwrap<StateDelta>(env, k_shared_);
  if (role_ == Role::kPrimary) {
    // A rival replicates to us, as with its heartbeat: ask for its whole
    // state, since only the sealed full exchange may demote either side.
    network().unicast(id(), msg.from, kLabelRepl, wrap(StateSyncRequest{}));
    return;
  }
  if (!newer_than_held(their_takeover, delta.version)) return;
  peer_node_ = msg.from;
  last_heartbeat_rx_ = network().now();
  // Unicast jitter reorders syncs sent microseconds apart: hold a delta
  // until its base is held, keeping the ones nearest to it.
  gap_.early.insert_or_assign({their_takeover, delta.base_version},
                              std::move(delta));
  if (gap_.early.size() > kMaxEarlyDeltas)
    gap_.early.erase(std::prev(gap_.early.end()));
  apply_early_deltas();
}

bool AreaController::newer_than_held(std::uint64_t takeover,
                                     std::uint64_t version) const {
  return !synced_ || std::pair(takeover, version) >
                         std::pair(takeover_epoch_, peer_sync_version_);
}

void AreaController::apply_early_deltas() {
  while (synced_ && !gap_.early.empty()) {
    auto first = gap_.early.begin();
    std::pair held(takeover_epoch_, peer_sync_version_);
    if (first->first > held) break;
    bool on_held = first->first == held;
    AreaDelta delta = std::move(first->second);
    gap_.early.erase(first);
    if (!on_held) continue;  // its base is behind what we hold
    apply(*synced_, delta);
    peer_sync_version_ = delta.version;
  }
  bool behind = !gap_.early.empty() || gap_.announced > peer_sync_version_;
  if (!behind)
    gap_.since.reset();
  else if (!gap_.since)
    gap_.since = network().now();
}

void AreaController::handle_state_sync_request(const net::Message& msg) {
  if (role_ != Role::kPrimary) return;
  if (msg.from != backup_node_) return;  // only our own standby may pull
  sync_backup("request");
}

void AreaController::handle_heartbeat(const net::Message& msg,
                                      const EnvelopeView& env) {
  std::uint64_t version = unwrap<Heartbeat>(env).sync_version;
  if (role_ == Role::kPrimary) {
    // A peer replicates to us while we think we are primary: split brain.
    // Ask for its state — the takeover epochs in the resulting StateSync
    // exchange decide who steps down.
    network().unicast(id(), msg.from, kLabelRepl, wrap(StateSyncRequest{}));
    return;
  }

  last_heartbeat_rx_ = network().now();
  peer_node_ = msg.from;
  // A version past ours means a sync is missing. Usually it is only late:
  // the heartbeat leaves just after it and, being smaller, arrives first.
  // The backup watch pulls the whole area once the gap outlasts a
  // heartbeat interval, so a lost sync costs one full snapshot and an
  // overtaken one none.
  gap_.announced = std::max(gap_.announced, version);
  apply_early_deltas();
}

void AreaController::promote_to_primary() {
  if (role_ != Role::kBackup || !synced_) return;
  role_ = Role::kPrimary;
  ++takeover_epoch_;  // later promotion outranks the displaced primary
  ++timer_gen_;       // silence the backup watchdog chain
  AreaSnapshot state = std::move(*synced_);
  synced_.reset();  // the next sync, a full one, sets the delta base
  gap_ = {};
  load_snapshot(std::move(state));
  open_ = true;
  last_area_tx_ = network().now();
  start_primary_timers();
  ++counters_.takeovers;
  if (auto* t = network().tracer())
    t->instant(obs::EventKind::kTakeover, id(), network().now(), ac_id_);
  if (auto* m = network().metrics()) m->counter("ac.takeovers").inc();

  // Update our own directory view and remember the displaced primary: it
  // becomes our standby, so we replicate back to it. Once it comes back (as
  // the recovered old primary or as a demoted standby) our heartbeats and
  // StateSync (higher takeover epoch) are what pull it into the standby
  // role; without this the area would run unreplicated until the next
  // full role swap.
  net::NodeId old_primary = net::kNoNode;
  if (const AcInfo* self = directory_.find(ac_id_); self != nullptr) {
    if (self->node != id()) {
      old_primary = self->node;
      directory_.promote_backup(ac_id_);
    } else {
      old_primary = self->backup_node;
    }
  }

  // Announce: members and child ACs update their AC address and verify key.
  multicast_area(kLabelArea,
                 wrap(TakeOver{.ac_id = ac_id_, .node = id(),
                               .ts = network().now()},
                      keypair_.priv));

  if (old_primary == net::kNoNode) old_primary = peer_node_;
  if (old_primary != net::kNoNode) replicate_to(old_primary, "promotion");

  // Re-link to the parent: the uplink's key state was intentionally not
  // replicated ("only a minimal state information is replicated").
  if (uplink_) {
    AcId parent = parent_ac();
    uplink_.reset();
    if (directory_.find(parent) != nullptr) connect_to_parent(parent);
  }
}

void AreaController::demote_to_backup(net::NodeId new_primary) {
  role_ = Role::kBackup;
  ++timer_gen_;  // silence every primary recurring timer
  open_ = false;
  backup_node_ = net::kNoNode;
  peer_node_ = new_primary;
  // In-flight handshakes and batch state belong to the winner now.
  pending_joins_.clear();
  early_step6_.clear();
  pending_rejoins_.clear();
  for (auto& [k_id, s] : awaiting_cohort_)
    network().cancel_timer(s.timeout_timer);
  awaiting_cohort_.clear();
  rejoin_timeout_tokens_.clear();
  pending_leaves_.clear();
  pending_join_rotation_ = false;
  takeover_trace_ = {};  // the winner owns the heal now
  if (uplink_) {
    if (uplink_->ready) network().leave_group(uplink_->seat.group(), id());
    uplink_.reset();
  }
  // Start over as a standby: the winner's next StateSync is our baseline.
  synced_.reset();
  gap_ = {};
  peer_sync_version_ = 0;
  last_heartbeat_rx_ = network().now();
  if (const AcInfo* self = directory_.find(ac_id_);
      self != nullptr && self->node == id() && self->backup_node == new_primary)
    directory_.promote_backup(ac_id_);
  ++counters_.demotions;
  if (auto* t = network().tracer())
    t->instant(obs::EventKind::kDemote, id(), network().now(), ac_id_);
  if (auto* m = network().metrics()) m->counter("ac.demotions").inc();
  if (config_.enable_timers)
    network().set_timer(id(), config_.heartbeat_interval,
                        timer_token(kTimerBackupWatch));
}

// ------------------------------------------------- checkpoint (DESIGN 14.4)

AcState AreaController::checkpoint_state() const {
  std::optional<AreaSnapshot> snapshot;
  if (role_ == Role::kPrimary && tree_.has_value() && open_)
    snapshot = decode<AreaSnapshot>(replication_snapshot());
  return {.role = role_, .open = open_, .takeover_epoch = takeover_epoch_,
          .rekey_epoch = rekey_epoch_, .sync_version = sync_version_,
          .peer_sync_version = peer_sync_version_,
          .got_snapshot = role_ == Role::kBackup && synced_.has_value(),
          .latest_snapshot = last_synced_snapshot(),
          .backup_node = backup_node_, .peer_node = peer_node_,
          .directory = directory_, .latest_map_payload = latest_map_payload_,
          .parent_hint = parent_hint_, .rs_node = rs_node_,
          .snapshot = std::move(snapshot),
          .departed_tickets = departed_tickets_};
}

void AreaController::restore_state(AcState s) {
  // The checkpoint is authoritative: wipe construction/session residue.
  // State is restored semantically, not bit-for-bit — the ARQ endpoint and
  // handshake maps start empty (peers re-drive), and the PRNG diverges.
  ++timer_gen_;
  prng_.mix(0x52455354u /* "REST" */);
  net::SimTime now = network().now();
  role_ = s.role;
  takeover_epoch_ = s.takeover_epoch;
  sync_version_ = s.sync_version;
  peer_sync_version_ = s.peer_sync_version;
  synced_.reset();
  gap_ = {};
  backup_node_ = s.backup_node;
  peer_node_ = s.peer_node;
  directory_ = std::move(s.directory);
  latest_map_payload_ = std::move(s.latest_map_payload);
  parent_hint_ = s.parent_hint;
  rs_node_ = s.rs_node;
  departed_tickets_ = std::move(s.departed_tickets);
  migrate_target_ = kNoAc;
  migrate_quota_ = 0;
  pending_joins_.clear();
  early_step6_.clear();
  pending_rejoins_.clear();
  awaiting_cohort_.clear();
  rejoin_timeout_tokens_.clear();
  pending_leaves_.clear();
  pending_join_rotation_ = false;
  seen_data_.clear();
  prev_area_key_.reset();
  last_redirect_.clear();
  takeover_trace_ = {};
  rekey_epoch_ = s.rekey_epoch;

  if (role_ == Role::kPrimary) {
    open_ = s.open;
    if (s.snapshot) {
      load_snapshot(std::move(*s.snapshot));  // tree, roster, group, uplink
      rekey_epoch_ = s.rekey_epoch;  // load_snapshot read the same value
      // If a takeover made the construction-time backup instance the
      // captured primary, it never ran open_area — subscribe now (raw
      // join_group is duplicate-safe for everyone else).
      network().join_group(area_group_, id());
      // Re-link the parent fresh: uplink keys are deliberately outside the
      // snapshot ("only a minimal state information is replicated").
      AcId parent = parent_ac();
      uplink_.reset();
      if (parent != kNoAc && directory_.find(parent) != nullptr)
        connect_to_parent(parent);
    }
    last_area_tx_ = now;
    last_member_scan_ = now;
    last_fresh_rekey_ = now;
    if (open_) start_primary_timers();
    if (backup_node_ != net::kNoNode) {
      if (config_.enable_timers)
        network().set_timer(id(), config_.heartbeat_interval,
                            timer_token(kTimerHeartbeat));
      sync_backup("restore");
    }
  } else {
    open_ = false;
    members_.clear();
    uplink_.reset();
    backup_node_ = net::kNoNode;
    if (s.got_snapshot && !s.latest_snapshot.empty()) {
      synced_ = decode<AreaSnapshot>(s.latest_snapshot);
      // Re-subscribe to the area group we were silently shadowing.
      network().join_group(synced_->area_group, id());
    }
    last_heartbeat_rx_ = now;  // grace before the takeover watchdog
    if (config_.enable_timers)
      network().set_timer(id(), config_.heartbeat_interval,
                          timer_token(kTimerBackupWatch));
  }
}

// ------------------------------------------------------------------ routing

void AreaController::on_timer(std::uint64_t token) {
  ensure_arq();
  if (arq_.on_timer(token)) return;  // retransmission timers (bit 63)

  // One-shot rejoin-timeout tokens live in [kRejoinTokenBase, 2^32) and
  // carry no generation — their map entries self-guard (cleared on crash
  // and demotion).
  if (token >= kRejoinTokenBase && (token >> 32) == 0) {
    auto tok = rejoin_timeout_tokens_.find(token);
    if (tok == rejoin_timeout_tokens_.end()) return;
    ClientId k_id = tok->second;
    rejoin_timeout_tokens_.erase(tok);
    auto it = awaiting_cohort_.find(k_id);
    if (it == awaiting_cohort_.end()) return;
    AwaitingCohortCheck s = std::move(it->second);
    awaiting_cohort_.erase(it);
    // Timer callbacks run with an empty ambient trace; restore the
    // client's context so a timeout-path step 6 stays on its flow.
    net::TraceContext saved = network().current_trace();
    network().set_current_trace(s.trace);
    finish_rejoin(k_id, s, /*cohort_confirmed_gone=*/false);
    network().set_current_trace(saved);
    return;
  }

  if ((token >> 32) != timer_gen_) return;  // pre-crash / pre-demotion timer
  switch (token & 0xFFFFFFFFull) {
    case kTimerIdle:
      if (role_ != Role::kPrimary || !open_) return;
      send_alive_if_idle();
      check_parent_liveness();
      // A lost recovery answer must not leave the uplink stuck.
      if (uplink_ && uplink_->seat.recovery_pending())
        request_uplink_recovery("retry");
      network().set_timer(id(), config_.t_idle, timer_token(kTimerIdle));
      return;
    case kTimerMemberScan:
      if (role_ != Role::kPrimary || !open_) return;
      scan_members();
      network().set_timer(id(), config_.t_active,
                          timer_token(kTimerMemberScan));
      return;
    case kTimerRekey:
      if (role_ != Role::kPrimary || !open_) return;
      if (update_pending()) {
        flush_rekeys();
      } else if (config_.periodic_fresh_rekey && !members_.empty() &&
                 network().now() - last_fresh_rekey_ >=
                     config_.rekey_interval) {
        // No membership events, but the interval elapsed: rotate the area
        // key anyway to keep it fresh (Section III-E, condition 2).
        pending_join_rotation_ = true;
        flush_rekeys();
      }
      network().set_timer(id(), config_.rekey_interval,
                          timer_token(kTimerRekey));
      return;
    case kTimerHeartbeat: {
      if (role_ != Role::kPrimary) return;
      if (backup_node_ != net::kNoNode) {
        network().unicast(id(), backup_node_, kLabelRepl,
                          wrap(Heartbeat{.ts = network().now(),
                                         .sync_version = sync_version_}));
        network().set_timer(id(), config_.heartbeat_interval,
                            timer_token(kTimerHeartbeat));
      }
      return;
    }
    case kTimerLoadReport:
      if (role_ != Role::kPrimary || !open_) return;
      send_load_report();
      // Piggyback a migration poll: re-issues directives whose members
      // expired their migrate window (lost directive, denied rejoin).
      if (migrate_quota_ > 0) issue_migrate_directives();
      network().set_timer(id(), config_.load_report_interval,
                          timer_token(kTimerLoadReport));
      return;
    case kTimerMigrate:
      if (role_ != Role::kPrimary || !open_) return;
      issue_migrate_directives();
      return;
    case kTimerBackupWatch: {
      if (role_ != Role::kBackup) return;
      net::SimTime limit = config_.heartbeat_misses * config_.heartbeat_interval;
      if (synced_ && network().now() - last_heartbeat_rx_ > limit) {
        net::Network& net = network();
        if (auto* t = net.tracer()) {
          t->instant(obs::EventKind::kHeartbeatMiss, id(), net.now(), ac_id_);
          // Root the takeover-heal trace here, at DETECTION: the promotion
          // multicast, StateSyncs, and parent re-link all inherit this
          // ambient context, and emit_rekey closes the span at the first
          // post-promotion rekey (ISSUE 7 takeover_latency).
          takeover_trace_ = {net.new_trace_id(id()), 0};
          net.set_current_trace(takeover_trace_);
          t->span_begin(obs::EventKind::kTakeoverHeal, ac_id_, id(), net.now());
          t->flow_start(obs::EventKind::kFlow, takeover_trace_.trace_id, id(),
                        net.now(), kLabelArea);
        }
        if (auto* m = net.metrics()) m->counter("ac.heartbeat_misses").inc();
        promote_to_primary();
        net.set_current_trace({});  // timer callbacks end with empty ambient
        return;
      }
      // Behind an announced version for a whole interval: a sync was lost,
      // not overtaken. Pull the whole area (once per interval).
      net::SimTime now = network().now();
      if (gap_.since && now - *gap_.since >= config_.heartbeat_interval &&
          peer_node_ != net::kNoNode) {
        network().unicast(id(), peer_node_, kLabelRepl,
                          wrap(StateSyncRequest{}));
        gap_.since = now;
      }
      network().set_timer(id(), config_.heartbeat_interval,
                          timer_token(kTimerBackupWatch));
      return;
    }
    default:
      return;
  }
}

void AreaController::on_message(const net::Message& raw) {
  // Generic parent-liveness bookkeeping: anything the parent AC multicasts
  // into its area (alive, rekey, forwarded data) proves it is up.
  if (uplink_ && uplink_->ready && raw.group == uplink_->seat.group() &&
      raw.from == uplink_->seat.node()) {
    uplink_->seat.heard(network().now());
  }

  ensure_arq();
  net::Message unwrapped;
  net::ArqEndpoint::Rx rx = arq_.on_message(raw, unwrapped);
  if (rx == net::ArqEndpoint::Rx::kConsumed) return;
  const net::Message& msg =
      rx == net::ArqEndpoint::Rx::kDeliver ? unwrapped : raw;

  try {
    EnvelopeView env = parse_envelope_view(msg.payload);
    if (role_ == Role::kBackup) {
      switch (env.type) {
        case MsgType::kStateSync: return handle_state_sync(msg, env);
        case MsgType::kStateDelta: return handle_state_delta(msg, env);
        case MsgType::kHeartbeat: return handle_heartbeat(msg, env);
        // Standbys track the map too: a takeover must not revert the area
        // topology to a pre-split view.
        case MsgType::kAreaMapUpdate: return handle_area_map_update(msg, env);
        case MsgType::kRejoinStep1:
        case MsgType::kJoinStep6:
        case MsgType::kAlive:
        case MsgType::kLeaveRequest:
        case MsgType::kKeyRecoveryRequest:
        case MsgType::kRejoinStep4:
          // Control traffic addressed to us means the sender still
          // believes we are the primary — it was crashed or partitioned
          // when the takeover was announced. Point it at the real one.
          // (kRejoinStep4 is a peer AC doing a cohort check against its
          // stale map; the redirect corrects its directory for the next
          // attempt.)
          if (msg.group == net::kNoGroup) redirect_to_primary(msg);
          break;
        default:
          break;  // backups stay otherwise silent
      }
      return;
    }

    switch (env.type) {
      case MsgType::kJoinStep4: return handle_join_step4(env);
      case MsgType::kJoinStep6: return handle_join_step6(msg, env);
      case MsgType::kRejoinStep1: return handle_rejoin_step1(msg, env);
      case MsgType::kRejoinStep3: return handle_rejoin_step3(env);
      case MsgType::kRejoinStep4: return handle_rejoin_step4(msg, env);
      case MsgType::kRejoinStep5: return handle_rejoin_step5(env);
      case MsgType::kAcUplinkJoin: return handle_uplink_join(msg, env);
      case MsgType::kAcUplinkReply: return handle_uplink_reply(env);
      case MsgType::kAlive: return handle_alive(msg, env);
      case MsgType::kData: return handle_data(msg, env);
      case MsgType::kLeaveRequest: return handle_leave_request(msg, env);
      case MsgType::kRekey:  // in the parent's area we are a member
        if (uplink_ && uplink_->ready) {
          auto r = uplink_->seat.apply_rekey(directory_, msg, env, config_);
          if (r.recover != nullptr) request_uplink_recovery(r.recover);
        }
        return;
      case MsgType::kSplitUpdate:
        if (uplink_)
          uplink_->seat.install_key_path(directory_, msg.from, env,
                                         keypair_.priv);
        return;
      case MsgType::kTakeOver:
        return AreaSeat::follow_takeover(
            directory_, uplink_ ? &uplink_->seat : nullptr, env,
            network().now(), config_);
      case MsgType::kKeyRecoveryRequest:
        return handle_key_recovery_request(msg, env);
      case MsgType::kKeyRecoveryReply:
        if (uplink_ && uplink_->ready &&
            uplink_->seat.accept_recovery_reply(directory_, env,
                                                keypair_.priv))
          if (auto* m = network().metrics())
            m->counter("ac.uplink_recoveries").inc();
        return;
      case MsgType::kStateSyncRequest: return handle_state_sync_request(msg);
      case MsgType::kAreaMapUpdate: return handle_area_map_update(msg, env);
      case MsgType::kMigrateRequest: return handle_migrate_request(env);
      // A primary also listens to replication traffic: a StateSync or
      // heartbeat reaching a primary means a split brain (DESIGN.md 9.3).
      case MsgType::kStateSync: return handle_state_sync(msg, env);
      case MsgType::kStateDelta: return handle_state_delta(msg, env);
      case MsgType::kHeartbeat: return handle_heartbeat(msg, env);
      default: return;
    }
  } catch (const Error&) {
    // Malformed/unauthentic input from the network must never crash an AC.
  }
}

}  // namespace mykil::core
