#include "net/network.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <unordered_map>

#include "common/error.h"

namespace mykil::net {

namespace {

/// Sentinel for "no queued event anywhere".
constexpr SimTime kNever = std::numeric_limits<SimTime>::max();

// Purpose tags for the per-node randomness streams: the StreamPrf stream
// id packs ((node + 1) << 8 | purpose), with 0 as the synthetic origin for
// API calls that carry no sending node.
constexpr std::uint64_t kPurposeJitter = 0;
constexpr std::uint64_t kPurposeDrop = 1;

/// Thread-local execution context. Set around every node callback so API
/// calls made from inside the callback know (a) which network and shard
/// they are executing on, (b) which node is running (the origin for
/// buffered group ops), and (c) whether cross-shard effects must be
/// buffered (true only while the worker pool drains a window).
struct CallCtx {
  const void* net = nullptr;
  void* shard = nullptr;  ///< Network::Shard*
  NodeId active_node = kNoNode;
  bool buffered = false;
  /// Ambient causal context: the delivered message's context for delivery
  /// callbacks, empty for timers unless the handler sets one. Stamped onto
  /// every send issued from the callback.
  TraceContext trace;
};
thread_local CallCtx tls_ctx;

/// Wall clock for the engine profiler ONLY — never feeds the schedule.
std::uint64_t mono_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Polite busy-wait hint for the barrier spin loops.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#endif
}

}  // namespace

Network& Node::network() const {
  if (network_ == nullptr) throw SimError("node not attached to a network");
  return *network_;
}

Network::Network(NetworkConfig config) : config_(config), prf_(config.seed) {
  if (config_.base_latency == 0)
    throw SimError("base_latency must be positive: it is the window width");
  origin_.emplace_back();  // index 0: the kNoNode origin
  shards_.push_back(std::make_unique<Shard>());
}

Network::~Network() { stop_workers(); }

void Network::set_metrics(obs::MetricsRegistry* metrics) {
  metrics_ = metrics;
  queue_depth_ =
      metrics == nullptr ? nullptr : &metrics->histogram("net.queue_depth");
}

void Network::set_metrics_interval(SimDuration interval) {
  if (in_callback()) throw SimError("set_metrics_interval from a callback");
  metrics_interval_ = interval;
  next_sample_ = interval == 0 ? 0 : now_ + interval;
}

TraceContext Network::current_trace() const {
  return in_callback() ? tls_ctx.trace : driver_trace_;
}

void Network::set_current_trace(TraceContext ctx) {
  if (in_callback())
    tls_ctx.trace = ctx;
  else
    driver_trace_ = ctx;
}

std::uint64_t Network::new_trace_id(NodeId origin) {
  // Same slotting rule as make_key: driver-thread allocations share the
  // synthetic origin 0 (the call sequence is identical in every mode);
  // callback allocations use the node's own counter. The id is never 0
  // (TraceContext's "untraced" sentinel): the counter pre-increments.
  std::uint32_t o = !in_callback() || origin == kNoNode ? 0 : origin + 1;
  OriginState& st = origin_[o];
  return (static_cast<std::uint64_t>(o) << 40) |
         (++st.trace_ctr & 0xFFFFFFFFFFULL);
}

bool Network::in_callback() const {
  return tls_ctx.net == this && tls_ctx.shard != nullptr;
}

SimTime Network::local_now() const {
  return in_callback() ? static_cast<Shard*>(tls_ctx.shard)->now : now_;
}

SimTime Network::now() const { return local_now(); }

NetStats& Network::active_stats() {
  if (in_callback() && tls_ctx.buffered)
    return static_cast<Shard*>(tls_ctx.shard)->stats_delta;
  return stats_;
}

NodeId Network::attach(Node& node) {
  if (node.attached()) throw SimError("node already attached");
  if (in_callback() && tls_ctx.buffered)
    throw SimError("attach during a parallel window");
  if (nodes_.size() >= (std::size_t{1} << 24) - 1)
    throw SimError("attach: node limit (2^24 - 2) reached");
  NodeId id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(&node);
  up_.push_back(true);
  partition_.push_back(0);
  node_shard_.push_back(0);
  node_site_.push_back(0);
  origin_.emplace_back();
  node.network_ = this;
  node.id_ = id;
  lookahead_dirty_ = true;
  return id;
}

void Network::set_shard(NodeId node, std::uint32_t shard) {
  if (node >= nodes_.size()) throw SimError("set_shard: unknown node");
  if (shard >= kMaxShards) throw SimError("set_shard: shard must be < 256");
  if (in_callback()) throw SimError("set_shard from a node callback");
  // The caller must ensure no queued events or live timers target the
  // node (in practice: call right after attach). Events already queued in
  // the old shard would otherwise execute there, racing the new shard.
  while (shards_.size() <= shard) {
    auto sh = std::make_unique<Shard>();
    sh->index = static_cast<std::uint32_t>(shards_.size());
    shards_.push_back(std::move(sh));
  }
  node_shard_[node] = shard;
  lookahead_dirty_ = true;
}

std::uint32_t Network::shard_of(NodeId node) const {
  if (node >= nodes_.size()) throw SimError("shard_of: unknown node");
  return node_shard_[node];
}

void Network::set_site(NodeId node, std::uint32_t site) {
  if (node >= nodes_.size()) throw SimError("set_site: unknown node");
  if (in_callback()) throw SimError("set_site from a node callback");
  node_site_[node] = site;
  lookahead_dirty_ = true;
}

std::uint32_t Network::site_of(NodeId node) const {
  if (node >= nodes_.size()) throw SimError("site_of: unknown node");
  return node_site_[node];
}

void Network::ensure_lookahead() {
  if (!lookahead_dirty_) return;
  lookahead_dirty_ = false;
  // base_latency is the minimum latency of every link, which bounds how
  // soon an event can affect another shard.
  lookahead_ = config_.base_latency;
  if (config_.inter_site_latency == 0) return;
  // Adaptive widening: when no site's nodes straddle two shards, every
  // cross-shard delivery is cross-site and costs at least base_latency +
  // inter_site_latency — so the window may be that wide. The check is a
  // pure function of (site, shard) assignments: every placement that
  // keeps sites whole (including everything on ONE shard) computes the
  // same width, which is what keeps digests placement-invariant.
  std::unordered_map<std::uint32_t, std::uint32_t> home;
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    auto [it, fresh] = home.emplace(node_site_[n], node_shard_[n]);
    if (!fresh && it->second != node_shard_[n]) return;  // straddler: stay
  }
  lookahead_ = config_.base_latency + config_.inter_site_latency;
}

void Network::set_workers(unsigned n) {
  if (in_callback()) throw SimError("set_workers from a node callback");
  if (n == 0) n = 1;
  if (n == workers_) return;
  stop_workers();
  workers_ = n;
  // Spin-then-block barrier tuning: spinning only pays when every spinner
  // (the coordinator and its n - 1 pool threads) has a core of its own.
  // Otherwise a spin steals the CPU the work needs, so block at once.
  spin_limit_ = std::thread::hardware_concurrency() >= n ? 4000 : 0;
  if (n >= 2) {
    // The coordinator drains shards as worker 0 (run_epoch).
    threads_.reserve(n - 1);
    for (unsigned i = 1; i < n; ++i)
      threads_.emplace_back([this, i] { worker_main(i); });
  }
}

void Network::stop_workers() {
  if (threads_.empty()) return;
  {
    std::lock_guard<std::mutex> lk(pool_mu_);
    shutdown_.store(true, std::memory_order_seq_cst);
  }
  work_cv_.notify_all();
  for (auto& t : threads_) t.join();
  threads_.clear();
  shutdown_.store(false, std::memory_order_relaxed);
}

void Network::crash(NodeId node) {
  if (node >= nodes_.size()) throw SimError("crash: unknown node");
  if (!up_[node]) return;
  up_[node] = false;
  if (tracer_)
    tracer_->instant(obs::EventKind::kCrash, node, local_now(), node);
  nodes_[node]->on_crash();
}

void Network::recover(NodeId node) {
  if (node >= nodes_.size()) throw SimError("recover: unknown node");
  if (up_[node]) return;
  up_[node] = true;
  if (tracer_)
    tracer_->instant(obs::EventKind::kRecover, node, local_now(), node);
  nodes_[node]->on_recover();
}

bool Network::is_up(NodeId node) const {
  if (node >= nodes_.size()) throw SimError("is_up: unknown node");
  return up_[node];
}

void Network::set_partition(NodeId node, std::uint32_t partition) {
  if (node >= nodes_.size()) throw SimError("set_partition: unknown node");
  partition_[node] = partition;
  if (tracer_)
    tracer_->instant(obs::EventKind::kPartition, node, local_now(), node,
                     partition);
}

void Network::heal_partitions() {
  for (auto& p : partition_) p = 0;
  if (tracer_) tracer_->instant(obs::EventKind::kHeal, 0, local_now());
}

std::uint32_t Network::partition_of(NodeId node) const {
  if (node >= nodes_.size()) throw SimError("partition_of: unknown node");
  return partition_[node];
}

void Network::block_link(NodeId from, NodeId to) {
  blocked_links_.insert(link_key(from, to));
}

void Network::unblock_link(NodeId from, NodeId to) {
  blocked_links_.erase(link_key(from, to));
}

// ---- multicast groups ----

GroupId Network::create_group() {
  if (in_callback() && tls_ctx.buffered)
    throw SimError("create_group during a parallel window");
  groups_.emplace_back();
  return static_cast<GroupId>(groups_.size() - 1);
}

void Network::raw_join(GroupId group, NodeId node) {
  auto& members = groups_[group];
  auto it = std::lower_bound(members.begin(), members.end(), node);
  if (it == members.end() || *it != node) members.insert(it, node);
}

void Network::raw_leave(GroupId group, NodeId node) {
  auto& members = groups_[group];
  auto it = std::lower_bound(members.begin(), members.end(), node);
  if (it != members.end() && *it == node) members.erase(it);
}

void Network::join_group(GroupId group, NodeId node) {
  if (group >= groups_.size()) throw SimError("join_group: unknown group");
  if (in_callback()) {
    // Buffer: membership is frozen while a window executes, and applying
    // at window boundaries in canonical order in EVERY mode keeps the view
    // a multicast sees identical for every worker count.
    Shard& sh = *static_cast<Shard*>(tls_ctx.shard);
    NodeId origin = tls_ctx.active_node;
    std::uint32_t o = origin == kNoNode ? 0 : origin + 1;
    sh.group_ops.push_back(
        {sh.now, origin, origin_[o].group_op_ctr++, group, node, true});
    return;
  }
  raw_join(group, node);
}

void Network::leave_group(GroupId group, NodeId node) {
  if (group >= groups_.size()) throw SimError("leave_group: unknown group");
  if (in_callback()) {
    Shard& sh = *static_cast<Shard*>(tls_ctx.shard);
    NodeId origin = tls_ctx.active_node;
    std::uint32_t o = origin == kNoNode ? 0 : origin + 1;
    sh.group_ops.push_back(
        {sh.now, origin, origin_[o].group_op_ctr++, group, node, false});
    return;
  }
  raw_leave(group, node);
}

std::size_t Network::group_size(GroupId group) const {
  if (group >= groups_.size()) throw SimError("group_size: unknown group");
  return groups_[group].size();
}

bool Network::deliverable(NodeId from, NodeId to) const {
  if (to >= nodes_.size()) return false;
  if (!up_[to]) return false;
  if (from < nodes_.size() && partition_[from] != partition_[to]) return false;
  if (blocked_links_.contains(link_key(from, to))) return false;
  return true;
}

SimDuration Network::delivery_latency(std::size_t bytes, NodeId sender,
                                      NodeId to) {
  SimDuration jitter = 0;
  if (config_.jitter != 0) {
    std::uint32_t o = sender == kNoNode ? 0 : sender + 1;
    std::uint64_t stream =
        (static_cast<std::uint64_t>(o) << 8) | kPurposeJitter;
    jitter = prf_.uniform(stream, origin_[o].jitter_ctr, config_.jitter);
  }
  // The inter-site surcharge keys off the NODES' sites — never their
  // shards — so the latency model is identical for every placement and
  // worker count. Driver sends with no origin node stay local.
  SimDuration site_extra = 0;
  if (config_.inter_site_latency > 0 && sender < nodes_.size() &&
      to < nodes_.size() && node_site_[sender] != node_site_[to])
    site_extra = config_.inter_site_latency;
  return config_.base_latency + site_extra +
         static_cast<SimDuration>(config_.per_byte_latency_us *
                                  static_cast<double>(bytes)) +
         jitter;
}

// ---- event pool + 4-ary heap (per shard) ----

std::uint32_t Network::acquire_slot(Shard& sh) {
  if (!sh.free_slots.empty()) {
    std::uint32_t slot = sh.free_slots.back();
    sh.free_slots.pop_back();
    return slot;
  }
  sh.pool.emplace_back();
  return static_cast<std::uint32_t>(sh.pool.size() - 1);
}

void Network::release_slot(Shard& sh, std::uint32_t slot) {
  Event& ev = sh.pool[slot];
  ev.msg = Message{};  // drop the payload refcount now, not at slot reuse
  ev.timer_id = 0;     // dead timer ids stop matching in cancel_timer
  ev.cancelled = false;
  sh.free_slots.push_back(slot);
}

void Network::heap_push(Shard& sh, EventRef ref) {
  auto& heap = sh.heap;
  heap.push_back(ref);
  std::size_t i = heap.size() - 1;
  while (i > 0) {
    std::size_t parent = (i - 1) / kHeapArity;
    if (!ref_before(heap[i], heap[parent])) break;
    std::swap(heap[i], heap[parent]);
    i = parent;
  }
}

void Network::heap_pop_min(Shard& sh) {
  sh.heap[0] = sh.heap.back();
  sh.heap.pop_back();
  if (!sh.heap.empty()) sift_down(sh, 0);
}

void Network::sift_down(Shard& sh, std::size_t i) {
  auto& heap = sh.heap;
  const std::size_t n = heap.size();
  for (;;) {
    std::size_t first = i * kHeapArity + 1;
    if (first >= n) return;
    std::size_t last = std::min(first + kHeapArity, n);
    std::size_t best = first;
    for (std::size_t c = first + 1; c < last; ++c)
      if (ref_before(heap[c], heap[best])) best = c;
    if (!ref_before(heap[best], heap[i])) return;
    std::swap(heap[i], heap[best]);
    i = best;
  }
}

std::uint64_t Network::make_key(NodeId origin) {
  // Calls from outside the event loop share origin slot 0: the API call
  // sequence is identical for every worker count, so a single counter is
  // deterministic AND preserves cross-sender FIFO for equal-time sends
  // issued back-to-back from driver code. Calls from node callbacks must
  // use per-origin counters — callbacks on different shards run
  // concurrently, and only a per-node counter advances identically in
  // every interleaving.
  std::uint32_t o =
      !in_callback() || origin == kNoNode ? 0 : origin + 1;
  OriginState& st = origin_[o];
  return (static_cast<std::uint64_t>(o) << 40) |
         (st.key_ctr++ & 0xFFFFFFFFFFULL);
}

void Network::place(Shard& sh, Event ev, std::uint64_t key) {
  std::uint32_t slot = acquire_slot(sh);
  SimTime at = ev.at;
  sh.pool[slot] = std::move(ev);
  heap_push(sh, {at, key, slot});
}

void Network::schedule(Event ev) {
  NodeId dest =
      ev.kind == Event::Kind::kDeliver ? ev.deliver_to : ev.timer_node;
  NodeId origin = ev.kind == Event::Kind::kDeliver ? ev.msg.from : ev.timer_node;
  std::uint64_t key = make_key(origin);
  std::uint32_t dshard = node_shard_[dest];
  if (profile_ && in_callback()) {
    // Cross-shard send matrix: the sending shard owns its row, so workers
    // never contend on a cell.
    Shard& src = *static_cast<Shard*>(tls_ctx.shard);
    if (src.index != dshard) {
      if (src.prof_xshard.size() < shards_.size())
        src.prof_xshard.resize(shards_.size(), 0);
      ++src.prof_xshard[dshard];
    }
  }
  if (in_callback() && tls_ctx.buffered &&
      static_cast<Shard*>(tls_ctx.shard) != shards_[dshard].get()) {
    static_cast<Shard*>(tls_ctx.shard)
        ->outbox.push_back({std::move(ev), key, dshard});
    return;
  }
  place(*shards_[dshard], std::move(ev), key);
}

// ---- sending ----

void Network::queue_delivery(Message msg, NodeId to) {
  if (config_.drop_probability > 0.0) {
    std::uint32_t o = msg.from == kNoNode ? 0 : msg.from + 1;
    std::uint64_t stream = (static_cast<std::uint64_t>(o) << 8) | kPurposeDrop;
    if (prf_.uniform_double(stream, origin_[o].drop_ctr) <
        config_.drop_probability) {
      active_stats().record_drop(msg);
      if (tracer_)
        tracer_->instant(obs::EventKind::kDrop, to, local_now(),
                         msg.wire_size(), 0, msg.label);
      return;
    }
  }
  Event ev;
  ev.at = local_now() + delivery_latency(msg.wire_size(), msg.from, to);
  ev.kind = Event::Kind::kDeliver;
  ev.deliver_to = to;
  ev.msg = std::move(msg);
  schedule(std::move(ev));
}

void Network::unicast(NodeId from, NodeId to, Label label, Payload payload) {
  Message msg;
  msg.from = from;
  msg.to = to;
  msg.label = label;
  msg.payload = std::move(payload);
  msg.trace = current_trace();
  active_stats().record_send(msg);
  if (tracer_)
    tracer_->instant(obs::EventKind::kSend, from, local_now(), msg.wire_size(),
                     0, msg.label);
  if (!deliverable(from, to)) {
    active_stats().record_drop(msg);
    if (tracer_)
      tracer_->instant(obs::EventKind::kDrop, to, local_now(), msg.wire_size(),
                       0, msg.label);
    return;
  }
  queue_delivery(std::move(msg), to);
}

void Network::multicast(NodeId from, GroupId group, Label label,
                        Payload payload) {
  if (group >= groups_.size()) throw SimError("multicast: unknown group");
  Message proto;
  proto.from = from;
  proto.group = group;
  proto.label = label;
  proto.payload = std::move(payload);
  proto.trace = current_trace();
  // One send on the wire (IP multicast model) regardless of fan-out.
  active_stats().record_send(proto);
  if (tracer_)
    tracer_->instant(obs::EventKind::kSend, from, local_now(),
                     proto.wire_size(), 0, proto.label);
  std::size_t fan = 0;
  for (NodeId member : groups_[group]) {
    if (member == from) continue;
    if (!deliverable(from, member)) {
      active_stats().record_drop(proto);
      if (tracer_)
        tracer_->instant(obs::EventKind::kDrop, member, local_now(),
                         proto.wire_size(), 0, proto.label);
      continue;
    }
    ++fan;
    // Copying the prototype bumps the payload refcount; the buffer itself
    // is shared by every delivery queued here.
    Message copy = proto;
    copy.to = member;
    queue_delivery(std::move(copy), member);
  }
  if (fan > 0) active_stats().record_fanout(proto.wire_size(), fan);
}

// ---- timers ----

Network::TimerId Network::set_timer(NodeId node, SimDuration delay,
                                    std::uint64_t token) {
  if (node >= nodes_.size()) throw SimError("set_timer: unknown node");
  std::uint32_t sidx = node_shard_[node];
  Shard& sh = *shards_[sidx];
  if (in_callback() && static_cast<Shard*>(tls_ctx.shard) != &sh)
    throw SimError("set_timer: cross-shard timer from a node callback");
  std::uint32_t slot = acquire_slot(sh);
  std::uint32_t seq = sh.next_timer_seq++ & 0xFFFFFF;
  if (seq == 0) seq = sh.next_timer_seq++ & 0xFFFFFF;  // ids stay nonzero
  TimerId id = (static_cast<std::uint64_t>(seq) << 40) |
               (static_cast<std::uint64_t>(sidx) << 32) | slot;
  Event& ev = sh.pool[slot];
  ev.at = local_now() + delay;
  ev.kind = Event::Kind::kTimer;
  ev.cancelled = false;
  ev.timer_node = node;
  ev.timer_token = token;
  ev.timer_id = id;
  heap_push(sh, {ev.at, make_key(node), slot});
  return id;
}

void Network::cancel_timer(TimerId id) {
  auto sidx = static_cast<std::uint32_t>((id >> 32) & 0xFF);
  auto slot = static_cast<std::uint32_t>(id & 0xFFFFFFFF);
  if (sidx >= shards_.size()) return;
  Shard& sh = *shards_[sidx];
  if (in_callback() && static_cast<Shard*>(tls_ctx.shard) != &sh)
    throw SimError("cancel_timer: cross-shard cancel from a node callback");
  if (slot >= sh.pool.size()) return;
  Event& ev = sh.pool[slot];
  // The slot may have fired (timer_id cleared) or been recycled for a
  // different event since this id was issued; only a live match cancels.
  if (ev.timer_id != id || ev.cancelled) return;
  ev.cancelled = true;
  ++sh.cancelled_pending;
}

// ---- running ----

SimTime Network::next_event_time() const {
  SimTime t = kNever;
  for (const auto& shp : shards_)
    if (!shp->heap.empty() && shp->heap[0].at < t) t = shp->heap[0].at;
  return t;
}

void Network::maybe_sample(SimTime upto) {
  if (metrics_ == nullptr || metrics_interval_ == 0) return;
  while (next_sample_ <= upto) {
    // The sample is stamped with the SCHEDULED tick, not the window start:
    // the series has fixed spacing whatever the event times were.
    metrics_->sample(next_sample_);
    next_sample_ += metrics_interval_;
  }
}

void Network::flush_window() {
  std::vector<GroupOp> ops;
  for (auto& shp : shards_) {
    ops.insert(ops.end(), shp->group_ops.begin(), shp->group_ops.end());
    shp->group_ops.clear();
  }
  if (!ops.empty()) {
    // Canonical order: (time, origin node, per-origin seq) — unique and
    // identical in every execution mode.
    std::sort(ops.begin(), ops.end(), [](const GroupOp& a, const GroupOp& b) {
      if (a.at != b.at) return a.at < b.at;
      if (a.origin != b.origin) return a.origin < b.origin;
      return a.seq < b.seq;
    });
    for (const GroupOp& op : ops)
      op.join ? raw_join(op.group, op.node) : raw_leave(op.group, op.node);
  }
  win_end_ = 0;
}

void Network::heapify(Shard& sh) {
  const std::size_t n = sh.heap.size();
  if (n < 2) return;
  for (std::size_t i = (n - 2) / kHeapArity + 1; i-- > 0;) sift_down(sh, i);
}

void Network::merge_outboxes() {
  // Canonical keys were assigned at send time, so the heap order is
  // independent of the merge order; iterating shards in index order just
  // keeps slot assignment tidy. The merge is batched: one counting pass
  // picks, per destination, between per-event sifts (small trickle into a
  // deep heap) and a raw append followed by a single O(n) heapify (burst
  // comparable to the heap itself) — the flash-crowd shape where per-event
  // insertion used to cost an extra log factor at every barrier.
  const std::size_t n = shards_.size();
  bool any = false;
  for (auto& shp : shards_)
    if (!shp->outbox.empty()) {
      any = true;
      break;
    }
  if (!any) return;
  merge_count_.assign(n, 0);
  std::uint64_t total = 0;
  for (auto& shp : shards_)
    for (const PendingEvent& p : shp->outbox) ++merge_count_[p.dest_shard];
  merge_bulk_.assign(n, 0);
  for (std::size_t d = 0; d < n; ++d) {
    total += merge_count_[d];
    if (merge_count_[d] >= 32 &&
        static_cast<std::size_t>(merge_count_[d]) * 4 >=
            shards_[d]->heap.size())
      merge_bulk_[d] = 1;
  }
  if (profile_) prof_merged_events_ += total;
  for (auto& shp : shards_) {
    if (shp->outbox.size() > shp->prof_outbox_peak)
      shp->prof_outbox_peak = shp->outbox.size();
    for (PendingEvent& p : shp->outbox) {
      Shard& dst = *shards_[p.dest_shard];
      std::uint32_t slot = acquire_slot(dst);
      SimTime at = p.ev.at;
      dst.pool[slot] = std::move(p.ev);
      if (merge_bulk_[p.dest_shard])
        dst.heap.push_back({at, p.key, slot});
      else
        heap_push(dst, {at, p.key, slot});
    }
    // Arena reuse with hysteresis: keep the outbox capacity near its
    // decaying high-water so steady windows reallocate nothing, while one
    // flash-crowd burst stops pinning memory a few hundred windows later.
    std::size_t sz = shp->outbox.size();
    std::size_t decayed = shp->outbox_watermark - shp->outbox_watermark / 8;
    shp->outbox_watermark = sz > decayed ? sz : decayed;
    shp->outbox.clear();
    if (shp->outbox.capacity() > 256 &&
        shp->outbox.capacity() > 2 * shp->outbox_watermark) {
      shp->outbox.shrink_to_fit();
      shp->outbox.reserve(shp->outbox_watermark);
    }
  }
  for (std::size_t d = 0; d < n; ++d)
    if (merge_bulk_[d]) heapify(*shards_[d]);
}

void Network::merge_stats_deltas() {
  for (auto& shp : shards_) {
    NetStats& d = shp->stats_delta;
    if (d.sent_total().messages == 0 && d.recv_total().messages == 0 &&
        d.dropped().messages == 0)
      continue;
    stats_.merge(d);
    d.reset();
  }
}

void Network::process_event(Shard& sh, EventRef ref, bool buffered) {
  Event ev = std::move(sh.pool[ref.slot]);
  release_slot(sh, ref.slot);
  sh.now = ev.at;
  if (queue_depth_) queue_depth_->record(sh.heap.size() + 1);
  if (profile_) ++sh.prof_events;
  CallCtx saved = tls_ctx;
  tls_ctx.net = this;
  tls_ctx.shard = &sh;
  tls_ctx.buffered = buffered;
  switch (ev.kind) {
    case Event::Kind::kDeliver: {
      NodeId to = ev.deliver_to;
      tls_ctx.active_node = to;
      // The delivered message's causal context becomes ambient for the
      // whole callback: every send the handler issues inherits it.
      tls_ctx.trace = ev.msg.trace;
      // Re-check liveness/partition at delivery time: a message in flight
      // to a node that crashed or got partitioned meanwhile is lost.
      if (!deliverable(ev.msg.from, to)) {
        active_stats().record_drop(ev.msg);
        if (tracer_)
          tracer_->instant(obs::EventKind::kDrop, to, sh.now,
                           ev.msg.wire_size(), 0, ev.msg.label);
        break;
      }
      active_stats().record_delivery(ev.msg, to);
      if (tracer_) {
        tracer_->instant(obs::EventKind::kDeliver, to, sh.now,
                         ev.msg.wire_size(), 0, ev.msg.label);
        // Each traced hop becomes a flow step: Perfetto draws the arrow
        // from the previous flow event of this trace id to this node.
        if (ev.msg.trace.active())
          tracer_->flow_step(obs::EventKind::kFlow, ev.msg.trace.trace_id, to,
                             sh.now, ev.msg.wire_size(), ev.msg.label);
      }
      nodes_[to]->on_message(ev.msg);
      break;
    }
    case Event::Kind::kTimer: {
      if (ev.cancelled) {
        --sh.cancelled_pending;
        break;
      }
      if (!up_[ev.timer_node]) break;  // crashed node: timer suppressed
      tls_ctx.active_node = ev.timer_node;
      tls_ctx.trace = TraceContext{};  // timers carry no causal context
      nodes_[ev.timer_node]->on_timer(ev.timer_token);
      break;
    }
  }
  tls_ctx = saved;
}

std::size_t Network::drain_shard(Shard& sh, SimTime cap, bool buffered) {
  std::uint64_t t0 = 0;
  if (profile_) {
    t0 = mono_ns();
    if (sh.heap.size() > sh.prof_peak_heap) sh.prof_peak_heap = sh.heap.size();
  }
  std::size_t n = 0;
  while (!sh.heap.empty() && sh.heap[0].at <= cap) {
    EventRef top = sh.heap[0];
    heap_pop_min(sh);
    process_event(sh, top, buffered);
    ++n;
  }
  if (profile_) {
    std::uint64_t dt = mono_ns() - t0;
    sh.prof_busy_ns += dt;
    sh.prof_epoch_busy_ns = dt;
    if (n > 0) ++sh.prof_windows;
  }
  return n;
}

void Network::reserve_headroom(Shard& sh) {
  // Events a window creates are mostly intra-shard follow-ups, bounded in
  // practice by a fraction of what is already queued. Grow by at least
  // 1.5x when growing at all, so repeated reserves stay amortized O(1).
  std::size_t growth = sh.heap.size() / 2 + 64;
  if (sh.free_slots.size() < growth) {
    std::size_t need = sh.pool.size() + (growth - sh.free_slots.size());
    if (sh.pool.capacity() < need)
      sh.pool.reserve(std::max(need, sh.pool.capacity() * 3 / 2));
  }
  std::size_t hneed = sh.heap.size() + growth;
  if (sh.heap.capacity() < hneed)
    sh.heap.reserve(std::max(hneed, sh.heap.capacity() * 3 / 2));
}

void Network::run_epoch(SimTime cap) {
  for (Shard* sh : active_shards_) {
    sh->processed = 0;
    reserve_headroom(*sh);
  }
  epoch_cap_ = cap;
  work_cursor_.store(0, std::memory_order_relaxed);
  running_.store(static_cast<unsigned>(threads_.size()),
                 std::memory_order_relaxed);
  // The seq_cst epoch bump publishes epoch_cap_ and active_shards_; the
  // seq_cst sleepers_ read closes the Dekker race with a worker that
  // checked the epoch and is about to block.
  epoch_.fetch_add(1, std::memory_order_seq_cst);
  if (sleepers_.load(std::memory_order_seq_cst) > 0) {
    std::lock_guard<std::mutex> lk(pool_mu_);
    work_cv_.notify_all();
  }
  drain_claimed(cap);  // the coordinator is worker 0
  for (unsigned i = 0; i < spin_limit_; ++i) {
    if (running_.load(std::memory_order_acquire) == 0) return;
    cpu_relax();
  }
  std::unique_lock<std::mutex> lk(pool_mu_);
  coord_waiting_.store(true, std::memory_order_seq_cst);
  done_cv_.wait(lk,
                [&] { return running_.load(std::memory_order_seq_cst) == 0; });
  coord_waiting_.store(false, std::memory_order_relaxed);
}

void Network::drain_claimed(SimTime cap) {
  // Claim active shards through the shared cursor: pure dynamic load
  // balancing. WHICH worker drains a shard is irrelevant to the
  // schedule — all shard state is shard-local — so stealing is free.
  for (;;) {
    std::size_t i = work_cursor_.fetch_add(1, std::memory_order_relaxed);
    if (i >= active_shards_.size()) return;
    Shard& sh = *active_shards_[i];
    sh.processed = drain_shard(sh, cap, /*buffered=*/true);
  }
}

void Network::worker_main(unsigned) {
  std::uint64_t seen = 0;
  for (;;) {
    // Await the next epoch: spin briefly (multi-core hosts only), then
    // block on the condition variable. The sleepers_ counter lets the
    // coordinator skip the notify syscall entirely while workers spin.
    std::uint64_t e = epoch_.load(std::memory_order_seq_cst);
    unsigned spins = 0;
    while (e == seen && !shutdown_.load(std::memory_order_relaxed)) {
      if (++spins > spin_limit_) {
        std::unique_lock<std::mutex> lk(pool_mu_);
        sleepers_.fetch_add(1, std::memory_order_seq_cst);
        work_cv_.wait(lk, [&] {
          return shutdown_.load(std::memory_order_relaxed) ||
                 epoch_.load(std::memory_order_seq_cst) != seen;
        });
        sleepers_.fetch_sub(1, std::memory_order_relaxed);
        spins = 0;
      } else {
        cpu_relax();
      }
      e = epoch_.load(std::memory_order_seq_cst);
    }
    if (shutdown_.load(std::memory_order_relaxed)) return;
    seen = e;
    drain_claimed(epoch_cap_);
    if (running_.fetch_sub(1, std::memory_order_seq_cst) == 1 &&
        coord_waiting_.load(std::memory_order_seq_cst)) {
      std::lock_guard<std::mutex> lk(pool_mu_);
      done_cv_.notify_one();
    }
  }
}

std::size_t Network::run_windows(SimTime deadline) {
  ensure_lookahead();
  std::size_t total = 0;
  const bool prof = profile_;
  std::uint64_t wall0 = prof ? mono_ns() : 0;
  for (;;) {
    SimTime t_min = next_event_time();
    if (t_min == kNever || t_min > deadline) break;
    if (win_end_ != 0 && t_min >= win_end_) flush_window();
    if (win_end_ == 0) {
      // A window opens at the same virtual times for every placement and
      // worker count, so sampling here keeps the metrics series invariant.
      win_end_ = t_min + lookahead();
      maybe_sample(t_min);
    }
    SimTime cap = std::min(deadline, win_end_ - 1);
    active_shards_.clear();
    for (auto& shp : shards_)
      if (!shp->heap.empty() && shp->heap[0].at <= cap)
        active_shards_.push_back(shp.get());
    std::size_t n = 0;
    if (threads_.empty() || active_shards_.size() == 1) {
      // Drained inline, unbuffered: a cross-shard send lands at or after
      // win_end_ (the lookahead bounds every cross-shard latency), so it
      // can go straight into its destination heap in any drain order.
      for (Shard* sh : active_shards_) n += drain_shard(*sh, cap, false);
      if (prof) ++prof_solo_windows_;
    } else {
      std::uint64_t e0 = prof ? mono_ns() : 0;
      run_epoch(cap);
      for (Shard* sh : active_shards_) n += sh->processed;
      merge_outboxes();
      if (prof) {
        // Stall = the barrier wall time an active shard spent NOT draining
        // events this epoch: the imbalance signal placement work needs.
        // Idle shards took no part in the epoch and charge nothing.
        std::uint64_t ewall = mono_ns() - e0;
        for (Shard* sh : active_shards_) {
          std::uint64_t busy = sh->prof_epoch_busy_ns;
          sh->prof_stall_ns += ewall > busy ? ewall - busy : 0;
        }
      }
    }
    total += n;
    if (prof) {
      ++prof_windows_;
      prof_events_per_window_.record(n);
    }
  }
  for (auto& shp : shards_)
    if (shp->now > now_) now_ = shp->now;
  if (prof) prof_wall_ns_ += mono_ns() - wall0;
  if (next_event_time() == kNever) flush_window();
  merge_stats_deltas();
  return total;
}

std::size_t Network::run() { return run_windows(kNever); }

std::size_t Network::run_until(SimTime deadline) {
  std::size_t n = run_windows(deadline);
  if (now_ < deadline) now_ = deadline;
  return n;
}

// ---- introspection ----

std::size_t Network::queued_events() const {
  std::size_t n = 0;
  for (const auto& shp : shards_) n += shp->heap.size();
  return n;
}

std::size_t Network::event_pool_slots() const {
  std::size_t n = 0;
  for (const auto& shp : shards_) n += shp->pool.size();
  return n;
}

std::size_t Network::cancelled_timers_pending() const {
  std::size_t n = 0;
  for (const auto& shp : shards_) n += shp->cancelled_pending;
  return n;
}

EngineProfile Network::engine_profile() const {
  EngineProfile p;
  p.windows = prof_windows_;
  p.solo_windows = prof_solo_windows_;
  p.wall_ms = static_cast<double>(prof_wall_ns_) / 1e6;
  p.events_per_window = prof_events_per_window_.summary();
  p.merged_events = prof_merged_events_;
  p.lookahead_us = static_cast<std::uint64_t>(lookahead_);
  const std::size_t n = shards_.size();
  p.shards.resize(n);
  p.xshard.assign(n, std::vector<std::uint64_t>(n, 0));
  for (std::size_t i = 0; i < n; ++i) {
    const Shard& sh = *shards_[i];
    ShardProfile& row = p.shards[i];
    row.events = sh.prof_events;
    row.windows_active = sh.prof_windows;
    row.busy_ms = static_cast<double>(sh.prof_busy_ns) / 1e6;
    row.stall_ms = static_cast<double>(sh.prof_stall_ns) / 1e6;
    row.peak_heap = sh.prof_peak_heap;
    row.pool_slots = sh.pool.size();
    row.outbox_peak = sh.prof_outbox_peak;
    // Arena high-water: bytes the shard's reusable buffers hold right now.
    // Reuse working means this stays flat across windows instead of
    // tracking the worker count.
    row.arena_bytes =
        sh.pool.capacity() * sizeof(Event) +
        sh.heap.capacity() * sizeof(EventRef) +
        sh.outbox.capacity() * sizeof(PendingEvent) +
        sh.free_slots.capacity() * sizeof(std::uint32_t);
    p.arena_bytes += row.arena_bytes;
    for (std::size_t j = 0; j < sh.prof_xshard.size(); ++j) {
      p.xshard[i][j] = sh.prof_xshard[j];
      row.xshard_sent += sh.prof_xshard[j];
    }
  }
  return p;
}

}  // namespace mykil::net
