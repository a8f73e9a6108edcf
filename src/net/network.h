// Deterministic discrete-event network simulator with an optional
// parallel (area-sharded) execution mode.
//
// Substitutes for the paper's testbed (a LAN of Linux workstations with
// TCP between area controllers and IP multicast within areas). The
// simulator provides:
//   - unicast and multicast delivery with a configurable latency model,
//   - crash-stop node failures (paper's fault model, Section IV) and
//     recovery,
//   - network partitions (any grouping of nodes; messages cross partition
//     boundaries only if explicitly allowed),
//   - per-node timers for protocol timeouts (T_idle, T_active, heartbeats),
//   - byte/message accounting per traffic class for the figure benchmarks.
//
// Determinism: every run with the same seed and the same sequence of API
// calls delivers events in the same order — REGARDLESS of the worker
// count (see DESIGN.md 11). Two mechanisms make that structural rather
// than accidental:
//   - Canonical event keys. Every scheduled event carries a key
//     (origin-node, per-origin sequence) assigned at scheduling time; ties
//     in delivery time are broken by that key. A node's callbacks run in a
//     deterministic order, so its per-origin counter advances identically
//     in every mode — the total (at, key) order is a property of the
//     schedule, not of the execution interleaving.
//   - Order-independent randomness. Latency jitter and drop coins come
//     from a counter-mode PRF (crypto::StreamPrf) keyed per
//     (seed, node, purpose) with a per-node counter, so the i-th draw of a
//     node's stream has the same value no matter how shards interleave.
//
// Windows (DESIGN.md 11): nodes are partitioned into shards
// (Network::set_shard; the Mykil layer places areas on shards). Each
// shard owns its own event heap/pool, and time advances in conservative
// windows of width `lookahead = base_latency` — the minimum latency of any
// link, hence the soonest an event executed in this window can affect
// another shard. One window loop runs at every worker count. With no
// worker pool (workers=1), or when only one shard has work, the calling
// thread drains the window's shards inline; otherwise the pool drains them
// concurrently, buffering cross-shard sends in per-shard outboxes merged
// at the window barrier (the canonical keys make merge order irrelevant).
// A one-shard run is the global (at, key) order: the reference every
// multi-shard run at every worker count must reproduce. Group membership
// mutations issued from node callbacks are buffered and applied at window
// boundaries in canonical (time, origin, seq) order, so the membership
// visible to a multicast is identical whatever the worker count.
//
// Scale (DESIGN.md 10): per shard, the event queue is a 4-ary heap of
// {time, key, slot} handles over a slab-allocated event pool, payloads are
// refcounted (net/message.h) so a multicast to n members costs one buffer,
// and labels are interned ids (net/label.h) so per-delivery accounting
// never touches a string. Group membership is a sorted flat vector,
// blocked links live in a hash set, and per-node stats pages allocate on
// first touch (net/stats.h).
//
// Delivery guarantees (what protocol code may and may not assume):
//   - Unicast/multicast delivery is AT MOST ONCE: a message is delivered
//     zero or one times, never duplicated by the network itself.
//   - A message is LOST when (a) the drop_probability coin toss fails at
//     send time, or (b) the receiver is crashed, in another partition, or
//     behind a blocked link at either send time or delivery time — a
//     message in flight to a node that crashes or gets partitioned before
//     it arrives is gone, exactly like a real datagram.
//   - Ordering: two messages with equal computed delivery time arrive in
//     canonical key order — sends issued from outside the event loop
//     arrive in call order (they share one sequence counter); sends from
//     node callbacks keep per-sender FIFO and tie-break across senders by
//     sender id (outside-the-loop sends sort first). Jitter and
//     size-dependent latency can reorder everything else.
//   - Group membership changes made from inside node callbacks take
//     effect at the next window boundary (within `lookahead` of the call,
//     i.e. sooner than any message the caller sends could arrive
//     anywhere). Calls from outside the event loop apply immediately.
//   - Timers and crashes: a timer whose due time falls inside the node's
//     down window is SUPPRESSED, not deferred — it never fires, and
//     recover() does not resurrect it. A timer armed before a crash whose
//     due time lands after recover() fires normally. Nodes that need
//     periodic timers across failures must re-arm them in on_recover()
//     (the Mykil entities do; see also ArqEndpoint::on_recover).
//   - Timers are shard-local: at every worker count, a node callback may
//     only set or cancel timers on nodes in its own shard; anything else
//     throws SimError (every Mykil timer is self-targeted, so this never
//     binds in practice).
//   - Reliability, retransmission, and duplicate suppression are therefore
//     the job of the layer above: see net/arq.h.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_set>
#include <vector>

#include "crypto/prng.h"
#include "net/label.h"
#include "net/message.h"
#include "net/node.h"
#include "net/sim_time.h"
#include "net/stats.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mykil::net {

struct NetworkConfig {
  /// Fixed one-way latency added to every delivery. Doubles as the
  /// engine's lookahead (the window width), so it must be positive: the
  /// constructor throws SimError on 0.
  SimDuration base_latency = usec(200);
  /// Additional latency per payload byte (models serialization/bandwidth).
  double per_byte_latency_us = 0.001;  // ~1 GB/s links
  /// Uniform jitter in [0, jitter) added per delivery.
  SimDuration jitter = usec(50);
  /// Seed for the network's internal randomness (jitter, drop decisions).
  std::uint64_t seed = 1;
  /// Probability in [0,1) that any given delivery is silently dropped.
  /// The coin is tossed once per DELIVERY at send time: a multicast to n
  /// receivers tosses n independent coins, and a message that survives the
  /// toss can still be lost to a crash/partition/blocked link (see the
  /// delivery guarantees above). 0 for the protocol benchmarks.
  double drop_probability = 0.0;
  /// Extra one-way latency added when sender and receiver are in different
  /// SITES (Network::set_site) — the paper's LAN/WAN split: IP multicast
  /// inside an area is fast, AC-to-AC TCP crosses the wide area. A site is
  /// a property of the node, never of its shard, so the delivery schedule
  /// is identical for every shard placement and worker count. When every
  /// site is placed whole (no site's nodes straddle two shards), the
  /// engine widens its conservative window from base_latency to
  /// base_latency + inter_site_latency — fewer barriers per simulated
  /// second. 0 (the default) preserves the flat latency model.
  SimDuration inter_site_latency = 0;
};

/// Per-shard row of the engine profiler (DESIGN.md 13.2). All wall-clock
/// fields come from std::chrono::steady_clock — they feed ONLY this report,
/// never the deterministic schedule.
struct ShardProfile {
  std::uint64_t events = 0;          ///< events processed on this shard
  std::uint64_t windows_active = 0;  ///< windows in which the shard had work
  double busy_ms = 0;                ///< wall time spent draining this shard
  double stall_ms = 0;  ///< barrier wall minus busy, pool epochs it was in
  std::uint64_t peak_heap = 0;   ///< max queued events at a drain start
  std::uint64_t pool_slots = 0;  ///< slab high-water (slots ever allocated)
  std::uint64_t xshard_sent = 0;  ///< cross-shard sends originating here
  std::uint64_t outbox_peak = 0;  ///< max buffered cross-shard sends/window
  /// Arena high-water: bytes currently reserved by this shard's event
  /// pool, heap, free list, and outbox (capacity, not size — the reuse the
  /// window barrier is supposed to preserve is observable here instead of
  /// inferred from process RSS).
  std::uint64_t arena_bytes = 0;
};

/// Snapshot of the engine's per-shard accounting, collected at every
/// worker count while enable_engine_profile(true) is set. Feeds the
/// ROADMAP shard-placement work: stall_ms exposes window imbalance, the
/// xshard matrix exposes which shard pairs talk.
struct EngineProfile {
  std::uint64_t windows = 0;       ///< lookahead windows executed
  std::uint64_t solo_windows = 0;  ///< windows drained inline by the caller
  double wall_ms = 0;              ///< wall time inside the window loop
  std::uint64_t merged_events = 0;  ///< cross-shard events merged at barriers
  std::uint64_t lookahead_us = 0;   ///< conservative window width in use
  std::uint64_t arena_bytes = 0;    ///< sum of per-shard arena high-waters
  obs::HistogramSummary events_per_window;
  std::vector<ShardProfile> shards;
  /// xshard[src][dst]: events a callback on shard src scheduled onto
  /// shard dst (dst != src). Rows are owned by the sending shard's worker,
  /// so collection is contention-free.
  std::vector<std::vector<std::uint64_t>> xshard;
};

class Network {
 public:
  explicit Network(NetworkConfig config = {});
  ~Network();
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // ---- topology ----

  /// Register a node; assigns its NodeId. The node must outlive the
  /// network. At most 2^24 - 2 nodes (the canonical event key packs the
  /// origin node into 24 bits).
  NodeId attach(Node& node);

  /// Crash-stop failure: the node receives nothing (messages addressed to
  /// it are dropped) and its timers are suppressed until recover().
  void crash(NodeId node);
  void recover(NodeId node);
  [[nodiscard]] bool is_up(NodeId node) const;

  /// Assign nodes to named partitions. By default every node is in
  /// partition 0. A message is deliverable only when sender and receiver
  /// are in the same partition.
  void set_partition(NodeId node, std::uint32_t partition);
  void heal_partitions();  ///< everyone back to partition 0
  [[nodiscard]] std::uint32_t partition_of(NodeId node) const;

  /// Block/unblock a specific directed link regardless of partitions
  /// (fine-grained failure injection).
  void block_link(NodeId from, NodeId to);
  void unblock_link(NodeId from, NodeId to);

  /// Adjust packet-loss injection mid-run (chaos drop ramps). Applies to
  /// deliveries queued from now on; messages already in flight keep the
  /// outcome of their original coin toss.
  void set_drop_probability(double p) { config_.drop_probability = p; }
  [[nodiscard]] double drop_probability() const {
    return config_.drop_probability;
  }

  // ---- sharding / parallel execution ----

  /// Maximum shards (the TimerId encoding reserves 8 bits for the shard).
  static constexpr std::uint32_t kMaxShards = 256;

  /// Assign `node` to a shard (creating shards up to `shard`). All nodes
  /// start in shard 0. Must be called from outside the event loop, and
  /// only while no events or timers target the node — in practice,
  /// immediately after attach(). The Mykil layer shards by area: the
  /// registration server in shard 0, area i in shard i + 1.
  void set_shard(NodeId node, std::uint32_t shard);
  [[nodiscard]] std::uint32_t shard_of(NodeId node) const;

  /// Assign `node` to a latency site (default 0). Deliveries between
  /// different sites cost config.inter_site_latency extra. A site is part
  /// of the TOPOLOGY — it shifts delivery times identically in every
  /// execution mode — whereas a shard is an execution detail; keep the two
  /// distinct. The Mykil layer sets site = area, mirroring the paper's
  /// LAN-per-area / WAN-between-ACs deployment. Same call-site rules as
  /// set_shard: outside the event loop, before events target the node.
  void set_site(NodeId node, std::uint32_t site);
  [[nodiscard]] std::uint32_t site_of(NodeId node) const;

  /// The conservative window width the engine currently runs with
  /// (DESIGN.md 11): base_latency, widened by inter_site_latency whenever
  /// the shard placement keeps every site whole. Recomputed on topology
  /// change (set_shard / set_site / attach).
  [[nodiscard]] SimDuration current_lookahead() {
    ensure_lookahead();
    return lookahead_;
  }

  /// Size the worker pool. 1 (the default) drains every window inline on
  /// the calling thread; n >= 2 spawns n - 1 pool threads that, with the
  /// calling thread, drain a window's shards concurrently whenever more
  /// than one has work. The delivery schedule is bit-identical for every
  /// value. Must be called from outside the event loop.
  void set_workers(unsigned n);
  [[nodiscard]] unsigned workers() const { return workers_; }

  // ---- multicast groups ----

  GroupId create_group();
  /// Membership changes from node callbacks are buffered and applied at
  /// the next window boundary (canonical order); from outside the event
  /// loop they apply immediately. See the delivery guarantees above.
  void join_group(GroupId group, NodeId node);
  void leave_group(GroupId group, NodeId node);
  [[nodiscard]] std::size_t group_size(GroupId group) const;

  // ---- sending ----

  /// Queue a unicast message for delivery (callable from node callbacks).
  void unicast(NodeId from, NodeId to, Label label, Payload payload);

  /// Queue one multicast: delivered to every current group member except
  /// the sender. Accounting charges one send (the paper's model: a single
  /// multicast message) and one delivery per receiver; all deliveries
  /// share one refcounted payload buffer (O(1) copies per fan-out).
  void multicast(NodeId from, GroupId group, Label label, Payload payload);

  // ---- timers ----

  using TimerId = std::uint64_t;
  TimerId set_timer(NodeId node, SimDuration delay, std::uint64_t token);
  /// Cancel a pending timer. O(1): the id addresses the timer's event-pool
  /// slot directly. Cancelling an id that already fired (or never existed)
  /// is a no-op — no bookkeeping is retained for it, so cancel-heavy runs
  /// (ARQ retransmit churn) cannot accumulate state.
  void cancel_timer(TimerId id);

  // ---- running ----

  /// Process events until the queue is empty. Returns the number of events
  /// processed.
  std::size_t run();
  /// Process events with time <= deadline, then advance the clock to the
  /// deadline. Returns the number of events processed.
  std::size_t run_until(SimTime deadline);

  /// Current virtual time. From inside a node callback this is the time
  /// of the event being processed (shard-local inside a window).
  [[nodiscard]] SimTime now() const;
  [[nodiscard]] bool idle() const { return queued_events() == 0; }

  NetStats& stats() { return stats_; }
  [[nodiscard]] const NetStats& stats() const { return stats_; }

  // ---- scheduler introspection (tests, benches) ----

  /// Events currently queued (deliveries + pending timers), all shards.
  [[nodiscard]] std::size_t queued_events() const;
  /// High-water slab size: slots ever allocated for queued events. Bounded
  /// by peak queue depth, NOT by the total number of events scheduled.
  [[nodiscard]] std::size_t event_pool_slots() const;
  /// Timers cancelled but not yet reaped from the queue (their slot frees
  /// when the due time passes). Returns toward 0 as the run drains.
  [[nodiscard]] std::size_t cancelled_timers_pending() const;

  // ---- observability ----

  /// Attach a tracer/metrics registry (both owned by the caller, both
  /// optional; pass nullptr to detach). Every hook in the simulator and in
  /// the protocol entities is a single null check when detached, so the
  /// disabled path costs nothing measurable and changes no behaviour.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }
  void set_metrics(obs::MetricsRegistry* metrics);
  [[nodiscard]] obs::Tracer* tracer() const { return tracer_; }
  [[nodiscard]] obs::MetricsRegistry* metrics() const { return metrics_; }

  // ---- causal tracing (DESIGN.md 13.1) ----

  /// The ambient trace context: inside a delivery callback it is the
  /// context the message carried; inside a timer callback it is empty
  /// unless the handler sets one; outside the event loop it is whatever
  /// the driver last set. unicast()/multicast() stamp it onto every
  /// outgoing message, so a multi-step exchange propagates its context
  /// with no per-call-site plumbing.
  [[nodiscard]] TraceContext current_trace() const;
  /// Override the ambient context (trace roots, ARQ retransmits). Inside a
  /// node callback the override lasts until the callback returns; outside
  /// the event loop it persists until changed.
  void set_current_trace(TraceContext ctx);
  /// Allocate a fresh trace id from `origin`'s deterministic counter —
  /// identical for every worker count, never wall clock. The counter
  /// feeds nothing but trace ids, so allocating (or not allocating, when
  /// tracing is off) cannot perturb the event schedule.
  std::uint64_t new_trace_id(NodeId origin);

  // ---- time-series metrics (DESIGN.md 13.3) ----

  /// Sample the attached MetricsRegistry every `interval` of virtual time
  /// (0 disables). Samples are taken at lookahead-window boundaries — the
  /// same deterministic points in every execution mode — with the sample
  /// timestamp pinned to the scheduled tick, so the JSONL series is
  /// identical for every worker count.
  void set_metrics_interval(SimDuration interval);
  [[nodiscard]] SimDuration metrics_interval() const {
    return metrics_interval_;
  }

  // ---- engine profiler (DESIGN.md 13.2) ----

  /// Toggle per-shard accounting (events, busy/stall wall time, peak heap
  /// depth, cross-shard send matrix). Wall clock is read only while
  /// enabled and only feeds engine_profile(); the schedule and digests
  /// are unaffected.
  void enable_engine_profile(bool on) { profile_ = on; }
  /// Snapshot the collected accounting. Call from outside the event loop.
  [[nodiscard]] EngineProfile engine_profile() const;

 private:
  /// Slab-resident event record. Deliveries carry a Message whose payload
  /// is a refcounted buffer shared with every sibling delivery of the same
  /// multicast.
  struct Event {
    SimTime at = 0;
    enum class Kind : std::uint8_t { kDeliver, kTimer } kind = Kind::kDeliver;
    bool cancelled = false;  ///< timers only; set by cancel_timer
    // deliver
    Message msg;
    NodeId deliver_to = kNoNode;
    // timer
    NodeId timer_node = kNoNode;
    std::uint64_t timer_token = 0;
    TimerId timer_id = 0;  ///< 0 when the slot is free or holds a delivery
  };

  /// Heap handle. `key` is the canonical tie-break — (origin + 1) in the
  /// top 24 bits, the origin's scheduling counter in the low 40 — and
  /// `slot` addresses the slab. The key is assigned at scheduling time
  /// from per-node counters, so it is identical in every execution mode;
  /// slots are an execution detail and never influence ordering.
  struct EventRef {
    SimTime at;
    std::uint64_t key;
    std::uint32_t slot;
  };
  static bool ref_before(const EventRef& a, const EventRef& b) {
    return a.at != b.at ? a.at < b.at : a.key < b.key;
  }

  /// A cross-shard send buffered during a pool epoch; merged into the
  /// destination shard's heap at the window barrier.
  struct PendingEvent {
    Event ev;
    std::uint64_t key;
    std::uint32_t dest_shard;
  };

  /// A join/leave issued from a node callback, applied at the next window
  /// boundary in canonical (at, origin, seq) order.
  struct GroupOp {
    SimTime at;
    NodeId origin;
    std::uint64_t seq;
    GroupId group;
    NodeId node;
    bool join;
  };

  /// Everything one shard owns. Shards never share mutable state during a
  /// window: workers touch only their shard plus read-only topology.
  struct Shard {
    std::vector<EventRef> heap;  ///< 4-ary min-heap of handles
    std::vector<Event> pool;     ///< slab addressed by handle slot
    std::vector<std::uint32_t> free_slots;
    std::size_t cancelled_pending = 0;
    SimTime now = 0;  ///< shard-local clock while processing
    std::uint32_t next_timer_seq = 1;
    std::size_t processed = 0;  ///< events handled in the current epoch
    std::uint32_t index = 0;    ///< this shard's position in shards_
    std::vector<PendingEvent> outbox;
    /// Decaying high-water of outbox size: when the retained capacity is
    /// far above it, the barrier releases the slack (arena reuse with
    /// hysteresis — one flash-crowd window must not pin memory forever).
    std::size_t outbox_watermark = 0;
    std::vector<GroupOp> group_ops;
    NetStats stats_delta;  ///< worker-context accounting, merged after runs
    // Engine-profiler accounting (wall clock; written by whichever thread
    // owns the shard in the current window, read by the coordinator after
    // the barrier handshake — same publication rule as the rest of Shard).
    std::uint64_t prof_events = 0;
    std::uint64_t prof_windows = 0;        ///< windows with >= 1 event
    std::uint64_t prof_busy_ns = 0;        ///< total drain wall time
    std::uint64_t prof_epoch_busy_ns = 0;  ///< scratch: this epoch's drain
    std::uint64_t prof_stall_ns = 0;       ///< barrier wall minus busy
    std::uint64_t prof_peak_heap = 0;
    std::uint64_t prof_outbox_peak = 0;  ///< max outbox size at any barrier
    std::vector<std::uint64_t> prof_xshard;  ///< sends per dest shard
  };

  /// Per-origin deterministic state: the canonical-key counter, the
  /// jitter/drop PRF counters, the group-op counter, and the trace-id
  /// counter. Index 0 is the synthetic origin for API calls with no
  /// sending node (kNoNode); node n is index n + 1. Each node is processed
  /// by exactly one shard, so workers never contend on an entry.
  struct OriginState {
    std::uint64_t key_ctr = 0;
    std::uint64_t jitter_ctr = 0;
    std::uint64_t drop_ctr = 0;
    std::uint64_t group_op_ctr = 0;
    std::uint64_t trace_ctr = 0;  ///< feeds new_trace_id() only
  };

  static constexpr std::size_t kHeapArity = 4;
  static void heap_push(Shard& sh, EventRef ref);
  static void heap_pop_min(Shard& sh);
  static void sift_down(Shard& sh, std::size_t i);
  /// Restore the heap property over the whole heap in O(n) — the bulk half
  /// of the batched outbox merge (refs appended raw, one heapify).
  static void heapify(Shard& sh);

  static std::uint32_t acquire_slot(Shard& sh);
  static void release_slot(Shard& sh, std::uint32_t slot);

  static std::uint64_t link_key(NodeId from, NodeId to) {
    return (static_cast<std::uint64_t>(from) << 32) | to;
  }

  [[nodiscard]] bool in_callback() const;
  [[nodiscard]] SimTime local_now() const;
  [[nodiscard]] std::uint64_t make_key(NodeId origin);
  [[nodiscard]] NetStats& active_stats();

  /// Place `ev` (key precomputed) into `sh`'s pool + heap.
  static void place(Shard& sh, Event ev, std::uint64_t key);
  /// Route a freshly keyed event to its destination shard — directly, or
  /// via the current shard's outbox when running buffered in a window.
  void schedule(Event ev);

  void queue_delivery(Message msg, NodeId to);
  [[nodiscard]] bool deliverable(NodeId from, NodeId to) const;
  SimDuration delivery_latency(std::size_t bytes, NodeId sender, NodeId to);

  /// Pop + execute the event behind `ref` (already removed from the heap).
  void process_event(Shard& sh, EventRef ref, bool buffered);
  /// Drain one shard's events with at <= cap. Returns events processed.
  std::size_t drain_shard(Shard& sh, SimTime cap, bool buffered);

  [[nodiscard]] SimDuration lookahead() const { return lookahead_; }
  /// Recompute the cached lookahead if topology changed since the last
  /// run: base_latency + inter_site_latency when no site's nodes straddle
  /// two shards (then every cross-shard delivery is cross-site), plain
  /// base_latency otherwise. A pure function of (sites, shards), so every
  /// placement that keeps sites whole — and every worker count — runs the
  /// same window schedule.
  void ensure_lookahead();
  /// Earliest queued event across shards; SimTime max when idle.
  [[nodiscard]] SimTime next_event_time() const;
  /// Emit metrics samples for every scheduled tick <= `upto` (called when
  /// a lookahead window opens — a deterministic point in every mode).
  void maybe_sample(SimTime upto);
  /// Apply buffered group ops in canonical order and close the window.
  void flush_window();
  /// Move every shard's outbox into the destination heaps.
  void merge_outboxes();
  void merge_stats_deltas();

  /// The engine: open, drain and close lookahead windows until no event
  /// at or before `deadline` is left. Returns events processed.
  std::size_t run_windows(SimTime deadline);
  void run_epoch(SimTime cap);  ///< dispatch one window to the worker pool
  /// Drain active shards claimed from work_cursor_ until none is left.
  void drain_claimed(SimTime cap);
  void worker_main(unsigned index);
  void stop_workers();
  /// Coordinator-side arena growth: reserve pool/heap headroom for the
  /// coming window so worker threads almost never reallocate. Keeping the
  /// big allocations on ONE thread is what stops glibc's per-thread malloc
  /// arenas from multiplying peak RSS by the worker count.
  void reserve_headroom(Shard& sh);

  void raw_join(GroupId group, NodeId node);
  void raw_leave(GroupId group, NodeId node);

  NetworkConfig config_;
  crypto::StreamPrf prf_;
  SimTime now_ = 0;
  SimTime win_end_ = 0;  ///< exclusive end of the open window; 0 = none

  /// Cached conservative window width (see ensure_lookahead). Dirty after
  /// any attach/set_shard/set_site; recomputed at run entry, never inside
  /// the event loop.
  SimDuration lookahead_ = usec(200);
  bool lookahead_dirty_ = true;

  std::vector<Node*> nodes_;
  std::vector<bool> up_;
  std::vector<std::uint32_t> partition_;
  std::vector<std::uint32_t> node_shard_;
  std::vector<std::uint32_t> node_site_;  ///< latency site (default 0)
  std::vector<OriginState> origin_;  ///< index node + 1; [0] = kNoNode
  std::unordered_set<std::uint64_t> blocked_links_;
  std::vector<std::vector<NodeId>> groups_;  ///< each sorted, duplicate-free

  std::vector<std::unique_ptr<Shard>> shards_;

  NetStats stats_;

  // Worker pool (set_workers(n), n >= 2): n - 1 persistent threads plus
  // the coordinator as worker 0, synchronized by an atomic epoch counter
  // with a spin-then-block barrier. The coordinator publishes the window
  // cap and the active-shard list, release-stores the epoch, drains shards
  // itself, and acquire-waits for running_ to hit zero; those two atomics
  // are the memory barrier that publishes shard state in both directions.
  // Workers spin briefly (only when the host has a core per worker) before
  // falling back to the condition variables, so back-to-back windows cost
  // no futex round trips. Every worker claims shards from active_shards_
  // through an atomic cursor — dynamic load balancing.
  unsigned workers_ = 1;
  std::vector<std::thread> threads_;
  std::mutex pool_mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<unsigned> running_{0};
  std::atomic<bool> shutdown_{false};
  SimTime epoch_cap_ = 0;  ///< published by the epoch_ release store
  std::vector<Shard*> active_shards_;  ///< shards with work this window
  std::atomic<std::size_t> work_cursor_{0};
  unsigned spin_limit_ = 0;  ///< barrier spin iterations; 0 when cores < workers
  std::atomic<unsigned> sleepers_{0};      ///< workers blocked on work_cv_
  std::atomic<bool> coord_waiting_{false};  ///< coordinator blocked on done_cv_

  /// Barrier-merge scratch, coordinator-owned and reused across windows:
  /// per-destination incoming counts and the bulk-vs-push decision.
  std::vector<std::uint32_t> merge_count_;
  std::vector<std::uint8_t> merge_bulk_;

  obs::Tracer* tracer_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Histogram* queue_depth_ = nullptr;  ///< cached: hit on every event

  /// Ambient trace context for sends issued from OUTSIDE the event loop
  /// (inside callbacks the context lives in the thread-local CallCtx).
  TraceContext driver_trace_;

  /// Time-series sampling (set_metrics_interval). next_sample_ is the next
  /// scheduled tick; both are plain sim-time values, touched only at
  /// window boundaries on the coordinator thread.
  SimDuration metrics_interval_ = 0;
  SimTime next_sample_ = 0;

  /// Engine profiler (enable_engine_profile). Coordinator-thread state;
  /// per-shard accumulators live in Shard.
  bool profile_ = false;
  std::uint64_t prof_windows_ = 0;
  std::uint64_t prof_solo_windows_ = 0;
  std::uint64_t prof_wall_ns_ = 0;
  std::uint64_t prof_merged_events_ = 0;  ///< outbox events merged at barriers
  obs::Histogram prof_events_per_window_;
};

}  // namespace mykil::net
