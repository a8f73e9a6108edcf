// End-to-end benchmark of the Mykil stack.
//
// Builds a real deployment through the public APIs (MykilGroup for the RS
// and the area-controller tree with backups, RegistrationServer::authorize
// and Member for the population, Network for the simulated links), drives
// a seeded workload through Member::join / rejoin / leave / send_data and
// Network::run_until, checks the outcome, and prints one JSON object with
// every metric by name and unit as the last line of stdout.
//
//   mykil_perfbench --workload churn_handoff --seed 7 --seconds 25 --trace 0
//
// Workloads, metrics and the layer each per-layer metric belongs to are
// documented in perfbench/README.md. Every layer is measured from outside:
// spans are taken here, around calls into the layer, and counters are read
// from the layer's public accessors.
//
// Bench-only shortcut: members take RSA keypairs from a pool generated
// during setup (pool[i % pool_size]) instead of one keygen per member, so
// setup is not N RSA keygens and no keygen lands inside a timed op.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <iterator>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "crypto/cpu_features.h"
#include "crypto/data_plane.h"
#include "crypto/prng.h"
#include "crypto/rsa.h"
#include "crypto/sealed.h"
#include "mykil/group.h"
#include "net/network.h"

namespace {

using namespace mykil;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Workload shapes

enum class Shape { kChurn, kFanout, kBurst };

enum class OpKind : std::uint8_t { kJoin, kRejoin, kMove, kLeave, kData };
constexpr const char* kOpNames[] = {"join", "rejoin", "move", "leave", "data"};

struct Spec {
  Shape shape = Shape::kChurn;
  std::size_t areas = 8;
  std::size_t members = 600;     ///< initial population
  std::size_t pool = 24;         ///< RSA keypairs shared by the population
  unsigned workers = 1;
  net::SimDuration inter_site = 0;
  /// Host ops per second this shape sustains on the reference host. The op
  /// budget of a run is seconds x this rate, so every run of one seed does
  /// the same work and its counts and digest repeat exactly.
  double nominal_ops_per_s = 100;
  std::size_t setups = 3;        ///< setup_s is the median over this many
  /// kChurn: simulated events per second of each OpKind, in enum order.
  double mix[5] = {0, 0, 0, 0, 0};
  /// kChurn: loss episodes. Loss is `drop` for `loss_for` once in every
  /// `loss_every`, and zero otherwise.
  double drop = 0;
  net::SimDuration loss_every = 0;   ///< 0: no injected loss
  net::SimDuration loss_for = 0;
  net::SimDuration crash_every = 0;  ///< 0: no AC crashes
  net::SimDuration crash_for = 0;
  // kFanout / kBurst: mean simulated gap between ops.
  net::SimDuration data_gap = net::msec(20);
};

/// Packet rate of the paper's hand-held stream (Section V-E: 10 MB of
/// MPEG-4 per minute), cut into 1 KiB packets: one every 5.86 ms.
constexpr net::SimDuration kStreamGap = net::sec(60) / (10 * 1024);

std::optional<Spec> make_spec(const std::string& workload, bool tiny) {
  Spec s;
  if (workload == "churn_handoff") {
    s.shape = Shape::kChurn;
    s.areas = tiny ? 4 : 8;
    s.members = tiny ? 40 : 600;
    s.pool = tiny ? 6 : 24;
    s.nominal_ops_per_s = tiny ? 40 : 95;
    // mykil_sim's default Poisson schedule (joins 1.0, leaves 0.5, data 2.0
    // per simulated second over 3 areas), scaled to the area count. Ticket
    // rejoins and moves run at the leave rate, as in the chaos harness,
    // which draws leave, rejoin and move events equally often.
    const double k = static_cast<double>(s.areas) / 3.0;
    // join, ticket rejoin, move, leave, data
    s.mix[0] = 1.0 * k, s.mix[1] = 0.5 * k, s.mix[2] = 0.5 * k, s.mix[3] = 0.5 * k,
    s.mix[4] = 2.0 * k;
    // Loss episodes as long as the chaos harness's drop ramps (1-3 s); the
    // 0.5 % level and the 10 s spacing are this benchmark's choice.
    s.drop = 0.005;
    s.loss_every = net::sec(10);
    s.loss_for = net::sec(2);
    // An acting primary is down for 6 s, the middle of the chaos harness's
    // 4-8 s (past the 3 s heartbeat horizon, so the backup takes over).
    // One crash at a time, every 15 s: this benchmark's choice.
    s.crash_every = net::sec(15);
    s.crash_for = net::sec(6);
  } else if (workload == "data_fanout") {
    s.shape = Shape::kFanout;
    s.areas = tiny ? 4 : 16;
    s.members = tiny ? 48 : 1600;
    s.pool = tiny ? 6 : 24;
    s.nominal_ops_per_s = tiny ? 60 : 125;
    s.data_gap = kStreamGap;
  } else if (workload == "fanout_parallel") {
    s.shape = Shape::kBurst;
    s.areas = tiny ? 4 : 16;
    s.members = tiny ? 48 : 1600;
    s.pool = tiny ? 6 : 24;
    s.workers = 2;
    s.inter_site = net::msec(5);
    s.nominal_ops_per_s = tiny ? 20 : 12;
    s.data_gap = net::msec(40);
  } else {
    return std::nullopt;
  }
  if (tiny) s.setups = 2;
  return s;
}

// ---------------------------------------------------------------------------
// Small helpers

struct Fnv {
  std::uint64_t h = 1469598103934665603ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) h = (h ^ ((v >> (8 * i)) & 0xff)) * 1099511628211ULL;
  }
  void add(const std::string& s) {
    for (char c : s) h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
    add(s.size());
  }
};

/// Fixed per-workload deployment seed: key material (and so keygen work)
/// is identical in every run, so setup_s measures the host, not how lucky a
/// seed's prime search was. The workload seed drives everything else.
std::uint64_t deployment_seed(const std::string& workload) {
  Fnv h;
  h.add(workload);
  return h.h;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  auto lo = static_cast<std::size_t>(pos);
  std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb / 1024.0;
}

constexpr const char* kLabels[] = {
    "mykil-join", "mykil-rejoin", "mykil-data",  "mykil-alive", "mykil-recovery",
    "mykil-rekey", "mykil-repl",  "mykil-area", "mykil-admin", "arq-ack"};

struct LabelCounts {
  std::vector<net::Counter> sent, recv, dropped;
  static LabelCounts read(const net::NetStats& s) {
    LabelCounts c;
    for (const char* l : kLabels) {
      c.sent.push_back(s.sent_by_label(l));
      c.recv.push_back(s.recv_by_label(l));
      c.dropped.push_back(s.dropped_by_label(l));
    }
    return c;
  }
  /// The entry of `table` (sent, recv or dropped) for `label`.
  static net::Counter of(const std::vector<net::Counter>& table,
                         const std::string& label) {
    for (std::size_t i = 0; i < std::size(kLabels); ++i)
      if (label == kLabels[i]) return table[i];
    return {};
  }
};

net::Counter minus(net::Counter a, net::Counter b) {
  return {a.messages - b.messages, a.bytes - b.bytes};
}

crypto::PkOpCounts minus(crypto::PkOpCounts a, crypto::PkOpCounts b) {
  return {a.encrypts - b.encrypts, a.decrypts - b.decrypts, a.signs - b.signs,
          a.verifies - b.verifies};
}

/// In-memory span log (Chrome trace-event format at exit).
struct Span {
  std::string name;
  double start_us;
  double dur_us;
  int parent;  ///< index of the causing span, -1 for roots
};

struct Tracer {
  Clock::time_point origin = Clock::now();
  std::vector<Span> spans;
  int add(const std::string& name, Clock::time_point t0, Clock::time_point t1,
          int parent = -1) {
    auto us = [&](Clock::time_point t) {
      return std::chrono::duration<double, std::micro>(t - origin).count();
    };
    spans.push_back({name, us(t0), us(t1) - us(t0), parent});
    return static_cast<int>(spans.size()) - 1;
  }
  void write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return;
    out << "{\"traceEvents\":[\n";
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      out << (i ? ",\n" : "") << "{\"name\":\"" << s.name
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << s.start_us
          << ",\"dur\":" << s.dur_us << ",\"args\":{\"id\":" << i
          << ",\"parent\":" << s.parent << "}}";
    }
    out << "\n]}\n";
  }
};

// ---------------------------------------------------------------------------
// Deployment

/// The benchmark's view of one member: what it was asked to do.
struct Track {
  bool pending = false;        ///< an op on this member is in flight
  bool departed = false;       ///< left voluntarily and not back yet
  net::SimTime stable_since = 0;  ///< completion of current membership
  bool stable = false;         ///< stable_since is meaningful
  core::AcId ac = core::kNoAc; ///< AC of the current membership
  std::uint64_t watchdog_at_start = 0;
  std::optional<crypto::SymmetricKey> last_key;  ///< held when it left
};

/// Network first: it is destroyed last (everything holds references).
struct Deployment {
  std::unique_ptr<net::Network> net;
  std::unique_ptr<core::MykilGroup> group;
  std::vector<crypto::RsaKeyPair> pool;
  std::vector<std::unique_ptr<core::Member>> members;
  std::vector<Track> tracks;
  crypto::Prng member_prng{1};
  std::size_t next_client = 1;
  std::vector<double> join_sim_ms;  ///< every join the benchmark completed
  std::size_t setup_join_failures = 0;  ///< initial members not joined
  double phase_ms[5] = {0, 0, 0, 0, 0};
};

constexpr const char* kPhaseNames[5] = {"setup.keygen_ac", "setup.keygen_pool",
                                        "setup.finalize", "setup.members",
                                        "setup.joins"};

core::AreaController* acting_primary(core::MykilGroup& g, std::size_t a) {
  if (g.ac(a).role() == core::AreaController::Role::kPrimary) return &g.ac(a);
  core::AreaController* b = g.backup(a);
  if (b != nullptr && b->role() == core::AreaController::Role::kPrimary) return b;
  return nullptr;
}

std::size_t area_of(core::MykilGroup& g, core::AcId ac) {
  for (std::size_t a = 0; a < g.area_count(); ++a)
    if (g.ac(a).ac_id() == ac) return a;
  return SIZE_MAX;
}

/// Construct, attach and authorize one member with a pooled keypair,
/// colocated (shard and site) with the area the RS rotation will give it.
core::Member& add_member(Deployment& d) {
  core::MykilGroup& g = *d.group;
  const core::ClientId cid = d.next_client++;
  const std::size_t i = d.members.size();
  g.rs().authorize(cid, net::sec(360000));
  d.members.push_back(std::make_unique<core::Member>(
      cid, g.config(), d.pool[i % d.pool.size()], g.rs_public_key(),
      d.member_prng.fork()));
  core::Member& m = *d.members.back();
  d.net->attach(m);
  const net::NodeId ac_node = g.ac(i % g.area_count()).id();
  d.net->set_shard(m.id(), d.net->shard_of(ac_node));
  d.net->set_site(m.id(), d.net->site_of(ac_node));
  m.start_timers();
  d.tracks.emplace_back();
  return m;
}

void mark_joined(Deployment& d, std::size_t i, net::SimTime completed) {
  Track& t = d.tracks[i];
  t.pending = false;
  t.departed = false;
  t.stable = true;
  t.stable_since = completed;
  t.ac = d.members[i]->current_ac();
  t.watchdog_at_start = d.members[i]->watchdog_rejoins();
}

std::unique_ptr<Deployment> build(const std::string& workload, const Spec& spec,
                                  std::uint64_t seed, unsigned workers,
                                  Tracer* tracer) {
  auto d = std::make_unique<Deployment>();
  const std::uint64_t dseed = deployment_seed(workload);
  Clock::time_point t0 = Clock::now();
  auto phase = [&](int k) {
    Clock::time_point t1 = Clock::now();
    d->phase_ms[k] = std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (tracer != nullptr) tracer->add(kPhaseNames[k], t0, t1);
    t0 = t1;
  };

  // Phase 0: RS and AC keygen (MykilGroup construction and add_area).
  net::NetworkConfig ncfg;
  ncfg.seed = seed;
  ncfg.inter_site_latency = spec.inter_site;
  d->net = std::make_unique<net::Network>(ncfg);
  core::GroupOptions opt;
  opt.seed = dseed;
  opt.with_backups = true;
  opt.workers = workers;
  d->group = std::make_unique<core::MykilGroup>(*d->net, opt);
  for (std::size_t a = 0; a < spec.areas; ++a)
    d->group->add_area(a == 0 ? std::nullopt
                              : std::optional<std::size_t>((a - 1) / 2));
  phase(0);

  // Phase 1: the member key pool (seeded, bench-only shortcut).
  crypto::Prng pool_prng(dseed ^ 0x706f6f6cULL);
  for (std::size_t i = 0; i < spec.pool; ++i)
    d->pool.push_back(crypto::rsa_generate(opt.rsa_bits, pool_prng));
  phase(1);

  // Phase 2: directory, replication, area tree links.
  d->group->finalize();
  phase(2);

  // Phase 3: member construction.
  d->member_prng = crypto::Prng(seed ^ 0x6d656d62ULL);
  for (std::size_t i = 0; i < spec.members; ++i) add_member(*d);
  phase(3);

  // Phase 4: initial joins, 1 ms apart so the RS rotation sees them in
  // creation order, then one rekey interval so join rotations flush.
  net::Network& net = *d->net;
  const net::NodeId rs = d->group->rs().id();
  for (auto& m : d->members) {
    m->join(rs, net::sec(360000));
    net.run_until(net.now() + net::msec(1));
  }
  const net::SimTime give_up = net.now() + net::sec(60);
  auto all_joined = [&] {
    return std::all_of(d->members.begin(), d->members.end(),
                       [](const auto& m) { return m->joined(); });
  };
  while (!all_joined() && net.now() < give_up)
    net.run_until(net.now() + net::msec(100));
  net.run_until(net.now() + d->group->config().rekey_interval + net::sec(1));
  for (std::size_t i = 0; i < d->members.size(); ++i) {
    core::Member& m = *d->members[i];
    if (!m.joined()) {
      ++d->setup_join_failures;
      continue;
    }
    mark_joined(*d, i, 0);
    if (m.last_join_latency())
      d->join_sim_ms.push_back(static_cast<double>(*m.last_join_latency()) / 1e3);
  }
  phase(4);
  return d;
}

// ---------------------------------------------------------------------------
// Timed phase

struct Op {
  OpKind kind = OpKind::kData;
  net::SimTime at = 0;            ///< due time (simulated)
  std::size_t member = SIZE_MAX;  ///< subject (sender for data)
  std::size_t area = SIZE_MAX;    ///< target area (move/rejoin), old (leave)
  std::optional<crypto::SymmetricKey> old_key;  ///< leave: key to replace
  bool done = false;
  bool ok = false;
  double sim_ms = 0;  ///< completion latency (join/rejoin/move/leave)
  double host_ms = 0; ///< Member call + advance
};

struct Packet {
  net::SimTime sent = 0;
  std::size_t sender = 0;
  std::size_t op = 0;
  Bytes payload;
};

/// Protocol counters summed over every AC (primary and backup) and member.
struct ProtoCounters {
  std::uint64_t retransmits = 0, give_ups = 0, dups = 0, takeovers = 0;
  std::uint64_t evictions = 0, parent_switches = 0;
  std::uint64_t watchdog = 0, key_recoveries = 0, undecryptable = 0;
  std::uint64_t rekeys_applied = 0, entries_applied = 0;

  static ProtoCounters read(Deployment& d) {
    ProtoCounters c;
    auto arq = [&](const net::ArqStats& s) {
      c.retransmits += s.retransmits;
      c.give_ups += s.give_ups;
      c.dups += s.dups_dropped;
    };
    auto ac = [&](const core::AreaController& x) {
      arq(x.arq().stats());
      c.takeovers += x.counters().takeovers;
      c.evictions += x.counters().evictions;
      c.parent_switches += x.counters().parent_switches;
    };
    for (std::size_t a = 0; a < d.group->area_count(); ++a) {
      ac(d.group->ac(a));
      if (core::AreaController* b = d.group->backup(a)) ac(*b);
    }
    for (const auto& m : d.members) {
      arq(m->arq().stats());
      c.watchdog += m->watchdog_rejoins();
      c.key_recoveries += m->key_recoveries();
      c.undecryptable += m->undecryptable_count();
      c.rekeys_applied += m->rekeys_applied();
      c.entries_applied += m->rekey_entries_applied();
    }
    return c;
  }

  ProtoCounters& operator+=(const ProtoCounters& o);
  ProtoCounters operator-(const ProtoCounters& o) const;
};

constexpr std::uint64_t ProtoCounters::*kProtoFields[] = {
    &ProtoCounters::retransmits,    &ProtoCounters::give_ups,
    &ProtoCounters::dups,           &ProtoCounters::takeovers,
    &ProtoCounters::evictions,      &ProtoCounters::parent_switches,
    &ProtoCounters::watchdog,       &ProtoCounters::key_recoveries,
    &ProtoCounters::undecryptable,  &ProtoCounters::rekeys_applied,
    &ProtoCounters::entries_applied};

ProtoCounters& ProtoCounters::operator+=(const ProtoCounters& o) {
  for (auto f : kProtoFields) this->*f += o.*f;
  return *this;
}

ProtoCounters ProtoCounters::operator-(const ProtoCounters& o) const {
  ProtoCounters d = *this;
  for (auto f : kProtoFields) d.*f -= o.*f;
  return d;
}

struct RunResult {
  std::vector<Op> ops;
  std::vector<Packet> packets;
  double timed_s = 0;
  double call_ms = 0, advance_ms = 0;
  std::uint64_t events = 0;
  std::size_t peak_queued = 0;
  crypto::PkOpCounts pk;
  LabelCounts label_delta;
  net::Counter sent_total, recv_total, dropped;
  net::Counter fanout_copied, fanout_expanded;
  std::vector<double> rekey_sim_ms, rejoin_sim_ms;
  std::size_t departures = 0;
  /// (packet, judged member) pairs missed: packets sent clear of every
  /// injected fault (failures), and packets exposed to a loss episode or to
  /// an AC crash (not failures).
  std::size_t packet_misses = 0, loss_misses = 0, crash_misses = 0;
  std::size_t setup_join_failures = 0;
  // gate
  bool correct = false;
  std::string gate_detail;
  double verify_ms = 0;
  std::uint64_t digest = 0;
  ProtoCounters proto;  ///< deltas over the timed phase and the gate
  double retained_mb = 0;
  std::size_t pool_slots = 0;
};

/// Pool one segment into the run's totals.
void absorb(RunResult& into, RunResult&& s) {
  auto append = [](auto& a, auto& b) { a.insert(a.end(), b.begin(), b.end()); };
  std::move(s.ops.begin(), s.ops.end(), std::back_inserter(into.ops));
  std::move(s.packets.begin(), s.packets.end(), std::back_inserter(into.packets));
  into.timed_s += s.timed_s;
  into.call_ms += s.call_ms;
  into.advance_ms += s.advance_ms;
  into.events += s.events;
  into.peak_queued = std::max(into.peak_queued, s.peak_queued);
  into.pk = {into.pk.encrypts + s.pk.encrypts, into.pk.decrypts + s.pk.decrypts,
             into.pk.signs + s.pk.signs, into.pk.verifies + s.pk.verifies};
  if (into.label_delta.sent.empty()) {
    into.label_delta = s.label_delta;
  } else {
    for (std::size_t k = 0; k < std::size(kLabels); ++k) {
      into.label_delta.sent[k].merge(s.label_delta.sent[k]);
      into.label_delta.recv[k].merge(s.label_delta.recv[k]);
      into.label_delta.dropped[k].merge(s.label_delta.dropped[k]);
    }
  }
  into.sent_total.merge(s.sent_total);
  into.recv_total.merge(s.recv_total);
  into.dropped.merge(s.dropped);
  into.fanout_copied.merge(s.fanout_copied);
  into.fanout_expanded.merge(s.fanout_expanded);
  append(into.rekey_sim_ms, s.rekey_sim_ms);
  append(into.rejoin_sim_ms, s.rejoin_sim_ms);
  into.departures += s.departures;
  into.packet_misses += s.packet_misses;
  into.loss_misses += s.loss_misses;
  into.crash_misses += s.crash_misses;
  into.setup_join_failures += s.setup_join_failures;
  into.gate_detail += (into.gate_detail.empty() ? "" : "; ") + s.gate_detail;
  into.verify_ms += s.verify_ms;
  into.proto += s.proto;
  into.retained_mb = std::max(into.retained_mb, s.retained_mb);
  into.pool_slots = std::max(into.pool_slots, s.pool_slots);
}

constexpr net::SimDuration kDeadline = net::sec(20);
/// A data packet sent this long before a fault starts may still be in
/// flight (tree hops are well under 10 ms) when it does.
constexpr net::SimDuration kFaultMargin = net::msec(100);

/// Data payload size. `Member` keeps every plaintext, so the payload size
/// sets the memory a run needs.
constexpr std::size_t kPayloadBytes = 64;

Bytes make_payload(std::uint64_t seed, std::uint64_t id) {
  Bytes p(kPayloadBytes);
  crypto::Prng prng(seed * 0x9E3779B97F4A7C15ULL + id);
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(id >> (8 * i));
  Bytes tail = prng.bytes(kPayloadBytes - 8);
  std::copy(tail.begin(), tail.end(), p.begin() + 8);
  return p;
}

class Runner {
 public:
  Runner(Deployment& d, const Spec& spec, std::uint64_t seed, Tracer* tracer)
      : d_(d), g_(*d.group), net_(*d.net), spec_(spec), seed_(seed),
        prng_(seed ^ 0x64726976ULL), tracer_(tracer) {}

  RunResult run(std::size_t n_ops) {
    RunResult r;
    schedule(n_ops, r);
    const ProtoCounters before = ProtoCounters::read(d_);
    const crypto::PkOpCounts pk0 = crypto::pk_op_counts();
    const LabelCounts lc0 = LabelCounts::read(net_.stats());
    const net::NetStats& st = net_.stats();
    const net::Counter sent0 = st.sent_total(), recv0 = st.recv_total(),
                       drop0 = st.dropped(), fc0 = st.fanout_copied(),
                       fe0 = st.fanout_expanded();

    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i < r.ops.size(); ++i) {
      const Clock::time_point t0 = Clock::now();
      start_op(r, i);
      started_ = i + 1;
      const Clock::time_point t1 = Clock::now();
      const net::SimTime next =
          i + 1 < r.ops.size() ? r.ops[i + 1].at : r.ops[i].at + spec_.data_gap;
      r.events += advance_to(next);
      const Clock::time_point t2 = Clock::now();
      r.peak_queued = std::max(r.peak_queued, net_.queued_events());
      resolve_pending(r, false);
      const double call_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
      const double adv_ms = std::chrono::duration<double, std::milli>(t2 - t1).count();
      r.ops[i].host_ms = call_ms + adv_ms;
      r.call_ms += call_ms;
      r.advance_ms += adv_ms;
      if (tracer_ != nullptr) {
        int op = tracer_->add(std::string("op.") + kOpNames[static_cast<int>(r.ops[i].kind)],
                              t0, Clock::now());
        tracer_->add("member.call", t0, t1, op);
        tracer_->add("net.run_until", t1, t2, op);
      }
    }
    r.timed_s = ms_since(start) / 1e3;

    // Untimed from here: lift the faults, quiesce, then the gate.
    const Clock::time_point v0 = Clock::now();
    quiesce(r);
    gate(r);
    r.verify_ms = ms_since(v0);
    if (tracer_ != nullptr) tracer_->add("verify", v0, Clock::now());

    r.pk = minus(crypto::pk_op_counts(), pk0);
    const LabelCounts lc1 = LabelCounts::read(st);
    r.label_delta = lc1;
    for (std::size_t k = 0; k < std::size(kLabels); ++k) {
      r.label_delta.sent[k] = minus(lc1.sent[k], lc0.sent[k]);
      r.label_delta.recv[k] = minus(lc1.recv[k], lc0.recv[k]);
      r.label_delta.dropped[k] = minus(lc1.dropped[k], lc0.dropped[k]);
    }
    r.sent_total = minus(st.sent_total(), sent0);
    r.recv_total = minus(st.recv_total(), recv0);
    r.dropped = minus(st.dropped(), drop0);
    r.fanout_copied = minus(st.fanout_copied(), fc0);
    r.fanout_expanded = minus(st.fanout_expanded(), fe0);
    r.proto = ProtoCounters::read(d_) - before;
    std::size_t retained = 0;
    for (const auto& m : d_.members)
      for (const Bytes& b : m->received_data()) retained += b.capacity() + sizeof(Bytes);
    r.retained_mb = static_cast<double>(retained) / (1024.0 * 1024.0);
    r.pool_slots = net_.event_pool_slots();
    r.digest = digest(r);
    return r;
  }

 private:
  /// The open-loop schedule in simulated time, from the workload seed.
  void schedule(std::size_t n_ops, RunResult& r) {
    const net::SimTime base = net_.now() + net::msec(10);
    if (spec_.shape == Shape::kChurn) {
      // Poisson arrivals at the summed rate; the kinds are a seeded shuffle
      // of exact shares, so every seed runs the same op mix.
      const double total = std::accumulate(std::begin(spec_.mix), std::end(spec_.mix), 0.0);
      std::vector<OpKind> kinds;
      double carry = 0;
      for (int k = 0; k < 5; ++k) {
        carry += static_cast<double>(n_ops) * spec_.mix[k] / total;
        while (static_cast<double>(kinds.size()) + 0.5 < carry)
          kinds.push_back(static_cast<OpKind>(k));
      }
      kinds.resize(n_ops, OpKind::kData);
      for (std::size_t i = kinds.size(); i > 1; --i)
        std::swap(kinds[i - 1], kinds[prng_.uniform(i)]);
      net::SimTime t = base;
      for (OpKind kind : kinds) {
        t += 1 + static_cast<net::SimDuration>(prng_.exponential(1e6 / total));
        Op op;
        op.kind = kind;
        op.at = t;
        r.ops.push_back(std::move(op));
      }
      // A crashed primary's area goes unserved until its backup has missed
      // enough heartbeats to take over, plus one interval to do so.
      const core::MykilConfig& cfg = g_.config();
      const net::SimDuration takeover_horizon =
          cfg.heartbeat_interval * (cfg.heartbeat_misses + 1);
      for (net::SimTime c = base + spec_.crash_every / 2;
           spec_.crash_every > 0 && c < r.ops.back().at; c += spec_.crash_every)
        faults_.push_back({Fault::kCrash, c, c + spec_.crash_for,
                           c + std::min(spec_.crash_for, takeover_horizon)});
      for (net::SimTime c = base + spec_.loss_every / 4;
           spec_.loss_every > 0 && c < r.ops.back().at; c += spec_.loss_every)
        faults_.push_back({Fault::kLoss, c, c + spec_.loss_for, c + spec_.loss_for});
    } else {
      net::SimTime t = base;
      for (std::size_t i = 0; i < n_ops; ++i) {
        Op op;
        op.kind = OpKind::kData;
        op.at = t;
        r.ops.push_back(std::move(op));
        t += 1 + static_cast<net::SimDuration>(
                     prng_.exponential(static_cast<double>(spec_.data_gap)));
      }
    }
  }

  /// A crash of one acting primary, or a loss episode, over [start, end).
  /// Data sent before `exposed_end` can be lost to the fault itself: to the
  /// loss coin, or to an area whose backup has not taken over yet.
  struct Fault {
    enum Kind { kCrash, kLoss } kind;
    net::SimTime start, end, exposed_end;
    net::NodeId node = net::kNoNode;  ///< kCrash: the crashed AC
    bool started = false, ended = false;
  };

  /// The injected fault, if any, that can reach a packet sent at `t`: a
  /// loss episode can drop it, and a crashed AC cannot relay it.
  std::optional<Fault::Kind> exposure(net::SimTime t) const {
    for (const Fault& f : faults_)
      if (t + kFaultMargin >= f.start && t < f.exposed_end) return f.kind;
    return std::nullopt;
  }

  void begin_fault(Fault& f) {
    f.started = true;
    if (f.kind == Fault::kLoss) {
      net_.set_drop_probability(spec_.drop);
      return;
    }
    // Crash the acting primary of the next area in rotation, forcing a
    // backup takeover.
    const std::size_t a = crash_seq_++ % g_.area_count();
    if (core::AreaController* p = acting_primary(g_, a)) {
      f.node = p->id();
      net_.crash(f.node);
    }
  }

  void end_fault(Fault& f) {
    f.ended = true;
    if (f.kind == Fault::kLoss) {
      net_.set_drop_probability(0.0);
    } else if (f.node != net::kNoNode) {
      net_.recover(f.node);
    }
  }

  /// run_until with the fault schedule applied at its due times.
  std::uint64_t advance_to(net::SimTime t) {
    std::uint64_t events = 0;
    for (;;) {
      net::SimTime next_fault = t + 1;
      Fault* due = nullptr;
      for (Fault& f : faults_) {
        const net::SimTime at = !f.started ? f.start : f.end;
        if (!f.ended && at <= t && at < next_fault) next_fault = at, due = &f;
      }
      if (due == nullptr) break;
      events += net_.run_until(next_fault);
      due->started ? end_fault(*due) : begin_fault(*due);
    }
    return events + net_.run_until(t);
  }

  std::size_t pick(bool want_joined) {
    const std::size_t n = d_.members.size();
    const std::size_t start = prng_.uniform(n);
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t i = (start + k) % n;
      const core::Member& m = *d_.members[i];
      if (d_.tracks[i].pending) continue;
      if (want_joined ? m.joined() : (!m.joined() && d_.tracks[i].departed))
        return i;
    }
    return SIZE_MAX;
  }

  void begin(std::size_t i) {
    d_.tracks[i].pending = true;
    d_.tracks[i].stable = false;
  }

  void start_op(RunResult& r, std::size_t idx) {
    Op& op = r.ops[idx];
    switch (op.kind) {
      case OpKind::kJoin: {
        core::Member& m = add_member(d_);
        op.member = d_.members.size() - 1;
        begin(op.member);
        m.join(g_.rs().id(), net::sec(360000));
        break;
      }
      case OpKind::kRejoin: {
        op.member = pick(false);
        if (op.member == SIZE_MAX) return skip(op);
        core::Member& m = *d_.members[op.member];
        op.area = area_of(g_, m.current_ac());
        begin(op.member);
        m.rejoin(m.current_ac());
        break;
      }
      case OpKind::kMove: {
        op.member = pick(true);
        if (op.member == SIZE_MAX) return skip(op);
        core::Member& m = *d_.members[op.member];
        const std::size_t from = area_of(g_, m.current_ac());
        op.area = (from + 1 + prng_.uniform(g_.area_count() - 1)) % g_.area_count();
        begin(op.member);
        // Hand-off: the device signs off at the old AC, then presents its
        // ticket at the new one (whose cohort check asks the old AC).
        m.leave();
        ++r.departures;
        m.rejoin(g_.ac(op.area).ac_id());
        break;
      }
      case OpKind::kLeave: {
        op.member = pick(true);
        if (op.member == SIZE_MAX) return skip(op);
        core::Member& m = *d_.members[op.member];
        op.area = area_of(g_, m.current_ac());
        if (m.keys().has_group_key()) op.old_key = m.keys().group_key();
        begin(op.member);
        d_.tracks[op.member].last_key = op.old_key;
        m.leave();
        d_.tracks[op.member].departed = true;
        ++r.departures;
        break;
      }
      case OpKind::kData: {
        if (spec_.shape == Shape::kBurst) {
          // One sender in every area at the same instant.
          for (std::size_t a = 0; a < g_.area_count(); ++a)
            send(r, idx, sender_in_area(a));
        } else {
          const std::size_t s = pick(true);
          if (s == SIZE_MAX) return skip(op);
          send(r, idx, s);
        }
        op.done = true;
        op.ok = true;  // data misses are judged by the gate
        break;
      }
    }
  }

  std::size_t sender_in_area(std::size_t a) {
    // Initial members are assigned round-robin: member j sits in area j % A.
    const std::size_t per = spec_.members / g_.area_count();
    return a + g_.area_count() * prng_.uniform(per);
  }

  void send(RunResult& r, std::size_t op_idx, std::size_t sender) {
    Packet p;
    p.sent = net_.now();
    p.sender = sender;
    p.op = op_idx;
    p.payload = make_payload(seed_, r.packets.size());
    d_.members[sender]->send_data(p.payload);
    r.packets.push_back(std::move(p));
  }

  void skip(Op& op) {
    // Nothing eligible (e.g. no departed member to rejoin yet): the op is
    // recorded as a no-op that succeeded, identically in every run.
    op.member = SIZE_MAX;
    op.done = true;
    op.ok = true;
  }

  /// Resolve in-flight ops that completed or passed the deadline.
  void resolve_pending(RunResult& r, bool final_pass) {
    const net::SimTime now = net_.now();
    for (std::size_t k = first_open_; k < started_; ++k) {
      Op& op = r.ops[k];
      if (op.done) continue;
      bool complete = false;
      net::SimDuration lat = 0;
      if (op.kind == OpKind::kLeave) {
        core::AreaController* p = acting_primary(g_, op.area);
        complete = !op.old_key || (p != nullptr && !(p->tree().root_key() == *op.old_key));
        lat = now - op.at;
      } else {
        core::Member& m = *d_.members[op.member];
        const bool at_target =
            op.kind == OpKind::kJoin || area_of(g_, m.current_ac()) == op.area;
        if (op.kind == OpKind::kJoin) {
          complete = m.joined() && m.last_join_latency().has_value();
          if (complete) lat = *m.last_join_latency();
        } else {
          complete = m.joined() && at_target && m.last_rejoin_latency().has_value();
          if (complete) lat = *m.last_rejoin_latency();
        }
        if (complete) mark_joined(d_, op.member, op.at + lat);
      }
      if (complete) {
        op.done = op.ok = true;
        op.sim_ms = static_cast<double>(lat) / 1e3;
        if (op.kind == OpKind::kLeave) {
          d_.tracks[op.member].pending = false;
          r.rekey_sim_ms.push_back(op.sim_ms);
        } else if (op.kind == OpKind::kJoin) {
          d_.join_sim_ms.push_back(op.sim_ms);
        } else {
          r.rejoin_sim_ms.push_back(op.sim_ms);
        }
      } else if (now >= op.at + kDeadline || final_pass) {
        op.done = true;
        op.ok = false;
        if (op.member != SIZE_MAX) d_.tracks[op.member].pending = false;
      }
    }
    while (first_open_ < started_ && r.ops[first_open_].done) ++first_open_;
  }

  void quiesce(RunResult& r) {
    for (Fault& f : faults_)
      if (f.started && !f.ended) end_fault(f);
    const net::SimTime until = net_.now() + kDeadline;
    while (first_open_ < started_ && net_.now() < until) {
      net_.run_until(net_.now() + net::msec(100));
      resolve_pending(r, false);
    }
    resolve_pending(r, true);
    net_.run_until(net_.now() + g_.config().rekey_interval + net::sec(2));
  }

  /// The correctness gate (all four invariants) plus data-miss accounting.
  void gate(RunResult& r) {
    std::size_t out_of_sync = 0, stale = 0, backups = 0, no_primary = 0;
    for (int sample = 0; sample < 3; ++sample) {
      out_of_sync = stale = backups = no_primary = 0;
      std::vector<core::AreaController*> acting(g_.area_count());
      for (std::size_t a = 0; a < g_.area_count(); ++a) {
        acting[a] = acting_primary(g_, a);
        if (acting[a] == nullptr) ++no_primary;
      }
      for (std::size_t i = 0; i < d_.members.size(); ++i) {
        const core::Member& m = *d_.members[i];
        if (m.joined()) {
          const std::size_t a = area_of(g_, m.current_ac());
          const bool ok = a != SIZE_MAX && acting[a] != nullptr &&
                          m.keys().has_group_key() &&
                          m.keys().group_key() == acting[a]->tree().root_key();
          if (!ok) ++out_of_sync;
        } else if (d_.tracks[i].departed && d_.tracks[i].last_key) {
          for (core::AreaController* p : acting)
            if (p != nullptr && p->tree().root_key() == *d_.tracks[i].last_key) ++stale;
        }
      }
      for (std::size_t a = 0; a < g_.area_count(); ++a) {
        if (acting[a] == nullptr) continue;
        core::AreaController* standby =
            acting[a] == &g_.ac(a) ? g_.backup(a) : &g_.ac(a);
        if (standby != nullptr &&
            standby->last_synced_snapshot() != acting[a]->replication_snapshot())
          ++backups;
      }
      if (out_of_sync + stale + backups + no_primary == 0) break;
      net_.run_until(net_.now() + net::sec(5));
    }

    // Data: every packet must reach every member that was joined at one AC
    // from before the send until the end of the run (the sender excepted).
    // On the fan-out shapes nobody churns, so every member is judged on
    // every packet, and one that is not steady fails the gate by itself.
    // A miss of a packet exposed to an injected fault is counted apart by
    // the fault's kind: data has no retransmission, so those misses measure
    // the loss and crash settings rather than the protocol.
    const bool fanout = spec_.shape != Shape::kChurn;
    std::size_t corrupt = 0, misses = 0, loss_misses = 0, crash_misses = 0;
    std::size_t unsteady = 0;
    const std::size_t np = r.packets.size();
    std::vector<std::optional<Fault::Kind>> exposed(np);
    for (std::size_t p = 0; p < np; ++p) exposed[p] = exposure(r.packets[p].sent);
    std::vector<std::uint8_t> got(np);
    for (std::size_t i = 0; i < d_.members.size(); ++i) {
      const core::Member& m = *d_.members[i];
      const Track& t = d_.tracks[i];
      std::fill(got.begin(), got.end(), 0);
      for (const Bytes& b : m.received_data()) {
        std::uint64_t id = 0;
        for (int k = 0; k < 8 && k < static_cast<int>(b.size()); ++k)
          id |= static_cast<std::uint64_t>(b[k]) << (8 * k);
        if (id >= np || b != r.packets[id].payload) {
          ++corrupt;
          continue;
        }
        got[id] = 1;
      }
      const bool steady = t.stable && m.joined() && m.current_ac() == t.ac &&
                          m.watchdog_rejoins() == t.watchdog_at_start;
      if (!steady) {
        if (!fanout) continue;
        ++unsteady;
      }
      for (std::size_t p = 0; p < np; ++p) {
        const Packet& pk = r.packets[p];
        if (got[p] || pk.sender == i || pk.sent < t.stable_since) continue;
        if (exposed[p]) {
          ++(*exposed[p] == Fault::kLoss ? loss_misses : crash_misses);
          continue;
        }
        ++misses;
        r.ops[pk.op].ok = false;
      }
    }

    r.setup_join_failures = d_.setup_join_failures;
    std::ostringstream why;
    why << "out_of_sync=" << out_of_sync << " stale_key_holders=" << stale
        << " backups_out_of_sync=" << backups << " areas_without_primary="
        << no_primary << " setup_join_failures=" << d_.setup_join_failures
        << " unsteady_members=" << unsteady << " corrupt_packets=" << corrupt
        << " packet_misses=" << misses << " loss_exposed_misses=" << loss_misses
        << " crash_exposed_misses=" << crash_misses;
    r.gate_detail = why.str();
    r.packet_misses = misses;
    r.loss_misses = loss_misses;
    r.crash_misses = crash_misses;
    const bool fanout_complete = !fanout || (misses == 0 && unsteady == 0);
    r.correct = out_of_sync == 0 && stale == 0 && backups == 0 && no_primary == 0 &&
                d_.setup_join_failures == 0 && corrupt == 0 && fanout_complete;
  }

  std::uint64_t digest(const RunResult& r) const {
    Fnv h;
    for (const Op& op : r.ops) {
      h.add(static_cast<std::uint64_t>(op.kind));
      h.add(op.member);
      h.add(op.ok ? 1 : 0);
      h.add(static_cast<std::uint64_t>(std::llround(op.sim_ms * 1e3)));
    }
    h.add(r.pk.encrypts), h.add(r.pk.decrypts), h.add(r.pk.signs), h.add(r.pk.verifies);
    for (std::size_t k = 0; k < std::size(kLabels); ++k) {
      h.add(kLabels[k]);
      h.add(r.label_delta.sent[k].messages), h.add(r.label_delta.sent[k].bytes);
      h.add(r.label_delta.recv[k].messages), h.add(r.label_delta.recv[k].bytes);
      h.add(r.label_delta.dropped[k].messages);
    }
    return h.h;
  }

  Deployment& d_;
  core::MykilGroup& g_;
  net::Network& net_;
  const Spec& spec_;
  std::uint64_t seed_;
  crypto::Prng prng_;
  Tracer* tracer_;
  std::vector<Fault> faults_;
  std::size_t crash_seq_ = 0;
  std::size_t first_open_ = 0;  ///< ops before this index are resolved
  std::size_t started_ = 0;      ///< ops started so far
};

// ---------------------------------------------------------------------------
// Crypto calibration (traced run only)

struct Calibration {
  double rsa_private_us = 0, rsa_public_us = 0, open_us = 0;
};

template <typename F>
double time_us_per_op(F&& f, double budget_ms) {
  std::vector<double> per;
  for (int round = 0; round < 5; ++round) {
    std::size_t n = 0;
    const Clock::time_point t0 = Clock::now();
    while (ms_since(t0) < budget_ms / 5) f(), ++n;
    per.push_back(ms_since(t0) * 1e3 / static_cast<double>(n));
  }
  return quantile(per, 0.5);
}

Calibration calibrate() {
  Calibration c;
  crypto::Prng prng(0x63616c69ULL);
  const crypto::RsaKeyPair kp = crypto::rsa_generate(768, prng);
  const Bytes msg = prng.bytes(32);
  const Bytes sig = crypto::rsa_sign(kp.priv, msg);
  c.rsa_private_us = time_us_per_op([&] { (void)crypto::rsa_sign(kp.priv, msg); }, 300);
  c.rsa_public_us = time_us_per_op([&] { (void)crypto::rsa_verify(kp.pub, msg, sig); }, 200);
  // One member-side data delivery: open the data key under the group key
  // (DataPlaneKey), then the payload under the data key.
  const crypto::SymmetricKey group = crypto::SymmetricKey::random(prng);
  const crypto::SymmetricKey data = crypto::SymmetricKey::random(prng);
  const crypto::DataPlaneKey dp(group);
  const Bytes key_box = dp.seal(data.bytes(), prng);
  const Bytes payload_box = crypto::sym_seal(data, prng.bytes(kPayloadBytes), prng);
  c.open_us = time_us_per_op(
      [&] {
        crypto::SymmetricKey k(dp.open(key_box));
        (void)crypto::sym_open(k, payload_box);
      },
      200);
  return c;
}

// ---------------------------------------------------------------------------
// Output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::ostringstream o;
  o << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
    << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    o << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
      << json_number(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit << "\"}";
  o << "}}";
  std::cout << o.str() << std::endl;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  int workers = 0;  ///< 0: the workload's own
  std::string trace_out;
};

std::optional<Args> parse(int argc, char** argv) {
  Args a;
  try {
    for (int i = 1; i < argc; ++i) {
      std::string k = argv[i];
      if (i + 1 >= argc) return std::nullopt;
      std::string v = argv[++i];
      if (k == "--workload") a.workload = v;
      else if (k == "--seed") a.seed = std::stoull(v);
      else if (k == "--seconds") a.seconds = std::stod(v);
      else if (k == "--trace") a.trace = v == "1";
      else if (k == "--size") a.tiny = v == "tiny";
      else if (k == "--workers") a.workers = std::stoi(v);
      else if (k == "--trace-out") a.trace_out = v;
      else return std::nullopt;
    }
  } catch (const std::exception&) {
    return std::nullopt;  // a number that does not parse
  }
  if (a.workload.empty() || !(a.seconds > 0)) return std::nullopt;
  return a;
}

/// Everything one run measures, pooled over its setups. Each setup builds
/// a fresh deployment and runs its share of the op budget on it, so
/// setup_s is a median over several setups and no deployment retains more
/// than its share of delivered data.
struct Totals {
  RunResult r;
  std::vector<double> setup_s;
  std::vector<double> segment_ops_per_s;
  std::vector<double> join_sim_ms;
  double phase_ms[5] = {0, 0, 0, 0, 0};
  Fnv digest;
};

/// `only` limits the run to the first setups (the tracing baseline).
Totals run_segments(const Args& args, const Spec& spec, unsigned workers,
                    std::size_t n_ops, Tracer* tracer,
                    std::size_t only = SIZE_MAX) {
  Totals t;
  t.r.correct = true;
  const std::size_t per = (n_ops + spec.setups - 1) / spec.setups;
  for (std::size_t j = 0; j < std::min(spec.setups, only); ++j) {
    const std::uint64_t seed = args.seed * 1000003ULL + j;
    const Clock::time_point t0 = Clock::now();
    std::unique_ptr<Deployment> d = build(args.workload, spec, seed, workers, tracer);
    t.setup_s.push_back(ms_since(t0) / 1e3);
    for (int k = 0; k < 5; ++k) t.phase_ms[k] += d->phase_ms[k];
    RunResult seg = Runner(*d, spec, seed, tracer).run(per);
    t.join_sim_ms.insert(t.join_sim_ms.end(), d->join_sim_ms.begin(),
                         d->join_sim_ms.end());
    t.digest.add(seg.digest);
    t.segment_ops_per_s.push_back(static_cast<double>(seg.ops.size()) / seg.timed_s);
    t.r.correct = t.r.correct && seg.correct;
    absorb(t.r, std::move(seg));
  }
  return t;
}

/// The outcome digest, op counts and host facts, printed with every result.
std::string counts_line(const Args& args, const Totals& t, unsigned workers) {
  const RunResult& r = t.r;
  std::ostringstream o;
  char dg[32];
  std::snprintf(dg, sizeof dg, "%016llx", static_cast<unsigned long long>(t.digest.h));
  o << "{\"digest\": \"" << dg << "\", \"workload\": \"" << args.workload
    << "\", \"seed\": " << args.seed << ", \"workers\": " << workers
    << ", \"nproc\": " << std::thread::hardware_concurrency()
    << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\", \"speck\": \""
    << crypto::speck_impl_name() << "\", \"sha256\": \"" << crypto::sha256_impl_name()
    << "\", \"setup_s\": [";
  for (std::size_t j = 0; j < t.setup_s.size(); ++j)
    o << (j ? ", " : "") << t.setup_s[j];
  o << "], \"segment_ops_per_s\": [";
  for (std::size_t j = 0; j < t.segment_ops_per_s.size(); ++j)
    o << (j ? ", " : "") << t.segment_ops_per_s[j];
  o << "], \"ops\": " << r.ops.size()
    << ", \"setup_join_failures\": " << r.setup_join_failures
    << ", \"packets\": " << r.packets.size()
    << ", \"rsa_private\": " << r.pk.decrypts + r.pk.signs
    << ", \"rsa_public\": " << r.pk.encrypts + r.pk.verifies
    << ", \"failed_by_kind\": {";
  for (int k = 0; k < 5; ++k) {
    std::size_t n = 0;
    for (const Op& op : r.ops) n += !op.ok && static_cast<int>(op.kind) == k;
    o << (k ? ", " : "") << "\"" << kOpNames[k] << "\": " << n;
  }
  o << "}, \"sent_msgs\": " << r.sent_total.messages << ", \"sent_bytes\": "
    << r.sent_total.bytes << ", \"gate\": \"" << r.gate_detail << "\"}";
  return o.str();
}

}  // namespace

int main(int argc, char** argv) {
  std::optional<Args> parsed = parse(argc, argv);
  if (!parsed) {
    std::cerr << "usage: mykil_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--size full|tiny] [--workers N] [--trace-out PATH]\n";
    return 2;
  }
  const Args args = *parsed;
  std::optional<Spec> spec_opt = make_spec(args.workload, args.tiny);
  if (!spec_opt) {
    std::cerr << "unknown workload " << args.workload << "\n";
    return 2;
  }
  const Spec spec = *spec_opt;
  const unsigned workers = args.workers > 0 ? static_cast<unsigned>(args.workers)
                                            : spec.workers;
  const auto n_ops = static_cast<std::size_t>(
      std::max(1.0, std::round(args.seconds * spec.nominal_ops_per_s)));

  try {
    if (!args.trace) {
      // Untraced run: the end-to-end metrics.
      Totals t = run_segments(args, spec, workers, n_ops, nullptr);
      const RunResult& r = t.r;
      std::vector<double> op_ms;
      std::size_t failed = 0;
      for (const Op& op : r.ops) {
        op_ms.push_back(op.host_ms);
        failed += op.ok ? 0 : 1;
      }
      const net::Counter data = LabelCounts::of(r.label_delta.sent, "mykil-data");
      const double ctrl_kb = static_cast<double>(r.sent_total.bytes - data.bytes) / 1024.0;
      std::cout << counts_line(args, t, workers) << "\n";
      print_result(r.correct, r.ops.size(), failed,
                   {{"setup_s", quantile(t.setup_s, 0.5), "s"},
                    {"ops_per_s", static_cast<double>(r.ops.size()) / r.timed_s, "1/s"},
                    {"op_ms_p50", quantile(op_ms, 0.5), "ms"},
                    {"op_ms_p99", quantile(op_ms, 0.99), "ms"},
                    {"peak_rss_mb", peak_rss_mb(), "MB"},
                    {"ctrl_kb_per_op", ctrl_kb / static_cast<double>(r.ops.size()), "KB"}});
      return 0;
    }

    // Traced run: the per-layer metrics. The first setup's segment runs
    // untraced first, as the tracing-overhead baseline; then the whole run
    // is traced.
    const Calibration cal = calibrate();
    const double untraced_ops_per_s =
        run_segments(args, spec, workers, n_ops, nullptr, 1).segment_ops_per_s[0];
    Tracer tracer;
    Totals t = run_segments(args, spec, workers, n_ops, &tracer);
    const RunResult& r = t.r;
    if (!args.trace_out.empty()) tracer.write(args.trace_out);
    const double setups = static_cast<double>(t.setup_s.size());

    std::size_t failed = 0;
    std::vector<double> by_kind[5];
    for (const Op& op : r.ops) {
      failed += op.ok ? 0 : 1;
      if (op.member != SIZE_MAX || op.kind == OpKind::kData)
        by_kind[static_cast<int>(op.kind)].push_back(op.host_ms);
    }
    const double n = static_cast<double>(r.ops.size());
    const std::uint64_t priv = r.pk.decrypts + r.pk.signs;
    const std::uint64_t pub = r.pk.encrypts + r.pk.verifies;
    const net::Counter data_recv = LabelCounts::of(r.label_delta.recv, "mykil-data");
    const net::Counter data_dropped = LabelCounts::of(r.label_delta.dropped, "mykil-data");
    const net::Counter rekey = LabelCounts::of(r.label_delta.sent, "mykil-rekey");
    const net::Counter repl = LabelCounts::of(r.label_delta.sent, "mykil-repl");
    const net::Counter recovery = LabelCounts::of(r.label_delta.sent, "mykil-recovery");
    const double timed_ms = r.timed_s * 1e3;
    std::cout << counts_line(args, t, workers) << "\n";
    print_result(
        r.correct, r.ops.size(), failed,
        {
            {"crypto.rsa_private_ops", static_cast<double>(priv), "count"},
            {"crypto.rsa_public_ops", static_cast<double>(pub), "count"},
            {"crypto.rsa_private_us", cal.rsa_private_us, "us"},
            {"crypto.rsa_public_us", cal.rsa_public_us, "us"},
            {"crypto.rsa_ms",
             (static_cast<double>(priv) * cal.rsa_private_us +
              static_cast<double>(pub) * cal.rsa_public_us) / 1e3, "ms"},
            {"crypto.keygen_ms", (t.phase_ms[0] + t.phase_ms[1]) / setups, "ms"},
            {"crypto.open_us", cal.open_us, "us"},
            {"crypto.sym_ms", static_cast<double>(data_recv.messages) * cal.open_us / 1e3, "ms"},
            {"net.events", static_cast<double>(r.events), "count"},
            {"net.events_per_op", static_cast<double>(r.events) / n, "count"},
            {"net.run_ms", r.advance_ms, "ms"},
            {"net.deliveries", static_cast<double>(r.recv_total.messages), "count"},
            {"net.fanout_ratio",
             r.fanout_copied.bytes == 0 ? 0.0
                                        : static_cast<double>(r.fanout_expanded.bytes) /
                                              static_cast<double>(r.fanout_copied.bytes),
             "ratio"},
            {"net.peak_queued", static_cast<double>(r.peak_queued), "count"},
            {"net.pool_slots", static_cast<double>(r.pool_slots), "count"},
            {"net.dropped", static_cast<double>(r.dropped.messages), "count"},
            {"net.data_dropped", static_cast<double>(data_dropped.messages), "count"},
            {"arq.retransmits", static_cast<double>(r.proto.retransmits), "count"},
            {"arq.give_ups", static_cast<double>(r.proto.give_ups), "count"},
            {"arq.dups_dropped", static_cast<double>(r.proto.dups), "count"},
            {"lkh.rekey_msgs", static_cast<double>(rekey.messages), "count"},
            {"lkh.rekey_bytes", static_cast<double>(rekey.bytes), "B"},
            {"lkh.entries_per_rekey",
             r.proto.rekeys_applied == 0 ? 0.0
                                   : static_cast<double>(r.proto.entries_applied) /
                                         static_cast<double>(r.proto.rekeys_applied),
             "count"},
            {"mykil.join_ms_p50", quantile(by_kind[0], 0.5), "ms"},
            {"mykil.rejoin_ms_p50", quantile(by_kind[1], 0.5), "ms"},
            {"mykil.move_ms_p50", quantile(by_kind[2], 0.5), "ms"},
            {"mykil.leave_ms_p50", quantile(by_kind[3], 0.5), "ms"},
            {"mykil.data_ms_p50", quantile(by_kind[4], 0.5), "ms"},
            {"mykil.join_sim_ms_p50", quantile(t.join_sim_ms, 0.5), "ms"},
            {"mykil.join_sim_ms_p99", quantile(t.join_sim_ms, 0.99), "ms"},
            {"mykil.rejoin_sim_ms_p50", quantile(r.rejoin_sim_ms, 0.5), "ms"},
            {"mykil.rejoin_sim_ms_p99", quantile(r.rejoin_sim_ms, 0.99), "ms"},
            {"mykil.rekey_sim_ms_p50", quantile(r.rekey_sim_ms, 0.5), "ms"},
            {"mykil.rekey_sim_ms_p99", quantile(r.rekey_sim_ms, 0.99), "ms"},
            {"mykil.rekey_bytes_per_departure",
             r.departures == 0 ? 0.0
                               : static_cast<double>(rekey.bytes) /
                                     static_cast<double>(r.departures),
             "B"},
            {"mykil.repl_kb", static_cast<double>(repl.bytes) / 1024.0, "KB"},
            {"mykil.recovery_msgs", static_cast<double>(recovery.messages), "count"},
            {"mykil.key_recoveries", static_cast<double>(r.proto.key_recoveries), "count"},
            {"mykil.undecryptable", static_cast<double>(r.proto.undecryptable), "count"},
            {"mykil.packet_misses", static_cast<double>(r.packet_misses), "count"},
            {"mykil.loss_misses", static_cast<double>(r.loss_misses), "count"},
            {"mykil.crash_misses", static_cast<double>(r.crash_misses), "count"},
            {"mykil.takeovers", static_cast<double>(r.proto.takeovers), "count"},
            {"mykil.evictions", static_cast<double>(r.proto.evictions), "count"},
            {"mykil.parent_switches", static_cast<double>(r.proto.parent_switches), "count"},
            {"mykil.watchdog_rejoins", static_cast<double>(r.proto.watchdog), "count"},
            {"mykil.retained_mb", r.retained_mb, "MB"},
            {"setup.keygen_ac_ms", t.phase_ms[0] / setups, "ms"},
            {"setup.keygen_pool_ms", t.phase_ms[1] / setups, "ms"},
            {"setup.finalize_ms", t.phase_ms[2] / setups, "ms"},
            {"setup.members_ms", t.phase_ms[3] / setups, "ms"},
            {"setup.joins_ms", t.phase_ms[4] / setups, "ms"},
            {"workload.driver_ms", timed_ms - r.call_ms - r.advance_ms, "ms"},
            {"workload.verify_ms", r.verify_ms, "ms"},
            {"obs.trace_overhead_pct",
             (untraced_ops_per_s / t.segment_ops_per_s[0] - 1.0) * 100.0, "%"},
            {"obs.spans", static_cast<double>(tracer.spans.size()), "count"},
        });
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "mykil_perfbench: " << e.what() << "\n";
    return 1;
  }
}
