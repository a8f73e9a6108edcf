#include "workload/chaos.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <utility>
#include <vector>

#include "crypto/prng.h"
#include "mykil/checkpoint.h"
#include "mykil/group.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mykil::workload {

namespace {

/// A node taken down by the schedule, with its planned recovery time.
struct DownNode {
  net::NodeId node = net::kNoNode;
  net::SimTime until = 0;
};

bool is_down(const std::vector<DownNode>& down, net::NodeId node) {
  return std::any_of(down.begin(), down.end(),
                     [node](const DownNode& d) { return d.node == node; });
}

/// The controller currently acting as primary for an area: the original
/// primary, its replica after a takeover, or nullptr while both think they
/// are backups (or 2x-crashed mid-handoff).
core::AreaController* acting_primary(core::MykilGroup& group, std::size_t a) {
  if (group.ac(a).role() == core::AreaController::Role::kPrimary)
    return &group.ac(a);
  if (core::AreaController* b = group.backup(a);
      b != nullptr && b->role() == core::AreaController::Role::kPrimary)
    return b;
  return nullptr;
}

/// A complete rebuildable simulation: network first so it is destroyed
/// LAST (group and members hold references into it).
struct Deployment {
  std::unique_ptr<net::Network> net;
  std::unique_ptr<obs::MetricsRegistry> metrics;
  std::unique_ptr<core::MykilGroup> group;
  std::vector<std::unique_ptr<core::Member>> members;
};

/// Construct the deployment purely from the seed. With `join` the initial
/// members run the full 7-step join; without it the construction stops at
/// key derivation — the shape a checkpoint restore overlays state onto.
Deployment build_deployment(const ChaosOptions& opt, bool join) {
  Deployment dep;
  net::NetworkConfig ncfg;
  ncfg.seed = opt.seed;
  ncfg.drop_probability = 0.0;  // clean setup; losses start with the chaos
  ncfg.inter_site_latency = opt.inter_site_latency;
  dep.net = std::make_unique<net::Network>(ncfg);
  dep.metrics = std::make_unique<obs::MetricsRegistry>();
  dep.net->set_metrics(dep.metrics.get());
  if (opt.tracer != nullptr) dep.net->set_tracer(opt.tracer);
  if (opt.metrics_interval > 0)
    dep.net->set_metrics_interval(opt.metrics_interval);
  dep.net->enable_engine_profile(opt.engine_profile);

  core::GroupOptions gopt;
  gopt.seed = opt.seed;
  gopt.with_backups = opt.with_backups;
  gopt.config.reliable_control = opt.reliable_control;
  gopt.workers = opt.workers;
  if (opt.dynamic_areas) {
    gopt.config.admission_rate = 3.0;
    gopt.config.admission_burst = 2;
    gopt.config.admission_queue_limit = 3;
    gopt.config.load_report_interval = net::sec(2);
    gopt.config.rebalance_interval = net::sec(3);
    gopt.config.area_split_threshold = 5;
    gopt.config.area_merge_threshold = 1;
    gopt.config.migrate_batch = 2;
  }
  dep.group = std::make_unique<core::MykilGroup>(*dep.net, gopt);
  dep.group->add_area();
  for (std::size_t a = 1; a < opt.areas; ++a) dep.group->add_area(0);
  if (opt.dynamic_areas)
    for (std::size_t s = 0; s < opt.spare_areas; ++s)
      dep.group->add_spare_area();
  dep.group->finalize();

  std::size_t total =
      opt.members + (opt.dynamic_areas ? opt.flash_pool : 0);
  for (std::size_t i = 0; i < total; ++i) {
    dep.members.push_back(dep.group->make_member(100 + i, net::sec(360000)));
    // Latecomers (index >= opt.members) stay off the group until a
    // flash-crowd event registers them mid-run.
    if (join && i < opt.members)
      dep.group->join_member(*dep.members.back(), net::sec(360000));
  }
  if (join) dep.group->settle(net::sec(2));
  return dep;
}

}  // namespace

ChaosReport run_chaos(const ChaosOptions& opt) {
  ChaosReport report;

  auto dep = std::make_unique<Deployment>(build_deployment(opt, true));
  net::Network* net = dep->net.get();
  core::MykilGroup* group = dep->group.get();

  // Everything the schedule may crash, partition, or block.
  std::vector<net::NodeId> all_nodes;
  auto collect_nodes = [&] {
    all_nodes.clear();
    all_nodes.push_back(group->rs().id());
    for (std::size_t a = 0; a < group->area_count(); ++a) {
      all_nodes.push_back(group->ac(a).id());
      if (group->backup(a) != nullptr)
        all_nodes.push_back(group->backup(a)->id());
    }
    for (const auto& m : dep->members) all_nodes.push_back(m->id());
  };
  collect_nodes();

  // The schedule's randomness is a distinct stream from the deployment's:
  // the same seed must reproduce BOTH, and interleaving them would couple
  // key generation to fault timing.
  crypto::Prng chaos(opt.seed ^ 0x9e3779b97f4a7c15ull);

  net->set_drop_probability(opt.base_drop);

  std::vector<DownNode> down;
  net::SimTime partition_until = 0;
  net::SimTime drop_until = 0;
  net::SimTime blocked_until = 0;
  std::vector<std::pair<net::NodeId, net::NodeId>> blocked;

  auto joined_up = [&](std::size_t start) -> core::Member* {
    for (std::size_t i = 0; i < dep->members.size(); ++i) {
      core::Member* m = dep->members[(start + i) % dep->members.size()].get();
      if (m->joined() && net->is_up(m->id())) return m;
    }
    return nullptr;
  };
  auto joined_count = [&] {
    std::size_t n = 0;
    for (const auto& m : dep->members)
      if (m->joined()) ++n;
    return n;
  };

  // Invariant 6: per-area composite key epochs (takeover epoch above the
  // rekey counter, DESIGN.md 9.2) may only move forward — across faults,
  // splits, merges, AND a checkpoint/restore boundary.
  std::vector<std::uint64_t> last_epoch(group->area_count(), 0);
  auto check_epochs = [&] {
    for (std::size_t a = 0; a < group->area_count(); ++a) {
      core::AreaController* p = acting_primary(*group, a);
      if (p == nullptr) continue;
      std::uint64_t e = (p->takeover_epoch() << 40) | p->rekey_epoch();
      if (e < last_epoch[a]) ++report.epoch_regressions;
      last_epoch[a] = std::max(last_epoch[a], e);
    }
  };

  const std::size_t schedule_cases = opt.dynamic_areas ? 14 : 12;
  const net::SimTime start = net->now();
  const net::SimTime mid = start + opt.duration / 2;
  const net::SimTime end = start + opt.duration;
  while (net->now() < end) {
    net->run_until(std::min<net::SimTime>(end, net->now() + net::msec(250)));
    net::SimTime now = net->now();
    check_epochs();

    if (opt.checkpoint_restore && !report.restored && now >= mid) {
      // Stop the world: serialize every entity, rebuild an identically
      // shaped deployment from the seed, overlay the snapshot, resume.
      std::vector<core::Member*> mptrs;
      for (const auto& m : dep->members) mptrs.push_back(m.get());
      Bytes blob = core::capture_checkpoint(*group, mptrs);
      report.checkpoint_bytes = blob.size();
      if (!opt.checkpoint_path.empty()) {
        if (std::FILE* f = std::fopen(opt.checkpoint_path.c_str(), "wb")) {
          std::fwrite(blob.data(), 1, blob.size(), f);
          std::fclose(f);
        }
      }

      auto fresh = std::make_unique<Deployment>(build_deployment(opt, false));
      mptrs.clear();
      for (const auto& m : fresh->members) mptrs.push_back(m.get());
      core::restore_checkpoint(*fresh->group, mptrs, blob);
      dep = std::move(fresh);  // old simulation torn down here
      net = dep->net.get();
      group = dep->group.get();
      collect_nodes();
      // In-flight fault episodes died with the old network; the restored
      // one starts fully healed at the ambient loss floor.
      down.clear();
      blocked.clear();
      partition_until = drop_until = blocked_until = 0;
      net->set_drop_probability(opt.base_drop);
      report.restored = true;
      continue;
    }

    // Expire finished fault episodes before injecting new ones.
    for (auto it = down.begin(); it != down.end();) {
      if (now >= it->until) {
        net->recover(it->node);
        it = down.erase(it);
      } else {
        ++it;
      }
    }
    if (partition_until != 0 && now >= partition_until) {
      net->heal_partitions();
      partition_until = 0;
    }
    if (drop_until != 0 && now >= drop_until) {
      net->set_drop_probability(opt.base_drop);
      drop_until = 0;
    }
    if (blocked_until != 0 && now >= blocked_until) {
      for (auto [f, t] : blocked) net->unblock_link(f, t);
      blocked.clear();
      blocked_until = 0;
    }

    switch (chaos.uniform(schedule_cases)) {
      case 0:
      case 1: {  // crash a member for 1-4 s
        core::Member* m = dep->members[chaos.uniform(dep->members.size())].get();
        if (!is_down(down, m->id())) {
          net->crash(m->id());
          down.push_back(
              {m->id(), now + net::msec(1000 + chaos.uniform(3000))});
          ++report.member_crashes;
        }
        break;
      }
      case 2: {  // crash an acting primary for 4-8 s (past the heartbeat
                 // horizon, so the standby takes over before it returns)
        if (!opt.crash_primaries) break;
        std::size_t a = chaos.uniform(group->area_count());
        core::AreaController* p = acting_primary(*group, a);
        if (p != nullptr && net->is_up(p->id()) && !is_down(down, p->id())) {
          net->crash(p->id());
          down.push_back(
              {p->id(), now + net::msec(4000 + chaos.uniform(4000))});
          ++report.primary_crashes;
        }
        break;
      }
      case 3: {  // partition: random bisection for 1-3 s
        if (partition_until != 0) break;
        for (net::NodeId n : all_nodes)
          net->set_partition(n, static_cast<std::uint32_t>(chaos.uniform(2)));
        partition_until = now + net::msec(1000 + chaos.uniform(2000));
        ++report.partitions;
        break;
      }
      case 4: {  // drop-probability ramp toward max_drop for 1-3 s
        double frac = chaos.uniform_double();
        net->set_drop_probability(opt.base_drop +
                                  frac * (opt.max_drop - opt.base_drop));
        drop_until = now + net::msec(1000 + chaos.uniform(2000));
        ++report.drop_ramps;
        break;
      }
      case 5: {  // block a random link pair for 1-2 s
        if (blocked_until != 0) break;
        net::NodeId a = all_nodes[chaos.uniform(all_nodes.size())];
        net::NodeId b = all_nodes[chaos.uniform(all_nodes.size())];
        if (a == b) break;
        net->block_link(a, b);
        net->block_link(b, a);
        blocked.assign({{a, b}, {b, a}});
        blocked_until = now + net::msec(1000 + chaos.uniform(1000));
        ++report.link_blocks;
        break;
      }
      case 6: {  // leave (keep at least half the pool subscribed)
        if (joined_count() <= opt.members / 2) break;
        if (core::Member* m = joined_up(chaos.uniform(dep->members.size()))) {
          m->leave();
          ++report.churn_events;
        }
        break;
      }
      case 7: {  // a departed member returns via its ticket
        std::size_t start_i = chaos.uniform(dep->members.size());
        for (std::size_t i = 0; i < dep->members.size(); ++i) {
          core::Member* m =
              dep->members[(start_i + i) % dep->members.size()].get();
          if (m->joined() || m->sealed_ticket().empty() ||
              !net->is_up(m->id()))
            continue;
          // Aim at an area the member can actually see: under dynamic
          // management its directory copy — not the construction list —
          // is the source of truth (spares may be dormant or retired).
          const auto& entries = m->directory().entries();
          if (entries.empty()) break;
          m->rejoin(entries[chaos.uniform(entries.size())].ac_id);
          ++report.churn_events;
          break;
        }
        break;
      }
      case 8: {  // mobility: move to a different area
        core::Member* m = joined_up(chaos.uniform(dep->members.size()));
        if (m == nullptr) break;
        const auto& entries = m->directory().entries();
        if (entries.size() < 2) break;
        std::size_t a = chaos.uniform(entries.size());
        for (std::size_t i = 0; i < entries.size(); ++i) {
          core::AcId target = entries[(a + i) % entries.size()].ac_id;
          if (target != m->current_ac()) {
            m->rejoin(target);
            ++report.churn_events;
            break;
          }
        }
        break;
      }
      case 12: {  // flash crowd: a burst of fresh registrations at the RS
        std::size_t burst = 0;
        for (std::size_t i = opt.members;
             i < dep->members.size() && burst < 4; ++i) {
          core::Member* m = dep->members[i].get();
          if (m->joined() || !m->sealed_ticket().empty() ||
              !net->is_up(m->id()))
            continue;
          m->join(group->rs().id(), net::sec(360000));
          ++burst;
          ++report.churn_events;
        }
        break;
      }
      case 13: {  // mass departure (drives an area below the merge floor)
        for (int k = 0; k < 3; ++k) {
          if (joined_count() <= opt.members / 4) break;
          if (core::Member* m =
                  joined_up(chaos.uniform(dep->members.size()))) {
            m->leave();
            ++report.churn_events;
          }
        }
        break;
      }
      default: {  // data traffic (the most common event)
        if (core::Member* m = joined_up(chaos.uniform(dep->members.size()))) {
          m->send_data(to_bytes("chaos-payload"));
          ++report.churn_events;
        }
        break;
      }
    }
  }

  // Quiesce: remove every injected fault and let the repair machinery
  // (retransmission, takeover resolution, key recovery, eviction, ticket
  // rejoin) run to a fixed point.
  for (const DownNode& d : down) net->recover(d.node);
  down.clear();
  net->heal_partitions();
  for (auto [f, t] : blocked) net->unblock_link(f, t);
  blocked.clear();
  net->set_drop_probability(0.0);
  group->settle(opt.quiesce);
  check_epochs();

  // ---- invariants ----

  // The invariants are a snapshot of an eventually-consistent system, and
  // with online area management the system never stops acting: the
  // rebalancer may split, merge, or evict during the quiesce window, and a
  // snapshot taken milliseconds after a rekey multicast sees its receivers
  // as "stale" even though the very next beacon heals them. Sample up to
  // kSamples times, a fixed settle apart — genuinely stuck state fails
  // every sample, an in-flight reconfiguration passes the next one.
  constexpr int kSamples = 3;
  for (int sample = 0; sample < kSamples; ++sample) {
    report.areas_without_primary = 0;
    report.split_brains = 0;
    report.live_members = 0;
    report.live_in_sync = 0;
    report.live_out_of_sync = 0;
    report.multi_owner_members = 0;
    report.orphan_members = 0;
    report.stale_key_holders = 0;
    report.backups_out_of_sync = 0;

    std::vector<core::AreaController*> acting(group->area_count(), nullptr);
    for (std::size_t a = 0; a < group->area_count(); ++a) {
      std::size_t primaries =
          (group->ac(a).role() == core::AreaController::Role::kPrimary ? 1u
                                                                       : 0u) +
          (group->backup(a) != nullptr &&
                   group->backup(a)->role() ==
                       core::AreaController::Role::kPrimary
               ? 1u
               : 0u);
      if (primaries == 0) ++report.areas_without_primary;
      if (primaries > 1) ++report.split_brains;
      acting[a] = acting_primary(*group, a);
    }

    // Acting rosters for the ownership invariant (5).
    std::vector<std::vector<core::ClientId>> rosters(group->area_count());
    for (std::size_t a = 0; a < group->area_count(); ++a)
      if (acting[a] != nullptr) rosters[a] = acting[a]->member_ids();

    for (const auto& m : dep->members) {
      if (m->joined()) {
        ++report.live_members;
        bool in_sync = false;
        std::size_t owners = 0;
        for (std::size_t a = 0; a < group->area_count(); ++a) {
          if (acting[a] == nullptr) continue;
          if (std::find(rosters[a].begin(), rosters[a].end(),
                        m->client_id()) != rosters[a].end())
            ++owners;
          if (acting[a]->ac_id() != m->current_ac()) continue;
          in_sync = m->keys().has_group_key() &&
                    m->keys().group_key() == acting[a]->tree().root_key();
        }
        if (in_sync)
          ++report.live_in_sync;
        else
          ++report.live_out_of_sync;
        if (owners > 1) ++report.multi_owner_members;
        if (owners == 0) ++report.orphan_members;
      } else if (m->keys().has_group_key()) {
        // Forward secrecy: a departed or evicted member must not hold ANY
        // area's current key.
        for (std::size_t a = 0; a < group->area_count(); ++a) {
          if (acting[a] != nullptr &&
              m->keys().group_key() == acting[a]->tree().root_key())
            ++report.stale_key_holders;
        }
      }
    }

    if (opt.with_backups) {
      for (std::size_t a = 0; a < group->area_count(); ++a) {
        if (acting[a] == nullptr) continue;  // already an invariant failure
        core::AreaController* standby =
            acting[a] == &group->ac(a) ? group->backup(a) : &group->ac(a);
        if (standby == nullptr) continue;
        if (standby->last_synced_snapshot() !=
            acting[a]->replication_snapshot())
          ++report.backups_out_of_sync;
      }
    }

    bool settled = report.live_out_of_sync == 0 &&
                   report.stale_key_holders == 0 &&
                   report.areas_without_primary == 0 &&
                   report.split_brains == 0 &&
                   report.backups_out_of_sync == 0 &&
                   report.multi_owner_members == 0;
    if (settled || sample + 1 == kSamples) break;
    group->settle(net::sec(5));
    check_epochs();
  }

  auto counter = [&](const char* name) -> std::uint64_t {
    const obs::Counter* c = dep->metrics->find_counter(name);
    return c == nullptr ? 0 : c->value();
  };
  report.retransmits = counter("arq.retransmits");
  report.arq_give_ups = counter("arq.give_ups");
  report.key_recoveries =
      counter("member.key_recoveries") + counter("ac.uplink_recoveries");
  report.takeovers = counter("ac.takeovers");
  report.redirects = counter("ac.redirects");
  report.rekey_multicasts = net->stats().sent_by_label("mykil-rekey").messages;
  report.map_version = group->rs().map_version();
  report.area_splits = group->rs().area_splits();
  report.area_merges = group->rs().area_merges();
  report.sheds = group->rs().sheds();
  for (const auto& m : dep->members) report.migrations += m->migrations();
  report.finished_at = net->now();
  report.metric_samples = dep->metrics->sample_count();
  if (!opt.metrics_jsonl_path.empty())
    dep->metrics->write_jsonl(opt.metrics_jsonl_path);
  if (opt.engine_profile) report.profile = net->engine_profile();

  auto fnv = [](std::uint64_t h, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 1099511628211ull;
    }
    return h;
  };
  std::uint64_t d = 14695981039346656037ull;
  for (std::uint64_t v :
       {static_cast<std::uint64_t>(report.member_crashes),
        static_cast<std::uint64_t>(report.primary_crashes),
        static_cast<std::uint64_t>(report.partitions),
        static_cast<std::uint64_t>(report.drop_ramps),
        static_cast<std::uint64_t>(report.link_blocks),
        static_cast<std::uint64_t>(report.churn_events),
        static_cast<std::uint64_t>(report.live_members),
        static_cast<std::uint64_t>(report.live_in_sync),
        static_cast<std::uint64_t>(report.live_out_of_sync),
        static_cast<std::uint64_t>(report.stale_key_holders),
        static_cast<std::uint64_t>(report.areas_without_primary),
        static_cast<std::uint64_t>(report.split_brains),
        static_cast<std::uint64_t>(report.backups_out_of_sync),
        static_cast<std::uint64_t>(report.multi_owner_members),
        static_cast<std::uint64_t>(report.epoch_regressions),
        static_cast<std::uint64_t>(report.orphan_members),
        report.map_version, report.area_splits, report.area_merges,
        report.migrations, report.sheds,
        static_cast<std::uint64_t>(report.restored ? 1 : 0),
        static_cast<std::uint64_t>(report.checkpoint_bytes),
        report.retransmits, report.arq_give_ups, report.key_recoveries,
        report.takeovers, report.redirects, report.rekey_multicasts,
        report.finished_at, net->stats().sent_total().messages,
        net->stats().sent_total().bytes, net->stats().recv_total().messages,
        net->stats().recv_total().bytes, net->stats().dropped().messages,
        net->stats().dropped().bytes})
    d = fnv(d, v);
  report.digest = d;
  return report;
}

std::string chaos_row(const ChaosOptions& opt, const ChaosReport& cr) {
  char row[1024];
  std::snprintf(
      row, sizeof row,
      "{\"suite\": \"chaos\", \"seed\": %llu, \"workers\": %u, "
      "\"arq\": %s, \"converged\": %s, \"member_crashes\": %zu, "
      "\"primary_crashes\": %zu, \"partitions\": %zu, "
      "\"churn_events\": %zu, \"live_members\": %zu, "
      "\"live_in_sync\": %zu, \"retransmits\": %llu, "
      "\"key_recoveries\": %llu, \"takeovers\": %llu, "
      "\"dynamic_areas\": %s, \"map_version\": %llu, "
      "\"area_splits\": %llu, \"area_merges\": %llu, "
      "\"migrations\": %llu, \"sheds\": %llu, "
      "\"multi_owner_members\": %zu, \"orphan_members\": %zu, "
      "\"epoch_regressions\": %zu, \"restored\": %s, "
      "\"checkpoint_bytes\": %zu, "
      "\"finished_at_us\": %llu, \"digest\": \"%016llx\"}\n",
      static_cast<unsigned long long>(opt.seed), opt.workers,
      opt.reliable_control ? "true" : "false",
      cr.converged() ? "true" : "false", cr.member_crashes,
      cr.primary_crashes, cr.partitions, cr.churn_events, cr.live_members,
      cr.live_in_sync, static_cast<unsigned long long>(cr.retransmits),
      static_cast<unsigned long long>(cr.key_recoveries),
      static_cast<unsigned long long>(cr.takeovers),
      opt.dynamic_areas ? "true" : "false",
      static_cast<unsigned long long>(cr.map_version),
      static_cast<unsigned long long>(cr.area_splits),
      static_cast<unsigned long long>(cr.area_merges),
      static_cast<unsigned long long>(cr.migrations),
      static_cast<unsigned long long>(cr.sheds), cr.multi_owner_members,
      cr.orphan_members, cr.epoch_regressions,
      cr.restored ? "true" : "false", cr.checkpoint_bytes,
      static_cast<unsigned long long>(cr.finished_at),
      static_cast<unsigned long long>(cr.digest));
  return row;
}

}  // namespace mykil::workload
