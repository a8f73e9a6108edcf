#include "mykil/group.h"

#include "common/error.h"

namespace mykil::core {

namespace {
/// AC identities live far above client NIC ids so the two never collide in
/// the shared key-tree member-id space.
}  // namespace

MykilGroup::MykilGroup(net::Network& net, GroupOptions options)
    : net_(net),
      options_(options),
      prng_(options.seed),
      k_shared_(crypto::SymmetricKey::random(prng_)) {
  crypto::RsaKeyPair rs_keys = crypto::rsa_generate(options_.rsa_bits, prng_);
  rs_ = std::make_unique<RegistrationServer>(options_.config, std::move(rs_keys),
                                             prng_.fork());
  net_.attach(*rs_);  // shard 0: the RS shares a shard with no area
  net_.set_workers(options_.workers);
}

std::uint32_t MykilGroup::area_shard(std::size_t area_index) const {
  // Placement is a locality hint: protocol traffic is correct — and the
  // digest identical — whatever the assignment.
  if (area_index < area_shards_.size()) return area_shards_[area_index];
  // Pre-finalize fallback (members created before finalize): area-index
  // striping, wrapping only past the simulator's 255-shard ceiling.
  return 1 + static_cast<std::uint32_t>(
                 area_index % (net::Network::kMaxShards - 1));
}

void MykilGroup::assign_placement() {
  const std::size_t n_areas = areas_.size();
  area_shards_.assign(n_areas, 0);

  // Two shards per worker give the pool load-balancing headroom; one
  // shard at workers=1 keeps a single heap.
  std::uint32_t target = options_.workers >= 2 ? 2 * options_.workers : 1;
  target = std::min<std::uint32_t>(
      target, static_cast<std::uint32_t>(net::Network::kMaxShards));
  target =
      std::min<std::uint32_t>(target, static_cast<std::uint32_t>(n_areas + 1));

  PlacementInput in;
  in.units = n_areas + 1;  // unit 0 = RS, unit i + 1 = area i
  in.target_shards = target;
  in.load.assign(in.units, 1.0);
  in.load[0] = 0.25;  // the RS is control-plane only
  for (std::size_t i = 0; i < n_areas; ++i)
    if (areas_[i].spare) in.load[1 + i] = 0.5;  // dormant until a split

  // Static topology affinity, heaviest first: parent/child areas trade the
  // bulk of the control traffic (child joins, epoch relays); a spare is the
  // split target of its partner area, so co-locate them before the split
  // makes them siblings; the RS talks to every area but hardest to the root
  // (directory pushes fan out from there).
  std::size_t spare_seq = 0;
  for (std::size_t i = 0; i < n_areas; ++i) {
    const Area& a = areas_[i];
    if (a.parent) in.affinity.push_back({1 + *a.parent, 1 + i, 100.0});
    if (a.spare) {
      if (!nonspare_areas_.empty()) {
        std::size_t partner =
            nonspare_areas_[spare_seq % nonspare_areas_.size()];
        in.affinity.push_back({1 + partner, 1 + i, 50.0});
      }
      ++spare_seq;
    } else {
      bool root = !nonspare_areas_.empty() && nonspare_areas_[0] == i;
      in.affinity.push_back({0, 1 + i, root ? 50.0 : 10.0});
    }
  }

  std::vector<std::uint32_t> unit_shard = place_units(in);
  for (std::size_t i = 0; i < n_areas; ++i)
    area_shards_[i] = unit_shard[1 + i];
}

std::size_t MykilGroup::add_area(std::optional<std::size_t> parent) {
  return add_area_impl(parent, /*spare=*/false);
}

std::size_t MykilGroup::add_spare_area() {
  return add_area_impl(std::nullopt, /*spare=*/true);
}

std::size_t MykilGroup::add_area_impl(std::optional<std::size_t> parent,
                                      bool spare) {
  if (finalized_) throw ProtocolError("add_area after finalize");
  if (parent && *parent >= areas_.size())
    throw ProtocolError("parent area index out of range");

  Area area;
  area.ac_id = kAcIdBase + areas_.size();
  area.parent = parent;
  area.spare = spare;
  if (!spare) {
    ++placement_areas_;
    nonspare_areas_.push_back(areas_.size());
  }

  // Shard assignment and open_area are deferred to finalize(): placement
  // needs the whole area tree, and nothing here schedules events — so the
  // deferral changes neither key material (keygen order is unchanged) nor
  // the event schedule (timers still arm at virtual time 0).
  crypto::RsaKeyPair keys = crypto::rsa_generate(options_.rsa_bits, prng_);
  area.primary = std::make_unique<AreaController>(
      area.ac_id, options_.config, std::move(keys), k_shared_,
      rs_->public_key(), prng_.fork(), AreaController::Role::kPrimary);
  net_.attach(*area.primary);

  if (options_.with_backups) {
    crypto::RsaKeyPair bkeys = crypto::rsa_generate(options_.rsa_bits, prng_);
    area.backup = std::make_unique<AreaController>(
        area.ac_id, options_.config, std::move(bkeys), k_shared_,
        rs_->public_key(), prng_.fork(), AreaController::Role::kBackup);
    net_.attach(*area.backup);
  }

  areas_.push_back(std::move(area));
  return areas_.size() - 1;
}

void MykilGroup::finalize() {
  if (finalized_) throw ProtocolError("finalize called twice");
  finalized_ = true;

  // Place first (the whole tree is known now), then open the areas on
  // their final shards so every event an AC ever schedules lands there.
  // Sites model the latency topology: one site per area (controller,
  // backup, and that area's members), the RS alone on site 0. With the
  // default inter_site_latency of 0 they are inert; a positive value makes
  // cross-area hops slower AND lets the engine widen its conservative
  // window to base + inter-site latency, because no site straddles shards.
  assign_placement();
  net_.set_site(rs_->id(), 0);
  for (std::size_t i = 0; i < areas_.size(); ++i) {
    Area& a = areas_[i];
    const std::uint32_t shard = area_shards_[i];
    const auto site = static_cast<std::uint32_t>(1 + i);
    net_.set_shard(a.primary->id(), shard);
    net_.set_site(a.primary->id(), site);
    if (a.backup) {
      net_.set_shard(a.backup->id(), shard);
      net_.set_site(a.backup->id(), site);
    }
    a.primary->open_area(net_);
  }

  for (const Area& a : areas_) {
    AcInfo info;
    info.ac_id = a.ac_id;
    info.node = a.primary->id();
    info.group = a.primary->area_group();
    info.pubkey = a.primary->public_key().serialize();
    if (a.backup) {
      info.backup_node = a.backup->id();
      info.backup_pubkey = a.backup->public_key().serialize();
    }
    if (a.spare) {
      // Dormant: reachable and replicated, but invisible to placement
      // until the RS splits a hot area into it.
      rs_->register_spare(info);
    } else {
      directory_.add(info);
      rs_->register_ac(info);
    }
  }

  for (Area& a : areas_) {
    // Spares get the initial directory too (sibling pubkeys for signature
    // checks); their own absence from it is what keeps them dormant.
    a.primary->set_directory(directory_);
    a.primary->set_rs_node(rs_->id());
    if (a.spare && !areas_.empty() && !areas_[0].spare)
      a.primary->set_parent_hint(areas_[0].ac_id);
    if (a.backup) {
      a.backup->set_directory(directory_);
      a.backup->set_rs_node(rs_->id());
      if (a.spare && !areas_.empty() && !areas_[0].spare)
        a.backup->set_parent_hint(areas_[0].ac_id);
      a.backup->start_watchdog();
      a.primary->set_backup(a.backup->id());
    }
  }

  // Link the area tree (children join their parent's area, Section III-A).
  for (Area& a : areas_) {
    if (a.parent) a.primary->connect_to_parent(areas_[*a.parent].ac_id);
  }
  rs_->start_timers();
  settle();
}

std::unique_ptr<Member> MykilGroup::make_member(ClientId client,
                                                net::SimDuration authorized) {
  rs_->authorize(client, authorized);
  crypto::RsaKeyPair keys = crypto::rsa_generate(options_.rsa_bits, prng_);
  auto m = std::make_unique<Member>(client, options_.config, std::move(keys),
                                    rs_->public_key(), prng_.fork());
  net_.attach(*m);
  // Colocate the member with the area the RS's round-robin will hand it
  // (best effort: exact when members join in creation order). A member
  // that later moves to another area keeps its shard and site — traffic
  // just crosses shards, which is correct, merely less local. The site
  // follows the same prediction, so member sites never straddle shards
  // and adaptive lookahead stays wide even under mispredictions.
  if (!nonspare_areas_.empty()) {
    std::size_t area = nonspare_areas_[member_seq_++ % nonspare_areas_.size()];
    net_.set_shard(m->id(), area_shard(area));
    net_.set_site(m->id(), static_cast<std::uint32_t>(1 + area));
  }
  m->start_timers();
  return m;
}

void MykilGroup::join_member(Member& member, net::SimDuration requested) {
  member.join(rs_->id(), requested);
  settle();
}

void MykilGroup::settle(net::SimDuration dt) {
  net_.run_until(net_.now() + dt);
}

}  // namespace mykil::core
