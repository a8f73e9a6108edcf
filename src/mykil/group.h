// Convenience orchestration: builds a complete Mykil deployment — one
// registration server, a tree of area controllers (optionally replicated),
// a shared ticket key, and the AC directory — on a simulated network.
//
// This is the entry point examples and benchmarks use; it performs the
// out-of-band setup the paper leaves to "the authorization information
// database AI": generating K_shared, registering ACs, and wiring parents.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "mykil/area_controller.h"
#include "mykil/member.h"
#include "mykil/placement.h"
#include "mykil/registration_server.h"
#include "net/network.h"

namespace mykil::core {

struct GroupOptions {
  MykilConfig config;
  /// RSA modulus size for all entities. 768 keeps simulations fast; the
  /// paper's 2048 is exercised by the join-latency benchmark.
  std::size_t rsa_bits = 768;
  /// Give every area a primary-backup replicated controller.
  bool with_backups = false;
  /// Master seed: everything (keys, nonces, workloads) derives from it.
  std::uint64_t seed = 1;
  /// Worker threads for the simulator's engine. 1 drains every window
  /// inline on the calling thread, >= 2 drains shards concurrently. The
  /// delivery schedule is identical for every value. finalize() packs
  /// chatty areas together onto 2x workers shards, or one at workers=1
  /// (locality placement, DESIGN.md 11.4).
  unsigned workers = 1;
};

class MykilGroup {
 public:
  MykilGroup(net::Network& net, GroupOptions options);

  /// Create an area controller. `parent` is the index of the parent area
  /// (the first area, index 0, is the root whose AC is the group
  /// controller). Returns the new area's index.
  std::size_t add_area(std::optional<std::size_t> parent = std::nullopt);

  /// Create a dormant spare area controller (DESIGN.md 14.1): provisioned
  /// and attached like any other AC — so key material stays a pure function
  /// of the seed and construction order — but absent from the directory.
  /// It serves no members until an RS-driven split activates it. Returns
  /// the area index (usable with ac()/backup()).
  std::size_t add_spare_area();

  /// Finish setup: distribute the directory, link area parents, replicate
  /// controllers, and settle the network. Call once, after add_area calls.
  void finalize();

  /// Construct (and attach) a member with its own deterministic keypair,
  /// authorized at the RS for `authorized` time.
  std::unique_ptr<Member> make_member(ClientId client,
                                      net::SimDuration authorized);

  /// Drive the member through the full join and settle the network.
  void join_member(Member& member, net::SimDuration requested);

  /// Advance simulated time (runs all due events).
  void settle(net::SimDuration dt = net::msec(500));

  [[nodiscard]] RegistrationServer& rs() { return *rs_; }
  [[nodiscard]] AreaController& ac(std::size_t index) {
    return *areas_.at(index).primary;
  }
  [[nodiscard]] AreaController* backup(std::size_t index) {
    return areas_.at(index).backup.get();
  }
  [[nodiscard]] std::size_t area_count() const { return areas_.size(); }
  [[nodiscard]] net::Network& network() { return net_; }
  [[nodiscard]] const MykilConfig& config() const { return options_.config; }
  [[nodiscard]] const GroupOptions& options() const { return options_; }
  [[nodiscard]] const AcDirectory& directory() const { return directory_; }
  [[nodiscard]] const crypto::RsaPublicKey& rs_public_key() const {
    return rs_->public_key();
  }

 private:
  struct Area {
    std::unique_ptr<AreaController> primary;
    std::unique_ptr<AreaController> backup;
    std::optional<std::size_t> parent;
    AcId ac_id = 0;
    bool spare = false;
  };

  /// Shard for an area / the next member (RS in 0). After finalize() this
  /// reads the computed placement; before it, area-index striping.
  [[nodiscard]] std::uint32_t area_shard(std::size_t area_index) const;
  /// Fill area_shards_ by locality placement (runs once, in finalize).
  void assign_placement();
  std::size_t add_area_impl(std::optional<std::size_t> parent, bool spare);

  net::Network& net_;
  GroupOptions options_;
  std::size_t member_seq_ = 0;  ///< mirrors the RS round-robin for sharding
  std::size_t placement_areas_ = 0;  ///< non-spare areas (the RS rotation)
  std::vector<std::size_t> nonspare_areas_;  ///< RS rotation order -> index
  std::vector<std::uint32_t> area_shards_;   ///< per-area shard (finalize)
  crypto::Prng prng_;
  crypto::SymmetricKey k_shared_;
  std::unique_ptr<RegistrationServer> rs_;
  std::vector<Area> areas_;
  AcDirectory directory_;
  bool finalized_ = false;
};

}  // namespace mykil::core
