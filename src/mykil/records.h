// The records Mykil keeps for itself (DESIGN.md 3.7), in one list. The
// state records are defined here: the area snapshot a primary replicates
// to its standby (Section IV-C) and the delta it sends once the standby
// holds one (DESIGN.md 9.3), each node's checkpoint record and the
// checkpoint container (DESIGN.md 14.4). The directory, ticket and TESLA
// records are defined with their modules. The tests iterate Records for
// fuzz and golden coverage.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "common/error.h"
#include "mykil/directory.h"
#include "mykil/schema.h"
#include "mykil/source_auth.h"
#include "mykil/ticket.h"

namespace mykil::lkh {
class KeyTree;
}  // namespace mykil::lkh

namespace mykil::core {

/// One member of an area as its AC keeps it. The listed fields replicate;
/// the clocks belong to one instance, and a promoted standby restarts them.
struct AreaMember {
  net::NodeId node = net::kNoNode;
  Bytes pubkey;         ///< serialized RsaPublicKey
  Bytes sealed_ticket;  ///< last ticket issued to this member
  net::SimTime valid_until = 0;
  MYKIL_FIELDS(node, pubkey, sealed_ticket, valid_until)

  net::SimTime last_heard = 0;
  /// Rate limit on key-recovery answers (each costs a pk encryption).
  net::SimTime last_recovery_reply = 0;
  /// Non-zero while a migrate directive is outstanding for this member:
  /// a rejoin cohort check arriving before this deadline is answered
  /// gone=true even though the member is still heard (it is leaving on
  /// OUR instruction, not sharing its ticket).
  net::SimTime migrate_until = 0;
};

/// What a standby takes over from ("only a minimal state information is
/// replicated", Section IV-C). StateSync carries it as bytes.
struct AreaSnapshot {
  net::GroupId area_group = 0;
  AcId parent = kNoAc;  ///< kNoAc at the root of the area tree
  std::uint64_t rekey_epoch = 0;
  Bytes tree;  ///< lkh::KeyTree::serialize()
  std::map<ClientId, AreaMember> members;
  MYKIL_RECORD(area_group, parent, rekey_epoch, tree, members)
};

/// What changed in an area between two syncs: once its standby holds a
/// snapshot, a primary replicates only this (DESIGN.md 9.3). StateDelta
/// carries it; apply() turns the snapshot at base_version into the one at
/// version.
struct AreaDelta {
  std::uint64_t base_version = 0;
  std::uint64_t version = 0;
  net::GroupId area_group = 0;
  AcId parent = kNoAc;
  std::uint64_t rekey_epoch = 0;
  Bytes tree;  ///< lkh::KeyTree::delta_since() the base's tree
  std::map<ClientId, AreaMember> members;  ///< roster entries added or changed
  std::set<ClientId> removed;
  MYKIL_RECORD(base_version, version, area_group, parent, rekey_epoch, tree,
               members, removed)
  void validate() const {
    if (version <= base_version)
      throw ProtocolError("delta does not move its base forward");
    for (ClientId c : removed)
      if (members.contains(c))
        throw ProtocolError("delta both changes and removes a member");
  }
};

/// The delta from `base` to an area's live state, the values
/// replication_snapshot() encodes: roster entries compare by their
/// replicated fields, tree nodes by their serialized records. The caller
/// stamps the versions.
AreaDelta area_delta(const AreaSnapshot& base, net::GroupId area_group,
                     AcId parent, std::uint64_t rekey_epoch,
                     const lkh::KeyTree& tree,
                     const std::map<ClientId, AreaMember>& members);
/// Turn `snapshot`, the state at delta.base_version, into the state at
/// delta.version. Throws WireError if the tree delta does not fit it.
void apply(AreaSnapshot& snapshot, const AreaDelta& delta);

enum class AcRole : std::uint8_t { kPrimary, kBackup };
constexpr AcRole last_value(AcRole) { return AcRole::kBackup; }

/// An area controller's checkpoint; an open primary's includes its snapshot.
struct AcState {
  AcRole role = AcRole::kPrimary;
  bool open = false;
  std::uint64_t takeover_epoch = 0;
  std::uint64_t rekey_epoch = 0;
  std::uint64_t sync_version = 0;
  std::uint64_t peer_sync_version = 0;
  bool got_snapshot = false;
  Bytes latest_snapshot;  ///< a standby's AreaSnapshot, every delta applied
  net::NodeId backup_node = net::kNoNode;
  net::NodeId peer_node = net::kNoNode;
  AcDirectory directory;
  Bytes latest_map_payload;
  AcId parent_hint = kNoAc;
  net::NodeId rs_node = net::kNoNode;
  std::optional<AreaSnapshot> snapshot;
  std::map<ClientId, Bytes> departed_tickets;
  MYKIL_RECORD(role, open, takeover_epoch, rekey_epoch, sync_version,
               peer_sync_version, got_snapshot, latest_snapshot, backup_node,
               peer_node, directory, latest_map_payload, parent_hint, rs_node,
               snapshot, departed_tickets)
};

enum class MemberPhase : std::uint8_t { kIdle, kJoined, kJoining, kRejoining };
constexpr MemberPhase last_value(MemberPhase) {
  return MemberPhase::kRejoining;
}

struct MemberState {  // a member's checkpoint
  MemberPhase phase = MemberPhase::kIdle;
  net::NodeId rs_node = net::kNoNode;
  net::SimDuration requested_duration = 0;
  AcId ac = kNoAc;
  net::NodeId ac_node = net::kNoNode;
  net::GroupId area_group = 0;
  std::uint64_t area_epoch = 0;
  AcId rejoin_target = kNoAc;
  Bytes sealed_ticket;
  AcDirectory directory;
  lkh::MemberKeyState keys;
  std::uint64_t watchdog_rejoins = 0;
  std::uint64_t key_recoveries = 0;
  std::uint64_t migrations = 0;
  MYKIL_RECORD(phase, rs_node, requested_duration, ac, ac_node, area_group,
               area_epoch, rejoin_target, sealed_ticket, directory, keys,
               watchdog_rejoins, key_recoveries, migrations)
};

struct RsState {  // the registration server's checkpoint
  AcDirectory directory;
  std::map<ClientId, net::SimDuration> auth_db;
  /// Members assigned per area (the RS's load-balancing estimate, used to
  /// enforce config.max_area_members).
  std::map<AcId, std::size_t> assigned;
  std::size_t next_area = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t sheds = 0;
  std::uint64_t splits = 0;
  std::uint64_t merges = 0;
  std::uint64_t timeouts = 0;
  std::vector<AcInfo> spares;
  /// Areas activated from the spare pool (the only merge candidates:
  /// construction-time areas are never drained away).
  std::set<AcId> dynamic;
  MYKIL_RECORD(directory, auth_db, assigned, next_area, completed, rejected,
               sheds, splits, merges, timeouts, spares, dynamic)
};

/// The shape of a captured deployment, which a restore target must match,
/// and the digest of the body after it.
struct CheckpointHeader {
  static constexpr std::uint64_t kMagic = 0x4D594B494C434B31;  // "MYKILCK1"
  std::uint64_t magic = kMagic;
  std::uint64_t seed = 0;
  std::uint32_t area_count = 0;  ///< construction areas, spares included
  std::uint32_t member_count = 0;
  bool with_backups = false;
  Bytes digest;  ///< SHA-256 of the encoded CheckpointBody
  MYKIL_FIELDS(magic, seed, area_count, member_count, with_backups, digest)
  void validate() const {
    if (magic != kMagic)
      throw ProtocolError("not a Mykil checkpoint (bad magic)");
  }
};

struct AreaCheckpoint {  // one area's AC pair
  AcState primary;
  std::optional<AcState> backup;
  MYKIL_FIELDS(primary, backup)
};

struct MemberCheckpoint {
  ClientId client_id = 0;
  MemberState state;
  MYKIL_FIELDS(client_id, state)
};

/// What a checkpoint restores: the clock it was captured at, the RS, every
/// AC pair in construction order, every member in creation order.
struct CheckpointBody {
  net::SimTime captured_at = 0;
  RsState rs;
  std::vector<AreaCheckpoint> areas;
  std::vector<MemberCheckpoint> members;
  MYKIL_RECORD(captured_at, rs, areas, members)
};

/// A whole deployment: the header, then the body it digests. The body stays
/// bytes until its digest matches, so a blob with any byte changed is
/// rejected before one of its records is read.
struct Checkpoint {
  CheckpointHeader header;
  Bytes body;  ///< an encoded CheckpointBody
  MYKIL_RECORD(header, body)
  /// The checkpoint of `body`, its digest in `header`.
  static Checkpoint of(CheckpointHeader header, const CheckpointBody& body);
  void validate() const;  ///< the digest matches the body
};

/// The records: one entry per format Mykil keeps for itself.
#define MYKIL_RECORDS(X)                                                   \
  X(AcInfo) X(AcDirectory) X(Ticket) X(TeslaParams) X(TeslaPacket)         \
  X(AreaMember) X(AreaSnapshot) X(AreaDelta) X(AcState) X(MemberState)     \
  X(RsState) X(CheckpointHeader) X(CheckpointBody) X(Checkpoint)

using Records = MYKIL_TYPE_LIST(MYKIL_RECORDS);

namespace schema {
MYKIL_RECORDS(MYKIL_LISTED)
}  // namespace schema

}  // namespace mykil::core
