// Directory of area controllers.
//
// The paper has the registration server "provide a list of all area
// controllers' addresses and public keys when a member registers" (Section
// IV-B) — members use it to find a new AC when moving, ACs use it as their
// preferred-parent list (Section IV-C), and everyone verifies AC signatures
// against it. It also stands in for the out-of-scope "authorization
// information database AI": an AC is legitimate iff it is listed.
//
// Each entry carries the optional backup replica so that clients can
// authenticate a takeover announcement (Section IV-C).
#pragma once

#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "crypto/rsa.h"
#include "mykil/schema.h"
#include "mykil/ticket.h"
#include "net/message.h"

namespace mykil::core {

struct AcInfo {
  AcId ac_id = 0;
  net::NodeId node = net::kNoNode;
  /// The area's multicast group (its "IP multicast address"): clients
  /// subscribe before completing a join so no rekey slips past them.
  net::GroupId group = 0;
  Bytes pubkey;  ///< serialized RsaPublicKey of the (current) primary
  net::NodeId backup_node = net::kNoNode;
  Bytes backup_pubkey;  ///< empty if unreplicated
  MYKIL_FIELDS(ac_id, node, group, pubkey, backup_node, backup_pubkey)

  [[nodiscard]] bool has_backup() const { return backup_node != net::kNoNode; }
};

class AcDirectory {
 public:
  void add(AcInfo info);
  /// Remove the entry for `ac_id` (area drained by a merge). No-op when the
  /// id is unknown.
  void remove(AcId ac_id);
  [[nodiscard]] const AcInfo* find(AcId ac_id) const;
  [[nodiscard]] const std::vector<AcInfo>& entries() const { return entries_; }
  [[nodiscard]] bool empty() const { return entries_.empty(); }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  /// Map version (DESIGN.md 14.1). The registration server bumps it on every
  /// split/merge; everyone else only ever adopts strictly newer maps.
  [[nodiscard]] std::uint64_t version() const { return version_; }
  void set_version(std::uint64_t v) { version_ = v; }

  /// Replace this directory's contents with a newer map from the RS while
  /// preserving the local primary/backup orientation: the RS may have missed
  /// a takeover we already observed, so if our entry for an AC is the exact
  /// role-swap of the incoming one, keep ours swapped. Only applies when
  /// `fresh` is strictly newer; returns whether the map was adopted.
  bool adopt(const AcDirectory& fresh);

  /// Promote the backup of `ac_id` to primary (after a takeover message),
  /// demoting the previous primary to backup — the two roles swap, so
  /// alternating takeovers keep working. No-op if the entry is unknown or
  /// has no backup.
  void promote_backup(AcId ac_id);

  /// Verify that `sig` over `data` was produced by the primary OR backup
  /// key registered for `ac_id`.
  [[nodiscard]] bool verify(AcId ac_id, ByteView data, ByteView sig) const;

  /// The wire form: version, then the entries. A decoded directory passes
  /// add()'s check: no AC id twice.
  MYKIL_RECORD(version_, entries_)
  void validate() const;

 private:
  std::uint64_t version_ = 0;
  std::vector<AcInfo> entries_;
};

}  // namespace mykil::core
