#include "mykil/checkpoint.h"

#include "common/error.h"
#include "crypto/sha256.h"
#include "lkh/key_tree.h"

namespace mykil::core {

namespace {

/// The formats an AC's record carries as bytes, checked before anything
/// changes: a restore that failed half-way would leave a mixed deployment.
void check_nested(const AcState& s) {
  if (s.snapshot)
    (void)lkh::KeyTree::deserialize(s.snapshot->tree, crypto::Prng(0));
  if (s.got_snapshot && !s.latest_snapshot.empty())
    (void)decode<AreaSnapshot>(s.latest_snapshot);
}

}  // namespace

Bytes capture_checkpoint(MykilGroup& group,
                         const std::vector<Member*>& members) {
  CheckpointBody body;
  body.captured_at = group.network().now();
  body.rs = group.rs().checkpoint_state();
  for (std::size_t i = 0; i < group.area_count(); ++i) {
    AreaCheckpoint& area = body.areas.emplace_back();
    area.primary = group.ac(i).checkpoint_state();
    if (AreaController* b = group.backup(i))
      area.backup = b->checkpoint_state();
  }
  for (Member* m : members)
    body.members.push_back({m->client_id(), m->checkpoint_state()});
  CheckpointHeader header;
  header.seed = group.options().seed;
  header.area_count = static_cast<std::uint32_t>(group.area_count());
  header.member_count = static_cast<std::uint32_t>(members.size());
  header.with_backups = group.options().with_backups;
  return encode(Checkpoint::of(std::move(header), body));
}

CheckpointHeader read_checkpoint_header(ByteView blob) {
  return decode<Checkpoint>(blob).header;
}

void restore_checkpoint(MykilGroup& group, const std::vector<Member*>& members,
                        ByteView blob) {
  Checkpoint ck = decode<Checkpoint>(blob);  // the digest is checked first
  const CheckpointHeader& h = ck.header;
  if (h.seed != group.options().seed)
    throw ProtocolError("checkpoint seed does not match the deployment");
  if (h.area_count != group.area_count() || h.member_count != members.size())
    throw ProtocolError("checkpoint shape does not match the deployment");
  if (h.with_backups != group.options().with_backups)
    throw ProtocolError("checkpoint replication mode mismatch");
  CheckpointBody body = decode<CheckpointBody>(ck.body);
  if (body.areas.size() != h.area_count ||
      body.members.size() != h.member_count)
    throw ProtocolError("checkpoint body does not match its header");
  for (std::size_t i = 0; i < group.area_count(); ++i) {
    const AreaCheckpoint& area = body.areas[i];
    if (area.backup.has_value() != (group.backup(i) != nullptr))
      throw ProtocolError("checkpoint backup layout mismatch");
    check_nested(area.primary);
    if (area.backup) check_nested(*area.backup);
  }
  for (std::size_t i = 0; i < members.size(); ++i)
    if (body.members[i].client_id != members[i]->client_id())
      throw ProtocolError("checkpoint member order mismatch");

  // Advance the fresh simulation to the capture time so every restored
  // timestamp (ticket validity, ts-window checks) stays in the past where
  // it belongs. The fresh deployment is quiescent, so this is cheap.
  if (group.network().now() < body.captured_at)
    group.network().run_until(body.captured_at);

  // Order matters: the RS first (ACs may immediately report load against
  // the restored directory), then AC pairs (primary before backup, so the
  // first post-restore state-sync lands on a restored peer), then members.
  group.rs().restore_state(std::move(body.rs));
  for (std::size_t i = 0; i < group.area_count(); ++i) {
    AreaCheckpoint& area = body.areas[i];
    group.ac(i).restore_state(std::move(area.primary));
    if (area.backup) group.backup(i)->restore_state(std::move(*area.backup));
  }
  for (std::size_t i = 0; i < members.size(); ++i)
    members[i]->restore_state(std::move(body.members[i].state));
}

Bytes semantic_digest(MykilGroup& group, const std::vector<Member*>& members) {
  WireWriter w;
  w.u64(group.rs().map_version());
  w.u64(group.rs().completed_registrations());
  for (std::size_t i = 0; i < group.area_count(); ++i) {
    AreaController& ac = group.ac(i);
    w.u64(ac.ac_id());
    w.u64(ac.rekey_epoch());
    w.u8(ac.active_in_map() ? 1 : 0);
    std::vector<ClientId> ids = ac.member_ids();
    std::sort(ids.begin(), ids.end());
    w.u32(static_cast<std::uint32_t>(ids.size()));
    for (ClientId c : ids) w.u64(c);
  }
  for (Member* m : members) {
    w.u64(m->client_id());
    w.u8(m->joined() ? 1 : 0);
    w.u64(m->joined() ? m->current_ac() : 0);
    w.u64(m->area_epoch());
    if (m->joined()) w.u64(m->keys().group_key().fingerprint());
  }
  return crypto::Sha256::digest(w.data());
}

}  // namespace mykil::core
