// Checkpoint/restore gate (DESIGN.md 14.4).
//
// Part 1 — round trip: run a small live deployment, capture it, rebuild an
// identically-shaped deployment from the same seed, restore, and require
// the semantic digest (memberships, epochs, key fingerprints, rosters,
// map version) to come out byte-identical. The blob's size and SHA-256
// are pinned, and a truncated blob, or one with any single byte flipped,
// must be rejected and leave the fresh deployment as it was: restore is
// all or nothing.
//
// Part 2 — resume under fire: a dynamic-area chaos schedule that stops at
// half time, restores, resumes, and must still converge on every
// invariant, with a pinned blob size and digest.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/hex.h"
#include "crypto/sha256.h"
#include "mykil/checkpoint.h"
#include "mykil/group.h"
#include "workload/chaos.h"

using namespace mykil;

namespace {

int fail(const char* what) {
  std::printf("checkpoint_smoke: FAIL (%s)\n", what);
  return 1;
}

struct Sim {
  std::unique_ptr<net::Network> net;
  std::unique_ptr<core::MykilGroup> group;
  std::vector<std::unique_ptr<core::Member>> members;
};

Sim build(bool join) {
  Sim s;
  net::NetworkConfig ncfg;
  ncfg.seed = 11;
  s.net = std::make_unique<net::Network>(ncfg);
  core::GroupOptions gopt;
  gopt.seed = 11;
  gopt.with_backups = true;
  core::MykilGroup& g =
      *(s.group = std::make_unique<core::MykilGroup>(*s.net, gopt));
  g.add_area();
  g.add_area(0);
  g.add_spare_area();
  g.finalize();
  for (std::size_t i = 0; i < 8; ++i) {
    s.members.push_back(g.make_member(200 + i, net::sec(360000)));
    if (join) g.join_member(*s.members.back(), net::sec(360000));
  }
  return s;
}

std::vector<core::Member*> ptrs(const Sim& s) {
  std::vector<core::Member*> v;
  for (const auto& m : s.members) v.push_back(m.get());
  return v;
}

/// Everything a restore may change: the clock, the semantic digest and
/// every node's checkpoint record.
Bytes observable_state(Sim& s) {
  core::MykilGroup& g = *s.group;
  Bytes out = core::semantic_digest(g, ptrs(s));
  for (int shift = 56; shift >= 0; shift -= 8)
    out.push_back(static_cast<std::uint8_t>(s.net->now() >> shift));
  append(out, core::encode(g.rs().checkpoint_state()));
  for (std::size_t i = 0; i < g.area_count(); ++i) {
    append(out, core::encode(g.ac(i).checkpoint_state()));
    if (core::AreaController* b = g.backup(i))
      append(out, core::encode(b->checkpoint_state()));
  }
  for (core::Member* m : ptrs(s))
    append(out, core::encode(m->checkpoint_state()));
  return out;
}

}  // namespace

int main() {
  // ---- part 1: round trip ----
  Sim live = build(/*join=*/true);
  // Some churn so the snapshot is not the trivial post-join state: a move,
  // a leave (forces a rekey), and data traffic.
  live.members[0]->rejoin(live.group->ac(1).ac_id());
  live.group->settle(net::sec(2));
  live.members[1]->leave();
  live.group->settle(net::sec(2));
  live.members[2]->send_data(to_bytes("pre-checkpoint"));
  live.group->settle(net::sec(2));

  Bytes blob = core::capture_checkpoint(*live.group, ptrs(live));
  Bytes before = core::semantic_digest(*live.group, ptrs(live));

  core::CheckpointHeader h = core::read_checkpoint_header(blob);
  if (h.seed != 11 || h.member_count != 8)
    return fail("header does not describe the deployment");
  // The bytes the hand-written writers produced before the record schema.
  Bytes sha = crypto::Sha256::digest(blob);
  if (blob.size() != 17925 ||
      hex_encode(sha) !=
          "658031c11bad5f952c8a2d0387f6eaee26fede64ba54ef091e653d8f8a6179a4") {
    std::printf("checkpoint_smoke: %zu bytes, SHA-256 %s\n", blob.size(),
                hex_encode(sha).c_str());
    return fail("checkpoint bytes changed");
  }

  Sim fresh = build(/*join=*/false);
  // All or nothing: a truncated blob is rejected before the clock moves or
  // any node changes.
  const Bytes untouched = observable_state(fresh);
  std::vector<std::size_t> cuts = {0,  1,  8,  33, 34, 36, blob.size() / 2,
                                   blob.size() - 200, blob.size() - 1};
  for (std::size_t k = 1; k < 16; ++k) cuts.push_back(blob.size() * k / 16);
  for (std::size_t cut : cuts) {
    try {
      core::restore_checkpoint(*fresh.group, ptrs(fresh),
                               ByteView(blob).first(cut));
      return fail("a truncated checkpoint was restored");
    } catch (const Error&) {
    }
    if (observable_state(fresh) != untouched)
      return fail("a rejected checkpoint changed the deployment");
  }
  // Every single-byte flip is rejected: the header's digest covers the
  // body, and each header field is checked against the deployment.
  for (std::size_t i = 0; i < blob.size(); ++i) {
    Bytes flipped = blob;
    flipped[i] ^= 0xFF;
    try {
      core::restore_checkpoint(*fresh.group, ptrs(fresh), flipped);
      std::printf("checkpoint_smoke: byte %zu flipped\n", i);
      return fail("a corrupted checkpoint was restored");
    } catch (const Error&) {
    }
    if (i % 1024 == 0 && observable_state(fresh) != untouched)
      return fail("a rejected checkpoint changed the deployment");
  }
  if (observable_state(fresh) != untouched)
    return fail("a rejected checkpoint changed the deployment");
  core::restore_checkpoint(*fresh.group, ptrs(fresh), blob);
  Bytes after = core::semantic_digest(*fresh.group, ptrs(fresh));
  if (before != after) return fail("semantic digest did not round-trip");

  // The restored deployment must remain OPERABLE, not just equal: keys
  // still work end to end and a fresh rekey propagates.
  std::size_t recv_before = 0;
  for (core::Member* m : ptrs(fresh))
    recv_before += m->received_data().size();
  for (core::Member* m : ptrs(fresh))
    if (m->joined()) {
      m->send_data(to_bytes("post-restore"));
      break;
    }
  fresh.group->settle(net::sec(5));
  std::size_t recv_after = 0;
  for (core::Member* m : ptrs(fresh))
    recv_after += m->received_data().size();
  if (recv_after <= recv_before)
    return fail("restored members cannot exchange data");

  std::printf("checkpoint_smoke: round trip OK (%zu bytes, digest match, "
              "data flows, %zu truncations and %zu byte flips rejected "
              "cleanly)\n",
              blob.size(), cuts.size(), blob.size());

  // ---- part 2: resume under fire ----
  workload::ChaosOptions copt;
  copt.seed = 5;
  copt.dynamic_areas = true;
  copt.checkpoint_restore = true;
  workload::ChaosReport cr = workload::run_chaos(copt);
  if (!cr.restored) return fail("chaos run never checkpointed");
  if (cr.checkpoint_bytes == 0) return fail("empty checkpoint blob");
  if (!cr.converged()) return fail("restored chaos run did not converge");
  if (cr.checkpoint_bytes != 46873 || cr.digest != 0xfb68f0653ecc139e) {
    std::printf("checkpoint_smoke: chaos %zu bytes, digest %016llx\n",
                cr.checkpoint_bytes,
                static_cast<unsigned long long>(cr.digest));
    return fail("chaos checkpoint size or digest changed");
  }
  std::printf("checkpoint_smoke: chaos resume OK (%zu bytes, digest "
              "%016llx)\n",
              cr.checkpoint_bytes,
              static_cast<unsigned long long>(cr.digest));
  std::printf("checkpoint_smoke: OK\n");
  return 0;
}
