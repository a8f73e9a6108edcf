// Checkpoint/restore for a whole Mykil deployment (DESIGN.md 14.4).
//
// A checkpoint serializes only DYNAMIC protocol state (memberships, key
// trees, tickets, the versioned directory, counters). All key MATERIAL —
// RSA keypairs, K_shared, every Prng — is a pure function of the group
// seed and construction call order, so restore works by rebuilding an
// identically-shaped deployment from the same seed and then overlaying
// the captured state onto it. Restored Prngs are tweaked so the resumed
// run's randomness diverges from the original's future (two executions of
// "the same" nonce stream would be a replay hazard, not a feature).
//
// Equivalence is semantic, not bit-level: in-flight handshakes restart,
// liveness clocks get a grace reset, and the simulated clock is advanced
// to the capture time so timestamps stay coherent.
#pragma once

#include "mykil/group.h"
#include "mykil/member.h"
#include "mykil/records.h"

namespace mykil::core {

/// Serialize the full deployment as a Checkpoint record: RS, every AC pair
/// (spares included), and `members` (in the order they were created).
[[nodiscard]] Bytes capture_checkpoint(MykilGroup& group,
                                       const std::vector<Member*>& members);

/// Decode a checkpoint and return its header (e.g. to rebuild the right
/// shape before restoring). Throws ProtocolError on a bad magic or a digest
/// that does not match the body, WireError on a malformed blob.
[[nodiscard]] CheckpointHeader read_checkpoint_header(ByteView blob);

/// Overlay a captured snapshot onto a freshly constructed deployment of
/// the same seed and shape. All or nothing: the blob's digest is checked,
/// then the blob is decoded and checked against the deployment (seed,
/// counts, backup layout, member order, each key tree) before the clock
/// advances to the capture time and any node changes. Throws ProtocolError
/// on a mismatch, WireError on a bad blob.
void restore_checkpoint(MykilGroup& group, const std::vector<Member*>& members,
                        ByteView blob);

/// Digest of the protocol-visible state (per-member membership, epoch and
/// group-key fingerprint; per-area epoch and roster size; RS map version).
/// Equal before capture and after restore — the round-trip invariant.
[[nodiscard]] Bytes semantic_digest(MykilGroup& group,
                                    const std::vector<Member*>& members);

}  // namespace mykil::core
