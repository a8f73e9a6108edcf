#include "lkh/rekey.h"

#include "common/error.h"
#include "common/wire.h"

namespace mykil::lkh {

Bytes RekeyMessage::serialize() const {
  WireWriter w;
  // Exact output size: header + fixed fields + length-prefixed boxes. Large
  // batched rekeys carry thousands of entries; one allocation, no regrowth.
  std::size_t need = 8 + 4;
  for (const RekeyEntry& e : entries) need += 4 + 8 + 4 + 4 + e.box.size();
  w.reserve(need);
  w.u64(epoch);
  w.u32(static_cast<std::uint32_t>(entries.size()));
  for (const RekeyEntry& e : entries) {
    w.u32(e.target);
    w.u64(e.version);
    w.u32(e.encrypted_under);
    w.bytes(e.box);
  }
  return w.take();
}

RekeyMessage RekeyMessage::deserialize(ByteView data) {
  WireReader r(data);
  RekeyMessage msg;
  msg.epoch = r.u64();
  std::uint32_t n = r.u32();
  // An entry occupies at least 20 bytes on the wire; a count that cannot
  // fit in the remaining buffer is hostile — reject before reserving.
  constexpr std::size_t kMinEntryBytes = 4 + 8 + 4 + 4;
  if (n > r.remaining() / kMinEntryBytes)
    throw WireError("rekey entry count exceeds buffer");
  msg.entries.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    RekeyEntry e;
    e.target = r.u32();
    e.version = r.u64();
    e.encrypted_under = r.u32();
    e.box = r.bytes();
    msg.entries.push_back(std::move(e));
  }
  r.expect_done();
  return msg;
}

Bytes serialize_path(const std::vector<PathKey>& path) {
  WireWriter w;
  w.reserve(4 + path.size() * (4 + 8 + crypto::SymmetricKey::kSize));
  w.u32(static_cast<std::uint32_t>(path.size()));
  for (const PathKey& pk : path) {
    w.u32(pk.node);
    w.u64(pk.version);
    w.raw(pk.key.bytes());
  }
  return w.take();
}

std::vector<PathKey> deserialize_path(ByteView data) {
  WireReader r(data);
  std::uint32_t n = r.u32();
  constexpr std::size_t kPathKeyBytes = 4 + 8 + crypto::SymmetricKey::kSize;
  if (n > r.remaining() / kPathKeyBytes)
    throw WireError("path length exceeds buffer");
  std::vector<PathKey> path;
  path.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    PathKey pk;
    pk.node = r.u32();
    pk.version = r.u64();
    pk.key = crypto::SymmetricKey(r.take(crypto::SymmetricKey::kSize));
    path.push_back(std::move(pk));
  }
  r.expect_done();
  return path;
}

}  // namespace mykil::lkh
