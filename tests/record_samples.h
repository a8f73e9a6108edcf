// One fixed instance of every record in core::Records, with the hex its
// fields encode to. The hex was recorded from the hand-written writers the
// records replaced (the directory, ticket and TESLA serializers, the AC's
// snapshot writer, the three checkpoint_state writers and
// capture_checkpoint), so it pins the bytes independently of the schema's
// own encoder. AreaDelta and the checkpoint's header/digest/body layout
// replaced no writer: a separate script packed their bytes from the layout
// in DESIGN.md 3.7, re-using the recorded bytes of the records inside. A record without a sample() overload here does not compile
// in the tests that iterate core::Records.
#pragma once

#include <cstdint>
#include <string_view>
#include <type_traits>

#include "common/hex.h"
#include "lkh/member_state.h"
#include "mykil/records.h"
#include "wire_samples.h"

namespace mykil::core::samples {

/// core::Records as a gtest type list.
using RecordTypes = GtestTypes<Records>::type;

/// R's position in core::Records: a fuzz seed of its own.
template <typename R, typename... L>
constexpr std::uint64_t index_in(TypeList<L...>) {
  std::uint64_t i = 0;
  (void)((std::is_same_v<R, L> ? false : (++i, true)) && ...);
  return i;
}

inline AcInfo sample_ac_info() { return sample_directory().entries().front(); }

inline AcDirectory sample_two_area_directory() {
  AcDirectory dir = sample_directory();
  dir.add({.ac_id = kAcIdBase + 2,
           .node = 7,
           .group = 8,
           .pubkey = to_bytes("ac2-pk"),
           .backup_node = net::kNoNode,
           .backup_pubkey = {}});
  return dir;
}

inline AreaMember sample_area_member() {
  return {.node = 9,
          .pubkey = to_bytes("pk-7"),
          .sealed_ticket = to_bytes("tk-7"),
          .valid_until = 3'600'000'000};
}

inline AreaSnapshot sample_area_snapshot() {
  return {.area_group = 5,
          .parent = kAcIdBase + 1,
          .rekey_epoch = 14,
          .tree = to_bytes("tree"),
          .members = {{7, sample_area_member()},
                      {8, {.node = 10,
                           .pubkey = to_bytes("pk-8"),
                           .sealed_ticket = to_bytes("tk-8"),
                           .valid_until = 0}}}};
}

inline AcState sample_ac_state() {
  return {.role = AcRole::kPrimary,
          .open = true,
          .takeover_epoch = 2,
          .rekey_epoch = 14,
          .sync_version = 16,
          .peer_sync_version = 0,
          .got_snapshot = false,
          .latest_snapshot = {},
          .backup_node = 6,
          .peer_node = 6,
          .directory = sample_directory(),
          .latest_map_payload = to_bytes("map-envelope"),
          .parent_hint = kNoAc,
          .rs_node = 1,
          .snapshot = sample_area_snapshot(),
          .departed_tickets = {{9, to_bytes("tk-9")}, {11, to_bytes("tk-11")}}};
}

/// A standby that holds a snapshot as received, and no snapshot of its own.
inline AcState sample_standby_state() {
  return {.role = AcRole::kBackup,
          .open = false,
          .takeover_epoch = 2,
          .rekey_epoch = 0,
          .sync_version = 0,
          .peer_sync_version = 16,
          .got_snapshot = true,
          .latest_snapshot = to_bytes("snapshot"),
          .backup_node = net::kNoNode,
          .peer_node = 4,
          .directory = {},
          .latest_map_payload = {},
          .parent_hint = kNoAc,
          .rs_node = 1,
          .snapshot = std::nullopt,
          .departed_tickets = {}};
}

inline MemberState sample_member_state() {
  lkh::MemberKeyState keys;
  keys.install(sample_path());
  return {.phase = MemberPhase::kJoined,
          .rs_node = 1,
          .requested_duration = 3'600'000'000,
          .ac = kAcIdBase + 1,
          .ac_node = 4,
          .area_group = 5,
          .area_epoch = 14,
          .rejoin_target = kNoAc,
          .sealed_ticket = to_bytes("sealed-ticket"),
          .directory = sample_directory(),
          .keys = keys,
          .watchdog_rejoins = 1,
          .key_recoveries = 2,
          .migrations = 3};
}

inline RsState sample_rs_state() {
  return {.directory = sample_directory(),
          .auth_db = {{7, 3'600'000'000}, {8, 60'000'000}},
          .assigned = {{kAcIdBase + 1, 2}},
          .next_area = 1,
          .completed = 2,
          .rejected = 0,
          .sheds = 1,
          .splits = 1,
          .merges = 0,
          .timeouts = 0,
          .spares = {{.ac_id = kAcIdBase + 3,
                      .node = 12,
                      .group = 13,
                      .pubkey = to_bytes("sp-pk"),
                      .backup_node = net::kNoNode,
                      .backup_pubkey = {}}},
          .dynamic = {kAcIdBase + 2, kAcIdBase + 3}};
}

inline CheckpointBody sample_checkpoint_body() {
  CheckpointBody body;
  body.captured_at = 5'000'000;
  body.rs = sample_rs_state();
  body.areas.push_back({.primary = sample_ac_state(),
                        .backup = sample_standby_state()});
  body.areas.push_back({.primary = sample_standby_state(),
                        .backup = std::nullopt});
  body.members.push_back({.client_id = 7, .state = sample_member_state()});
  return body;
}

/// The header of sample_checkpoint_body(): its digest is that body's.
inline CheckpointHeader sample_checkpoint_header() {
  return {.magic = CheckpointHeader::kMagic,
          .seed = 11,
          .area_count = 2,
          .member_count = 1,
          .with_backups = true,
          .digest = hex_decode(
              "0930b82f73a4e897d7aeedb4b48e6abbec622a630155739282c3ddd30b76948e")};
}

inline Sample<AcInfo> sample(Tag<AcInfo>) {
  return {sample_ac_info(),
          "414300000000000100000004000000050000000561632d706b00000006000000"
          "05626b2d706b"};
}

inline Sample<AcDirectory> sample(Tag<AcDirectory>) {
  return {sample_two_area_directory(),
          "0000000000000003000000024143000000000001000000040000000500000005"
          "61632d706b0000000600000005626b2d706b4143000000000002000000070000"
          "0008000000066163322d706bffffffff00000000"};
}

inline Sample<Ticket> sample(Tag<Ticket>) {
  return {Ticket{.join_time = 100'000'000,
                 .valid_until = 4'000'000'000,
                 .member_id = 0xAABBCCDDEE01,
                 .member_pubkey = to_bytes("pub-k"),
                 .last_ac = kAcIdBase + 1},
          "0000000005f5e10000000000ee6b28000000aabbccddee01000000057075622d"
          "6b4143000000000001"};
}

inline Sample<TeslaParams> sample(Tag<TeslaParams>) {
  return {TeslaParams{.anchor = to_bytes("anchor"),
                      .start = 0,
                      .interval = 100'000,
                      .disclosure_lag = 2,
                      .chain_length = 100},
          "00000006616e63686f72000000000000000000000000000186a0000000020000"
          "000000000064"};
}

inline Sample<TeslaPacket> sample(Tag<TeslaPacket>) {
  return {TeslaPacket{.interval = 3,
                      .payload = to_bytes("hello"),
                      .mac = to_bytes("mac"),
                      .disclosed_index = 1,
                      .disclosed_key = to_bytes("k1")},
          "000000030000000568656c6c6f000000036d616300000001000000026b31"};
}

inline Sample<AreaMember> sample(Tag<AreaMember>) {
  return {sample_area_member(),
          "0000000900000004706b2d3700000004746b2d3700000000d693a400"};
}

inline Sample<AreaSnapshot> sample(Tag<AreaSnapshot>) {
  return {sample_area_snapshot(),
          "000000054143000000000001000000000000000e000000047472656500000002"
          "00000000000000070000000900000004706b2d3700000004746b2d3700000000"
          "d693a40000000000000000080000000a00000004706b2d3800000004746b2d38"
          "0000000000000000"};
}

inline Sample<AreaDelta> sample(Tag<AreaDelta>) {
  return {sample_area_delta(),
          "0000000000000010000000000000001100000005414300000000000100000000"
          "0000000f0000000a747265652d64656c74610000000100000000000000070000"
          "000900000004706b2d3700000004746b2d3700000000d693a400000000010000"
          "000000000008"};
}

inline Sample<AcState> sample(Tag<AcState>) {
  return {sample_ac_state(),
          "00010000000000000002000000000000000e0000000000000010000000000000"
          "0000000000000000000006000000060000003200000000000000030000000141"
          "4300000000000100000004000000050000000561632d706b0000000600000005"
          "626b2d706b0000000c6d61702d656e76656c6f7065ffffffffffffffff000000"
          "010100000068000000054143000000000001000000000000000e000000047472"
          "65650000000200000000000000070000000900000004706b2d3700000004746b"
          "2d3700000000d693a40000000000000000080000000a00000004706b2d380000"
          "0004746b2d38000000000000000000000002000000000000000900000004746b"
          "2d39000000000000000b00000005746b2d3131"};
}

inline Sample<MemberState> sample(Tag<MemberState>) {
  return {sample_member_state(),
          "010000000100000000d693a40041430000000000010000000400000005000000"
          "000000000effffffffffffffff0000000d7365616c65642d7469636b65740000"
          "0032000000000000000300000001414300000000000100000004000000050000"
          "000561632d706b0000000600000005626b2d706b000000450000000200000000"
          "0000000000000002000000101010101010101010101010101010101000000003"
          "0000000000000001000000102020202020202020202020202020202000000000"
          "000000000100000000000000020000000000000003"};
}

inline Sample<RsState> sample(Tag<RsState>) {
  return {sample_rs_state(),
          "0000003200000000000000030000000141430000000000010000000400000005"
          "0000000561632d706b0000000600000005626b2d706b00000002000000000000"
          "000700000000d693a40000000000000000080000000003938700000000014143"
          "0000000000010000000000000002000000000000000100000000000000020000"
          "0000000000000000000000000001000000000000000100000000000000000000"
          "0000000000000000000141430000000000030000000c0000000d000000057370"
          "2d706bffffffff000000000000000241430000000000024143000000000003"};
}

inline Sample<CheckpointHeader> sample(Tag<CheckpointHeader>) {
  return {sample_checkpoint_header(),
          "4d594b494c434b31000000000000000b000000020000000101000000200930b8"
          "2f73a4e897d7aeedb4b48e6abbec622a630155739282c3ddd30b76948e"};
}

inline Sample<CheckpointBody> sample(Tag<CheckpointBody>) {
  return {sample_checkpoint_body(),
          "00000000004c4b40000000df0000003200000000000000030000000141430000"
          "0000000100000004000000050000000561632d706b0000000600000005626b2d"
          "706b00000002000000000000000700000000d693a40000000000000000080000"
          "0000039387000000000141430000000000010000000000000002000000000000"
          "0001000000000000000200000000000000000000000000000001000000000000"
          "0001000000000000000000000000000000000000000141430000000000030000"
          "000c0000000d0000000573702d706bffffffff00000000000000024143000000"
          "0000024143000000000003000000020000011300010000000000000002000000"
          "000000000e000000000000001000000000000000000000000000000000060000"
          "0006000000320000000000000003000000014143000000000001000000040000"
          "00050000000561632d706b0000000600000005626b2d706b0000000c6d61702d"
          "656e76656c6f7065ffffffffffffffff00000001010000006800000005414300"
          "0000000001000000000000000e00000004747265650000000200000000000000"
          "070000000900000004706b2d3700000004746b2d3700000000d693a400000000"
          "00000000080000000a00000004706b2d3800000004746b2d3800000000000000"
          "0000000002000000000000000900000004746b2d39000000000000000b000000"
          "05746b2d3131010000005c010000000000000000020000000000000000000000"
          "000000000000000000000000100100000008736e617073686f74ffffffff0000"
          "00040000000c00000000000000000000000000000000ffffffffffffffff0000"
          "000100000000000000005c010000000000000000020000000000000000000000"
          "000000000000000000000000100100000008736e617073686f74ffffffff0000"
          "00040000000c00000000000000000000000000000000ffffffffffffffff0000"
          "0001000000000000000000010000000000000007000000d50100000001000000"
          "00d693a40041430000000000010000000400000005000000000000000effffff"
          "ffffffffff0000000d7365616c65642d7469636b657400000032000000000000"
          "000300000001414300000000000100000004000000050000000561632d706b00"
          "00000600000005626b2d706b0000004500000002000000000000000000000002"
          "0000001010101010101010101010101010101010000000030000000000000001"
          "0000001020202020202020202020202020202020000000000000000001000000"
          "00000000020000000000000003"};
}

inline Sample<Checkpoint> sample(Tag<Checkpoint>) {
  return {Checkpoint{.header = sample_checkpoint_header(),
                     .body = encode(sample_checkpoint_body())},
          "4d594b494c434b31000000000000000b000000020000000101000000200930b8"
          "2f73a4e897d7aeedb4b48e6abbec622a630155739282c3ddd30b76948e000003"
          "ad00000000004c4b40000000df00000032000000000000000300000001414300"
          "000000000100000004000000050000000561632d706b0000000600000005626b"
          "2d706b00000002000000000000000700000000d693a400000000000000000800"
          "0000000393870000000001414300000000000100000000000000020000000000"
          "0000010000000000000002000000000000000000000000000000010000000000"
          "0000010000000000000000000000000000000000000001414300000000000300"
          "00000c0000000d0000000573702d706bffffffff000000000000000241430000"
          "0000000241430000000000030000000200000113000100000000000000020000"
          "00000000000e0000000000000010000000000000000000000000000000000600"
          "0000060000003200000000000000030000000141430000000000010000000400"
          "0000050000000561632d706b0000000600000005626b2d706b0000000c6d6170"
          "2d656e76656c6f7065ffffffffffffffff000000010100000068000000054143"
          "000000000001000000000000000e000000047472656500000002000000000000"
          "00070000000900000004706b2d3700000004746b2d3700000000d693a4000000"
          "0000000000080000000a00000004706b2d3800000004746b2d38000000000000"
          "000000000002000000000000000900000004746b2d39000000000000000b0000"
          "0005746b2d3131010000005c0100000000000000000200000000000000000000"
          "00000000000000000000000000100100000008736e617073686f74ffffffff00"
          "0000040000000c00000000000000000000000000000000ffffffffffffffff00"
          "00000100000000000000005c0100000000000000000200000000000000000000"
          "00000000000000000000000000100100000008736e617073686f74ffffffff00"
          "0000040000000c00000000000000000000000000000000ffffffffffffffff00"
          "000001000000000000000000010000000000000007000000d501000000010000"
          "0000d693a40041430000000000010000000400000005000000000000000effff"
          "ffffffffffff0000000d7365616c65642d7469636b6574000000320000000000"
          "00000300000001414300000000000100000004000000050000000561632d706b"
          "0000000600000005626b2d706b00000045000000020000000000000000000000"
          "0200000010101010101010101010101010101010100000000300000000000000"
          "0100000010202020202020202020202020202020200000000000000000010000"
          "0000000000020000000000000003"};
}

}  // namespace mykil::core::samples
