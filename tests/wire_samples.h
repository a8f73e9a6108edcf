// One fixed instance of every schema message, with the hex its fields
// encode to and the first 8 bytes (hex) of SHA-256 over the packet that
// wrap_sample() builds from it. Both were recorded from the hand-written
// writers the schema replaced, so they pin the wire bytes independently of
// the schema's own encoder. StateDelta replaced no writer: its fields were
// packed by a separate script from the layout in DESIGN.md 3.7, and its
// packet was sealed and enveloped by hand (sym_seal, envelope). A message
// without a sample() overload here does not compile in the tests that
// iterate core::Messages.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <cxxabi.h>
#include <string>
#include <string_view>
#include <typeinfo>

#include <gtest/gtest.h>

#include "crypto/prng.h"
#include "crypto/rsa.h"
#include "mykil/messages.h"

namespace mykil::core::samples {

/// Overload tag: sample(Tag<M>) is found by argument-dependent lookup.
template <typename M>
struct Tag {};

template <typename M>
struct Sample {
  M value;
  std::string_view fields_hex;
  std::string_view packet_sha = {};  ///< messages only: see wrap_sample()
};

template <typename M>
Sample<M> sample() {
  return sample(Tag<M>{});
}

/// The keys and the per-type PRNG seed the recorded packets were built with.
struct SampleKeys {
  crypto::RsaKeyPair recipient;
  crypto::RsaKeyPair signer;
  crypto::SymmetricKey shared{Bytes(16, 0x5A)};
};

inline const SampleKeys& sample_keys() {
  static const SampleKeys keys = [] {
    crypto::Prng prng(0x5EED);
    SampleKeys k;
    k.recipient = crypto::rsa_generate(768, prng);
    k.signer = crypto::rsa_generate(768, prng);
    return k;
  }();
  return keys;
}

/// Wrap `m` under its protection with the sample keys.
template <typename M>
Bytes wrap_sample(const M& m) {
  const SampleKeys& k = sample_keys();
  crypto::Prng prng(static_cast<std::uint64_t>(M::kType));
  constexpr Protection p = M::kProtection;
  if constexpr (p == Protection::kSealed)
    return wrap(m, k.recipient.pub, prng);
  else if constexpr (p == Protection::kSealedSigned)
    return wrap(m, k.recipient.pub, prng, k.signer.priv);
  else if constexpr (p == Protection::kShared)
    return wrap(m, k.shared, prng);
  else if constexpr (is_signed(p))
    return wrap(m, k.signer.priv);
  else
    return wrap(m);
}

template <typename M>
M unwrap_sample(const EnvelopeView& env) {
  const SampleKeys& k = sample_keys();
  if constexpr (is_sealed(M::kProtection))
    return unwrap<M>(env, k.recipient.priv);
  else if constexpr (M::kProtection == Protection::kShared)
    return unwrap<M>(env, k.shared);
  else
    return unwrap<M>(env);
}

template <typename L>
struct GtestTypes;
template <typename... M>
struct GtestTypes<TypeList<M...>> {
  using type = ::testing::Types<M...>;
};
/// core::Messages as a gtest type list.
using SchemaTypes = GtestTypes<Messages>::type;

/// Names each typed test after its format ("WireSchema/JoinStep1.X").
struct FormatName {
  template <typename M>
  static std::string GetName(int) {
    int status = 0;
    char* full = abi::__cxa_demangle(typeid(M).name(), nullptr, nullptr,
                                     &status);
    std::string name = full != nullptr ? full : typeid(M).name();
    std::free(full);
    return name.substr(name.rfind(':') + 1);
  }
};

inline KeyPath sample_path() {
  return {{0, 2, crypto::SymmetricKey(Bytes(16, 0x10))},
          {3, 1, crypto::SymmetricKey(Bytes(16, 0x20))}};
}

inline AcDirectory sample_directory() {
  AcDirectory dir;
  dir.add({.ac_id = kAcIdBase + 1,
           .node = 4,
           .group = 5,
           .pubkey = to_bytes("ac-pk"),
           .backup_node = 6,
           .backup_pubkey = to_bytes("bk-pk")});
  dir.set_version(3);
  return dir;
}

inline Sample<JoinStep1> sample(Tag<JoinStep1>) {
  return {JoinStep1{.client_id = 7,
                    .duration = 3'600'000'000,
                    .client_pubkey = to_bytes("pub-k"),
                    .nonce_cw = 0xC0FFEE},
          "000000000000000700000000d693a400000000057075622d6b0000000000c0ff"
          "ee",
          "a8f2f5dba736f296"};
}

inline Sample<JoinStep2> sample(Tag<JoinStep2>) {
  return {JoinStep2{.nonce_cw_plus1 = 0xC0FFEF, .nonce_wc = 0xBEEF},
          "0000000000c0ffef000000000000beef",
          "239f81528089fc91"};
}

inline Sample<JoinStep3> sample(Tag<JoinStep3>) {
  return {JoinStep3{.nonce_wc_plus1 = 0xBEF0},
          "000000000000bef0",
          "f90296827df5c359"};
}

inline Sample<JoinStep4> sample(Tag<JoinStep4>) {
  return {JoinStep4{.nonce_ac = 0xAC,
                    .client_id = 7,
                    .ts = 5'000'000,
                    .client_pubkey = to_bytes("pub-k"),
                    .duration = 3'600'000'000},
          "00000000000000ac000000000000000700000000004c4b40000000057075622d"
          "6b00000000d693a400",
          "ccf06350e4eaa3fb"};
}

inline Sample<JoinStep5> sample(Tag<JoinStep5>) {
  return {JoinStep5{.nonce_ac_plus1 = 0xAD,
                    .ac_id = kAcIdBase + 1,
                    .ac_node = 4,
                    .ac_pubkey = to_bytes("ac-pk"),
                    .directory = sample_directory()},
          "00000000000000ad4143000000000001000000040000000561632d706b000000"
          "3200000000000000030000000141430000000000010000000400000005000000"
          "0561632d706b0000000600000005626b2d706b",
          "2dc28506d1837107"};
}

inline Sample<JoinStep6> sample(Tag<JoinStep6>) {
  return {JoinStep6{.nonce_ac_plus2 = 0xAE, .nonce_ca = 0xCA},
          "00000000000000ae00000000000000ca",
          "76dc797e676fbcfe"};
}

inline Sample<JoinStep7> sample(Tag<JoinStep7>) {
  return {JoinStep7{.nonce_ca_plus1 = 0xCB,
                    .ticket = to_bytes("sealed-ticket"),
                    .ac_id = kAcIdBase + 1,
                    .group = 5,
                    .path = sample_path(),
                    .epoch = (std::uint64_t{1} << 40) | 9},
          "00000000000000cb0000000d7365616c65642d7469636b657441430000000000"
          "01000000050000003c0000000200000000000000000000000210101010101010"
          "1010101010101010100000000300000000000000012020202020202020202020"
          "20202020200000010000000009",
          "e97c508fbfd435ed"};
}

inline Sample<RejoinStep1> sample(Tag<RejoinStep1>) {
  return {RejoinStep1{.nonce_cb = 0xCB0,
                      .client_id = 7,
                      .ticket = to_bytes("sealed-ticket")},
          "0000000000000cb000000000000000070000000d7365616c65642d7469636b65"
          "74",
          "63774e30987faa4d"};
}

inline Sample<RejoinStep2> sample(Tag<RejoinStep2>) {
  return {RejoinStep2{.nonce_cb_plus1 = 0xCB1, .nonce_bc = 0xBC},
          "0000000000000cb100000000000000bc",
          "1fab69dd9f002aa6"};
}

inline Sample<RejoinStep3> sample(Tag<RejoinStep3>) {
  return {RejoinStep3{.nonce_bc_plus1 = 0xBD},
          "00000000000000bd",
          "34fbd1716ef5d4da"};
}

inline Sample<RejoinStep4> sample(Tag<RejoinStep4>) {
  return {RejoinStep4{.requester = kAcIdBase + 2, .client_id = 7, .ts = 5'000'000},
          "4143000000000002000000000000000700000000004c4b40",
          "1b32a91347f8488e"};
}

inline Sample<RejoinStep5> sample(Tag<RejoinStep5>) {
  return {RejoinStep5{.responder = kAcIdBase + 1,
                      .client_id = 7,
                      .gone = true,
                      .ticket = to_bytes("sealed-ticket"),
                      .ts = 5'000'001},
          "41430000000000010000000000000007010000000d7365616c65642d7469636b"
          "657400000000004c4b41",
          "4ecb2b99834cc14d"};
}

inline Sample<RejoinStep6> sample(Tag<RejoinStep6>) {
  return {RejoinStep6{.ticket = to_bytes("sealed-ticket"),
                      .ac_id = kAcIdBase + 2,
                      .group = 8,
                      .path = sample_path(),
                      .epoch = 12},
          "0000000d7365616c65642d7469636b6574414300000000000200000008000000"
          "3c00000002000000000000000000000002101010101010101010101010101010"
          "1000000003000000000000000120202020202020202020202020202020000000"
          "000000000c",
          "57fb0a5c7f60cfeb"};
}

inline Sample<AcUplinkJoin> sample(Tag<AcUplinkJoin>) {
  return {AcUplinkJoin{.child = kAcIdBase + 2, .ts = 5'000'000},
          "414300000000000200000000004c4b40",
          "0b3bc577726807c3"};
}

inline Sample<AcUplinkReply> sample(Tag<AcUplinkReply>) {
  return {AcUplinkReply{.parent = kAcIdBase + 1,
                        .group = 5,
                        .path = sample_path(),
                        .ts = 5'000'000,
                        .epoch = 13},
          "4143000000000001000000050000003c00000002000000000000000000000002"
          "1010101010101010101010101010101000000003000000000000000120202020"
          "20202020202020202020202000000000004c4b40000000000000000d",
          "cc7da564a0f822e5"};
}

inline Sample<Alive> sample(Tag<Alive>) {
  return {Alive{.from = AliveBeacon{.ac_id = kAcIdBase + 1, .epoch = 14}},
          "004143000000000001000000000000000e",
          "8059772638e15fcd"};
}

inline Sample<Rekey> sample(Tag<Rekey>) {
  return {Rekey{.rekey = {lkh::RekeyMessage{15, {{1, 2, 3, to_bytes("box")}}}}},
          "000000000000000f000000010000000100000000000000020000000300000003"
          "626f78",
          "eb47519f92122ddb"};
}

inline Sample<SplitUpdate> sample(Tag<SplitUpdate>) {
  return {SplitUpdate{.path = {sample_path()}},
          "0000000200000000000000000000000210101010101010101010101010101010"
          "00000003000000000000000120202020202020202020202020202020",
          "ae5c6da4fff0acdd"};
}

inline Sample<Data> sample(Tag<Data>) {
  static const Bytes key_box = to_bytes("key-box");
  static const Bytes payload_box = to_bytes("payload-box");
  return {Data{.msg_id = 0xDA7A,
               .sender = 7,
               .key_box = key_box,
               .payload_box = payload_box},
          "000000000000da7a0000000000000007000000076b65792d626f780000000b70"
          "61796c6f61642d626f78",
          "c5f4d67531013b2c"};
}

inline Sample<LeaveRequest> sample(Tag<LeaveRequest>) {
  return {LeaveRequest{.client_id = 7},
          "0000000000000007",
          "49ea74664f413e21"};
}

inline Sample<StateSync> sample(Tag<StateSync>) {
  return {StateSync{.version = 16,
                    .takeover_epoch = 2,
                    .snapshot = to_bytes("snapshot")},
          "0000000000000010000000000000000200000008736e617073686f74",
          "5f09cb7827932c7d"};
}

inline Sample<Heartbeat> sample(Tag<Heartbeat>) {
  return {Heartbeat{.ts = 5'000'000, .sync_version = 16},
          "00000000004c4b400000000000000010",
          "7d22ced7dd61c06e"};
}

inline Sample<TakeOver> sample(Tag<TakeOver>) {
  return {TakeOver{.ac_id = kAcIdBase + 1, .node = 6, .ts = 5'000'000},
          "41430000000000010000000600000000004c4b40",
          "098cafbe04cf9a1f"};
}

inline Sample<KeyRecoveryRequest> sample(Tag<KeyRecoveryRequest>) {
  return {KeyRecoveryRequest{.client_id = 7,
                             .ac_id = kAcIdBase + 1,
                             .epoch = 14,
                             .nonce = 0x4EC0},
          "00000000000000074143000000000001000000000000000e0000000000004ec0",
          "8e64cbbcbae9d59f"};
}

inline Sample<KeyRecoveryReply> sample(Tag<KeyRecoveryReply>) {
  return {KeyRecoveryReply{.nonce_plus1 = 0x4EC1,
                           .ac_id = kAcIdBase + 1,
                           .epoch = 15,
                           .path = sample_path()},
          "0000000000004ec14143000000000001000000000000000f0000003c00000002"
          "0000000000000000000000021010101010101010101010101010101000000003"
          "000000000000000120202020202020202020202020202020",
          "601f225dfb619cea"};
}

inline Sample<StateSyncRequest> sample(Tag<StateSyncRequest>) {
  return {StateSyncRequest{},
          "",
          "afb40852e1be45ec"};
}

inline Sample<AreaMapUpdate> sample(Tag<AreaMapUpdate>) {
  return {AreaMapUpdate{.ts = 5'000'000, .directory = sample_directory()},
          "00000000004c4b40000000320000000000000003000000014143000000000001"
          "00000004000000050000000561632d706b0000000600000005626b2d706b",
          "a4cc820e1d86fbeb"};
}

inline Sample<LoadReport> sample(Tag<LoadReport>) {
  return {LoadReport{.ac_id = kAcIdBase + 1,
                     .members = 40,
                     .rekey_epoch = 15,
                     .ts = 5'000'000},
          "414300000000000100000028000000000000000f00000000004c4b40",
          "259ed613e2321d13"};
}

inline Sample<MigrateRequest> sample(Tag<MigrateRequest>) {
  return {MigrateRequest{.target = kAcIdBase + 2, .count = 20, .ts = 5'000'000},
          "41430000000000020000001400000000004c4b40",
          "7b9a95007b82337d"};
}

inline Sample<MigrateDirective> sample(Tag<MigrateDirective>) {
  return {MigrateDirective{.from_ac = kAcIdBase + 1,
                           .client_id = 7,
                           .target = kAcIdBase + 2,
                           .ts = 5'000'000,
                           .map_update = to_bytes("map-envelope")},
          "41430000000000010000000000000007414300000000000200000000004c4b40"
          "0000000c6d61702d656e76656c6f7065",
          "b5c7fba8c6382c07"};
}

/// Also the AreaDelta record's sample (record_samples.h).
inline AreaDelta sample_area_delta() {
  return {.base_version = 16,
          .version = 17,
          .area_group = 5,
          .parent = kAcIdBase + 1,
          .rekey_epoch = 15,
          .tree = to_bytes("tree-delta"),
          .members = {{7, {.node = 9,
                           .pubkey = to_bytes("pk-7"),
                           .sealed_ticket = to_bytes("tk-7"),
                           .valid_until = 3'600'000'000}}},
          .removed = {8}};
}

inline Sample<StateDelta> sample(Tag<StateDelta>) {
  return {StateDelta{.takeover_epoch = 2, .delta = sample_area_delta()},
          "0000000000000002000000660000000000000010000000000000001100000005"
          "4143000000000001000000000000000f0000000a747265652d64656c74610000"
          "000100000000000000070000000900000004706b2d3700000004746b2d370000"
          "0000d693a400000000010000000000000008",
          "d41169e3c2c52a77"};
}

inline Sample<JoinShed> sample(Tag<JoinShed>) {
  return {JoinShed{.retry_after_ms = 250},
          "00000000000000fa",
          "70faee0ec5ef30d3"};
}

}  // namespace mykil::core::samples
