// The schema pinned to recorded bytes: every message's fields and its whole
// packet (protection included), and every record's fields, must match what
// the hand-written writers produced before the schema existed. A swapped
// pair of same-width fields changes encoder and decoder alike, so no digest
// catches it; these tests do.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <tuple>
#include <vector>

#include "common/error.h"
#include "common/hex.h"
#include "crypto/sha256.h"
#include "mykil/messages.h"
#include "record_samples.h"
#include "wire_samples.h"

namespace mykil::core {
namespace {

using samples::sample;

std::string packet_sha(ByteView packet) {
  Bytes digest = crypto::Sha256::digest(packet);
  return hex_encode(ByteView(digest).first(8));
}

template <typename M>
class WireGolden : public ::testing::Test {};
TYPED_TEST_SUITE(WireGolden, samples::SchemaTypes, samples::FormatName);

TYPED_TEST(WireGolden, FieldsMatchRecordedBytes) {
  auto s = sample<TypeParam>();
  EXPECT_EQ(hex_encode(encode(s.value)), s.fields_hex);
}

TYPED_TEST(WireGolden, PacketMatchesRecordedBytes) {
  auto s = sample<TypeParam>();
  EXPECT_EQ(packet_sha(samples::wrap_sample(s.value)), s.packet_sha);
}

TYPED_TEST(WireGolden, UnwrapReadsWhatWrapWrote) {
  auto s = sample<TypeParam>();
  Bytes packet = samples::wrap_sample(s.value);
  EnvelopeView env = parse_envelope_view(packet);
  EXPECT_EQ(env.type, TypeParam::kType);
  if constexpr (is_signed(TypeParam::kProtection))
    EXPECT_TRUE(verify_envelope(env, samples::sample_keys().signer.pub));
  else
    EXPECT_TRUE(env.sig.empty());
  EXPECT_EQ(encode(samples::unwrap_sample<TypeParam>(env)), encode(s.value));
}

template <typename R>
class StateGolden : public ::testing::Test {};
TYPED_TEST_SUITE(StateGolden, samples::RecordTypes, samples::FormatName);

TYPED_TEST(StateGolden, FieldsMatchRecordedBytes) {
  auto s = sample<TypeParam>();
  EXPECT_EQ(hex_encode(encode(s.value)), s.fields_hex);
}

// A format's wire order is its field list; it must also be the declaration
// order, so the struct reads top to bottom as the wire layout and designated
// initializers list fields in wire order.
template <typename M>
bool listed_in_declaration_order() {
  M m{};
  auto addresses = std::apply(
      [](const auto&... field) {
        return std::vector<const void*>{&field...};
      },
      m.fields());
  return std::is_sorted(addresses.begin(), addresses.end(),
                        std::less<const void*>());
}

template <typename... M>
std::vector<std::string> out_of_declaration_order(TypeList<M...>) {
  std::vector<std::string> out;
  ((listed_in_declaration_order<M>()
        ? void()
        : out.push_back(samples::FormatName::GetName<M>(0))),
   ...);
  return out;
}

TEST(WireGolden, FieldListsFollowDeclarationOrder) {
  EXPECT_EQ(out_of_declaration_order(Messages{}), std::vector<std::string>{});
}

TEST(StateGolden, FieldListsFollowDeclarationOrder) {
  EXPECT_EQ(out_of_declaration_order(Records{}), std::vector<std::string>{});
}

TEST(WireGolden, AliveMemberKindMatchesRecordedBytes) {
  Alive alive{.from = AliveMember{.client_id = 7}};
  EXPECT_EQ(hex_encode(encode(alive)), "010000000000000007");
  EXPECT_EQ(packet_sha(wrap(alive)), "e6ec0ef5b492b1f1");
}

TEST(WireGolden, AliveKindsBeyondBeaconAndMemberAreRejected) {
  Bytes beacon_shaped = hex_decode("02" "4143000000000001" "000000000000000e");
  EXPECT_THROW(decode<Alive>(beacon_shaped), WireError);
  Bytes member_shaped = hex_decode("ff" "0000000000000007");
  EXPECT_THROW(decode<Alive>(member_shaped), WireError);
}

TEST(WireGolden, UnwrapRejectsAnotherTypesEnvelope) {
  Bytes packet = wrap(LeaveRequest{.client_id = 7});
  EXPECT_THROW(unwrap<Heartbeat>(parse_envelope_view(packet)), WireError);
}

TEST(WireGolden, DataDecodesIntoViewsOfThePacket) {
  Bytes packet = wrap(sample<Data>().value);
  EnvelopeView env = parse_envelope_view(packet);
  Data data = unwrap<Data>(env);
  for (ByteView part : {data.key_box, data.payload_box}) {
    EXPECT_GE(part.data(), packet.data());
    EXPECT_LE(part.data() + part.size(), packet.data() + packet.size());
  }
  EXPECT_EQ(to_string(data.payload_box), "payload-box");
}

}  // namespace
}  // namespace mykil::core
