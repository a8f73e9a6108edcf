// Replay: a kData packet heard a second time, from anyone, is dropped by its
// message id before any decryption or forwarding, and a validly signed
// TakeOver replayed past the timestamp window moves no one.
#include <gtest/gtest.h>

#include <memory>
#include <optional>

#include "mykil/group.h"

namespace mykil::core {
namespace {

GroupOptions logic_options(std::uint64_t seed) {
  GroupOptions o;
  o.seed = seed;
  o.config.enable_timers = false;
  o.config.batching = false;
  return o;
}

net::NetworkConfig quiet_net() {
  net::NetworkConfig cfg;
  cfg.jitter = 0;
  return cfg;
}

/// Subscribes to one multicast group, keeps the first packet of one message
/// type a given node sent there, and can multicast it back into the group
/// verbatim.
class Replayer : public net::Node {
 public:
  explicit Replayer(net::NodeId watch, MsgType type = MsgType::kData)
      : watch_(watch), type_(type) {}

  void on_message(const net::Message& msg) override {
    if (captured_ || msg.from != watch_) return;
    if (parse_envelope_view(msg.payload).type != type_) return;
    captured_ = msg.payload;
    group_ = msg.group;
  }
  [[nodiscard]] bool captured() const { return captured_.has_value(); }
  void replay() { network().multicast(id(), group_, "replay", *captured_); }

 private:
  net::NodeId watch_;
  MsgType type_;
  std::optional<net::Payload> captured_;
  net::GroupId group_ = net::kNoGroup;
};

TEST(MykilReplay, MemberKeepsOnePlaintextOfAReplayedPacket) {
  net::Network net(quiet_net());
  MykilGroup group(net, logic_options(3));
  group.add_area();
  group.finalize();
  auto sender = group.make_member(1, net::sec(3600));
  auto receiver = group.make_member(2, net::sec(3600));
  group.join_member(*sender, net::sec(3600));
  group.join_member(*receiver, net::sec(3600));

  Replayer tap(sender->id());
  net.attach(tap);
  net.join_group(group.ac(0).area_group(), tap.id());

  sender->send_data(to_bytes("once"));
  group.settle();
  ASSERT_TRUE(tap.captured());
  ASSERT_EQ(receiver->received_data().size(), 1u);

  tap.replay();
  group.settle();
  // The replay reached both members (and the AC), and changed nothing.
  EXPECT_EQ(net.stats().recv_by_label("replay").messages, 3u);
  ASSERT_EQ(receiver->received_data().size(), 1u);
  EXPECT_EQ(to_string(receiver->received_data()[0]), "once");
  EXPECT_TRUE(sender->received_data().empty());
  EXPECT_EQ(receiver->undecryptable_count(), 0u);
}

TEST(MykilReplay, AcDoesNotReforwardItsOwnPacketHeardOnTheParentGroup) {
  // Root area 0, child area 1. The child AC forwards a member's packet up
  // into the root area; a replay of that forward on the root group reaches
  // the child AC as parent traffic and must not go back down.
  net::Network net(quiet_net());
  MykilGroup group(net, logic_options(5));
  group.add_area();
  group.add_area(0);
  group.finalize();
  auto root_member = group.make_member(1, net::sec(3600));
  auto sender = group.make_member(2, net::sec(3600));
  auto neighbour = group.make_member(3, net::sec(3600));
  group.join_member(*root_member, net::sec(3600));  // area 0
  group.join_member(*sender, net::sec(3600));       // area 1
  group.join_member(*neighbour, net::sec(3600));    // area 0
  auto child_member = group.make_member(4, net::sec(3600));
  group.join_member(*child_member, net::sec(3600));  // area 1
  ASSERT_EQ(sender->current_ac(), group.ac(1).ac_id());
  ASSERT_EQ(child_member->current_ac(), group.ac(1).ac_id());

  const AreaController& child_ac = group.ac(1);
  Replayer tap(child_ac.id());
  net.attach(tap);
  net.join_group(group.ac(0).area_group(), tap.id());

  sender->send_data(to_bytes("up once"));
  group.settle();
  ASSERT_TRUE(tap.captured());
  ASSERT_EQ(root_member->received_data().size(), 1u);
  ASSERT_EQ(child_member->received_data().size(), 1u);
  const std::uint64_t child_forwards = child_ac.counters().data_forwards;
  const std::uint64_t root_forwards = group.ac(0).counters().data_forwards;
  const std::uint64_t data_sent =
      net.stats().sent_by_label("mykil-data").messages;

  tap.replay();
  group.settle();
  // Heard by both ACs and both root-area members.
  EXPECT_EQ(net.stats().recv_by_label("replay").messages, 4u);
  EXPECT_EQ(child_ac.counters().data_forwards, child_forwards);
  EXPECT_EQ(group.ac(0).counters().data_forwards, root_forwards);
  EXPECT_EQ(net.stats().sent_by_label("mykil-data").messages, data_sent);
  EXPECT_EQ(child_member->received_data().size(), 1u);
  EXPECT_EQ(root_member->received_data().size(), 1u);
  EXPECT_EQ(neighbour->received_data().size(), 1u);
}

TEST(MykilReplay, MemberIgnoresAStaleTakeOverForADemotedNode) {
  // A TakeOver is signed by the area's own key, so a replay verifies. After
  // the area has changed hands twice, the first announcement names a node
  // that is a standby again; replayed past the timestamp window it must not
  // point the member's directory, and its control traffic, back at it.
  GroupOptions opts = logic_options(7);
  opts.with_backups = true;
  opts.config.enable_timers = true;  // heartbeats drive the takeovers
  opts.config.t_idle = net::msec(100);
  opts.config.t_active = net::msec(200);
  opts.config.heartbeat_interval = net::msec(100);
  net::Network net(quiet_net());
  MykilGroup group(net, opts);
  group.add_area();
  group.finalize();
  AreaController& first = group.ac(0);
  AreaController& second = *group.backup(0);
  const AcId ac = first.ac_id();
  auto member = group.make_member(1, net::sec(3600));
  group.join_member(*member, net::sec(3600));
  ASSERT_TRUE(member->joined());

  Replayer tap(second.id(), MsgType::kTakeOver);
  net.attach(tap);
  net.join_group(first.area_group(), tap.id());

  // First takeover: the standby announces itself, and the tap keeps it.
  net.crash(first.id());
  group.settle(net::sec(2));
  ASSERT_EQ(second.role(), AreaController::Role::kPrimary);
  ASSERT_TRUE(tap.captured());
  ASSERT_EQ(member->directory().find(ac)->node, second.id());

  // Second takeover: the first node returns as the standby and takes the
  // area back when the second crashes.
  net.recover(first.id());
  group.settle(net::sec(2));
  ASSERT_EQ(first.role(), AreaController::Role::kBackup);
  net.crash(second.id());
  group.settle(net::sec(2));
  ASSERT_EQ(first.role(), AreaController::Role::kPrimary);
  ASSERT_EQ(member->directory().find(ac)->node, first.id());

  group.settle(opts.config.ts_window + net::sec(1));
  tap.replay();
  group.settle();
  EXPECT_EQ(member->directory().find(ac)->node, first.id());
  EXPECT_TRUE(member->joined());
}

}  // namespace
}  // namespace mykil::core
