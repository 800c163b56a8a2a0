#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <set>
#include <string>

#include "core/interner.h"
#include "dht/chord_network.h"
#include "dht/load_balancer.h"
#include "dht/transport.h"
#include "sim/latency.h"
#include "sim/simulator.h"
#include "stats/metrics.h"
#include "util/random.h"

namespace rjoin::dht {
namespace {

// Linear-scan ground truth for successor resolution.
NodeIndex BruteForceSuccessor(const ChordNetwork& net, const NodeId& key) {
  NodeIndex best = kInvalidNode;
  NodeId best_dist = NodeId::Max();
  for (NodeIndex i : net.AliveNodes()) {
    const NodeId dist = net.node(i).id().Subtract(key);
    if (best == kInvalidNode || dist < best_dist) {
      best = i;
      best_dist = dist;
    }
  }
  return best;
}

TEST(ChordNetworkTest, CreateBuildsRequestedSize) {
  auto net = ChordNetwork::Create(64, 1);
  EXPECT_EQ(net->num_alive(), 64u);
  EXPECT_EQ(net->num_total(), 64u);
}

TEST(ChordNetworkTest, RingOrderIsConsistent) {
  auto net = ChordNetwork::Create(32, 2);
  auto order = net->AliveNodes();
  for (size_t i = 0; i + 1 < order.size(); ++i) {
    EXPECT_LT(net->node(order[i]).id(), net->node(order[i + 1]).id());
  }
  // Successor pointers follow ring order.
  for (size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(net->node(order[i]).successor(),
              order[(i + 1) % order.size()]);
    EXPECT_EQ(net->node(order[(i + 1) % order.size()]).predecessor(),
              order[i]);
  }
}

class SuccessorPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SuccessorPropertyTest, SuccessorMatchesBruteForce) {
  auto net = ChordNetwork::Create(50, GetParam());
  Rng rng(GetParam() * 31 + 7);
  for (int i = 0; i < 200; ++i) {
    const NodeId key = NodeId::FromKey("key:" + std::to_string(rng.Next()));
    EXPECT_EQ(net->SuccessorOf(key), BruteForceSuccessor(*net, key));
  }
}

TEST_P(SuccessorPropertyTest, RouteReachesResponsibleNode) {
  auto net = ChordNetwork::Create(50, GetParam());
  Rng rng(GetParam() * 17 + 3);
  const auto alive = net->AliveNodes();
  for (int i = 0; i < 100; ++i) {
    const NodeId key = NodeId::FromKey("route:" + std::to_string(rng.Next()));
    const NodeIndex src = alive[rng.NextBounded(alive.size())];
    const auto path = net->Route(src, key);
    EXPECT_EQ(path.front(), src);
    EXPECT_EQ(path.back(), net->SuccessorOf(key));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SuccessorPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(ChordNetworkTest, RouteHopsAreLogarithmic) {
  auto net = ChordNetwork::Create(256, 9);
  Rng rng(99);
  const auto alive = net->AliveNodes();
  double total_hops = 0;
  const int kLookups = 500;
  size_t max_hops = 0;
  for (int i = 0; i < kLookups; ++i) {
    const NodeId key = NodeId::FromKey("h:" + std::to_string(rng.Next()));
    const NodeIndex src = alive[rng.NextBounded(alive.size())];
    const size_t hops = net->RouteHops(src, key);
    total_hops += static_cast<double>(hops);
    max_hops = std::max(max_hops, hops);
  }
  // Chord: O(log N) w.h.p. — average should be around (1/2) log2 N, and
  // certainly far below linear.
  EXPECT_LT(total_hops / kLookups, 2.0 * std::log2(256.0));
  EXPECT_LT(max_hops, 40u);
}

TEST(ChordNetworkTest, SelfRouteIsZeroHops) {
  auto net = ChordNetwork::Create(16, 4);
  for (NodeIndex n : net->AliveNodes()) {
    // A key the node itself is responsible for: its own id.
    const auto path = net->Route(n, net->node(n).id());
    EXPECT_EQ(path.size(), 1u);
    EXPECT_EQ(path.front(), n);
  }
}

TEST(ChordNetworkTest, SingleNodeOwnsEverything) {
  auto net = ChordNetwork::Create(1, 5);
  const NodeIndex only = net->AliveNodes()[0];
  EXPECT_EQ(net->SuccessorOf(NodeId::FromKey("anything")), only);
  EXPECT_EQ(net->Route(only, NodeId::FromKey("x")).size(), 1u);
}

TEST(ChordNetworkTest, FailNodeRedistributesKeys) {
  auto net = ChordNetwork::Create(20, 6);
  const NodeId key = NodeId::FromKey("victim-key");
  const NodeIndex owner = net->SuccessorOf(key);
  ASSERT_TRUE(net->FailNode(owner).ok());
  net->Stabilize();
  const NodeIndex new_owner = net->SuccessorOf(key);
  EXPECT_NE(new_owner, owner);
  EXPECT_EQ(new_owner, BruteForceSuccessor(*net, key));
  EXPECT_EQ(net->num_alive(), 19u);
  // Routing still works from every surviving node.
  for (NodeIndex n : net->AliveNodes()) {
    EXPECT_EQ(net->Route(n, key).back(), new_owner);
  }
}

TEST(ChordNetworkTest, FailTwiceIsNotFound) {
  auto net = ChordNetwork::Create(8, 7);
  const NodeIndex victim = net->AliveNodes()[0];
  EXPECT_TRUE(net->FailNode(victim).ok());
  EXPECT_FALSE(net->FailNode(victim).ok());
}

TEST(ChordNetworkTest, LateJoinIntegratesAfterStabilize) {
  auto net = ChordNetwork::Create(16, 8);
  auto added = net->AddNode(NodeId::FromKey("late-joiner"));
  ASSERT_TRUE(added.ok());
  net->Stabilize();
  EXPECT_EQ(net->num_alive(), 17u);
  const NodeId key = NodeId::FromKey("late-joiner");  // its own id
  EXPECT_EQ(net->SuccessorOf(key), *added);
  for (NodeIndex n : net->AliveNodes()) {
    EXPECT_EQ(net->Route(n, key).back(), *added);
  }
}

TEST(ChordNetworkTest, DuplicatePositionRejected) {
  auto net = ChordNetwork::Create(4, 9);
  const NodeId taken = net->node(net->AliveNodes()[0]).id();
  EXPECT_EQ(net->AddNode(taken).status().code(),
            StatusCode::kAlreadyExists);
}

TEST(ChordNetworkTest, SizeEstimateIsRightOrderOfMagnitude) {
  for (size_t n : {64u, 256u, 1024u}) {
    auto net = ChordNetwork::Create(n, 10);
    double est_sum = 0;
    const auto alive = net->AliveNodes();
    for (size_t i = 0; i < 16; ++i) {
      est_sum += net->EstimateSize(alive[i * alive.size() / 16]);
    }
    const double est = est_sum / 16.0;
    EXPECT_GT(est, static_cast<double>(n) / 4.0) << n;
    EXPECT_LT(est, static_cast<double>(n) * 4.0) << n;
  }
}

// ------------------------------------------------------------- Transport --

// An interned test key: sends route on interned ids (SendKey,
// MultiSendKeys), so test keys are interned like the engine's index keys.
core::KeyId TestKey(const std::string& text) {
  return core::KeyInterner::Global().Intern(text, core::Level::kValue);
}

const NodeId& RingId(core::KeyId key) {
  return core::KeyInterner::Global().ring_id(key);
}

// Typed test payload: an AnswerDeliver whose query_id carries the value.
core::MessageTask TestMsg(int v) {
  core::AnswerDeliver msg;
  msg.query_id = static_cast<uint64_t>(v);
  return core::MessageTask(std::move(msg));
}

class Collector : public MessageHandler {
 public:
  void HandleMessage(NodeIndex self, core::MessageTask&& task) override {
    ASSERT_EQ(task.kind(), core::MessageKind::kAnswerDeliver);
    received.emplace_back(self, static_cast<int>(task.answer().query_id));
  }
  std::vector<std::pair<NodeIndex, int>> received;
};

class TransportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    net_ = ChordNetwork::Create(32, 11);
    metrics_.Resize(net_->num_total());
    transport_ = std::make_unique<Transport>(net_.get(), &sim_, &latency_,
                                             &metrics_, Rng(5));
    transport_->set_handler(&collector_);
  }

  std::unique_ptr<ChordNetwork> net_;
  sim::Simulator sim_;
  sim::FixedLatency latency_{1};
  stats::MetricsRegistry metrics_;
  std::unique_ptr<Transport> transport_;
  Collector collector_;
};

TEST_F(TransportTest, SendDeliversToResponsibleNode) {
  const core::KeyId key = TestKey("t-key");
  const NodeIndex src = net_->AliveNodes()[0];
  const size_t hops = transport_->SendKey(src, key, TestMsg(7));
  sim_.Run();
  ASSERT_EQ(collector_.received.size(), 1u);
  EXPECT_EQ(collector_.received[0].first, net_->SuccessorOf(RingId(key)));
  EXPECT_EQ(collector_.received[0].second, 7);
  // Traffic: exactly `hops` transmissions were charged in total.
  EXPECT_EQ(metrics_.total_messages(), hops);
}

TEST_F(TransportTest, SendChargesEachForwarderOnce) {
  const core::KeyId key = TestKey("charge-key");
  const NodeIndex src = net_->AliveNodes()[0];
  const auto path = net_->Route(src, RingId(key));
  transport_->SendKey(src, key, TestMsg(1));
  sim_.Run();
  for (size_t i = 0; i + 1 < path.size(); ++i) {
    EXPECT_GE(metrics_.node(path[i]).messages_sent, 1u);
  }
  // The destination transmits nothing.
  if (path.size() > 1) {
    EXPECT_EQ(metrics_.node(path.back()).messages_sent, 0u);
  }
}

TEST_F(TransportTest, DeliveryDelayEqualsHopCount) {
  const core::KeyId key = TestKey("delay-key");
  const NodeIndex src = net_->AliveNodes()[0];
  const size_t hops = transport_->SendKey(src, key, TestMsg(2));
  sim_.Run();
  EXPECT_EQ(sim_.Now(), hops);  // FixedLatency(1) per hop.
}

TEST_F(TransportTest, MultiSendDeliversAll) {
  const NodeIndex src = net_->AliveNodes()[0];
  std::vector<std::pair<core::KeyId, core::MessageTask>> batch;
  for (int i = 0; i < 10; ++i) {
    batch.emplace_back(TestKey("k" + std::to_string(i)), TestMsg(i));
  }
  transport_->MultiSendKeys(src, &batch);
  sim_.Run();
  EXPECT_EQ(collector_.received.size(), 10u);
}

TEST_F(TransportTest, SendDirectIsOneMessageOneHop) {
  const NodeIndex src = net_->AliveNodes()[0];
  const NodeIndex dst = net_->AliveNodes()[5];
  transport_->SendDirect(src, dst, TestMsg(3));
  sim_.Run();
  ASSERT_EQ(collector_.received.size(), 1u);
  EXPECT_EQ(collector_.received[0].first, dst);
  EXPECT_EQ(metrics_.total_messages(), 1u);
  EXPECT_EQ(metrics_.node(src).messages_sent, 1u);
}

TEST_F(TransportTest, RicTrafficTaggedSeparately) {
  // RIC traffic is charged, never sent; a payload send is not RIC traffic.
  const NodeIndex src = net_->AliveNodes()[0];
  transport_->ChargeTraffic(src, 1);
  transport_->SendDirect(src, net_->AliveNodes()[2], TestMsg(5));
  sim_.Run();
  EXPECT_EQ(metrics_.total_messages(), 2u);
  EXPECT_EQ(metrics_.total_ric_messages(), 1u);
}

TEST_F(TransportTest, ChargeRouteCountsWithoutDelivering) {
  const NodeId key = NodeId::FromKey("charge-only");
  const NodeIndex src = net_->AliveNodes()[3];
  const size_t hops = transport_->ChargeRoute(src, key);
  EXPECT_EQ(metrics_.total_messages(), hops);
  EXPECT_EQ(metrics_.total_ric_messages(), hops);
  sim_.Run();
  EXPECT_TRUE(collector_.received.empty());
}

// ---------------------------------------------------------- LoadBalancer --

TEST(LoadBalancerTest, BalancedPositionsEqualizeWeight) {
  // 1000 keys, heavily skewed weights.
  std::vector<KeyLoad> items;
  Rng rng(21);
  for (int i = 0; i < 1000; ++i) {
    KeyLoad kl;
    kl.id = NodeId::FromKey("item:" + std::to_string(i));
    kl.weight = (i % 100 == 0) ? 1000 : 1;  // Ten hot keys.
    items.push_back(kl);
  }
  const size_t kNodes = 50;
  auto positions = IdMovementBalancer::ComputeBalancedPositions(items, kNodes);
  ASSERT_EQ(positions.size(), kNodes);
  // Positions must be unique.
  std::set<NodeId> unique(positions.begin(), positions.end());
  EXPECT_EQ(unique.size(), kNodes);

  // Build the network at those positions and measure per-node weight.
  auto net = ChordNetwork::CreateWithPositions(positions);
  std::vector<uint64_t> load(net->num_total(), 0);
  uint64_t total = 0;
  for (const auto& kl : items) {
    load[net->SuccessorOf(kl.id)] += kl.weight;
    total += kl.weight;
  }
  const double mean = static_cast<double>(total) / kNodes;
  uint64_t max_load = 0;
  for (uint64_t l : load) max_load = std::max(max_load, l);
  // A single hot key (weight 1000) cannot be split, so the best possible
  // max is ~1000; require we land close to that rather than the unbalanced
  // ~many-thousands.
  EXPECT_LT(static_cast<double>(max_load), 1000.0 + 3.0 * mean);
}

TEST(LoadBalancerTest, UniformFallbackWithoutSignal) {
  auto positions = IdMovementBalancer::ComputeBalancedPositions({}, 8);
  ASSERT_EQ(positions.size(), 8u);
  std::set<NodeId> unique(positions.begin(), positions.end());
  EXPECT_EQ(unique.size(), 8u);
  // Consecutive gaps should be near-equal (uniform spread).
  std::vector<NodeId> sorted(positions.begin(), positions.end());
  std::sort(sorted.begin(), sorted.end());
  const double expected_gap = std::pow(2.0, 160.0) / 8.0;
  for (size_t i = 0; i + 1 < sorted.size(); ++i) {
    const double gap = sorted[i + 1].Subtract(sorted[i]).ToDouble();
    EXPECT_NEAR(gap, expected_gap, expected_gap * 0.01);
  }
}

}  // namespace
}  // namespace rjoin::dht
