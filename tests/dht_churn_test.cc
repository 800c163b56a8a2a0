// Tests of the incremental Chord protocol: joins via bootstrap,
// stabilization/notify rounds, finger repair, and healing after silent
// failures — the network dynamism the paper's Section 2/4 assumptions
// delegate to the DHT layer. The in-band churn tests at the bottom drive
// the engine's live join/leave path *during* message delivery and assert
// that no envelope is lost or duplicated across a state handoff.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "core/engine.h"
#include "dht/chord_network.h"
#include "dht/transport.h"
#include "sim/latency.h"
#include "sim/simulator.h"
#include "sql/evaluator.h"
#include "sql/schema.h"
#include "stats/metrics.h"
#include "util/random.h"

namespace rjoin::dht {
namespace {

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

void ExpectAllLookupsCorrect(const ChordNetwork& net, uint64_t seed,
                             int lookups = 60) {
  Rng rng(seed);
  const auto alive = net.AliveNodes();
  for (int i = 0; i < lookups; ++i) {
    const NodeId key = NodeId::FromKey("lk:" + std::to_string(rng.Next()));
    const NodeIndex src = alive[rng.NextBounded(alive.size())];
    EXPECT_EQ(net.FindSuccessorFrom(src, key), BruteForceSuccessor(net, key))
        << "lookup " << i;
  }
}

TEST(ChordProtocolTest, StabilizedNetworkIsRingConsistent) {
  auto net = ChordNetwork::Create(24, 1);
  EXPECT_TRUE(net->RingConsistent());
}

TEST(ChordProtocolTest, FindSuccessorFromMatchesOracleWhenStable) {
  auto net = ChordNetwork::Create(40, 2);
  ExpectAllLookupsCorrect(*net, 77);
}

TEST(ChordProtocolTest, SingleJoinIntegratesAfterRounds) {
  auto net = ChordNetwork::Create(16, 3);
  auto joined =
      net->JoinViaBootstrap(NodeId::FromKey("newcomer"), net->AliveNodes()[0]);
  ASSERT_TRUE(joined.ok()) << joined.status().ToString();
  // Before any rounds the ring is not yet consistent (predecessors stale).
  EXPECT_FALSE(net->RingConsistent());
  net->RunProtocolRounds(3);
  EXPECT_TRUE(net->RingConsistent());
  ExpectAllLookupsCorrect(*net, 78);
  // The newcomer is responsible for its own id.
  EXPECT_EQ(net->FindSuccessorFrom(net->AliveNodes()[0],
                                   NodeId::FromKey("newcomer")),
            *joined);
}

TEST(ChordProtocolTest, JoinRequiresAliveBootstrap) {
  auto net = ChordNetwork::Create(8, 4);
  const NodeIndex victim = net->AliveNodes()[0];
  ASSERT_TRUE(net->FailNode(victim).ok());
  EXPECT_FALSE(net->JoinViaBootstrap(NodeId::FromKey("x"), victim).ok());
}

TEST(ChordProtocolTest, ManySequentialJoins) {
  auto net = ChordNetwork::Create(8, 5);
  for (int i = 0; i < 24; ++i) {
    auto joined = net->JoinViaBootstrap(
        NodeId::FromKey("j:" + std::to_string(i)), net->AliveNodes()[0]);
    ASSERT_TRUE(joined.ok());
    net->RunProtocolRounds(2);
  }
  EXPECT_EQ(net->num_alive(), 32u);
  EXPECT_TRUE(net->RingConsistent());
  ExpectAllLookupsCorrect(*net, 79);
}

TEST(ChordProtocolTest, FailureHealsThroughSuccessorLists) {
  auto net = ChordNetwork::Create(32, 6);
  // Fail three non-adjacent nodes silently (no Stabilize() oracle call).
  const auto alive = net->AliveNodes();
  ASSERT_TRUE(net->FailNode(alive[3]).ok());
  ASSERT_TRUE(net->FailNode(alive[11]).ok());
  ASSERT_TRUE(net->FailNode(alive[23]).ok());
  EXPECT_FALSE(net->RingConsistent());
  net->RunProtocolRounds(4);
  EXPECT_TRUE(net->RingConsistent());
  ExpectAllLookupsCorrect(*net, 80);
}

TEST(ChordProtocolTest, AdjacentFailuresWithinSuccessorListHeal) {
  auto net = ChordNetwork::Create(32, 7);
  // Fail a run of adjacent nodes shorter than the successor list.
  const auto alive = net->AliveNodes();
  for (size_t i = 5; i < 5 + ChordNetwork::kSuccessorListLen - 1; ++i) {
    ASSERT_TRUE(net->FailNode(alive[i]).ok());
  }
  net->RunProtocolRounds(5);
  EXPECT_TRUE(net->RingConsistent());
  ExpectAllLookupsCorrect(*net, 81);
}

class ChurnMixTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChurnMixTest, LookupsConvergeAfterMixedChurn) {
  const uint64_t seed = GetParam();
  auto net = ChordNetwork::Create(24, seed);
  Rng rng(seed * 101 + 7);
  int joined_count = 0;
  for (int step = 0; step < 30; ++step) {
    const double dice = rng.NextDouble();
    if (dice < 0.5) {
      auto j = net->JoinViaBootstrap(
          NodeId::FromKey("churn:" + std::to_string(seed) + ":" +
                          std::to_string(step)),
          net->AliveNodes()[rng.NextBounded(net->num_alive())]);
      if (j.ok()) ++joined_count;
    } else if (net->num_alive() > 12) {
      const auto alive = net->AliveNodes();
      (void)net->FailNode(alive[rng.NextBounded(alive.size())]);
    }
    net->RunProtocolRounds(2);
  }
  net->RunProtocolRounds(3);
  EXPECT_TRUE(net->RingConsistent()) << "seed " << seed;
  ExpectAllLookupsCorrect(*net, seed * 3 + 1);
  EXPECT_GT(joined_count, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChurnMixTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

// ------------------------------------------------ in-band splice churn ----

TEST(ChordProtocolTest, JoinAndSpliceKeepsRingConsistentWithoutRounds) {
  auto net = ChordNetwork::Create(24, 9);
  for (int i = 0; i < 8; ++i) {
    auto joined = net->JoinAndSplice(
        NodeId::FromKey("inband:" + std::to_string(i)),
        net->AliveNodes()[static_cast<size_t>(i) % net->num_alive()]);
    ASSERT_TRUE(joined.ok()) << joined.status().ToString();
    // No RunProtocolRounds: the splice must leave the ring exact.
    EXPECT_TRUE(net->RingConsistent()) << "after join " << i;
  }
  ExpectAllLookupsCorrect(*net, 91);
  // Greedy routing (what SendKey uses on cached ring ids) also converges:
  // Route() CHECK-fails internally if it cannot reach the responsible node.
  Rng rng(92);
  const auto alive = net->AliveNodes();
  for (int i = 0; i < 40; ++i) {
    const NodeId key = NodeId::FromKey("rk:" + std::to_string(rng.Next()));
    const NodeIndex src = alive[rng.NextBounded(alive.size())];
    EXPECT_EQ(net->Route(src, key).back(), net->SuccessorOf(key));
  }
}

TEST(ChordProtocolTest, LeaveNodeReturnsOrphanedRangeAndSplices) {
  auto net = ChordNetwork::Create(16, 10);
  const auto alive = net->AliveNodes();
  const NodeIndex victim = alive[5];
  const NodeId victim_id = net->node(victim).id();
  const NodeId pred_id = net->node(alive[4]).id();
  auto range = net->LeaveNode(victim);
  ASSERT_TRUE(range.ok()) << range.status().ToString();
  // The orphaned range is exactly (pred, victim]: the keys the departed
  // node was responsible for, now owned by its successor.
  EXPECT_EQ(range->low, pred_id);
  EXPECT_EQ(range->high, victim_id);
  EXPECT_TRUE(range->Contains(victim_id));
  EXPECT_FALSE(range->Contains(pred_id));
  EXPECT_EQ(net->SuccessorOf(victim_id), alive[6]);
  EXPECT_TRUE(net->RingConsistent());
  ExpectAllLookupsCorrect(*net, 93);
  // A departed node cannot leave twice.
  EXPECT_FALSE(net->LeaveNode(victim).ok());
}

TEST(ChordProtocolTest, LeaveNodeRefusesLastAliveNode) {
  auto net = ChordNetwork::Create(2, 11);
  const auto alive = net->AliveNodes();
  ASSERT_TRUE(net->LeaveNode(alive[0]).ok());
  // The survivor's range would have no owner.
  EXPECT_FALSE(net->LeaveNode(alive[1]).ok());
  EXPECT_EQ(net->num_alive(), 1u);
}

// ------------------------------------- engine churn during delivery ----

namespace {

sql::Catalog ChurnCatalog() {
  sql::Catalog c;
  EXPECT_TRUE(c.AddRelation(sql::Schema("R", {"A", "B", "C"})).ok());
  EXPECT_TRUE(c.AddRelation(sql::Schema("S", {"A", "B", "C"})).ok());
  return c;
}

}  // namespace

TEST(InBandChurnTest, NoEnvelopeLostOrDuplicatedAcrossHandoffs) {
  // Joins and leaves fire *between* publications whose cascades are still
  // in flight (no drain between bursts). After the final drain, the
  // message pool must balance exactly: every envelope acquired was
  // released — none leaked inside a handoff, none double-freed.
  auto network = ChordNetwork::Create(20, 13);
  sim::FixedLatency latency(3);  // several ticks in flight per hop
  stats::MetricsRegistry metrics(network->num_total());
  sim::Simulator simulator(&metrics, 13 * 31);
  Transport transport(network.get(), &simulator, &latency);
  sql::Catalog catalog = ChurnCatalog();
  core::EngineConfig cfg;
  cfg.keep_history = true;
  core::RJoinEngine engine(cfg, &catalog, network.get(), &transport,
                           &simulator);

  auto qid = engine.SubmitQuerySql(0, "SELECT R.B, S.C FROM R, S "
                                      "WHERE R.A = S.A");
  ASSERT_TRUE(qid.ok());
  simulator.Run();

  auto I = [](int64_t v) { return sql::Value::Int(v); };
  Rng rng(77);
  int scheduled_churn = 0;
  for (int burst = 0; burst < 6; ++burst) {
    // Publications whose 2k-key deliveries overlap the churn below.
    ASSERT_TRUE(engine.PublishTuple(1, "R", {I(burst), I(10 + burst),
                                             I(20 + burst)}).ok());
    ASSERT_TRUE(engine.PublishTuple(2, "S", {I(burst), I(30 + burst),
                                             I(40 + burst)}).ok());
    // Churn lands mid-delivery: one join, and (every other burst) a leave
    // of an earlier joiner — i.e. the handoff chain itself is in flight
    // while new tuples route.
    ASSERT_TRUE(engine
                    .ScheduleJoin(simulator.Now() + 1 + rng.NextBounded(4),
                                  NodeId::FromKey("inflight:" +
                                                  std::to_string(burst)),
                                  0)
                    .ok());
    ++scheduled_churn;
    if (burst >= 2 && burst % 2 == 0) {
      const NodeIndex victim = static_cast<NodeIndex>(20 + burst - 2);
      ASSERT_TRUE(
          engine.ScheduleLeave(simulator.Now() + 2 + rng.NextBounded(4),
                               victim)
              .ok());
      ++scheduled_churn;
    }
    simulator.RunUntil(simulator.Now() + 2);  // interleave, don't drain
  }
  simulator.Run();  // full drain

  const auto& churn = engine.churn_stats();
  EXPECT_EQ(churn.joins_applied + churn.leaves_applied + churn.ops_rejected,
            static_cast<uint64_t>(scheduled_churn));
  EXPECT_GT(churn.joins_applied, 0u);
  EXPECT_GT(churn.leaves_applied, 0u);
  EXPECT_GT(churn.handoff_messages, 0u);
  // Every emitted batch is installed exactly once; chained churn receipts
  // (re-forwarded slices) count as additional installs.
  EXPECT_EQ(churn.handoff_messages + churn.handoffs_reforwarded,
            churn.handoffs_installed);

  // Pool accounting: a drained system has zero outstanding envelopes, and
  // the next acquire recycles instead of allocating.
  const auto before = simulator.pool().stats();
  EXPECT_EQ(before.outstanding(), 0u)
      << "acquired=" << before.acquired << " released=" << before.released;
  {
    auto env = simulator.pool().Acquire();
    const auto after = simulator.pool().stats();
    EXPECT_EQ(after.envelopes_allocated, before.envelopes_allocated);
    EXPECT_EQ(after.recycled, before.recycled + 1);
  }

  // Completeness: the answers match the centralized oracle despite the
  // in-flight churn (forwarding + handoff probing fill every gap).
  sql::CentralizedEvaluator oracle(&catalog);
  auto iq = engine.FindQuery(*qid);
  ASSERT_NE(iq, nullptr);
  std::vector<std::string> expected;
  for (const auto& row :
       oracle.Evaluate(iq->spec(), iq->ins_time(), engine.history())) {
    expected.push_back(sql::AnswerRowKey(row));
  }
  std::vector<std::string> got;
  for (const auto& a : engine.AnswersFor(*qid)) {
    got.push_back(sql::AnswerRowKey(a.row));
  }
  std::sort(expected.begin(), expected.end());
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, expected);
}

TEST(InBandChurnTest, RoutingOnCachedRingIdsFindsMovedState) {
  // After a join takes over part of the ring, SendKey still routes on the
  // interner's cached ring ids — the ids never change; only SuccessorOf
  // does. The joined node must end up holding stored state (the handoff)
  // and receiving new deliveries for its range.
  auto network = ChordNetwork::Create(12, 17);
  sim::FixedLatency latency(1);
  stats::MetricsRegistry metrics(network->num_total());
  sim::Simulator simulator(&metrics, 17 * 31);
  Transport transport(network.get(), &simulator, &latency);
  sql::Catalog catalog = ChurnCatalog();
  core::EngineConfig cfg;
  cfg.keep_history = true;
  core::RJoinEngine engine(cfg, &catalog, network.get(), &transport,
                           &simulator);

  ASSERT_TRUE(
      engine.SubmitQuerySql(0, "SELECT R.B, S.C FROM R, S WHERE R.A = S.A")
          .ok());
  simulator.Run();
  auto I = [](int64_t v) { return sql::Value::Int(v); };
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(engine.PublishTuple(1, "R", {I(i), I(i), I(i)}).ok());
  }
  simulator.Run();

  // Join enough nodes that some take over key ranges with stored state.
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(engine
                    .ScheduleJoin(simulator.Now(),
                                  NodeId::FromKey("mover:" +
                                                  std::to_string(i)),
                                  0)
                    .ok());
    simulator.Run();
  }
  ASSERT_EQ(engine.churn_stats().joins_applied, 10u);
  ASSERT_GT(engine.churn_stats().handoff_messages, 0u);

  uint64_t joined_storage = 0;
  for (NodeIndex n = 12; n < metrics.num_nodes(); ++n) {
    joined_storage +=
        static_cast<uint64_t>(std::max<int64_t>(0,
            metrics.node(n).storage_current));
  }
  EXPECT_GT(joined_storage, 0u)
      << "no handoff reached any joined node's store";

  // New deliveries for the moved ranges land at the joined nodes too.
  const uint64_t qpl_before = [&] {
    uint64_t q = 0;
    for (NodeIndex n = 12; n < metrics.num_nodes(); ++n) {
      q += metrics.node(n).qpl;
    }
    return q;
  }();
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(engine.PublishTuple(2, "S", {I(i), I(i), I(i)}).ok());
  }
  simulator.Run();
  uint64_t qpl_after = 0;
  for (NodeIndex n = 12; n < metrics.num_nodes(); ++n) {
    qpl_after += metrics.node(n).qpl;
  }
  EXPECT_GT(qpl_after, qpl_before);
}

TEST(ChordProtocolTest, FreshJoinerLookupsDegradeGracefully) {
  // A node that joined but has not fixed fingers yet still resolves
  // correct successors (through successor walks).
  auto net = ChordNetwork::Create(16, 8);
  auto joined =
      net->JoinViaBootstrap(NodeId::FromKey("slow"), net->AliveNodes()[0]);
  ASSERT_TRUE(joined.ok());
  // Stabilize the ring but never fix the newcomer's fingers.
  for (int r = 0; r < 4; ++r) {
    for (NodeIndex n : net->AliveNodes()) net->StabilizeOnce(n);
  }
  Rng rng(123);
  for (int i = 0; i < 20; ++i) {
    const NodeId key = NodeId::FromKey("g:" + std::to_string(rng.Next()));
    EXPECT_EQ(net->FindSuccessorFrom(*joined, key),
              BruteForceSuccessor(*net, key));
  }
}

}  // namespace
}  // namespace rjoin::dht
