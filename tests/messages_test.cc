// Tests of the typed zero-allocation message plane: MessageTask taxonomy,
// Envelope pooling (slab growth stops at the in-flight high-water mark —
// steady-state delivery performs zero heap allocations per message) and
// envelope chains, plus the check that ExperimentConfig::shards is accepted
// and ignored.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/messages.h"
#include "dht/chord_network.h"
#include "dht/transport.h"
#include "sim/latency.h"
#include "sim/simulator.h"
#include "sql/evaluator.h"
#include "sql/schema.h"
#include "stats/metrics.h"
#include "workload/experiment.h"

namespace rjoin::core {
namespace {

// ----------------------------------------------------------- MessageTask --

TEST(MessageTaskTest, KindTracksAlternative) {
  // One case per enumerator, in enumerator order: a kind added without a
  // case here fails the size check.
  std::vector<std::pair<MessageKind, MessageTask>> cases;
  cases.emplace_back(MessageKind::kNone, MessageTask());
  cases.emplace_back(MessageKind::kTuplePublish, TuplePublish{});
  cases.emplace_back(MessageKind::kQueryIndex, QueryIndex{});
  cases.emplace_back(MessageKind::kRewrite, Rewrite{});
  cases.emplace_back(MessageKind::kAnswerDeliver, AnswerDeliver{});
  cases.emplace_back(MessageKind::kControl, Control{[] {}});
  cases.emplace_back(MessageKind::kNodeJoin, NodeJoin{});
  cases.emplace_back(MessageKind::kNodeLeave, NodeLeave{});
  cases.emplace_back(MessageKind::kStateHandoff, StateHandoff{});
  cases.emplace_back(MessageKind::kReplicaUpdate, ReplicaUpdate{});
  cases.emplace_back(MessageKind::kNodeCrash, NodeCrash{});
  ASSERT_EQ(cases.size(), MessageTask::kNumKinds);
  for (size_t i = 0; i < cases.size(); ++i) {
    const auto& [kind, task] = cases[i];
    EXPECT_EQ(static_cast<size_t>(kind), i) << MessageKindName(kind);
    EXPECT_EQ(task.kind(), kind) << MessageKindName(kind);
  }
  EXPECT_TRUE(MessageTask().empty());
}

TEST(MessageTaskTest, ResetDropsPayload) {
  AnswerDeliver msg;
  msg.query_id = 7;
  msg.row_len = 1;
  msg.row[0] = 42;
  MessageTask task(std::move(msg));
  EXPECT_EQ(task.kind(), MessageKind::kAnswerDeliver);
  task.Reset();
  EXPECT_EQ(task.kind(), MessageKind::kNone);
}

TEST(MessageTaskTest, KindNamesAreDistinct) {
  std::vector<std::string> names;
  for (size_t k = 0; k < MessageTask::kNumKinds; ++k) {
    names.push_back(MessageKindName(static_cast<MessageKind>(k)));
    EXPECT_NE(names.back(), "unknown") << "kind " << k;
  }
  for (size_t i = 0; i < names.size(); ++i) {
    for (size_t j = i + 1; j < names.size(); ++j) {
      EXPECT_NE(names[i], names[j]);
    }
  }
}

// ----------------------------------------------------------- MessagePool --

TEST(MessagePoolTest, SteadyStateRecyclesWithoutAllocating) {
  MessagePool pool;
  for (int i = 0; i < 1000; ++i) {
    EnvelopeRef env = pool.Acquire();
    env->task = MessageTask(AnswerDeliver{});
  }  // released on scope exit, so at most one envelope is ever in flight
  const MessagePool::Stats stats = pool.stats();
  EXPECT_EQ(stats.acquired, 1000u);
  EXPECT_EQ(stats.envelopes_allocated, 1u);
  EXPECT_EQ(stats.recycled, 999u);
  EXPECT_EQ(stats.slabs_allocated, 1u);
}

TEST(MessagePoolTest, AllocationsTrackHighWaterMarkOnly) {
  MessagePool pool;
  std::vector<EnvelopeRef> held;
  for (int i = 0; i < 10; ++i) held.push_back(pool.Acquire());
  held.clear();  // all 10 back on the freelist
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 10; ++i) held.push_back(pool.Acquire());
    held.clear();
  }
  EXPECT_EQ(pool.stats().envelopes_allocated, 10u);
  EXPECT_EQ(pool.stats().acquired, 510u);
}

TEST(MessagePoolTest, ReleasingAChainReturnsEveryEnvelope) {
  MessagePool pool;
  {
    EnvelopeRef head = pool.Acquire();
    Envelope* tail = head.get();
    for (int i = 0; i < 4; ++i) {
      tail->link = pool.Acquire().release();
      tail = tail->link;
    }
  }  // dropping the head must walk the chain
  EXPECT_EQ(pool.stats().envelopes_allocated, 5u);
  std::vector<EnvelopeRef> again;
  for (int i = 0; i < 5; ++i) again.push_back(pool.Acquire());
  // All five came back through the freelist; no new storage.
  EXPECT_EQ(pool.stats().envelopes_allocated, 5u);
  EXPECT_EQ(pool.stats().recycled, 5u);
}

// ------------------------------------------------- end-to-end harnesses --

struct Harness {
  explicit Harness(size_t nodes, uint64_t seed = 7)
      : catalog(TestCatalog()),
        network(dht::ChordNetwork::Create(nodes, seed)),
        latency(1),
        metrics(network->num_total()),
        sim(&metrics, seed * 31),
        transport(network.get(), &sim, &latency),
        engine(EngineConfig{}, &catalog, network.get(), &transport, &sim) {}

  static sql::Catalog TestCatalog() {
    sql::Catalog c;
    EXPECT_TRUE(c.AddRelation(sql::Schema("R", {"A", "B"})).ok());
    EXPECT_TRUE(c.AddRelation(sql::Schema("S", {"A", "B"})).ok());
    return c;
  }

  void Run() { sim.Run(); }

  sql::Catalog catalog;
  std::unique_ptr<dht::ChordNetwork> network;
  sim::FixedLatency latency;
  stats::MetricsRegistry metrics;
  sim::Simulator sim;
  dht::Transport transport;
  RJoinEngine engine;
};

std::vector<sql::Value> Row(int64_t a, int64_t b) {
  return {sql::Value::Int(a), sql::Value::Int(b)};
}

/// Publishes `count` tuples round-robin over both relations, draining after
/// each (windowed queries + sweeps keep stored state bounded).
void Stream(Harness& h, int count, int value_space = 5) {
  for (int i = 0; i < count; ++i) {
    const char* rel = (i % 2 == 0) ? "R" : "S";
    ASSERT_TRUE(
        h.engine.PublishTuple(1, rel, Row(i % value_space, i)).ok());
    h.Run();
    if (i % 8 == 7) h.engine.SweepWindows();
  }
}

void SubmitWindowedJoin(Harness& h) {
  auto parsed = sql::Parser::Parse(
      "SELECT R.B, S.B FROM R, S WHERE R.A = S.A WINDOW 8 TUPLES");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  auto id = h.engine.SubmitQuery(0, std::move(*parsed));
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  h.Run();
}

TEST(ZeroAllocationTest, SerialSteadyStateAllocatesNoEnvelopes) {
  Harness h(24);
  SubmitWindowedJoin(h);
  Stream(h, 48);  // warm-up: pools grow to the in-flight high-water mark
  const MessagePool::Stats warm = h.sim.pool().stats();
  Stream(h, 96);  // steady state: every envelope is a freelist hit
  EXPECT_EQ(h.sim.pool().stats().envelopes_allocated, warm.envelopes_allocated)
      << "steady-state delivery allocated envelopes";
  EXPECT_GT(h.sim.pool().stats().acquired, warm.acquired + 500)
      << "warm stream stopped producing messages — vacuous check";
}

/// What one Experiment run delivered and left behind.
struct ExperimentOutput {
  std::vector<std::string> answers;  // query|row|delivered_at, in order
  uint64_t total_messages = 0;
  size_t stored_queries = 0;
  size_t stored_tuples = 0;
};

ExperimentOutput RunExperiment(uint32_t shards) {
  workload::ExperimentConfig cfg;
  cfg.num_nodes = 40;
  cfg.num_queries = 100;
  cfg.num_tuples = 48;
  cfg.way = 3;
  cfg.workload.num_relations = 6;
  cfg.workload.num_attributes = 4;
  cfg.workload.num_values = 25;
  cfg.pipeline_stream = true;
  cfg.shards = shards;
  workload::Experiment e(cfg);
  e.Run();
  ExperimentOutput out;
  for (const Answer& a : e.engine().answers()) {
    out.answers.push_back(std::to_string(a.query_id) + "|" +
                          sql::AnswerRowKey(a.row) + "|" +
                          std::to_string(a.delivered_at));
  }
  out.total_messages = e.metrics().total_messages();
  out.stored_queries = e.engine().CountStoredQueries();
  out.stored_tuples = e.engine().CountStoredTuples();
  return out;
}

TEST(ZeroAllocationTest, SerialAndShardedAnswersAgree) {
  // ExperimentConfig::shards is accepted and ignored: asking for three
  // workers (perfbench's sharded_windowed value) runs the serial pump, so
  // the run equals the kForceSerial one exactly. The RIC planner reads
  // live rates at every rewrite, so a pump that answered RIC from other
  // rate snapshots would show here.
  const ExperimentOutput serial =
      RunExperiment(workload::ExperimentConfig::kForceSerial);
  const ExperimentOutput three = RunExperiment(3);
  EXPECT_GT(serial.answers.size(), 0u);
  EXPECT_EQ(serial.answers, three.answers);
  EXPECT_EQ(serial.total_messages, three.total_messages);
  EXPECT_EQ(serial.stored_queries, three.stored_queries);
  EXPECT_EQ(serial.stored_tuples, three.stored_tuples);
}

}  // namespace
}  // namespace rjoin::core
