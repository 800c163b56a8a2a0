// Tests of the typed zero-allocation message plane: MessageTask taxonomy,
// Envelope pooling (slab growth stops at the in-flight high-water mark —
// steady-state delivery performs zero heap allocations per message, on the
// serial simulator and on the sharded runtime), MultiSend envelope chains,
// and the auto-tuned round width.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/messages.h"
#include "dht/chord_network.h"
#include "dht/transport.h"
#include "runtime/shard_router.h"
#include "runtime/sharded_runtime.h"
#include "sim/latency.h"
#include "sim/simulator.h"
#include "sql/schema.h"
#include "stats/metrics.h"

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
  explicit Harness(size_t nodes, uint32_t shards = 0, uint64_t seed = 7)
      : catalog(TestCatalog()),
        network(dht::ChordNetwork::Create(nodes, seed)),
        latency(1),
        metrics(network->num_total()),
        transport(network.get(), &simulator, &latency, &metrics,
                  Rng(seed * 31)),
        engine(EngineConfig{}, &catalog, network.get(), &transport,
               &simulator, &metrics) {
    if (shards > 0) {
      runtime = std::make_unique<runtime::ShardedRuntime>(
          runtime::ShardedRuntime::Options{shards, 1}, network->num_total(),
          &metrics);
      router = std::make_unique<runtime::ShardRouter>(runtime.get(),
                                                      seed * 31);
      transport.set_router(router.get());
      engine.AttachRuntime(runtime.get());
    }
  }

  static sql::Catalog TestCatalog() {
    sql::Catalog c;
    EXPECT_TRUE(c.AddRelation(sql::Schema("R", {"A", "B"})).ok());
    EXPECT_TRUE(c.AddRelation(sql::Schema("S", {"A", "B"})).ok());
    return c;
  }

  void Run() {
    if (runtime != nullptr) {
      runtime->Run();
    } else {
      simulator.Run();
    }
  }

  /// Envelope allocations across every pool the stack uses (serial
  /// simulator pool + shard pools).
  uint64_t EnvelopesAllocated() {
    uint64_t total = simulator.pool().stats().envelopes_allocated;
    if (runtime != nullptr) {
      for (uint32_t s = 0; s < runtime->shards(); ++s) {
        total += runtime->shard_pool(s)->stats().envelopes_allocated;
      }
    }
    return total;
  }

  sql::Catalog catalog;
  std::unique_ptr<dht::ChordNetwork> network;
  sim::Simulator simulator;
  sim::FixedLatency latency;
  stats::MetricsRegistry metrics;
  dht::Transport transport;
  RJoinEngine engine;
  // Declared last: workers join (and shard heaps drain into still-live
  // pools) before the transport and simulator go away.
  std::unique_ptr<runtime::ShardedRuntime> runtime;
  std::unique_ptr<runtime::ShardRouter> router;
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
  const uint64_t allocated_after_warmup = h.EnvelopesAllocated();
  const uint64_t acquired_after_warmup = h.simulator.pool().stats().acquired;
  Stream(h, 96);  // steady state: every envelope is a freelist hit
  EXPECT_EQ(h.EnvelopesAllocated(), allocated_after_warmup)
      << "steady-state delivery allocated envelopes";
  EXPECT_GT(h.simulator.pool().stats().acquired, acquired_after_warmup + 500)
      << "warm stream stopped producing messages — vacuous check";
}

TEST(ZeroAllocationTest, ShardedSteadyStateAllocatesNoEnvelopes) {
  Harness h(24, /*shards=*/3);
  SubmitWindowedJoin(h);
  Stream(h, 48);
  const uint64_t allocated_after_warmup = h.EnvelopesAllocated();
  Stream(h, 96);
  EXPECT_EQ(h.EnvelopesAllocated(), allocated_after_warmup)
      << "steady-state sharded delivery allocated envelopes";
}

TEST(ZeroAllocationTest, SerialAndShardedAnswersAgree) {
  // The same bounded stream on both pumps: answer multisets must agree
  // (FixedLatency + no rate reads in windows-only trigger path keeps the
  // comparison exact in counts).
  Harness serial(24);
  Harness sharded(24, /*shards=*/3);
  SubmitWindowedJoin(serial);
  SubmitWindowedJoin(sharded);
  Stream(serial, 64);
  Stream(sharded, 64);
  EXPECT_GT(serial.engine.answers().size(), 0u);
  EXPECT_EQ(serial.engine.answers().size(), sharded.engine.answers().size());
}

// ---------------------------------------------------------- round width --

TEST(AutoRoundWidthTest, TracksTheLatencyLookahead) {
  sim::FixedLatency fixed(3);
  EXPECT_EQ(runtime::AutoRoundWidth(fixed), 3u);
  sim::UniformLatency uniform(2, 9);
  EXPECT_EQ(runtime::AutoRoundWidth(uniform), 2u);
  sim::BurstyLatency bursty(2, 7, 0.1);
  EXPECT_EQ(runtime::AutoRoundWidth(bursty), 2u);
  // Zero-capable models fall back to pure deferral rounds of width 1.
  sim::UniformLatency zero_capable(0, 4);
  EXPECT_EQ(runtime::AutoRoundWidth(zero_capable), 1u);
}

}  // namespace
}  // namespace rjoin::core
