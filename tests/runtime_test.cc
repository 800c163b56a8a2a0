// Tests of the sharded parallel runtime: deterministic round/mailbox
// mechanics on raw runtimes, and end-to-end S=1 vs S=4 equivalence of whole
// experiments (answers, per-node message counts, load snapshots) across
// engine configurations.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "runtime/sharded_runtime.h"
#include "sql/evaluator.h"
#include "stats/metrics.h"
#include "workload/experiment.h"

namespace rjoin {
namespace {

using runtime::EventKey;
using runtime::ShardedRuntime;

// ---------------------------------------------------------------- raw runtime

struct TraceEntry {
  sim::SimTime time = 0;
  stats::NodeIndex node = 0;
  uint64_t tag = 0;

  auto operator<=>(const TraceEntry&) const = default;
};

/// Per-node trace sinks: each vector is written only by the shard owning
/// the node, so concurrent rounds never race on them.
struct Trace {
  explicit Trace(size_t nodes) : per_node(nodes) {}
  std::vector<std::vector<TraceEntry>> per_node;

  std::vector<TraceEntry> Merged() const {
    std::vector<TraceEntry> all;
    for (const auto& v : per_node) {
      all.insert(all.end(), v.begin(), v.end());
    }
    std::sort(all.begin(), all.end());
    return all;
  }
};

/// A deterministic message storm: every executed event at `node` fans out to
/// (node + 1) % nodes and (node + 3) % nodes until `depth` generations have
/// run, every hop taking exactly `lookahead` ticks. Cross-shard for most
/// partitions, self-sends included when nodes are few. Returns the merged
/// execution trace.
std::vector<TraceEntry> RunStorm(uint32_t shards, size_t nodes, int depth,
                                 sim::SimTime lookahead = 2) {
  stats::MetricsRegistry metrics(nodes);
  ShardedRuntime::Options opt;
  opt.shards = shards;
  opt.lookahead = lookahead;
  ShardedRuntime rt(opt, nodes, &metrics);
  Trace trace(nodes);

  // Recursive fan-out; captures rt/trace by reference (alive through Run).
  std::function<void(stats::NodeIndex, int, uint64_t)> fire =
      [&](stats::NodeIndex node, int remaining, uint64_t tag) {
        trace.per_node[node].push_back(
            TraceEntry{rt.Now(), node, tag});
        if (remaining == 0) return;
        for (stats::NodeIndex step : {1u, 3u}) {
          const stats::NodeIndex dst =
              static_cast<stats::NodeIndex>((node + step) % nodes);
          const uint64_t seq = rt.NextEmitSeq(node);
          sim::SimTime when = rt.Now() + lookahead;
          if (dst != node) when = std::max(when, rt.CurrentRoundEnd());
          rt.ScheduleEvent(EventKey{when, node, seq}, dst,
                           [&fire, dst, remaining, tag, step] {
                             fire(dst, remaining - 1, tag * 10 + step);
                           });
        }
      };

  for (stats::NodeIndex n = 0; n < nodes; ++n) {
    rt.ScheduleEvent(EventKey{0, n, rt.NextEmitSeq(n)}, n,
                     [&fire, n, depth] { fire(n, depth, 7); });
  }
  rt.Run();
  return trace.Merged();
}

TEST(ShardedRuntimeTest, RunDrainsAndCountsEvents) {
  stats::MetricsRegistry metrics(4);
  ShardedRuntime rt({.shards = 2, .lookahead = 1}, 4, &metrics);
  int fired = 0;
  rt.ScheduleEvent(EventKey{5, 0, 1}, 0, [&] { ++fired; });
  rt.ScheduleEvent(EventKey{9, 3, 1}, 3, [&] { ++fired; });
  EXPECT_EQ(rt.Run(), 2u);
  EXPECT_EQ(fired, 2);
  // Clock lands on the last executed event's time (Simulator semantics).
  EXPECT_EQ(rt.Now(), 9u);
}

TEST(ShardedRuntimeTest, RunUntilAdvancesClockAndHoldsFutureEvents) {
  stats::MetricsRegistry metrics(2);
  ShardedRuntime rt({.shards = 2, .lookahead = 1}, 2, &metrics);
  int fired = 0;
  rt.ScheduleEvent(EventKey{3, 0, 1}, 0, [&] { ++fired; });
  rt.ScheduleEvent(EventKey{10, 1, 1}, 1, [&] { ++fired; });
  EXPECT_EQ(rt.RunUntil(7), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(rt.Now(), 7u);  // clock advances even past the drained event
  EXPECT_EQ(rt.Run(), 1u);
  EXPECT_EQ(fired, 2);
}

TEST(ShardedRuntimeTest, MailboxDeliversInEventKeyOrder) {
  // Three same-time messages from different sources + seqs must execute at
  // the destination in (time, src, seq) order regardless of arrival path.
  stats::MetricsRegistry metrics(8);
  ShardedRuntime rt({.shards = 4, .lookahead = 4}, 8, &metrics);
  std::vector<std::pair<stats::NodeIndex, uint64_t>> order;
  // Node 7 (shard 3) receives from nodes 0, 2, 4 (shards 0, 1, 2).
  for (stats::NodeIndex src : {4u, 0u, 2u}) {  // scheduled out of order
    for (uint64_t seq : {2u, 1u}) {
      rt.ScheduleEvent(EventKey{20, src, seq}, 7,
                       [&order, src, seq] { order.emplace_back(src, seq); });
    }
  }
  rt.Run();
  const std::vector<std::pair<stats::NodeIndex, uint64_t>> want = {
      {0, 1}, {0, 2}, {2, 1}, {2, 2}, {4, 1}, {4, 2}};
  EXPECT_EQ(order, want);
}

// ------------------------------------------------------- watermark edges

/// Storm over zero-latency links: cross-node hops take 0 ticks, so the
/// delivery rule must defer them by the 1-tick lookahead (the clamp for
/// zero-capable latency models) — identically for every partitioning.
std::vector<TraceEntry> RunZeroDelayStorm(uint32_t shards, size_t nodes,
                                          int depth) {
  stats::MetricsRegistry metrics(nodes);
  ShardedRuntime rt({.shards = shards, .lookahead = 1}, nodes, &metrics);
  Trace trace(nodes);
  std::function<void(stats::NodeIndex, int)> fire =
      [&](stats::NodeIndex node, int remaining) {
        trace.per_node[node].push_back(TraceEntry{rt.Now(), node, 1});
        if (remaining == 0) return;
        for (stats::NodeIndex step : {1u, 3u}) {
          const stats::NodeIndex dst =
              static_cast<stats::NodeIndex>((node + step) % nodes);
          // Zero-delay hop, deferred to the lookahead edge (now + 1).
          const sim::SimTime when =
              std::max(rt.Now(), rt.CurrentRoundEnd());
          rt.ScheduleEvent(EventKey{when, node, rt.NextEmitSeq(node)}, dst,
                           [&fire, dst, remaining] {
                             fire(dst, remaining - 1);
                           });
        }
      };
  for (stats::NodeIndex n = 0; n < nodes; ++n) {
    rt.ScheduleEvent(EventKey{0, n, rt.NextEmitSeq(n)}, n,
                     [&fire, n, depth] { fire(n, depth); });
  }
  rt.Run();
  return trace.Merged();
}

TEST(ShardedRuntimeTest, ZeroLatencyLinksDeferOneTickInvariantly) {
  const auto serial = RunZeroDelayStorm(/*shards=*/1, /*nodes=*/12, 6);
  EXPECT_FALSE(serial.empty());
  // Every generation lands exactly one tick after its parent.
  for (uint32_t shards : {2u, 4u, 8u}) {
    EXPECT_EQ(RunZeroDelayStorm(shards, 12, 6), serial)
        << "shards=" << shards;
  }
}

TEST(ShardedRuntimeTest, WideLookaheadKeepsTraceInvariant) {
  // Slow links: with a 4-tick lookahead receivers may run that far ahead
  // of their peers, and the trace must not change.
  const auto serial =
      RunStorm(/*shards=*/1, /*nodes=*/12, /*depth=*/5, /*lookahead=*/4);
  EXPECT_FALSE(serial.empty());
  for (uint32_t shards : {2u, 4u}) {
    EXPECT_EQ(RunStorm(shards, 12, 5, 4), serial) << "shards=" << shards;
  }
}

TEST(ShardedRuntimeTest, SingleShardWatermarkIsDegenerate) {
  // S=1 has no peers: the frontier is unbounded, the whole run is one
  // epoch, and the worker can never stall on a watermark.
  stats::MetricsRegistry metrics(4);
  ShardedRuntime rt({.shards = 1, .lookahead = 2}, 4, &metrics);
  std::function<void(stats::NodeIndex, int)> fire =
      [&](stats::NodeIndex node, int remaining) {
        if (remaining == 0) return;
        const stats::NodeIndex dst =
            static_cast<stats::NodeIndex>((node + 1) % 4);
        rt.ScheduleEvent(
            EventKey{rt.Now() + 2, node, rt.NextEmitSeq(node)}, dst,
            [&fire, dst, remaining] { fire(dst, remaining - 1); });
      };
  rt.ScheduleEvent(EventKey{0, 0, rt.NextEmitSeq(0)}, 0,
                   [&fire] { fire(0, 20); });
  rt.Run();
  const auto sched = rt.scheduler_stats();
  EXPECT_EQ(sched.epochs, 1u);
  EXPECT_EQ(sched.watermark_stalls, 0u);
  // 21 events spaced 2 ticks over one epoch: the lockstep scheduler would
  // have run ~21 one-lookahead rounds; the watermark model ran 1 epoch.
  EXPECT_GT(sched.equivalent_rounds, sched.epochs);
  EXPECT_GT(sched.overlap_ratio(), 0.9);
}

TEST(ShardedRuntimeTest, StarvedShardRecoversWhenWorkArrives) {
  // Shard 1's only events arrive late, produced by a long local chain on
  // shard 0: its worker idles behind the watermark (parking after the spin
  // budget) and must wake for each delivery. The result must not depend on
  // any of that timing.
  stats::MetricsRegistry metrics(2);
  ShardedRuntime rt({.shards = 2, .lookahead = 1}, 2, &metrics);
  std::vector<sim::SimTime> hits;  // node 1 only — single-writer
  std::function<void(int)> step = [&](int k) {
    if (k % 10 == 0 && k > 0) {
      rt.ScheduleEvent(EventKey{rt.Now() + 1, 0, rt.NextEmitSeq(0)}, 1,
                       [&] { hits.push_back(rt.Now()); });
    }
    if (k < 50) {
      rt.ScheduleEvent(EventKey{rt.Now() + 1, 0, rt.NextEmitSeq(0)}, 0,
                       [&step, k] { step(k + 1); });
    }
  };
  rt.ScheduleEvent(EventKey{0, 0, rt.NextEmitSeq(0)}, 0, [&step] { step(0); });
  rt.Run();
  const std::vector<sim::SimTime> want = {11, 21, 31, 41, 51};
  EXPECT_EQ(hits, want);
  // Exactly the five cross-shard deliveries rode the mailbox plane.
  EXPECT_EQ(rt.mailbox_stats().envelopes, 5u);
}

/// Barrier hook that records rendezvous times and requests a serial phase
/// at fixed boundaries, like the engine's RIC-epoch schedule.
struct RecordingHook : runtime::BarrierHook {
  explicit RecordingHook(sim::SimTime period) : period(period) {}
  void OnBarrier(sim::SimTime t) override { barriers.push_back(t); }
  sim::SimTime NextRendezvous(sim::SimTime after) override {
    return ((after / period) + 1) * period;
  }
  sim::SimTime period;
  std::vector<sim::SimTime> barriers;
};

/// A chain on node 0 (events at 0, 1, 2, ... 2 * period) that stages a
/// rendezvous cap from the events at `period - 1` and `period` — the first
/// lands exactly on the hook's natural horizon (the cap is a no-op), the
/// second caps the following epoch from its very first tick. Cross-sends
/// to node 1 after each cap probe the post-rendezvous frontier.
std::pair<std::vector<TraceEntry>, std::vector<sim::SimTime>> RunCapStorm(
    uint32_t shards) {
  constexpr sim::SimTime kPeriod = 8;
  stats::MetricsRegistry metrics(2);
  ShardedRuntime rt({.shards = shards, .lookahead = 1}, 2, &metrics);
  RecordingHook hook(kPeriod);
  rt.AddBarrierHook(&hook);
  Trace trace(2);
  std::function<void(int)> step = [&](int k) {
    trace.per_node[0].push_back(TraceEntry{rt.Now(), 0, 3});
    const sim::SimTime t = rt.Now();
    if (t == kPeriod - 1 || t == kPeriod) {
      // Stage a serial-phase request exactly like a churn op would: cap
      // the horizon at this event's time + lookahead.
      rt.RequestRendezvousBy(t + rt.lookahead());
      rt.ScheduleEvent(EventKey{t + 1, 0, rt.NextEmitSeq(0)}, 1, [&] {
        trace.per_node[1].push_back(TraceEntry{rt.Now(), 1, 4});
      });
    }
    if (k < 2 * kPeriod) {
      rt.ScheduleEvent(EventKey{t + 1, 0, rt.NextEmitSeq(0)}, 0,
                       [&step, k] { step(k + 1); });
    }
  };
  rt.ScheduleEvent(EventKey{0, 0, rt.NextEmitSeq(0)}, 0, [&step] { step(0); });
  rt.Run();
  return {trace.Merged(), hook.barriers};
}

TEST(ShardedRuntimeTest, RendezvousCapAtWatermarkBoundaryIsInvariant) {
  const auto serial = RunCapStorm(/*shards=*/1);
  EXPECT_FALSE(serial.first.empty());
  // The cap schedule is a pure function of the event population: barrier
  // times and the trace must match for any shard count.
  for (uint32_t shards : {2u, 4u}) {
    const auto sharded = RunCapStorm(shards);
    EXPECT_EQ(sharded.first, serial.first) << "shards=" << shards;
    EXPECT_EQ(sharded.second, serial.second) << "shards=" << shards;
  }
}

TEST(ShardedRuntimeTest, StormTraceIsShardCountInvariant) {
  const auto serial = RunStorm(/*shards=*/1, /*nodes=*/16, /*depth=*/5);
  EXPECT_FALSE(serial.empty());
  for (uint32_t shards : {2u, 4u, 8u}) {
    EXPECT_EQ(RunStorm(shards, 16, 5), serial) << "shards=" << shards;
  }
}

TEST(ShardedRuntimeTest, EmptyAndSingleNodeShardsAreHarmless) {
  // More shards than nodes: every shard holds at most one node, several
  // hold none and must just idle through the barriers.
  const auto serial = RunStorm(/*shards=*/1, /*nodes=*/3, /*depth=*/4);
  EXPECT_EQ(RunStorm(/*shards=*/8, 3, 4), serial);
  EXPECT_EQ(RunStorm(/*shards=*/3, 3, 4), serial);
}

TEST(ShardedRuntimeTest, ZeroDelaySelfSendExecutesInRound) {
  // A node sending to itself with zero delay (src == Successor(key) in the
  // transport) must execute within the same round and the same tick.
  stats::MetricsRegistry metrics(2);
  ShardedRuntime rt({.shards = 2, .lookahead = 1}, 2, &metrics);
  std::vector<sim::SimTime> times;
  rt.ScheduleEvent(EventKey{4, 1, 1}, 1, [&] {
    times.push_back(rt.Now());
    rt.ScheduleEvent(EventKey{rt.Now(), 1, rt.NextEmitSeq(1)}, 1,
                     [&] { times.push_back(rt.Now()); });
  });
  rt.Run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_EQ(times[0], 4u);
  EXPECT_EQ(times[1], 4u);
}

TEST(ShardedRuntimeTest, ShardMetricsMergeIntoMainAtBarriers) {
  stats::MetricsRegistry metrics(4);
  ShardedRuntime rt({.shards = 2, .lookahead = 1}, 4, &metrics);
  // Workers charge traffic through their own delta registries.
  rt.ScheduleEvent(EventKey{1, 0, 1}, 0, [&] {
    rt.ActiveMetrics()->AddTraffic(0, 2);
    rt.ActiveMetrics()->AddTraffic(3, 1);  // other shard's node: still local
  });
  rt.ScheduleEvent(EventKey{1, 3, 1}, 3,
                   [&] { rt.ActiveMetrics()->AddQpl(3, 5); });
  rt.Run();
  EXPECT_EQ(metrics.total_messages(), 3u);
  EXPECT_EQ(metrics.node(0).messages_sent, 2u);
  EXPECT_EQ(metrics.node(3).messages_sent, 1u);
  EXPECT_EQ(metrics.node(3).qpl, 5u);
  EXPECT_EQ(metrics.total_qpl(), 5u);
  // Deltas were drained.
  EXPECT_EQ(rt.shard_metrics(0)->total_messages(), 0u);
  EXPECT_EQ(rt.shard_metrics(1)->total_qpl(), 0u);
}

TEST(MetricsRegistryTest, MergeFromDrainsDeltasExactly) {
  stats::MetricsRegistry main(3);
  stats::MetricsRegistry shard(3);
  shard.EnableDeltaTracking();
  shard.AddTraffic(1, 4, /*ric=*/true);
  shard.AddStore(2, 2);
  shard.RemoveStore(2, 1);
  shard.AddAnswer();
  main.MergeFrom(&shard);
  EXPECT_EQ(main.node(1).messages_sent, 4u);
  EXPECT_EQ(main.node(1).ric_messages_sent, 4u);
  EXPECT_EQ(main.node(2).storage_total, 2u);
  EXPECT_EQ(main.node(2).storage_current, 1);
  EXPECT_EQ(main.answers_delivered(), 1u);
  EXPECT_EQ(shard.total_messages(), 0u);
  EXPECT_EQ(shard.node(1).messages_sent, 0u);
  // A second merge is a no-op.
  main.MergeFrom(&shard);
  EXPECT_EQ(main.node(1).messages_sent, 4u);
}

// ------------------------------------------------------- experiment parity

workload::ExperimentConfig BaseConfig() {
  workload::ExperimentConfig cfg;
  cfg.num_nodes = 40;
  cfg.num_queries = 120;
  cfg.num_tuples = 48;
  cfg.way = 3;
  cfg.workload.num_relations = 6;
  cfg.workload.num_attributes = 4;
  cfg.workload.num_values = 25;
  cfg.seed = 9;
  return cfg;
}

struct RunOutput {
  workload::ExperimentResult result;
  std::vector<std::string> answers;  // (query, row, time) render
  uint64_t total_messages = 0;
  uint64_t total_qpl = 0;
  size_t stored_queries = 0;
  size_t stored_tuples = 0;
};

RunOutput RunWith(workload::ExperimentConfig cfg, uint32_t shards) {
  cfg.shards = shards;
  workload::Experiment e(cfg);
  RunOutput out;
  out.result = e.Run();
  for (const core::Answer& a : e.engine().answers()) {
    out.answers.push_back(std::to_string(a.query_id) + "|" +
                          sql::AnswerRowKey(a.row) + "|" +
                          std::to_string(a.delivered_at));
  }
  out.total_messages = e.metrics().total_messages();
  out.total_qpl = e.metrics().total_qpl();
  out.stored_queries = e.engine().CountStoredQueries();
  out.stored_tuples = e.engine().CountStoredTuples();
  return out;
}

void ExpectIdentical(const RunOutput& a, const RunOutput& b) {
  // Identical answers: same rows, same order, same virtual delivery times.
  EXPECT_EQ(a.answers, b.answers);
  // Identical per-node message counts and load snapshots.
  EXPECT_EQ(a.result.final_snapshot.messages, b.result.final_snapshot.messages);
  EXPECT_EQ(a.result.final_snapshot.ric_messages,
            b.result.final_snapshot.ric_messages);
  EXPECT_EQ(a.result.final_snapshot.qpl, b.result.final_snapshot.qpl);
  EXPECT_EQ(a.result.final_snapshot.storage, b.result.final_snapshot.storage);
  EXPECT_EQ(a.total_messages, b.total_messages);
  EXPECT_EQ(a.total_qpl, b.total_qpl);
  EXPECT_EQ(a.result.answers_delivered, b.result.answers_delivered);
  EXPECT_EQ(a.stored_queries, b.stored_queries);
  EXPECT_EQ(a.stored_tuples, b.stored_tuples);
  // The per-tuple cumulative series must match sample by sample.
  ASSERT_EQ(a.result.per_tuple.size(), b.result.per_tuple.size());
  for (size_t i = 0; i < a.result.per_tuple.size(); ++i) {
    EXPECT_EQ(a.result.per_tuple[i].total_messages,
              b.result.per_tuple[i].total_messages)
        << "tuple " << i;
    EXPECT_EQ(a.result.per_tuple[i].total_storage,
              b.result.per_tuple[i].total_storage)
        << "tuple " << i;
  }
}

TEST(RuntimeEquivalenceTest, RicConfigMatchesAcrossShardCounts) {
  const workload::ExperimentConfig cfg = BaseConfig();  // kRic default
  const RunOutput s1 = RunWith(cfg, 1);
  EXPECT_GT(s1.answers.size(), 0u);
  ExpectIdentical(s1, RunWith(cfg, 4));
  ExpectIdentical(s1, RunWith(cfg, 7));  // uneven partition
}

TEST(RuntimeEquivalenceTest, WindowedConfigMatchesAcrossShardCounts) {
  workload::ExperimentConfig cfg = BaseConfig();
  cfg.num_tuples = 64;
  sql::WindowSpec w;
  w.use_windows = true;
  w.unit = sql::WindowSpec::Unit::kTuples;
  w.size = 12;
  cfg.window = w;
  cfg.sweep_every = 8;
  const RunOutput s1 = RunWith(cfg, 1);
  ExpectIdentical(s1, RunWith(cfg, 4));
}

TEST(RuntimeEquivalenceTest, ReplicatedConfigMatchesAcrossShardCounts) {
  workload::ExperimentConfig cfg = BaseConfig();
  cfg.attr_replication = 2;
  cfg.rewrite_levels = core::RewriteIndexLevels::kIncludeAttribute;
  const RunOutput s1 = RunWith(cfg, 1);
  ExpectIdentical(s1, RunWith(cfg, 4));
}

TEST(RuntimeEquivalenceTest, RandomAndWorstPoliciesMatchAcrossShardCounts) {
  workload::ExperimentConfig cfg = BaseConfig();
  cfg.policy = core::PlannerPolicy::kRandom;
  ExpectIdentical(RunWith(cfg, 1), RunWith(cfg, 4));
  cfg.policy = core::PlannerPolicy::kWorst;
  cfg.charge_ric = false;
  ExpectIdentical(RunWith(cfg, 1), RunWith(cfg, 4));
}

TEST(RuntimeEquivalenceTest, PipelinedStreamingMatchesAcrossShardCounts) {
  workload::ExperimentConfig cfg = BaseConfig();
  cfg.pipeline_stream = true;  // many tuples in flight per round
  const RunOutput s1 = RunWith(cfg, 1);
  ExpectIdentical(s1, RunWith(cfg, 4));
}

TEST(RuntimeEquivalenceTest, LegacySerialMatchesShardedWhenNoRatesAreRead) {
  // With the kFirstInClause policy nothing reads RIC rates and nothing
  // draws planner randomness, and FixedLatency ignores the message RNG —
  // so the sharded run must reproduce the legacy serial simulator's answer
  // multiset and traffic totals exactly (delivery order within a tick may
  // differ; counts cannot).
  workload::ExperimentConfig cfg = BaseConfig();
  cfg.policy = core::PlannerPolicy::kFirstInClause;
  cfg.charge_ric = false;
  // kForceSerial, not 0: 0 would resolve through RJOIN_SHARDS, making this
  // comparison vacuous in the sharded CI job. Churn pinned off (not left
  // to RJOIN_CHURN): serial applies churn immediately, sharded at round
  // barriers, so serial-vs-sharded parity only holds on a static ring.
  cfg.churn = workload::ChurnSpec{};
  RunOutput serial =
      RunWith(cfg, workload::ExperimentConfig::kForceSerial);
  RunOutput sharded = RunWith(cfg, 4);
  std::sort(serial.answers.begin(), serial.answers.end());
  std::sort(sharded.answers.begin(), sharded.answers.end());
  EXPECT_EQ(serial.answers, sharded.answers);
  EXPECT_EQ(serial.total_messages, sharded.total_messages);
  EXPECT_EQ(serial.total_qpl, sharded.total_qpl);
  EXPECT_EQ(serial.result.final_snapshot.messages,
            sharded.result.final_snapshot.messages);
  EXPECT_EQ(serial.stored_queries, sharded.stored_queries);
  EXPECT_EQ(serial.stored_tuples, sharded.stored_tuples);
}

}  // namespace
}  // namespace rjoin
