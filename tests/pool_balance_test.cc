// Pool-balance suite: every pooled record the engine acquires must be
// released — TuplePool records (flat tuple plane), SlabPool nodes (stored
// queries, their DISTINCT projection sets, ALTT entries), and MessagePool
// envelopes. The scenarios are the lifetimes that historically leaked in
// refcounted designs: windowed GC sweeps, live topology churn with state
// handoff, ALTT Delta-expiry, and an experiment torn down mid-stream.
//
// Also holds the batched-probe-kernel equivalence tests: the tight-loop
// value-id kernel (RJoinEngine::ProbeTupleSpans) probes large stored spans
// for one-time queries, and its answers must match the brute-force
// CentralizedEvaluator oracle row for row.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/messages.h"
#include "core/tuple_ref.h"
#include "dht/chord_network.h"
#include "dht/transport.h"
#include "sim/latency.h"
#include "sim/simulator.h"
#include "sql/evaluator.h"
#include "stats/metrics.h"
#include "workload/experiment.h"
#include "workload/generator.h"

namespace rjoin::core {
namespace {

// ------------------------------------------------------ pool balance ----

constexpr uint32_t kNil = SlabPool<StoredQuery>::kNil;

/// Per-node slab pools must balance while the engine is live:
/// acquired - released == live for the query, projection and ALTT pools.
/// The projection pool holds exactly one set per stored DISTINCT query; a
/// non-DISTINCT stored query holds none.
void ExpectSlabPoolsBalanced(const RJoinEngine& engine) {
  for (dht::NodeIndex n = 0; n < engine.num_nodes(); ++n) {
    const NodeState& st = engine.state_of(n);
    EXPECT_EQ(st.query_pool.acquired() - st.query_pool.released(),
              st.query_pool.live())
        << "query_pool imbalance at node " << n;
    EXPECT_EQ(st.projection_pool.acquired() - st.projection_pool.released(),
              st.projection_pool.live())
        << "projection_pool imbalance at node " << n;
    EXPECT_EQ(st.altt_pool.acquired() - st.altt_pool.released(),
              st.altt_pool.live())
        << "altt_pool imbalance at node " << n;
    uint32_t distinct_stored = 0;
    st.queries.ForEach([&](KeyId, const BucketList& bucket) {
      for (uint32_t cur = bucket.head; cur != kNil;
           cur = st.query_pool.at(cur).next) {
        const StoredQuery& sq = st.query_pool.at(cur).value;
        if (sq.residual.origin()->distinct()) {
          ++distinct_stored;
        } else {
          EXPECT_EQ(sq.projections, kNil)
              << "non-DISTINCT query holds projections at node " << n;
        }
      }
    });
    EXPECT_EQ(st.projection_pool.live(), distinct_stored)
        << "projection sets != stored DISTINCT queries at node " << n;
  }
}

TEST(PoolBalanceTest, WindowedGcHeavyRunReturnsEveryPooledRecord) {
  const TuplePool::Stats tuples_before = TuplePool::Global().stats();
  const MessagePool::GlobalStats msgs_before = MessagePool::Aggregate();
  {
    workload::ExperimentConfig cfg;
    cfg.num_nodes = 48;
    cfg.num_queries = 48;
    cfg.num_tuples = 160;
    cfg.workload.num_relations = 4;
    cfg.workload.num_attributes = 3;
    cfg.workload.num_values = 8;
    sql::WindowSpec window;
    window.use_windows = true;
    window.unit = sql::WindowSpec::Unit::kTuples;
    window.kind = sql::WindowSpec::Kind::kSliding;
    window.size = 16;
    cfg.window = window;
    cfg.sweep_every = 8;  // GC-heavy: sweep every 8 tuples.
    cfg.tuple_gap = 4;
    workload::Experiment experiment(cfg);
    auto result = experiment.Run();
    EXPECT_EQ(result.num_tuples, cfg.num_tuples);
    ExpectSlabPoolsBalanced(experiment.engine());
  }
  // With the experiment destroyed, every tuple record and envelope the run
  // acquired must have been released (released == acquired, as deltas
  // against whatever other tests left outstanding).
  const TuplePool::Stats tuples_after = TuplePool::Global().stats();
  EXPECT_GT(tuples_after.released, tuples_before.released);
  EXPECT_EQ(tuples_after.outstanding(), tuples_before.outstanding());
  const MessagePool::GlobalStats msgs_after = MessagePool::Aggregate();
  EXPECT_GT(msgs_after.released, msgs_before.released);
  EXPECT_EQ(msgs_after.outstanding(), msgs_before.outstanding());
}

TEST(PoolBalanceTest, ChurnRunReturnsEveryPooledRecord) {
  const TuplePool::Stats tuples_before = TuplePool::Global().stats();
  const MessagePool::GlobalStats msgs_before = MessagePool::Aggregate();
  {
    workload::ExperimentConfig cfg;
    cfg.num_nodes = 48;
    cfg.num_queries = 40;
    cfg.num_tuples = 120;
    cfg.workload.num_relations = 4;
    cfg.workload.num_attributes = 3;
    cfg.workload.num_values = 8;
    workload::ChurnSpec churn;
    churn.rate = 0.5;  // Heavy: one churn op per two tuples.
    churn.spare_nodes = 6;
    cfg.churn = churn;
    workload::Experiment experiment(cfg);
    auto result = experiment.Run();
    EXPECT_EQ(result.num_tuples, cfg.num_tuples);
    const auto& cs = experiment.engine().churn_stats();
    EXPECT_GT(cs.joins_applied + cs.leaves_applied, 0u)
        << "churn run applied no topology changes";
    ExpectSlabPoolsBalanced(experiment.engine());
  }
  const TuplePool::Stats tuples_after = TuplePool::Global().stats();
  EXPECT_EQ(tuples_after.outstanding(), tuples_before.outstanding());
  const MessagePool::GlobalStats msgs_after = MessagePool::Aggregate();
  EXPECT_EQ(msgs_after.outstanding(), msgs_before.outstanding());
}

TEST(PoolBalanceTest, CrashRunReturnsEveryPooledRecord) {
  // Silent failures with replication on: replica slices hold extra TupleRef
  // pins and mirror traffic rides pooled envelopes; crashes drop whole
  // nodes' state and promotions re-install it. Every acquire must still
  // balance — in the per-node slabs, the global tuple plane, and the
  // envelope pool.
  const TuplePool::Stats tuples_before = TuplePool::Global().stats();
  const MessagePool::GlobalStats msgs_before = MessagePool::Aggregate();
  {
    workload::ExperimentConfig cfg;
    cfg.num_nodes = 48;
    cfg.num_queries = 40;
    cfg.num_tuples = 120;
    cfg.workload.num_relations = 4;
    cfg.workload.num_attributes = 3;
    cfg.workload.num_values = 8;
    cfg.replication = 2;
    workload::ChurnSpec churn;
    churn.rate = 0.25;
    churn.spare_nodes = 8;
    workload::FaultPlan faults;
    faults.crashes = 4;
    churn.faults = faults;
    cfg.churn = churn;
    workload::Experiment experiment(cfg);
    auto result = experiment.Run();
    EXPECT_EQ(result.num_tuples, cfg.num_tuples);
    const auto& cs = experiment.engine().churn_stats();
    EXPECT_EQ(cs.crashes_applied, 4u);
    EXPECT_GT(experiment.engine().replication_stats().replica_updates, 0u);
    ExpectSlabPoolsBalanced(experiment.engine());
  }
  const TuplePool::Stats tuples_after = TuplePool::Global().stats();
  EXPECT_EQ(tuples_after.outstanding(), tuples_before.outstanding());
  const MessagePool::GlobalStats msgs_after = MessagePool::Aggregate();
  EXPECT_EQ(msgs_after.outstanding(), msgs_before.outstanding());
}

// Engine-level harness (mirrors engine_features_test.cc) for scenarios
// needing direct control over the clock and EngineConfig.
struct Harness {
  Harness(size_t nodes, EngineConfig cfg, sql::Catalog cat, uint64_t seed = 7)
      : catalog(std::move(cat)),
        network(dht::ChordNetwork::Create(nodes, seed)),
        latency(1),
        metrics(network->num_total()),
        simulator(&metrics, seed * 31),
        transport(network.get(), &simulator, &latency),
        engine(cfg, &catalog, network.get(), &transport, &simulator) {}

  sql::Catalog catalog;
  std::unique_ptr<dht::ChordNetwork> network;
  sim::FixedLatency latency;
  stats::MetricsRegistry metrics;
  sim::Simulator simulator;
  dht::Transport transport;
  RJoinEngine engine;
};

TEST(PoolBalanceTest, DistinctWindowedChurnReturnsEveryProjectionSet) {
  // Each stored residual of a DISTINCT query owns one pooled ProjectionSet:
  // taken when the residual is stored, freed when window GC or a closing
  // tuple drops it, moved out by a graceful handoff and re-pooled at the
  // key's new owner.
  workload::WorkloadParams wp;
  wp.num_relations = 3;
  wp.num_attributes = 3;
  wp.num_values = 4;
  wp.zipf_theta = 0.4;
  auto catalog = workload::BuildCatalog(wp);
  Harness h(24, EngineConfig{}, std::move(*catalog), 5);

  sql::WindowSpec window;
  window.use_windows = true;
  window.unit = sql::WindowSpec::Unit::kTuples;
  window.kind = sql::WindowSpec::Kind::kSliding;
  window.size = 12;
  workload::QueryGenerator qgen(wp, &h.catalog, 17);
  for (int i = 0; i < 16; ++i) {
    sql::Query spec = qgen.Next(3, window);
    spec.distinct = true;
    // Owners and publishers are nodes 0..7; the leavers are 16..23.
    ASSERT_TRUE(
        h.engine.SubmitQuery(static_cast<dht::NodeIndex>(i % 8), spec).ok());
  }
  h.simulator.Run();

  workload::TupleGenerator tgen(wp, &h.catalog, 23);
  workload::TupleGenerator::Draw d;
  dht::NodeIndex leaver = 23;
  for (int i = 0; i < 64; ++i) {
    tgen.Next(&d);
    ASSERT_TRUE(h.engine
                    .PublishTuple(static_cast<dht::NodeIndex>(i % 8),
                                  d.relation, d.values)
                    .ok());
    h.simulator.Run();
    if (i % 8 == 7) {
      h.engine.SweepWindows();
      ASSERT_TRUE(h.engine.ScheduleLeave(h.simulator.Now(), leaver--).ok());
      h.simulator.Run();
    }
  }

  uint64_t acquired = 0;
  uint64_t released = 0;
  for (dht::NodeIndex n = 0; n < h.engine.num_nodes(); ++n) {
    acquired += h.engine.state_of(n).projection_pool.acquired();
    released += h.engine.state_of(n).projection_pool.released();
  }
  EXPECT_GT(acquired, released) << "no DISTINCT residual is stored";
  EXPECT_GT(released, 0u) << "no DISTINCT residual was ever dropped";
  EXPECT_EQ(h.engine.churn_stats().leaves_applied, 8u);
  EXPECT_GT(h.engine.churn_stats().handoff_queries, 0u);
  ExpectSlabPoolsBalanced(h.engine);
}

TEST(PoolBalanceTest, DeltaExpiryDrainsAlttPool) {
  const TuplePool::Stats tuples_before = TuplePool::Global().stats();
  {
    workload::WorkloadParams wp;
    wp.num_relations = 3;
    wp.num_attributes = 2;
    wp.num_values = 4;
    wp.zipf_theta = 0.4;
    auto catalog = workload::BuildCatalog(wp);

    EngineConfig cfg;
    cfg.altt_delta = 32;  // Finite Delta: ALTT entries expire.
    Harness h(24, cfg, std::move(*catalog), 19);

    workload::TupleGenerator tgen(wp, &h.catalog, 3);
    workload::TupleGenerator::Draw d;
    auto publish = [&](int i) {
      tgen.Next(&d);
      ASSERT_TRUE(h.engine
                      .PublishTuple(static_cast<dht::NodeIndex>(i % 24),
                                    d.relation, d.values)
                      .ok());
      h.simulator.Run();
      h.simulator.RunUntil(h.simulator.Now() + 4);
    };

    for (int i = 0; i < 30; ++i) publish(i);
    // Let every entry from the first burst age past Delta, then publish a
    // second burst: appends at the same attribute buckets trim expired
    // heads back into the slab freelist.
    h.simulator.RunUntil(h.simulator.Now() + 2 * cfg.altt_delta);
    for (int i = 30; i < 60; ++i) publish(i);

    uint64_t altt_released = 0;
    for (dht::NodeIndex n = 0; n < h.engine.num_nodes(); ++n) {
      altt_released += h.engine.state_of(n).altt_pool.released();
    }
    EXPECT_GT(altt_released, 0u) << "Delta-expiry freed no ALTT entries";
    ExpectSlabPoolsBalanced(h.engine);
  }
  // ALTT entries own TupleRefs; expiry plus teardown must return every
  // record to the flat tuple pool.
  const TuplePool::Stats tuples_after = TuplePool::Global().stats();
  EXPECT_GT(tuples_after.released, tuples_before.released);
  EXPECT_EQ(tuples_after.outstanding(), tuples_before.outstanding());
}

// ------------------------------------------------ mid-stream teardown ----

workload::ExperimentConfig TeardownConfig() {
  workload::ExperimentConfig cfg;
  cfg.num_nodes = 32;
  cfg.workload.num_relations = 3;
  cfg.workload.num_attributes = 3;
  cfg.workload.num_values = 4;
  cfg.seed = 3;
  return cfg;
}

/// (key, content fingerprint) of every query stored at `node`.
std::set<std::pair<KeyId, uint64_t>> StoredAt(const RJoinEngine& engine,
                                              dht::NodeIndex node) {
  std::set<std::pair<KeyId, uint64_t>> out;
  const NodeState& st = engine.state_of(node);
  st.queries.ForEach([&](KeyId key, const BucketList& bucket) {
    for (uint32_t cur = bucket.head; cur != kNil;
         cur = st.query_pool.at(cur).next) {
      out.emplace(key,
                  st.query_pool.at(cur).value.residual.ContentFingerprint64());
    }
  });
  return out;
}

/// How many of `records` are stored at any node.
size_t CountStoredAnywhere(const RJoinEngine& engine,
                           const std::set<std::pair<KeyId, uint64_t>>& records) {
  size_t n = 0;
  for (dht::NodeIndex node = 0; node < engine.num_nodes(); ++node) {
    for (const auto& record : StoredAt(engine, node)) n += records.count(record);
  }
  return n;
}

/// The teardown script: 24 settled queries (half DISTINCT) and 16 settled
/// tuples; then 8 tuples two ticks apart, a graceful leave of the node
/// storing the most queries, and a stop at the leave's own tick, which
/// applies the leave but not its handoff. Returns what the leaver stored
/// just before its leave.
std::set<std::pair<KeyId, uint64_t>> DriveToMidStreamCut(
    workload::Experiment& e) {
  RJoinEngine& engine = e.engine();
  const workload::WorkloadParams& wp = e.config().workload;
  workload::QueryGenerator qgen(wp, &e.catalog(), 11);
  for (int i = 0; i < 24; ++i) {
    sql::Query spec = qgen.Next(3);
    spec.distinct = i % 2 == 1;
    EXPECT_TRUE(
        engine.SubmitQuery(static_cast<dht::NodeIndex>(i % 8), spec).ok());
  }
  e.RunToQuiescence();
  workload::TupleGenerator tgen(wp, &e.catalog(), 13);
  workload::TupleGenerator::Draw d;
  auto publish = [&](int i) {
    tgen.Next(&d);
    EXPECT_TRUE(engine
                    .PublishTuple(static_cast<dht::NodeIndex>(i % 8),
                                  d.relation, d.values)
                    .ok());
  };
  for (int i = 0; i < 16; ++i) {
    publish(i);
    e.RunToQuiescence();
  }
  dht::NodeIndex leaver = 8;  // never an owner or publisher
  for (dht::NodeIndex n = 8; n < engine.num_nodes(); ++n) {
    if (engine.state_of(n).query_pool.live() >
        engine.state_of(leaver).query_pool.live()) {
      leaver = n;
    }
  }
  for (int i = 16; i < 24; ++i) {
    publish(i);
    e.RunUntilTime(e.NowTime() + 2);
  }
  std::set<std::pair<KeyId, uint64_t>> moved = StoredAt(engine, leaver);
  EXPECT_TRUE(engine.ScheduleLeave(e.NowTime(), leaver).ok());
  e.RunUntilTime(e.NowTime());
  return moved;
}

// Experiment destroys its engine, and every InputQuery with it, before its
// event pump. Residuals still queued in the pump (rewrites, handoff
// slices) are then destroyed after their query: the sanitizer builds
// catch any residual path that reads its query on the way out.
TEST(MidStreamTeardownTest, QueuedWorkDiesAfterTheEngine) {
  // The script's premise, on a twin run drained after the cut: answers
  // were still on their way, and the leaver's stored queries were in the
  // handoff, stored nowhere until it installed.
  {
    workload::Experiment twin(TeardownConfig());
    const auto moved = DriveToMidStreamCut(twin);
    ASSERT_FALSE(moved.empty());
    EXPECT_EQ(CountStoredAnywhere(twin.engine(), moved), 0u);
    const size_t answers_at_cut = twin.engine().answers().size();
    twin.RunToQuiescence();
    EXPECT_EQ(twin.engine().churn_stats().leaves_applied, 1u);
    EXPECT_GT(twin.engine().answers().size(), answers_at_cut);
    EXPECT_EQ(CountStoredAnywhere(twin.engine(), moved), moved.size());
  }
  const TuplePool::Stats tuples_before = TuplePool::Global().stats();
  const MessagePool::GlobalStats msgs_before = MessagePool::Aggregate();
  {
    workload::Experiment e(TeardownConfig());
    DriveToMidStreamCut(e);
    EXPECT_GT(MessagePool::Aggregate().outstanding(),
              msgs_before.outstanding());
  }
  EXPECT_EQ(TuplePool::Global().stats().outstanding(),
            tuples_before.outstanding());
  EXPECT_EQ(MessagePool::Aggregate().outstanding(), msgs_before.outstanding());
}

// --------------------------------- batched probe kernel equivalence ----

std::vector<std::string> SortedRowKeys(const std::vector<Answer>& answers) {
  std::vector<std::string> keys;
  keys.reserve(answers.size());
  for (const auto& a : answers) keys.push_back(sql::AnswerRowKey(a.row));
  std::sort(keys.begin(), keys.end());
  return keys;
}

std::vector<std::string> SortedRowKeys(
    const std::vector<std::vector<sql::Value>>& rows) {
  std::vector<std::string> keys;
  keys.reserve(rows.size());
  for (const auto& r : rows) keys.push_back(sql::AnswerRowKey(r));
  std::sort(keys.begin(), keys.end());
  return keys;
}

class BatchProbeKernelTest : public ::testing::TestWithParam<uint64_t> {};

// One-time queries submitted after a long stream probe the full stored
// state in one ProbeStoredState pass per bound relation — the widest spans
// the batch kernel ever sees. The answers must equal the scalar oracle's
// bag over the pre-submission history.
TEST_P(BatchProbeKernelTest, OneTimeProbeMatchesScalarOracle) {
  const uint64_t seed = GetParam();
  workload::WorkloadParams wp;
  wp.num_relations = 3;
  wp.num_attributes = 2;
  wp.num_values = 3;  // Tiny domain: large same-key spans, frequent joins.
  wp.zipf_theta = 0.4;
  auto catalog = workload::BuildCatalog(wp);

  EngineConfig cfg;
  cfg.keep_history = true;
  cfg.altt_delta = EngineConfig::kInfiniteDelta;  // Full ALTT history.
  Harness h(24, cfg, std::move(*catalog), seed);

  workload::TupleGenerator tgen(wp, &h.catalog, seed * 5 + 2);
  workload::TupleGenerator::Draw d;
  for (int i = 0; i < 50; ++i) {
    tgen.Next(&d);
    ASSERT_TRUE(h.engine
                    .PublishTuple(static_cast<dht::NodeIndex>(i % 24),
                                  d.relation, d.values)
                    .ok());
    h.simulator.Run();
    h.simulator.RunUntil(h.simulator.Now() + 2);
  }

  sql::CentralizedEvaluator oracle(&h.catalog);
  workload::QueryGenerator qgen(wp, &h.catalog, seed * 3 + 1);
  for (int i = 0; i < 4; ++i) {
    sql::Query spec = qgen.Next(2 + (i % 2));
    spec.distinct = (i % 2 == 1);  // Exercise the kernel's DISTINCT path.
    auto qid = h.engine.SubmitOneTimeQuery(static_cast<dht::NodeIndex>(i),
                                           spec);
    ASSERT_TRUE(qid.ok()) << qid.status().ToString();
    h.simulator.Run();

    auto iq = h.engine.FindQuery(*qid);
    ASSERT_NE(iq, nullptr);
    std::vector<sql::TuplePtr> past;
    for (const auto& t : h.engine.history()) {
      if (t->pub_time <= iq->ins_time()) past.push_back(t);
    }
    // One-time eligibility is pubT <= insT: the oracle's insT bound runs
    // the other way, so restrict the history and evaluate from time 0.
    const auto expected = oracle.Evaluate(iq->spec(), 0, past);
    EXPECT_EQ(SortedRowKeys(h.engine.AnswersFor(*qid)),
              SortedRowKeys(expected))
        << iq->spec().ToString();
  }
}

// Continuous queries trigger the same kernel span-by-span as tuples
// arrive; interleaving submissions and publications covers both the OnEval
// trigger walk and mid-stream stored-state probes.
TEST_P(BatchProbeKernelTest, InterleavedStreamMatchesScalarOracle) {
  const uint64_t seed = GetParam();
  workload::WorkloadParams wp;
  wp.num_relations = 3;
  wp.num_attributes = 2;
  wp.num_values = 3;
  wp.zipf_theta = 0.5;
  auto catalog = workload::BuildCatalog(wp);

  EngineConfig cfg;
  cfg.keep_history = true;
  Harness h(24, cfg, std::move(*catalog), seed);

  workload::QueryGenerator qgen(wp, &h.catalog, seed * 3 + 1);
  workload::TupleGenerator tgen(wp, &h.catalog, seed * 5 + 2);
  workload::TupleGenerator::Draw d;
  std::vector<uint64_t> qids;
  for (int i = 0; i < 45; ++i) {
    if (i % 15 == 0) {  // A new query every 15 tuples, mid-stream.
      auto qid = h.engine.SubmitQuery(static_cast<dht::NodeIndex>(i % 24),
                                      qgen.Next(2));
      ASSERT_TRUE(qid.ok());
      qids.push_back(*qid);
    }
    tgen.Next(&d);
    ASSERT_TRUE(h.engine
                    .PublishTuple(static_cast<dht::NodeIndex>(i % 24),
                                  d.relation, d.values)
                    .ok());
    h.simulator.Run();
    h.simulator.RunUntil(h.simulator.Now() + 2);
  }

  sql::CentralizedEvaluator oracle(&h.catalog);
  for (uint64_t qid : qids) {
    auto iq = h.engine.FindQuery(qid);
    ASSERT_NE(iq, nullptr);
    const auto expected =
        oracle.Evaluate(iq->spec(), iq->ins_time(), h.engine.history());
    EXPECT_EQ(SortedRowKeys(h.engine.AnswersFor(qid)),
              SortedRowKeys(expected))
        << iq->spec().ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchProbeKernelTest,
                         ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace rjoin::core
