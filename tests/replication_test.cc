// Delta-mirror suite for successor-list replication (docs/failures.md).
// Owners mirror each mutation as one inline delta and fall back to a
// whole-slice REPLACE only where a successor may lack the baseline, so the
// invariant the old REPLACE-only protocol gave by construction is now a
// property to check: at quiescence every replica slice equals its owner's
// slice — residuals in order, tuple refs in order, live ALTT entries with
// their expiries, and the rate bucket. The suite checks it under churn and
// crashes for r = 2/3, forces reordering with a uniform
// latency model to exercise the gap fallback, drives a handoff and a
// promotion whose keys move again in flight (whole slices travel on), and
// pins the steady-state allocation budget of the mirror and RIC paths.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/engine.h"
#include "core/handoff.h"
#include "core/interner.h"
#include "core/node_state.h"
#include "core/replication.h"
#include "core/slab_pool.h"
#include "dht/chord_network.h"
#include "dht/transport.h"
#include "sim/latency.h"
#include "sim/simulator.h"
#include "sql/evaluator.h"
#include "stats/alloc_tracker.h"
#include "stats/metrics.h"
#include "util/random.h"
#include "workload/churn.h"
#include "workload/experiment.h"
#include "workload/generator.h"

namespace rjoin {
namespace {

constexpr uint32_t kNilQ = core::SlabPool<core::StoredQuery>::kNil;
constexpr uint32_t kNilA = core::SlabPool<core::AlttEntry>::kNil;

/// One key's slice in comparable form: residual content fingerprints and
/// tuple ids in order, live (tuple id, expiry) ALTT pairs in order, and
/// the raw rate bucket.
struct SliceView {
  std::vector<uint64_t> queries;
  std::vector<uint64_t> tuples;
  std::vector<std::pair<uint64_t, uint64_t>> altt;
  std::tuple<uint64_t, uint64_t, uint64_t> rate{0, 0, 0};

  bool operator==(const SliceView&) const = default;
};

std::string Render(const SliceView& v) {
  std::string out = "q[";
  for (uint64_t q : v.queries) out += std::to_string(q % 100000) + " ";
  out += "] t[";
  for (uint64_t t : v.tuples) out += std::to_string(t) + " ";
  out += "] a[";
  for (const auto& [t, e] : v.altt) {
    out += std::to_string(t) + "@" + std::to_string(e) + " ";
  }
  out += "] r(" + std::to_string(std::get<0>(v.rate)) + "," +
         std::to_string(std::get<1>(v.rate)) + "," +
         std::to_string(std::get<2>(v.rate)) + ")";
  return out;
}

SliceView OwnerView(const core::NodeState& st, core::KeyId key,
                    uint64_t now) {
  SliceView v;
  if (const core::BucketList* b = st.queries.Find(key)) {
    for (uint32_t cur = b->head; cur != kNilQ;
         cur = st.query_pool.at(cur).next) {
      v.queries.push_back(
          st.query_pool.at(cur).value.residual.ContentFingerprint64());
    }
  }
  if (const core::TupleBucket* b = st.tuples.Find(key)) {
    for (uint32_t cur = b->head; cur != core::SlabPool<core::TupleChunk>::kNil;
         cur = st.tuple_chunks.at(cur).next) {
      const core::TupleChunk& chunk = st.tuple_chunks.at(cur).value;
      for (uint32_t i = 0; i < chunk.count; ++i) {
        v.tuples.push_back(chunk.refs[i]->tuple_id);
      }
    }
  }
  if (const core::BucketList* dq = st.altt.Find(key)) {
    for (uint32_t cur = dq->head; cur != kNilA;
         cur = st.altt_pool.at(cur).next) {
      const core::AlttEntry& e = st.altt_pool.at(cur).value;
      if (e.expires >= now) v.altt.emplace_back(e.tuple->tuple_id, e.expires);
    }
  }
  const core::RateBucket rate = st.rates.PeekKey(key);
  if (!rate.empty()) v.rate = {rate.epoch, rate.current, rate.previous};
  return v;
}

SliceView ReplicaView(const core::NodeState& st, core::KeyId key,
                      uint64_t now) {
  SliceView v;
  const core::ReplicaSlice* replica =
      st.replicas == nullptr ? nullptr : st.replicas->slices.Find(key);
  if (replica == nullptr) return v;
  const core::KeySlice* s = &replica->slice;
  for (const core::Residual& r : s->queries) {
    v.queries.push_back(r.ContentFingerprint64());
  }
  for (const core::TupleRef& t : s->tuples) v.tuples.push_back(t->tuple_id);
  for (const core::AlttEntry& e : s->altt) {
    if (e.expires >= now) v.altt.emplace_back(e.tuple->tuple_id, e.expires);
  }
  if (!s->rate.empty()) {
    v.rate = {s->rate.epoch, s->rate.current, s->rate.previous};
  }
  return v;
}

/// Checks every key every alive owner holds against the copy at each of
/// its r-1 successors. Returns the number of non-empty (owner, key,
/// replica) triples compared.
size_t ExpectReplicasMatchOwners(const core::RJoinEngine& engine,
                                 const dht::ChordNetwork& network,
                                 uint32_t replication, uint64_t now) {
  const core::KeyInterner& interner = core::KeyInterner::Global();
  size_t compared = 0;
  std::vector<dht::NodeIndex> succs;
  for (dht::NodeIndex owner : network.AliveNodes()) {
    const core::NodeState& st = engine.state_of(owner);
    std::vector<core::KeyId> keys;
    st.queries.ForEach([&](core::KeyId k, const auto&) { keys.push_back(k); });
    st.tuples.ForEach([&](core::KeyId k, const auto&) { keys.push_back(k); });
    st.altt.ForEach([&](core::KeyId k, const auto&) { keys.push_back(k); });
    st.rates.AppendTrackedKeys(&keys);
    network.SuccessorsOf(owner, replication - 1, &succs);
    for (core::KeyId key : keys) {
      if (network.SuccessorOf(interner.ring_id(key)) != owner) continue;
      const SliceView want = OwnerView(st, key, now);
      for (dht::NodeIndex replica : succs) {
        const SliceView got = ReplicaView(engine.state_of(replica), key, now);
        EXPECT_EQ(got, want) << "key " << interner.text(key) << " owner "
                             << owner << " replica " << replica
                             << "\n  owner:   " << Render(want)
                             << "\n  replica: " << Render(got);
        if (!(want == SliceView{})) ++compared;
      }
    }
  }
  return compared;
}

// ------------------------------------------- replicas equal owners ----

/// (r, windowed).
using EqualityParam = std::tuple<uint32_t /*r*/, bool /*windowed*/>;

class ReplicaEqualityTest : public ::testing::TestWithParam<EqualityParam> {};

TEST_P(ReplicaEqualityTest, ReplicaSlicesEqualOwnerSlicesAtQuiescence) {
  const auto [replication, windowed] = GetParam();
  // The experiment only wires network, engine and event pump; the test
  // drives queries, tuples and churn itself so it can compare replicas at
  // every quiescent point — between sweeps too, where only the replicas'
  // copy of the owners' drop rules keeps them equal.
  workload::ExperimentConfig cfg;
  cfg.num_nodes = 40;
  cfg.workload.num_relations = 6;
  cfg.workload.num_attributes = 4;
  cfg.workload.num_values = 25;
  cfg.replication = replication;
  cfg.warmup_observations = 0;
  workload::Experiment e(cfg);
  core::RJoinEngine& engine = e.engine();
  auto check = [&] {
    return ExpectReplicasMatchOwners(engine, e.network(), replication,
                                     e.NowTime());
  };

  sql::WindowSpec window;
  if (windowed) {
    window.use_windows = true;
    window.unit = sql::WindowSpec::Unit::kTuples;
    window.kind = sql::WindowSpec::Kind::kSliding;
    window.size = 12;
  }
  workload::QueryGenerator queries(cfg.workload, &e.catalog(), 7);
  for (dht::NodeIndex i = 0; i < 100; ++i) {
    ASSERT_TRUE(engine.SubmitQuery(i % 40, queries.Next(3, window)).ok());
  }
  e.RunToQuiescence();
  EXPECT_GT(check(), 0u);

  workload::TupleGenerator tuples(cfg.workload, &e.catalog(), 13);
  workload::TupleGenerator::Draw draw;
  Rng rng(5);
  size_t joins = 0;
  size_t compared = 0;
  for (int t = 0; t < 72; ++t) {
    if (t % 8 == 4) {
      // Cycle join / leave / crash, each followed by a check once its
      // handoff or promotion has landed.
      const std::vector<dht::NodeIndex> alive = e.network().AliveNodes();
      const dht::NodeIndex victim = alive[rng.NextBounded(alive.size())];
      switch ((t / 8) % 3) {
        case 0:
          ASSERT_TRUE(engine
                          .ScheduleJoin(e.NowTime(),
                                        dht::NodeId::FromKey(
                                            "join:" + std::to_string(joins++)),
                                        alive.front())
                          .ok());
          break;
        case 1:
          ASSERT_TRUE(engine.ScheduleLeave(e.NowTime(), victim).ok());
          break;
        default:
          ASSERT_TRUE(engine.ScheduleCrash(e.NowTime(), victim).ok());
          break;
      }
      e.RunToQuiescence();
      compared += check();
    }
    const std::vector<dht::NodeIndex> alive = e.network().AliveNodes();
    tuples.Next(&draw);
    ASSERT_TRUE(engine
                    .PublishTuple(alive[rng.NextBounded(alive.size())],
                                  draw.relation, draw.values)
                    .ok());
    e.RunToQuiescence();
    if (t % 8 == 7) engine.SweepWindows();
    if (t % 4 == 1) compared += check();
    e.RunUntilTime(e.NowTime() + 16);
  }
  e.RunToQuiescence();
  compared += check();
  EXPECT_GT(compared, 0u);
  EXPECT_EQ(engine.churn_stats().crashes_applied, 3u);
  EXPECT_EQ(engine.churn_stats().joins_applied, 3u);
  EXPECT_GT(engine.replication_stats().promotions_installed, 0u);
  // Fixed latency keeps every (owner, successor) link FIFO: no gaps.
  EXPECT_EQ(engine.replication_stats().mirror_gaps, 0u);
}

INSTANTIATE_TEST_SUITE_P(RWindows, ReplicaEqualityTest,
                         ::testing::Combine(::testing::Values(2u, 3u),
                                            ::testing::Bool()));

// ------------------------------------------------ chained re-forward ----

/// Outcome of one chained-churn run, in comparable form.
struct ChainedRun {
  std::vector<std::string> answers;  // query|row|delivery time, in order
  std::vector<std::string> got;       // sorted answer rows
  std::vector<std::string> expected;  // sorted oracle rows
  core::RJoinEngine::ChurnStats churn;
  core::RJoinEngine::ReplicationStats replication;
  size_t stored_queries = 0;
  size_t stored_tuples = 0;
  size_t replicas_compared = 0;
};

/// Node X departs — a graceful leave, or a crash under r = 2 — and in the
/// same instant a node joins inside X's range, at the ring position of a
/// key X stores rewritten queries under. X's handoff (or the survivor's
/// promotion of its replica slices) reaches X's successor after the join,
/// so that successor must send the joiner's slices on, whole. Events of
/// one instant run in the order they were scheduled, so the departure
/// applies first.
ChainedRun RunChainedChurn(bool crash) {
  workload::ExperimentConfig cfg;
  cfg.num_nodes = 20;
  cfg.workload.num_relations = 2;
  cfg.workload.num_attributes = 2;
  cfg.replication = crash ? 2 : 1;
  cfg.warmup_observations = 0;
  cfg.keep_history = true;
  workload::Experiment e(cfg);
  core::RJoinEngine& engine = e.engine();
  const core::KeyInterner& interner = core::KeyInterner::Global();
  auto publish = [&](const char* rel, int64_t a, int64_t b,
                     dht::NodeIndex node) {
    ASSERT_TRUE(engine
                    .PublishTuple(node, rel,
                                  {sql::Value::Int(a), sql::Value::Int(b)})
                    .ok());
    e.RunToQuiescence();
  };

  auto qid = engine.SubmitQuerySql(
      0, "SELECT R0.A1, R1.A1 FROM R0, R1 WHERE R0.A0=R1.A0");
  EXPECT_TRUE(qid.ok()) << qid.status().ToString();
  e.RunToQuiescence();
  for (int i = 0; i < 40; ++i) publish("R0", i % 5, i, i % 20);

  // X: the first node (not the query owner, not the bootstrap) storing
  // rewritten queries; the joiner lands on the ring id of the first such
  // key in ring order, so at least that key moves on to it.
  const dht::NodeIndex bootstrap = cfg.num_nodes - 1;
  dht::NodeIndex victim = dht::kInvalidNode;
  std::vector<core::KeyId> keys;
  for (dht::NodeIndex n = 1; n < bootstrap && keys.empty(); ++n) {
    engine.state_of(n).queries.ForEach(
        [&](core::KeyId key, const core::BucketList& bucket) {
          if (bucket.head != kNilQ &&
              e.network().SuccessorOf(interner.ring_id(key)) == n) {
            keys.push_back(key);
          }
        });
    victim = n;
  }
  EXPECT_FALSE(keys.empty()) << "no node stores rewritten queries";
  if (keys.empty()) return {};
  core::SortKeysByRingId(&keys, interner);
  const dht::NodeId joiner = interner.ring_id(keys.front());

  const sim::SimTime now = e.NowTime();
  EXPECT_TRUE((crash ? engine.ScheduleCrash(now, victim)
                     : engine.ScheduleLeave(now, victim))
                  .ok());
  EXPECT_TRUE(engine.ScheduleJoin(now, joiner, bootstrap).ok());
  e.RunToQuiescence();
  for (int i = 0; i < 40; ++i) publish("R1", i % 5, 100 + i, 1 + i % 18);

  ChainedRun out;
  for (const core::Answer& a : engine.answers()) {
    out.answers.push_back(std::to_string(a.query_id) + "|" +
                          sql::AnswerRowKey(a.row) + "|" +
                          std::to_string(a.delivered_at));
    out.got.push_back(sql::AnswerRowKey(a.row));
  }
  std::sort(out.got.begin(), out.got.end());
  sql::CentralizedEvaluator oracle(&e.catalog());
  auto iq = engine.FindQuery(*qid);
  for (const auto& row :
       oracle.Evaluate(iq->spec(), iq->ins_time(), engine.history())) {
    out.expected.push_back(sql::AnswerRowKey(row));
  }
  std::sort(out.expected.begin(), out.expected.end());
  out.churn = engine.churn_stats();
  out.replication = engine.replication_stats();
  out.stored_queries = engine.CountStoredQueries();
  out.stored_tuples = engine.CountStoredTuples();
  if (crash) {
    out.replicas_compared =
        ExpectReplicasMatchOwners(engine, e.network(), 2, e.NowTime());
  }
  return out;
}

void ExpectChainedRunsIdentical(const ChainedRun& a, const ChainedRun& b) {
  EXPECT_EQ(a.answers, b.answers);
  EXPECT_EQ(a.stored_queries, b.stored_queries);
  EXPECT_EQ(a.stored_tuples, b.stored_tuples);
  EXPECT_EQ(a.churn.handoff_messages, b.churn.handoff_messages);
  EXPECT_EQ(a.churn.handoff_bytes, b.churn.handoff_bytes);
  EXPECT_EQ(a.churn.handoffs_installed, b.churn.handoffs_installed);
  EXPECT_EQ(a.churn.handoffs_reforwarded, b.churn.handoffs_reforwarded);
  EXPECT_EQ(a.churn.forwarded_messages, b.churn.forwarded_messages);
  EXPECT_EQ(a.replication.replica_updates, b.replication.replica_updates);
  EXPECT_EQ(a.replication.promotions_installed,
            b.replication.promotions_installed);
  EXPECT_EQ(a.replication.promoted_records, b.replication.promoted_records);
}

TEST(ChainedReforwardTest, LeaveThenJoinInsideRangeReforwardsHandoff) {
  const ChainedRun run = RunChainedChurn(/*crash=*/false);
  EXPECT_EQ(run.churn.leaves_applied, 1u);
  EXPECT_EQ(run.churn.joins_applied, 1u);
  EXPECT_GE(run.churn.handoffs_reforwarded, 1u);
  EXPECT_FALSE(run.expected.empty());
  EXPECT_EQ(run.got, run.expected);
  ExpectChainedRunsIdentical(run, RunChainedChurn(/*crash=*/false));
}

TEST(ChainedReforwardTest, CrashThenJoinInsideRangeReforwardsPromotion) {
  const ChainedRun run = RunChainedChurn(/*crash=*/true);
  EXPECT_EQ(run.churn.crashes_applied, 1u);
  EXPECT_EQ(run.churn.joins_applied, 1u);
  EXPECT_GE(run.churn.handoffs_reforwarded, 1u);
  // The survivor installs the promotion, the joiner its re-forwarded part:
  // both count as promotion installs.
  EXPECT_GE(run.replication.promotions_installed, 2u);
  EXPECT_GT(run.replication.promoted_records, 0u);
  EXPECT_EQ(run.replication.answers_lost, 0u);
  EXPECT_FALSE(run.expected.empty());
  EXPECT_EQ(run.got, run.expected);
  EXPECT_GT(run.replicas_compared, 0u);
  ExpectChainedRunsIdentical(run, RunChainedChurn(/*crash=*/true));
}

// ------------------------------------------------------ reordering ----

/// Serial harness on a uniform-latency network: mirrors between the same
/// pair of nodes overtake each other, which is what the gap fallback is for.
struct ReorderHarness {
  ReorderHarness(size_t nodes, uint64_t seed)
      : network(dht::ChordNetwork::Create(nodes, seed)),
        latency(1, 9),
        metrics(network->num_total()),
        simulator(&metrics, seed * 31),
        transport(network.get(), &simulator, &latency),
        engine(Config(), &catalog, network.get(), &transport, &simulator) {}

  static core::EngineConfig Config() {
    core::EngineConfig cfg;
    cfg.keep_history = true;
    cfg.replication = 2;
    return cfg;
  }

  static sql::Catalog MakeCatalog() {
    sql::Catalog c;
    EXPECT_TRUE(c.AddRelation(sql::Schema("R", {"A", "B"})).ok());
    EXPECT_TRUE(c.AddRelation(sql::Schema("S", {"A", "B"})).ok());
    EXPECT_TRUE(c.AddRelation(sql::Schema("P", {"A", "B"})).ok());
    return c;
  }

  sql::Catalog catalog = MakeCatalog();
  std::unique_ptr<dht::ChordNetwork> network;
  sim::UniformLatency latency;
  stats::MetricsRegistry metrics;
  sim::Simulator simulator;
  dht::Transport transport;
  core::RJoinEngine engine;
};

TEST(DeltaMirrorTest, ReorderedMirrorsFallBackToReplaceAndConverge) {
  ReorderHarness h(24, 3);
  const char* queries[] = {
      "SELECT R.B, S.B FROM R, S WHERE R.A=S.A",
      "SELECT S.B, P.B FROM S, P WHERE S.A=P.A",
      "SELECT R.B, P.B FROM R, S, P WHERE R.A=S.A AND S.B=P.A",
  };
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(h.engine.SubmitQuerySql(i % 24, queries[i % 3]).ok());
  }
  h.simulator.Run();
  // Bursts without draining: many mirrors of the same hot keys are in
  // flight at once, and uniform per-message delays reorder them.
  Rng rng(77);
  const char* rels[] = {"R", "S", "P"};
  for (int burst = 0; burst < 30; ++burst) {
    for (int k = 0; k < 4; ++k) {
      std::vector<sql::Value> row = {
          sql::Value::Int(static_cast<int64_t>(rng.NextBounded(3))),
          sql::Value::Int(static_cast<int64_t>(rng.NextBounded(3)))};
      const dht::NodeIndex publisher = rng.NextBounded(24);
      ASSERT_TRUE(
          h.engine.PublishTuple(publisher, rels[rng.NextBounded(3)], row).ok());
    }
    h.simulator.RunUntil(h.simulator.Now() + 2);
  }
  h.simulator.Run();

  EXPECT_GT(h.engine.replication_stats().mirror_gaps, 0u)
      << "uniform latency produced no reordered mirrors";
  EXPECT_GT(ExpectReplicasMatchOwners(h.engine, *h.network, 2,
                                      h.simulator.Now()),
            0u);
}

// ------------------------------------------- steady-state allocations ----

/// A serial harness whose steady state is allocation-free by design:
/// 3-way windowed joins over a small fixed value domain, fed only R and S
/// tuples — rewrites keep being stored and swept, no query ever completes
/// (no answer rows to materialize), and every key, table and pool reaches
/// its high-water mark during the warmup. The stream is periodic and each
/// tuple starts on a multiple of the event queue's ring size, so the
/// queue's per-tick buckets see the same load every period too.
struct SteadyHarness {
  SteadyHarness(uint32_t replication, bool reuse_ric)
      : network(dht::ChordNetwork::Create(32, 5)),
        latency(1),
        metrics(network->num_total()),
        simulator(&metrics, 9),
        transport(network.get(), &simulator, &latency),
        engine(Config(replication, reuse_ric), &catalog, network.get(),
               &transport, &simulator) {
    for (int i = 0; i < 16; ++i) {
      EXPECT_TRUE(engine
                      .SubmitQuerySql(
                          i, "SELECT R.B, P.B FROM R, S, P WHERE R.A=S.A AND "
                             "S.B=P.A WINDOW 8 TUPLES")
                      .ok());
    }
    simulator.Run();
  }

  static core::EngineConfig Config(uint32_t replication, bool reuse_ric) {
    core::EngineConfig cfg;
    cfg.replication = replication;
    cfg.reuse_ric_info = reuse_ric;
    return cfg;
  }

  static sql::Catalog MakeCatalog() {
    sql::Catalog c;
    EXPECT_TRUE(c.AddRelation(sql::Schema("R", {"A", "B"})).ok());
    EXPECT_TRUE(c.AddRelation(sql::Schema("S", {"A", "B"})).ok());
    EXPECT_TRUE(c.AddRelation(sql::Schema("P", {"A", "B"})).ok());
    return c;
  }

  void Stream(int tuples) {
    for (int n = 0; n < tuples; ++n, ++next) {
      row[0] = sql::Value::Int(next % 4);
      row[1] = sql::Value::Int((next / 4) % 4);
      EXPECT_TRUE(
          engine.PublishTuple(next % 32, next % 2 == 0 ? "R" : "S", row).ok());
      simulator.Run();
      if (next % 4 == 3) engine.SweepWindows();
      simulator.RunUntil((simulator.Now() / kRing + 1) * kRing);
    }
  }

  static constexpr sim::SimTime kRing = 1024;  // sim::EventQueue::kBuckets

  int next = 0;  // position in the stream's 32-tuple period
  std::vector<sql::Value> row = std::vector<sql::Value>(2);

  sql::Catalog catalog = MakeCatalog();
  std::unique_ptr<dht::ChordNetwork> network;
  sim::FixedLatency latency;
  stats::MetricsRegistry metrics;
  sim::Simulator simulator;
  dht::Transport transport;
  core::RJoinEngine engine;
};

uint64_t TotalAllocs(const stats::AllocCounts& c) {
  uint64_t n = 0;
  for (uint64_t v : c.counts) n += v;
  return n;
}

TEST(SteadyStateAllocTest, DeltaMirrorPathAllocatesNothing) {
  SteadyHarness h(/*replication=*/2, /*reuse_ric=*/true);
  h.Stream(600);  // warm every pool, table and replica vector
  const uint64_t updates = h.engine.replication_stats().replica_updates;
  const stats::AllocCounts before = stats::ReadAllocCounts();
  h.Stream(200);
  const stats::AllocCounts after = stats::ReadAllocCounts();
  EXPECT_GT(h.engine.replication_stats().replica_updates, updates + 200)
      << "the window mirrored nothing";
  EXPECT_EQ(h.metrics.answers_delivered(), 0u);
  EXPECT_EQ(TotalAllocs(after) - TotalAllocs(before), 0u)
      << "other plane: " << after.other() - before.other();
}

TEST(SteadyStateAllocTest, RicMissesAllocateNothing) {
  // Without candidate-table reuse every indexing decision pays the chained
  // RIC lookup for every candidate: the miss list must come from scratch.
  SteadyHarness h(/*replication=*/1, /*reuse_ric=*/false);
  h.Stream(400);
  const uint64_t ric_before = h.metrics.total_ric_messages();
  const stats::AllocCounts before = stats::ReadAllocCounts();
  h.Stream(200);
  const stats::AllocCounts after = stats::ReadAllocCounts();
  EXPECT_GT(h.metrics.total_ric_messages(), ric_before);
  EXPECT_EQ(after.other() - before.other(), 0u);
}

}  // namespace
}  // namespace rjoin
