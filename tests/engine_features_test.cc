// Tests of the optional engine features: one-time (snapshot) queries
// (Section 4's "Delta can be infinity" framework) and attribute-level query
// replication (the load-spreading scheme of [18] referenced in Section 3).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "core/engine.h"
#include "dht/chord_network.h"
#include "dht/transport.h"
#include "sim/latency.h"
#include "sim/simulator.h"
#include "sql/evaluator.h"
#include "sql/parser.h"
#include "sql/schema.h"
#include "stats/metrics.h"
#include "workload/generator.h"

namespace rjoin::core {
namespace {

struct Harness {
  Harness(size_t nodes, EngineConfig cfg, sql::Catalog cat, uint64_t seed = 7)
      : catalog(std::move(cat)),
        network(dht::ChordNetwork::Create(nodes, seed)),
        latency(1),
        metrics(network->num_total()),
        simulator(&metrics, seed * 31),
        transport(network.get(), &simulator, &latency),
        engine(cfg, &catalog, network.get(), &transport, &simulator) {}

  void Publish(dht::NodeIndex node, const std::string& rel,
               std::vector<int64_t> ints) {
    std::vector<sql::Value> vals;
    for (int64_t v : ints) vals.push_back(sql::Value::Int(v));
    ASSERT_TRUE(engine.PublishTuple(node, rel, std::move(vals)).ok());
    simulator.Run();
  }

  sql::Catalog catalog;
  std::unique_ptr<dht::ChordNetwork> network;
  sim::FixedLatency latency;
  stats::MetricsRegistry metrics;
  sim::Simulator simulator;
  dht::Transport transport;
  RJoinEngine engine;
};

sql::Catalog TestCatalog() {
  sql::Catalog c;
  EXPECT_TRUE(c.AddRelation(sql::Schema("R", {"A", "B"})).ok());
  EXPECT_TRUE(c.AddRelation(sql::Schema("S", {"A", "B"})).ok());
  return c;
}

EngineConfig SnapshotConfig() {
  EngineConfig cfg;
  cfg.keep_history = true;
  cfg.altt_delta = EngineConfig::kInfiniteDelta;  // Full history retained.
  return cfg;
}

// ------------------------------------------------- One-time queries ----

TEST(OneTimeQueryTest, SeesOnlyThePast) {
  Harness h(24, SnapshotConfig(), TestCatalog());
  h.Publish(1, "R", {1, 10});
  h.Publish(2, "S", {1, 20});
  h.simulator.RunUntil(h.simulator.Now() + 5);

  auto spec = sql::Parser::Parse("SELECT R.B, S.B FROM R,S WHERE R.A=S.A");
  ASSERT_TRUE(spec.ok());
  auto qid = h.engine.SubmitOneTimeQuery(0, *spec);
  ASSERT_TRUE(qid.ok()) << qid.status().ToString();
  h.simulator.Run();
  ASSERT_EQ(h.engine.AnswersFor(*qid).size(), 1u);
  EXPECT_EQ(h.engine.AnswersFor(*qid)[0].row[0], sql::Value::Int(10));

  // Tuples published after the snapshot do not extend the answer set.
  h.Publish(3, "R", {1, 30});
  h.Publish(4, "S", {1, 40});
  EXPECT_EQ(h.engine.AnswersFor(*qid).size(), 1u);
}

TEST(OneTimeQueryTest, EmptyPastYieldsNothing) {
  Harness h(24, SnapshotConfig(), TestCatalog());
  auto spec = sql::Parser::Parse("SELECT R.B, S.B FROM R,S WHERE R.A=S.A");
  ASSERT_TRUE(spec.ok());
  auto qid = h.engine.SubmitOneTimeQuery(0, *spec);
  ASSERT_TRUE(qid.ok());
  h.simulator.Run();
  h.Publish(1, "R", {1, 10});
  h.Publish(2, "S", {1, 20});
  EXPECT_TRUE(h.engine.AnswersFor(*qid).empty());
}

TEST(OneTimeQueryTest, MatchesOracleOverHistory) {
  workload::WorkloadParams wp;
  wp.num_relations = 3;
  wp.num_attributes = 2;
  wp.num_values = 3;
  wp.zipf_theta = 0.4;
  auto catalog = workload::BuildCatalog(wp);
  Harness h(24, SnapshotConfig(), std::move(*catalog), 11);

  workload::TupleGenerator tgen(wp, &h.catalog, 3);
  for (int i = 0; i < 40; ++i) {
    auto d = tgen.Next();
    ASSERT_TRUE(h.engine
                    .PublishTuple(static_cast<dht::NodeIndex>(i % 24),
                                  d.relation, std::move(d.values))
                    .ok());
    h.simulator.Run();
    h.simulator.RunUntil(h.simulator.Now() + 2);
  }

  workload::QueryGenerator qgen(wp, &h.catalog, 5);
  auto spec = qgen.Next(2);
  auto qid = h.engine.SubmitOneTimeQuery(0, spec);
  ASSERT_TRUE(qid.ok());
  h.simulator.Run();

  // Oracle: evaluate over the full history with one-time eligibility
  // (pubT <= insT). The oracle takes ins_time as a lower bound, so feed it
  // only the eligible tuples with ins_time 0.
  auto iq = h.engine.FindQuery(*qid);
  std::vector<sql::TuplePtr> past;
  for (const auto& t : h.engine.history()) {
    if (t->pub_time <= iq->ins_time()) past.push_back(t);
  }
  sql::CentralizedEvaluator oracle(&h.catalog);
  const auto expected = oracle.Evaluate(iq->spec(), 0, past);
  EXPECT_EQ(h.engine.AnswersFor(*qid).size(), expected.size())
      << iq->spec().ToString();
}

TEST(OneTimeQueryTest, AddsNoPermanentState) {
  Harness h(24, SnapshotConfig(), TestCatalog());
  h.Publish(1, "R", {1, 10});
  const size_t stored_before = h.engine.CountStoredQueries();
  auto spec = sql::Parser::Parse("SELECT R.B, S.B FROM R,S WHERE R.A=S.A");
  ASSERT_TRUE(spec.ok());
  auto qid = h.engine.SubmitOneTimeQuery(0, *spec);
  ASSERT_TRUE(qid.ok());
  h.simulator.Run();
  EXPECT_EQ(h.engine.CountStoredQueries(), stored_before);
}

TEST(OneTimeQueryTest, WindowSweepKeepsHistoryUnderInfiniteDelta) {
  // Delta = infinity promises one-time queries the whole history. They
  // count as neither windowed nor unwindowed queries and may arrive after
  // any sweep, so a sweep while every continuous query is windowed must
  // not drop stored tuples.
  Harness h(24, SnapshotConfig(), TestCatalog());
  auto windowed = sql::Parser::Parse(
      "SELECT R.B, S.B FROM R,S WHERE R.A=S.A WINDOW 2 TUPLES");
  ASSERT_TRUE(windowed.ok());
  ASSERT_TRUE(h.engine.SubmitQuery(0, *windowed).ok());
  h.simulator.Run();
  h.Publish(1, "R", {1, 10});
  h.Publish(2, "S", {1, 20});
  for (int64_t i = 0; i < 6; ++i) h.Publish(3, "R", {2 + i, 30 + i});
  const size_t stored = h.engine.CountStoredTuples();
  h.engine.SweepWindows();
  EXPECT_EQ(h.engine.CountStoredTuples(), stored);

  auto spec = sql::Parser::Parse("SELECT R.B, S.B FROM R,S WHERE R.A=S.A");
  ASSERT_TRUE(spec.ok());
  auto qid = h.engine.SubmitOneTimeQuery(0, *spec);
  ASSERT_TRUE(qid.ok()) << qid.status().ToString();
  h.simulator.Run();
  const std::vector<Answer> answers = h.engine.AnswersFor(*qid);
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_EQ(answers[0].row[0], sql::Value::Int(10));
  EXPECT_EQ(answers[0].row[1], sql::Value::Int(20));
}

TEST(OneTimeQueryTest, RejectsWindowClause) {
  Harness h(8, SnapshotConfig(), TestCatalog());
  auto spec = sql::Parser::Parse(
      "SELECT R.B FROM R,S WHERE R.A=S.A WINDOW 10 TUPLES");
  ASSERT_TRUE(spec.ok());
  EXPECT_FALSE(h.engine.SubmitOneTimeQuery(0, *spec).ok());
}

// ------------------------------------------- Attribute replication ----

TEST(ReplicationTest, AnswersUnchangedByReplication) {
  for (uint32_t r : {1u, 2u, 4u}) {
    EngineConfig cfg;
    cfg.keep_history = true;
    cfg.attr_replication = r;
    Harness h(24, cfg, TestCatalog(), 13);
    auto qid = h.engine.SubmitQuerySql(
        0, "SELECT R.B, S.B FROM R,S WHERE R.A=S.A");
    ASSERT_TRUE(qid.ok());
    h.simulator.Run();
    for (int i = 0; i < 12; ++i) {
      h.Publish(static_cast<dht::NodeIndex>(i % 24), i % 2 ? "R" : "S",
                {i % 3, 100 + i});
    }
    // 2 R-tuples x 2 S-tuples join per residue class of A: A values cycle
    // 0,1,2 over 12 tuples; compute expected via the oracle.
    sql::CentralizedEvaluator oracle(&h.catalog);
    auto iq = h.engine.FindQuery(*qid);
    const auto expected =
        oracle.Evaluate(iq->spec(), iq->ins_time(), h.engine.history());
    EXPECT_EQ(h.engine.AnswersFor(*qid).size(), expected.size())
        << "replication " << r;
  }
}

TEST(ReplicationTest, SpreadsAttributeLevelLoad) {
  // The load relief applies to the attribute-level rendezvous node (the
  // hot node of Section 3's discussion): with replication, each shard sees
  // only 1/r of the relation's tuples.
  auto attr_node_qpl = [](uint32_t replication) {
    EngineConfig cfg;
    cfg.attr_replication = replication;
    sql::Catalog cat;
    EXPECT_TRUE(cat.AddRelation(sql::Schema("R", {"A", "B"})).ok());
    EXPECT_TRUE(cat.AddRelation(sql::Schema("S", {"A", "B"})).ok());
    Harness h(64, cfg, std::move(cat), 17);
    // Many queries all indexed under R.A (the only candidate): one hot
    // attribute-level node without replication.
    for (int i = 0; i < 30; ++i) {
      auto qid = h.engine.SubmitQuerySql(
          static_cast<dht::NodeIndex>(i), "SELECT R.B FROM R,S WHERE R.A=S.A");
      EXPECT_TRUE(qid.ok());
    }
    h.simulator.Run();
    Rng rng(5);
    for (int i = 0; i < 60; ++i) {
      std::vector<sql::Value> vals = {
          sql::Value::Int(static_cast<int64_t>(rng.NextBounded(8))),
          sql::Value::Int(i)};
      EXPECT_TRUE(h.engine
                      .PublishTuple(static_cast<dht::NodeIndex>(i % 64), "R",
                                    std::move(vals))
                      .ok());
      h.simulator.Run();
    }
    const dht::NodeIndex attr_node =
        h.network->SuccessorOf(KeyRingId(AttributeKey("R", "A")));
    return h.metrics.node(attr_node).qpl;
  };
  const uint64_t unreplicated = attr_node_qpl(1);
  const uint64_t replicated = attr_node_qpl(4);
  EXPECT_LT(replicated, unreplicated);
}

TEST(ReplicationTest, ShardKeysAreDistinctButShardZeroIsPlain) {
  const IndexKey base = AttributeKey("R", "A");
  EXPECT_EQ(WithShard(base, 0).text, base.text);
  EXPECT_NE(WithShard(base, 1).text, base.text);
  EXPECT_NE(WithShard(base, 1).text, WithShard(base, 2).text);
  EXPECT_EQ(ShardedAttributeKey("R", "A", 3).text, WithShard(base, 3).text);
}

}  // namespace
}  // namespace rjoin::core
