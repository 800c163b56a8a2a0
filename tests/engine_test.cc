#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <ostream>
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
#include "workload/generator.h"

namespace rjoin::core {
namespace {

/// Everything needed to run one in-process RJoin network.
struct Harness {
  Harness(size_t nodes, EngineConfig cfg,
          std::unique_ptr<sim::LatencyModel> lat, sql::Catalog cat,
          uint64_t seed = 7)
      : catalog(std::move(cat)),
        network(dht::ChordNetwork::Create(nodes, seed)),
        latency(std::move(lat)),
        metrics(network->num_total()),
        simulator(&metrics, seed * 31),
        transport(network.get(), &simulator, latency.get()),
        engine(cfg, &catalog, network.get(), &transport, &simulator) {}

  uint64_t Submit(dht::NodeIndex owner, const std::string& text) {
    auto id = engine.SubmitQuerySql(owner, text);
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    simulator.Run();
    return *id;
  }

  sql::TuplePtr Publish(dht::NodeIndex node, const std::string& rel,
                        std::vector<int64_t> ints) {
    std::vector<sql::Value> vals;
    vals.reserve(ints.size());
    for (int64_t v : ints) vals.push_back(sql::Value::Int(v));
    auto t = engine.PublishTuple(node, rel, vals);
    EXPECT_TRUE(t.ok()) << t.status().ToString();
    simulator.Run();
    return t->Materialize();
  }

  /// Advances the clock without events (stream inter-arrival gap).
  void Tick(uint64_t dt) { simulator.RunUntil(simulator.Now() + dt); }

  sql::Catalog catalog;
  std::unique_ptr<dht::ChordNetwork> network;
  std::unique_ptr<sim::LatencyModel> latency;
  stats::MetricsRegistry metrics;
  sim::Simulator simulator;
  dht::Transport transport;
  RJoinEngine engine;
};

sql::Catalog TestCatalog() {
  sql::Catalog c;
  EXPECT_TRUE(c.AddRelation(sql::Schema("R", {"A", "B", "C"})).ok());
  EXPECT_TRUE(c.AddRelation(sql::Schema("S", {"A", "B", "C"})).ok());
  EXPECT_TRUE(c.AddRelation(sql::Schema("P", {"A", "B", "C"})).ok());
  EXPECT_TRUE(c.AddRelation(sql::Schema("M", {"A", "B", "C"})).ok());
  return c;
}

EngineConfig HistoryConfig() {
  EngineConfig cfg;
  cfg.keep_history = true;
  return cfg;
}

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

/// Readable multiset comparison: reports the rows only one side has.
std::string MultisetDiff(const std::vector<std::string>& got,
                         const std::vector<std::string>& expected) {
  std::vector<std::string> missing, extra;
  std::set_difference(expected.begin(), expected.end(), got.begin(),
                      got.end(), std::back_inserter(missing));
  std::set_difference(got.begin(), got.end(), expected.begin(),
                      expected.end(), std::back_inserter(extra));
  std::string out = "got " + std::to_string(got.size()) + " rows, expected " +
                    std::to_string(expected.size());
  out += "; missing: ";
  for (const auto& m : missing) out += "(" + m + ") ";
  out += "; extra: ";
  for (const auto& e : extra) out += "(" + e + ") ";
  return out;
}

// ------------------------------------------------------------- Basics ----

TEST(EngineTest, TwoWayJoinProducesAnswer) {
  Harness h(16, HistoryConfig(), std::make_unique<sim::FixedLatency>(1),
            TestCatalog());
  const uint64_t q =
      h.Submit(0, "SELECT R.B, S.C FROM R, S WHERE R.A = S.A");
  h.Publish(1, "R", {7, 10, 11});
  h.Publish(2, "S", {7, 20, 21});
  auto answers = h.engine.AnswersFor(q);
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_EQ(answers[0].row[0], sql::Value::Int(10));
  EXPECT_EQ(answers[0].row[1], sql::Value::Int(21));
}

TEST(EngineTest, NonJoiningTuplesProduceNothing) {
  Harness h(16, HistoryConfig(), std::make_unique<sim::FixedLatency>(1),
            TestCatalog());
  const uint64_t q = h.Submit(0, "SELECT R.B, S.C FROM R, S WHERE R.A=S.A");
  h.Publish(1, "R", {7, 10, 11});
  h.Publish(2, "S", {8, 20, 21});
  EXPECT_TRUE(h.engine.AnswersFor(q).empty());
}

TEST(EngineTest, TuplesBeforeSubmissionAreExcluded) {
  // Definition 1: only tuples with pubT >= insT participate.
  Harness h(16, HistoryConfig(), std::make_unique<sim::FixedLatency>(1),
            TestCatalog());
  h.Publish(1, "R", {7, 10, 11});
  h.Tick(10);
  const uint64_t q = h.Submit(0, "SELECT R.B, S.C FROM R, S WHERE R.A=S.A");
  h.Publish(2, "S", {7, 20, 21});
  EXPECT_TRUE(h.engine.AnswersFor(q).empty());
}

TEST(EngineTest, ArrivalOrderDoesNotMatter) {
  // All 3! arrival orders of a 3-way join produce the same single answer.
  const std::vector<std::vector<int>> orders = {
      {0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}};
  for (const auto& order : orders) {
    Harness h(16, HistoryConfig(), std::make_unique<sim::FixedLatency>(1),
              TestCatalog());
    const uint64_t q = h.Submit(
        0, "SELECT R.B, P.C FROM R, S, P WHERE R.A=S.A AND S.B=P.B");
    struct Pub {
      const char* rel;
      std::vector<int64_t> vals;
    };
    const Pub pubs[3] = {{"R", {1, 5, 0}}, {"S", {1, 6, 0}}, {"P", {0, 6, 9}}};
    for (int i : order) {
      h.Publish(static_cast<dht::NodeIndex>(i + 1), pubs[i].rel,
                pubs[i].vals);
      h.Tick(4);
    }
    auto answers = h.engine.AnswersFor(q);
    ASSERT_EQ(answers.size(), 1u) << "order " << order[0] << order[1]
                                  << order[2];
    EXPECT_EQ(answers[0].row[0], sql::Value::Int(5));
    EXPECT_EQ(answers[0].row[1], sql::Value::Int(9));
  }
}

TEST(EngineTest, SelectionPredicatesFilter) {
  Harness h(16, HistoryConfig(), std::make_unique<sim::FixedLatency>(1),
            TestCatalog());
  const uint64_t q =
      h.Submit(0, "SELECT R.B FROM R, S WHERE R.A=S.A AND S.B=5");
  h.Publish(1, "R", {1, 10, 0});
  h.Publish(2, "S", {1, 4, 0});  // S.B != 5: no answer
  EXPECT_TRUE(h.engine.AnswersFor(q).empty());
  h.Publish(2, "S", {1, 5, 0});  // S.B == 5: answer
  EXPECT_EQ(h.engine.AnswersFor(q).size(), 1u);
}

TEST(EngineTest, MultipleQueriesGetIndependentAnswers) {
  Harness h(32, HistoryConfig(), std::make_unique<sim::FixedLatency>(1),
            TestCatalog());
  const uint64_t q1 = h.Submit(0, "SELECT R.B, S.B FROM R,S WHERE R.A=S.A");
  const uint64_t q2 = h.Submit(5, "SELECT R.C, P.C FROM R,P WHERE R.B=P.B");
  h.Publish(1, "R", {1, 2, 3});
  h.Publish(2, "S", {1, 7, 0});
  h.Publish(3, "P", {0, 2, 9});
  EXPECT_EQ(h.engine.AnswersFor(q1).size(), 1u);
  EXPECT_EQ(h.engine.AnswersFor(q2).size(), 1u);
  EXPECT_EQ(h.engine.AnswersFor(q1)[0].row[1], sql::Value::Int(7));
  EXPECT_EQ(h.engine.AnswersFor(q2)[0].row[1], sql::Value::Int(9));
}

TEST(EngineTest, EachTupleCombinationAnsweredOnce) {
  // Theorem 2: no accidental duplicates. 2 R-tuples x 2 S-tuples, all
  // joining => exactly 4 answers.
  Harness h(16, HistoryConfig(), std::make_unique<sim::FixedLatency>(1),
            TestCatalog());
  const uint64_t q = h.Submit(0, "SELECT R.B, S.B FROM R,S WHERE R.A=S.A");
  h.Publish(1, "R", {1, 100, 0});
  h.Publish(2, "R", {1, 200, 0});
  h.Publish(3, "S", {1, 300, 0});
  h.Publish(4, "S", {1, 400, 0});
  auto answers = h.engine.AnswersFor(q);
  EXPECT_EQ(answers.size(), 4u);
  // All four combinations distinct.
  auto keys = SortedRowKeys(answers);
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  EXPECT_EQ(keys.size(), 4u);
}

// ----------------------------------------------- Example 2 and DISTINCT --

TEST(EngineTest, Example2BagSemanticsDeliversDuplicates) {
  // Paper Example 2: R(1,2,3); S(b,2,c); S(b,2,e) => (1,b) twice. Our test
  // catalog is integer-only, so b := 8.
  Harness h(16, HistoryConfig(), std::make_unique<sim::FixedLatency>(1),
            TestCatalog());
  const uint64_t q = h.Submit(0, "SELECT R.A, S.A FROM R,S WHERE R.B=S.B");
  h.Publish(1, "R", {1, 2, 3});
  h.Publish(2, "S", {8, 2, 30});
  h.Publish(3, "S", {8, 2, 50});
  auto answers = h.engine.AnswersFor(q);
  ASSERT_EQ(answers.size(), 2u);
  EXPECT_EQ(sql::AnswerRowKey(answers[0].row),
            sql::AnswerRowKey(answers[1].row));
}

TEST(EngineTest, DistinctSuppressesExample2Duplicates) {
  Harness h(16, HistoryConfig(), std::make_unique<sim::FixedLatency>(1),
            TestCatalog());
  const uint64_t q =
      h.Submit(0, "SELECT DISTINCT R.A, S.A FROM R,S WHERE R.B=S.B");
  h.Publish(1, "R", {1, 2, 3});
  h.Publish(2, "S", {8, 2, 30});
  h.Publish(3, "S", {8, 2, 50});
  EXPECT_EQ(h.engine.AnswersFor(q).size(), 1u);
}

TEST(EngineTest, DistinctStillDeliversDifferentRows) {
  Harness h(16, HistoryConfig(), std::make_unique<sim::FixedLatency>(1),
            TestCatalog());
  const uint64_t q =
      h.Submit(0, "SELECT DISTINCT R.A, S.A FROM R,S WHERE R.B=S.B");
  h.Publish(1, "R", {1, 2, 3});
  h.Publish(2, "S", {8, 2, 30});
  h.Publish(3, "S", {9, 2, 50});  // Different S.A: a genuinely new row.
  EXPECT_EQ(h.engine.AnswersFor(q).size(), 2u);
}

// ----------------------------------------------------------- Windows ----

TEST(EngineTest, SlidingTimeWindowExpiresCombinations) {
  Harness h(16, HistoryConfig(), std::make_unique<sim::FixedLatency>(1),
            TestCatalog());
  const uint64_t q = h.Submit(
      0, "SELECT R.B, S.B FROM R,S WHERE R.A=S.A WINDOW 50 TIME");
  h.Publish(1, "R", {1, 10, 0});
  h.Tick(200);  // Far beyond the window.
  h.Publish(2, "S", {1, 20, 0});
  EXPECT_TRUE(h.engine.AnswersFor(q).empty());

  // Within the window, the join fires.
  h.Publish(3, "R", {2, 11, 0});
  h.Tick(10);
  h.Publish(4, "S", {2, 21, 0});
  EXPECT_EQ(h.engine.AnswersFor(q).size(), 1u);
}

TEST(EngineTest, TupleWindowCountsArrivals) {
  Harness h(16, HistoryConfig(), std::make_unique<sim::FixedLatency>(1),
            TestCatalog());
  const uint64_t q = h.Submit(
      0, "SELECT R.B, S.B FROM R,S WHERE R.A=S.A WINDOW 3 TUPLES");
  h.Publish(1, "R", {1, 10, 0});  // seq 1
  h.Publish(2, "P", {0, 0, 0});   // seq 2 (unrelated stream traffic)
  h.Publish(3, "S", {1, 20, 0});  // seq 3: within 3-tuple window of seq 1
  EXPECT_EQ(h.engine.AnswersFor(q).size(), 1u);

  h.Publish(1, "R", {2, 11, 0});  // seq 4
  h.Publish(2, "P", {0, 0, 0});   // seq 5
  h.Publish(2, "P", {0, 0, 0});   // seq 6
  h.Publish(3, "S", {2, 21, 0});  // seq 7: outside window of seq 4
  EXPECT_EQ(h.engine.AnswersFor(q).size(), 1u);
}

TEST(EngineTest, TumblingWindowSeparatesEpochs) {
  Harness h(16, HistoryConfig(), std::make_unique<sim::FixedLatency>(1),
            TestCatalog());
  const uint64_t q = h.Submit(
      0, "SELECT R.B, S.B FROM R,S WHERE R.A=S.A WINDOW 1000 TIME TUMBLING");
  // Move into the middle of an epoch boundary region: publish R near the
  // end of epoch 0 and S at the start of epoch 1.
  h.Tick(990 - h.simulator.Now() % 1000);
  h.Publish(1, "R", {1, 10, 0});
  h.Tick(30);  // Now in epoch 1.
  h.Publish(2, "S", {1, 20, 0});
  EXPECT_TRUE(h.engine.AnswersFor(q).empty());
  // Same epoch joins.
  h.Publish(3, "R", {2, 11, 0});
  h.Tick(5);
  h.Publish(4, "S", {2, 21, 0});
  EXPECT_EQ(h.engine.AnswersFor(q).size(), 1u);
}

TEST(EngineTest, WindowGcReducesStoredState) {
  auto run = [](uint64_t window) {
    Harness h(16, HistoryConfig(), std::make_unique<sim::FixedLatency>(1),
              TestCatalog());
    h.Submit(0, "SELECT R.B, S.B FROM R,S WHERE R.A=S.A WINDOW " +
                    std::to_string(window) + " TIME");
    Rng rng(3);
    for (int i = 0; i < 40; ++i) {
      h.Publish(1, "R", {static_cast<int64_t>(rng.NextBounded(4)), i, 0});
      h.Tick(20);
      h.engine.SweepWindows();
    }
    int64_t stored = 0;
    for (const auto& m : h.metrics.all_nodes()) stored += m.storage_current;
    return stored;
  };
  // A small window must retain (much) less state than a huge one.
  EXPECT_LT(run(40), run(100000));
}

// ------------------------------------- Message delays and the ALTT fix --

TEST(EngineTest, Example1RaceLosesAnswersWithoutAltt) {
  // Submit the query and publish the matching tuple concurrently under
  // scrambled latencies. Without the ALTT some interleavings lose the
  // answer; with it, none do (Theorem 1).
  int lost_without_altt = 0;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    for (bool altt : {false, true}) {
      EngineConfig cfg = HistoryConfig();
      cfg.enable_altt = altt;
      cfg.altt_delta = 1 << 20;  // Ample Delta.
      Harness h(24, cfg, std::make_unique<sim::UniformLatency>(1, 60),
                TestCatalog(), seed);
      auto qid = h.engine.SubmitQuerySql(
          0, "SELECT R.B, S.B FROM R,S WHERE R.A=S.A");
      ASSERT_TRUE(qid.ok());
      // Publish immediately: query and tuples race through the network.
      ASSERT_TRUE(h.engine
                      .PublishTuple(3, "R",
                                    {sql::Value::Int(1), sql::Value::Int(2),
                                     sql::Value::Int(3)})
                      .ok());
      ASSERT_TRUE(h.engine
                      .PublishTuple(9, "S",
                                    {sql::Value::Int(1), sql::Value::Int(5),
                                     sql::Value::Int(6)})
                      .ok());
      h.simulator.Run();
      const size_t got = h.engine.AnswersFor(*qid).size();
      if (altt) {
        EXPECT_EQ(got, 1u) << "ALTT enabled must never lose answers, seed "
                           << seed;
      } else if (got == 0) {
        ++lost_without_altt;
      }
    }
  }
  // The race must actually bite in at least one interleaving, otherwise
  // this test exercises nothing.
  EXPECT_GT(lost_without_altt, 0);
}

TEST(EngineTest, AutoAlttDeltaIsPositive) {
  Harness h(64, EngineConfig{}, std::make_unique<sim::FixedLatency>(1),
            TestCatalog());
  EXPECT_GT(h.engine.altt_delta(), 0u);
}

// ------------------------------------------------------- Validation ----

TEST(EngineTest, RejectsMalformedSql) {
  Harness h(8, EngineConfig{}, std::make_unique<sim::FixedLatency>(1),
            TestCatalog());
  EXPECT_FALSE(h.engine.SubmitQuerySql(0, "SELEKT broken").ok());
}

TEST(EngineTest, RejectsUnknownRelationInQuery) {
  Harness h(8, EngineConfig{}, std::make_unique<sim::FixedLatency>(1),
            TestCatalog());
  EXPECT_FALSE(
      h.engine.SubmitQuerySql(0, "SELECT X.A FROM X,R WHERE X.A=R.A").ok());
}

TEST(EngineTest, RejectsBadTuples) {
  Harness h(8, EngineConfig{}, std::make_unique<sim::FixedLatency>(1),
            TestCatalog());
  EXPECT_FALSE(h.engine.PublishTuple(0, "Nope", {sql::Value::Int(1)}).ok());
  EXPECT_FALSE(h.engine.PublishTuple(0, "R", {sql::Value::Int(1)}).ok());
}

// ----------------------------------------------- Oracle equivalence ----

struct OracleParam {
  uint64_t seed;
  PlannerPolicy policy;
};

// Without a printer gtest prints the parameter's raw bytes, padding
// included, into every test's full name — which then differs from build to
// build.
void PrintTo(const OracleParam& p, std::ostream* os) {
  *os << "{seed " << p.seed << ", " << PlannerPolicyName(p.policy) << "}";
}

class OracleEquivalenceTest
    : public ::testing::TestWithParam<OracleParam> {};

TEST_P(OracleEquivalenceTest, EngineMatchesCentralizedEvaluator) {
  const OracleParam param = GetParam();

  workload::WorkloadParams wp;
  wp.num_relations = 4;
  wp.num_attributes = 3;
  wp.num_values = 4;  // Tiny domain: joins happen often.
  wp.zipf_theta = 0.5;
  auto catalog = workload::BuildCatalog(wp);

  EngineConfig cfg;
  cfg.keep_history = true;
  cfg.policy = param.policy;
  Harness h(24, cfg, std::make_unique<sim::FixedLatency>(1),
            std::move(*catalog), param.seed);

  workload::QueryGenerator qgen(wp, &h.catalog, param.seed * 3 + 1);
  std::vector<uint64_t> qids;
  for (int i = 0; i < 5; ++i) {
    auto id = h.engine.SubmitQuery(
        static_cast<dht::NodeIndex>(i), qgen.Next(2 + (i % 2)));
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    qids.push_back(*id);
  }
  h.simulator.Run();

  workload::TupleGenerator tgen(wp, &h.catalog, param.seed * 5 + 2);
  for (int i = 0; i < 50; ++i) {
    auto d = tgen.Next();
    ASSERT_TRUE(h.engine
                    .PublishTuple(static_cast<dht::NodeIndex>(i % 24),
                                  d.relation, std::move(d.values))
                    .ok());
    h.simulator.Run();
    h.Tick(3);
  }

  sql::CentralizedEvaluator oracle(&h.catalog);
  for (uint64_t qid : qids) {
    auto iq = h.engine.FindQuery(qid);
    ASSERT_NE(iq, nullptr);
    const auto expected =
        oracle.Evaluate(iq->spec(), iq->ins_time(), h.engine.history());
    const auto got = h.engine.AnswersFor(qid);
    const auto got_keys = SortedRowKeys(got);
    const auto exp_keys = SortedRowKeys(expected);
    EXPECT_EQ(got_keys, exp_keys)
        << "query " << qid << ": " << iq->spec().ToString() << "\n"
        << MultisetDiff(got_keys, exp_keys);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndPolicies, OracleEquivalenceTest,
    ::testing::Values(
        OracleParam{1, PlannerPolicy::kRic},
        OracleParam{2, PlannerPolicy::kRic},
        OracleParam{3, PlannerPolicy::kRic},
        OracleParam{4, PlannerPolicy::kRic},
        OracleParam{5, PlannerPolicy::kFirstInClause},
        OracleParam{6, PlannerPolicy::kFirstInClause},
        OracleParam{7, PlannerPolicy::kRandom},
        OracleParam{8, PlannerPolicy::kRandom},
        OracleParam{9, PlannerPolicy::kWorst},
        OracleParam{10, PlannerPolicy::kWorst}),
    [](const ::testing::TestParamInfo<OracleParam>& info) {
      std::string name = PlannerPolicyName(info.param.policy);
      // gtest parameter names must be alphanumeric.
      std::erase_if(name, [](char c) { return !std::isalnum(
                                           static_cast<unsigned char>(c)); });
      return name + "Seed" + std::to_string(info.param.seed);
    });

class WindowedOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WindowedOracleTest, WindowedEngineMatchesOracle) {
  const uint64_t seed = GetParam();
  workload::WorkloadParams wp;
  wp.num_relations = 3;
  wp.num_attributes = 3;
  wp.num_values = 3;
  wp.zipf_theta = 0.4;
  auto catalog = workload::BuildCatalog(wp);

  EngineConfig cfg;
  cfg.keep_history = true;
  Harness h(16, cfg, std::make_unique<sim::FixedLatency>(1),
            std::move(*catalog), seed);

  sql::WindowSpec window;
  window.use_windows = true;
  window.unit = sql::WindowSpec::Unit::kTuples;
  window.size = 8;

  workload::QueryGenerator qgen(wp, &h.catalog, seed * 3 + 1);
  std::vector<uint64_t> qids;
  for (int i = 0; i < 3; ++i) {
    auto id = h.engine.SubmitQuery(static_cast<dht::NodeIndex>(i),
                                   qgen.Next(2, window));
    ASSERT_TRUE(id.ok());
    qids.push_back(*id);
  }
  h.simulator.Run();

  workload::TupleGenerator tgen(wp, &h.catalog, seed * 5 + 2);
  for (int i = 0; i < 60; ++i) {
    auto d = tgen.Next();
    ASSERT_TRUE(h.engine
                    .PublishTuple(static_cast<dht::NodeIndex>(i % 16),
                                  d.relation, std::move(d.values))
                    .ok());
    h.simulator.Run();
    h.Tick(2);
    if (i % 10 == 9) h.engine.SweepWindows();
  }

  sql::CentralizedEvaluator oracle(&h.catalog);
  for (uint64_t qid : qids) {
    auto iq = h.engine.FindQuery(qid);
    const auto expected =
        oracle.Evaluate(iq->spec(), iq->ins_time(), h.engine.history());
    const auto got_keys = SortedRowKeys(h.engine.AnswersFor(qid));
    const auto exp_keys = SortedRowKeys(expected);
    EXPECT_EQ(got_keys, exp_keys) << iq->spec().ToString() << "\n"
                                  << MultisetDiff(got_keys, exp_keys);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WindowedOracleTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

class DistinctOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DistinctOracleTest, DistinctEngineMatchesOracleSetSemantics) {
  const uint64_t seed = GetParam();
  workload::WorkloadParams wp;
  wp.num_relations = 3;
  wp.num_attributes = 2;
  wp.num_values = 2;  // Tiny: duplicates guaranteed.
  wp.zipf_theta = 0.3;
  auto catalog = workload::BuildCatalog(wp);

  EngineConfig cfg;
  cfg.keep_history = true;
  Harness h(16, cfg, std::make_unique<sim::FixedLatency>(1),
            std::move(*catalog), seed);

  workload::QueryGenerator qgen(wp, &h.catalog, seed * 3 + 1);
  sql::Query spec = qgen.Next(2);
  spec.distinct = true;
  auto qid = h.engine.SubmitQuery(0, spec);
  ASSERT_TRUE(qid.ok());
  h.simulator.Run();

  workload::TupleGenerator tgen(wp, &h.catalog, seed * 5 + 2);
  for (int i = 0; i < 40; ++i) {
    auto d = tgen.Next();
    ASSERT_TRUE(h.engine
                    .PublishTuple(static_cast<dht::NodeIndex>(i % 16),
                                  d.relation, std::move(d.values))
                    .ok());
    h.simulator.Run();
    h.Tick(2);
  }

  sql::CentralizedEvaluator oracle(&h.catalog);
  auto iq = h.engine.FindQuery(*qid);
  const auto expected =
      oracle.Evaluate(iq->spec(), iq->ins_time(), h.engine.history());
  EXPECT_EQ(SortedRowKeys(h.engine.AnswersFor(*qid)),
            SortedRowKeys(expected))
      << iq->spec().ToString();
}

INSTANTIATE_TEST_SUITE_P(Seeds, DistinctOracleTest,
                         ::testing::Values(1, 2, 3, 4, 5));

// ------------------------------------------------ Traffic properties ----

TEST(EngineTest, RicPolicyBeatsWorstOnSkewedWorkload) {
  auto run = [](PlannerPolicy policy) {
    workload::WorkloadParams wp;  // Paper defaults, smaller domain counts.
    wp.num_relations = 6;
    wp.num_attributes = 4;
    wp.num_values = 20;
    wp.zipf_theta = 0.9;
    auto catalog = workload::BuildCatalog(wp);
    EngineConfig cfg;
    cfg.policy = policy;
    Harness h(64, cfg, std::make_unique<sim::FixedLatency>(1),
              std::move(*catalog), 17);
    workload::QueryGenerator qgen(wp, &h.catalog, 100);
    for (int i = 0; i < 300; ++i) {
      auto id = h.engine.SubmitQuery(static_cast<dht::NodeIndex>(i % 64),
                                     qgen.Next(3));
      EXPECT_TRUE(id.ok());
    }
    h.simulator.Run();
    workload::TupleGenerator tgen(wp, &h.catalog, 200);
    for (int i = 0; i < 150; ++i) {
      auto d = tgen.Next();
      EXPECT_TRUE(h.engine
                      .PublishTuple(static_cast<dht::NodeIndex>(i % 64),
                                    d.relation, std::move(d.values))
                      .ok());
      h.simulator.Run();
      h.Tick(8);
    }
    return h.metrics.total_messages();
  };
  const uint64_t ric = run(PlannerPolicy::kRic);
  const uint64_t worst = run(PlannerPolicy::kWorst);
  EXPECT_LT(ric, worst);
}

TEST(EngineTest, PerNodeTrafficSumsToTotal) {
  Harness h(32, HistoryConfig(), std::make_unique<sim::FixedLatency>(1),
            TestCatalog());
  h.Submit(0, "SELECT R.B, S.B FROM R,S WHERE R.A=S.A");
  h.Publish(1, "R", {1, 2, 3});
  h.Publish(2, "S", {1, 4, 5});
  uint64_t per_node = 0, per_node_ric = 0;
  for (const auto& m : h.metrics.all_nodes()) {
    per_node += m.messages_sent;
    per_node_ric += m.ric_messages_sent;
  }
  EXPECT_EQ(per_node, h.metrics.total_messages());
  EXPECT_EQ(per_node_ric, h.metrics.total_ric_messages());
  EXPECT_GE(per_node, per_node_ric);
}

TEST(EngineTest, QplCountsTupleAndQueryReceipts) {
  Harness h(16, HistoryConfig(), std::make_unique<sim::FixedLatency>(1),
            TestCatalog());
  h.Submit(0, "SELECT R.B, S.B FROM R,S WHERE R.A=S.A");
  const uint64_t before = h.metrics.total_qpl();
  h.Publish(1, "R", {1, 2, 3});
  // 6 NewTuple deliveries (3 attrs x 2 levels) + 1 Eval (the rewrite).
  EXPECT_EQ(h.metrics.total_qpl() - before, 7u);
}

}  // namespace
}  // namespace rjoin::core
