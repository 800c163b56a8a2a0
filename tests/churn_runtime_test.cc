// Tests of live topology churn: nodes join and leave *while* the tuple
// stream is running, state moves between owners as StateHandoff batches,
// and the battery asserts the two hard properties of docs/churn.md — (1)
// the answer stream is bit-identical from run to run under any churn
// trace, and (2) the delivered answers still match the centralized
// sql::Evaluator oracle (eventual completeness across handoffs, ALTT Delta
// included).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "core/engine.h"
#include "dht/chord_network.h"
#include "dht/transport.h"
#include "sim/latency.h"
#include "sim/simulator.h"
#include "sql/evaluator.h"
#include "stats/metrics.h"
#include "workload/churn.h"
#include "workload/experiment.h"
#include "workload/generator.h"

namespace rjoin {
namespace {

// --------------------------------------------------- hand-driven churn ----

/// Minimal hand-wired harness: explicit joins/leaves between publishes,
/// oracle checks at the end.
struct ChurnHarness {
  explicit ChurnHarness(size_t nodes, uint64_t seed = 7,
                        core::EngineConfig config = HistoryConfig())
      : network(dht::ChordNetwork::Create(nodes, seed)),
        latency(1),
        metrics(network->num_total()),
        sim(&metrics, seed * 31),
        transport(network.get(), &sim, &latency),
        engine(config, &catalog, network.get(), &transport, &sim) {}

  static core::EngineConfig HistoryConfig() {
    core::EngineConfig cfg;
    cfg.keep_history = true;
    return cfg;
  }

  static sql::Catalog MakeCatalog() {
    sql::Catalog c;
    EXPECT_TRUE(c.AddRelation(sql::Schema("R", {"A", "B", "C"})).ok());
    EXPECT_TRUE(c.AddRelation(sql::Schema("S", {"A", "B", "C"})).ok());
    EXPECT_TRUE(c.AddRelation(sql::Schema("P", {"A", "B", "C"})).ok());
    return c;
  }

  uint64_t Submit(dht::NodeIndex owner, const std::string& text) {
    auto id = engine.SubmitQuerySql(owner, text);
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    sim.Run();
    return *id;
  }

  core::TupleRef Publish(dht::NodeIndex node, const std::string& rel,
                         std::vector<int64_t> ints) {
    std::vector<sql::Value> vals;
    vals.reserve(ints.size());
    for (int64_t v : ints) vals.push_back(sql::Value::Int(v));
    auto t = engine.PublishTuple(node, rel, std::move(vals));
    EXPECT_TRUE(t.ok()) << t.status().ToString();
    sim.Run();
    return t.ok() ? *t : core::TupleRef();
  }

  void OracleCheck(uint64_t qid) {
    sql::CentralizedEvaluator oracle(&catalog);
    auto iq = engine.FindQuery(qid);
    ASSERT_NE(iq, nullptr);
    std::vector<std::string> expected;
    for (const auto& row :
         oracle.Evaluate(iq->spec(), iq->ins_time(), engine.history())) {
      expected.push_back(sql::AnswerRowKey(row));
    }
    std::vector<std::string> got;
    for (const auto& a : engine.AnswersFor(qid)) {
      got.push_back(sql::AnswerRowKey(a.row));
    }
    std::sort(expected.begin(), expected.end());
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected) << "query " << qid;
  }

  sql::Catalog catalog = MakeCatalog();
  std::unique_ptr<dht::ChordNetwork> network;
  sim::FixedLatency latency;
  stats::MetricsRegistry metrics;
  sim::Simulator sim;
  dht::Transport transport;
  core::RJoinEngine engine;
};

TEST(SerialChurnTest, JoinMovesStateAndAnswersStayComplete) {
  ChurnHarness h(16);
  const uint64_t q = h.Submit(0, "SELECT R.B, S.C FROM R, S WHERE R.A=S.A");
  h.Publish(1, "R", {7, 10, 11});

  // A join right where stored state lives: every key moves somewhere on
  // some seed; 8 joins guarantee several non-empty handoffs.
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(h.engine
                    .ScheduleJoin(h.sim.Now(),
                                  dht::NodeId::FromKey("joiner:" +
                                                       std::to_string(i)),
                                  0)
                    .ok());
    h.sim.Run();
  }
  EXPECT_EQ(h.engine.churn_stats().joins_applied, 8u);
  EXPECT_GT(h.engine.churn_stats().handoff_messages, 0u);

  // The second half of the join arrives after churn: the rewritten query
  // (wherever it now lives) must still trigger.
  h.Publish(2, "S", {7, 20, 21});
  h.OracleCheck(q);
  EXPECT_EQ(h.engine.AnswersFor(q).size(), 1u);
}

TEST(SerialChurnTest, LeaveHandsOffAndAnswersStayComplete) {
  ChurnHarness h(16);
  const uint64_t q = h.Submit(0, "SELECT R.B, S.C FROM R, S WHERE R.A=S.A");
  h.Publish(1, "R", {7, 10, 11});
  h.Publish(1, "R", {8, 12, 13});

  // Leave every node but owner/publishers' working set — state under the
  // departed nodes' ranges must move to survivors, never vanish.
  size_t leaves = 0;
  for (dht::NodeIndex victim = 3; victim < 16 && h.network->num_alive() > 4;
       ++victim) {
    if (victim == 0 || victim == 1 || victim == 2) continue;
    ASSERT_TRUE(h.engine.ScheduleLeave(h.sim.Now(), victim).ok());
    h.sim.Run();
    ++leaves;
  }
  EXPECT_EQ(h.engine.churn_stats().leaves_applied, leaves);
  EXPECT_GT(h.engine.churn_stats().handoff_messages, 0u);

  h.Publish(2, "S", {7, 20, 21});
  h.Publish(2, "S", {8, 22, 23});
  h.OracleCheck(q);
  EXPECT_EQ(h.engine.AnswersFor(q).size(), 2u);
}

TEST(SerialChurnTest, LeaveOfLastNodeIsRejected) {
  ChurnHarness h(2);
  ASSERT_TRUE(h.engine.ScheduleLeave(0, 0).ok());
  h.sim.Run();
  EXPECT_EQ(h.engine.churn_stats().leaves_applied, 1u);
  // The survivor cannot leave: its range would be ownerless.
  ASSERT_TRUE(h.engine.ScheduleLeave(h.sim.Now(), 1).ok());
  h.sim.Run();
  EXPECT_EQ(h.engine.churn_stats().leaves_applied, 1u);
  EXPECT_EQ(h.engine.churn_stats().ops_rejected, 1u);
}

// ------------------------------------------- DISTINCT across a handoff ----

constexpr uint32_t kNil = core::SlabPool<core::StoredQuery>::kNil;

/// The stored query of `qid` under `key` at `node`, or nullptr.
const core::StoredQuery* FindStoredQuery(const core::RJoinEngine& engine,
                                         dht::NodeIndex node, core::KeyId key,
                                         uint64_t qid) {
  const core::NodeState& st = engine.state_of(node);
  const core::BucketList* bucket = st.queries.Find(key);
  for (uint32_t cur = bucket == nullptr ? kNil : bucket->head; cur != kNil;
       cur = st.query_pool.at(cur).next) {
    const core::StoredQuery& sq = st.query_pool.at(cur).value;
    if (sq.residual.origin()->query_id() == qid) return &sq;
  }
  return nullptr;
}

/// Expects `node` to store query `qid` under `key` with DISTINCT projection
/// memory holding exactly `expected`.
void ExpectProjections(const core::RJoinEngine& engine, dht::NodeIndex node,
                       core::KeyId key, uint64_t qid,
                       const std::vector<uint64_t>& expected) {
  const core::StoredQuery* sq = FindStoredQuery(engine, node, key, qid);
  ASSERT_NE(sq, nullptr) << "query " << qid << " not stored at node " << node;
  ASSERT_NE(sq->projections, kNil);
  const core::FlatU64Set& seen =
      engine.state_of(node).projection_pool.at(sq->projections).value;
  EXPECT_EQ(seen.size(), expected.size()) << "at node " << node;
  for (uint64_t fp : expected) {
    EXPECT_TRUE(seen.Contains(fp)) << "projection " << fp << " lost";
  }
}

/// Answer rows in delivery order, plus total traffic, of one run of the
/// DISTINCT handoff script.
struct DistinctLeaveRun {
  std::vector<std::string> rows;
  uint64_t messages = 0;
};

/// A DISTINCT 3-way query's R-bound rewrite waits under the value-level key
/// S.A=7 and sees projection p of S; its node leaves gracefully; then S
/// tuples with p and with a new projection p' arrive at the key's new
/// owner. The moved query must suppress p (its projection memory moved
/// with it) and record p'.
DistinctLeaveRun RunDistinctLeave() {
  core::EngineConfig config = ChurnHarness::HistoryConfig();
  // First-in-clause placement pins the chain: the input query waits under
  // R.A and its R-bound rewrite under the implied value key S.A=7.
  config.policy = core::PlannerPolicy::kFirstInClause;
  ChurnHarness h(16, 7, config);
  core::KeyInterner& interner = core::KeyInterner::Global();
  const core::KeyId key = interner.InternValue("S", "A", sql::Value::Int(7));
  const dht::NodeIndex holder = h.network->SuccessorOf(interner.ring_id(key));
  const dht::NodeIndex client = holder == 0 ? 1 : 0;  // owner, publisher

  const uint64_t q = h.Submit(client,
                              "SELECT DISTINCT R.B, S.C, P.C FROM R, S, P "
                              "WHERE R.A=S.A AND S.B=P.B");
  const core::InputQuery* iq = h.engine.FindQuery(q);
  const int s_rel = iq->RelIndex("S");
  h.Publish(client, "R", {7, 10, 11});
  const uint64_t p = core::ProjectionFingerprint(
      *iq, s_rel, h.Publish(client, "S", {7, 20, 21}));
  ExpectProjections(h.engine, holder, key, q, {p});

  EXPECT_TRUE(h.engine.ScheduleLeave(h.sim.Now(), holder).ok());
  h.sim.Run();
  EXPECT_EQ(h.engine.churn_stats().leaves_applied, 1u);
  const dht::NodeIndex heir = h.network->SuccessorOf(interner.ring_id(key));
  EXPECT_NE(heir, holder);
  EXPECT_EQ(FindStoredQuery(h.engine, holder, key, q), nullptr);
  ExpectProjections(h.engine, heir, key, q, {p});

  h.Publish(client, "S", {7, 20, 21});  // p again: suppressed
  const uint64_t p2 = core::ProjectionFingerprint(
      *iq, s_rel, h.Publish(client, "S", {7, 30, 31}));
  EXPECT_NE(p2, p);
  ExpectProjections(h.engine, heir, key, q, {p, p2});

  h.Publish(client, "P", {1, 20, 40});
  h.Publish(client, "P", {2, 30, 50});
  h.OracleCheck(q);

  DistinctLeaveRun run;
  for (const core::Answer& a : h.engine.answers()) {
    run.rows.push_back(sql::AnswerRowKey(a.row));
  }
  EXPECT_EQ(run.rows.size(), 2u);
  run.messages = h.metrics.total_messages();
  return run;
}

TEST(ChurnRuntimeTest, DistinctProjectionMemorySurvivesGracefulLeave) {
  const DistinctLeaveRun first = RunDistinctLeave();
  const DistinctLeaveRun second = RunDistinctLeave();
  EXPECT_EQ(first.rows, second.rows);
  EXPECT_EQ(first.messages, second.messages);
}

// ------------------------------------------------- run-to-run identity ----

workload::ExperimentConfig BaseChurnConfig() {
  workload::ExperimentConfig cfg;
  cfg.num_nodes = 40;
  cfg.num_queries = 100;
  cfg.num_tuples = 48;
  cfg.way = 3;
  cfg.workload.num_relations = 6;
  cfg.workload.num_attributes = 4;
  cfg.workload.num_values = 25;
  cfg.seed = 9;
  cfg.keep_history = true;  // oracle checks
  return cfg;
}

struct RunOutput {
  workload::ExperimentResult result;
  std::vector<std::string> answers;  // (query, row, time) render
  uint64_t total_messages = 0;
  uint64_t total_qpl = 0;
  size_t stored_queries = 0;
  size_t stored_tuples = 0;
  core::RJoinEngine::ChurnStats churn;
  /// Per-query sorted row keys + history render, for oracle comparison.
  std::map<uint64_t, std::vector<std::string>> per_query_rows;
  std::map<uint64_t, std::vector<std::string>> oracle_rows;
};

RunOutput RunWith(const workload::ExperimentConfig& cfg) {
  workload::Experiment e(cfg);
  RunOutput out;
  out.result = e.Run();
  for (const core::Answer& a : e.engine().answers()) {
    out.answers.push_back(std::to_string(a.query_id) + "|" +
                          sql::AnswerRowKey(a.row) + "|" +
                          std::to_string(a.delivered_at));
    out.per_query_rows[a.query_id].push_back(sql::AnswerRowKey(a.row));
  }
  out.total_messages = e.metrics().total_messages();
  out.total_qpl = e.metrics().total_qpl();
  out.stored_queries = e.engine().CountStoredQueries();
  out.stored_tuples = e.engine().CountStoredTuples();
  out.churn = e.engine().churn_stats();

  sql::CentralizedEvaluator oracle(&e.catalog());
  for (uint64_t qid = 1; qid <= cfg.num_queries; ++qid) {
    auto iq = e.engine().FindQuery(qid);
    if (iq == nullptr) continue;
    std::vector<std::string> rows;
    for (const auto& row :
         oracle.Evaluate(iq->spec(), iq->ins_time(), e.engine().history())) {
      rows.push_back(sql::AnswerRowKey(row));
    }
    std::sort(rows.begin(), rows.end());
    out.oracle_rows[qid] = std::move(rows);
  }
  for (auto& [qid, rows] : out.per_query_rows) {
    std::sort(rows.begin(), rows.end());
  }
  return out;
}

void ExpectIdentical(const RunOutput& a, const RunOutput& b) {
  // Bit-identical answer streams: same rows, same order, same virtual
  // delivery times.
  EXPECT_EQ(a.answers, b.answers);
  EXPECT_EQ(a.result.final_snapshot.messages, b.result.final_snapshot.messages);
  EXPECT_EQ(a.result.final_snapshot.storage, b.result.final_snapshot.storage);
  EXPECT_EQ(a.total_messages, b.total_messages);
  EXPECT_EQ(a.total_qpl, b.total_qpl);
  EXPECT_EQ(a.stored_queries, b.stored_queries);
  EXPECT_EQ(a.stored_tuples, b.stored_tuples);
  // Churn executed identically: same applications, same handoff traffic.
  EXPECT_EQ(a.churn.joins_applied, b.churn.joins_applied);
  EXPECT_EQ(a.churn.leaves_applied, b.churn.leaves_applied);
  EXPECT_EQ(a.churn.handoff_messages, b.churn.handoff_messages);
  EXPECT_EQ(a.churn.handoff_queries, b.churn.handoff_queries);
  EXPECT_EQ(a.churn.handoff_tuples, b.churn.handoff_tuples);
  EXPECT_EQ(a.churn.handoff_bytes, b.churn.handoff_bytes);
  EXPECT_EQ(a.churn.handoffs_installed, b.churn.handoffs_installed);
  EXPECT_EQ(a.churn.forwarded_messages, b.churn.forwarded_messages);
}

void ExpectMatchesOracle(const RunOutput& out) {
  size_t checked = 0;
  for (const auto& [qid, expected] : out.oracle_rows) {
    auto it = out.per_query_rows.find(qid);
    const std::vector<std::string> got =
        it == out.per_query_rows.end() ? std::vector<std::string>{}
                                       : it->second;
    EXPECT_EQ(got, expected) << "query " << qid;
    ++checked;
  }
  EXPECT_GT(checked, 0u);
}

TEST(ChurnRuntimeTest, JoinOnlyTraceIsShardCountInvariantAndComplete) {
  workload::ExperimentConfig cfg = BaseChurnConfig();
  workload::ChurnSpec churn;
  churn.joins = 12;
  cfg.churn = churn;
  const RunOutput s1 = RunWith(cfg);
  EXPECT_EQ(s1.churn.joins_applied, 12u);
  EXPECT_GT(s1.churn.handoff_messages, 0u);
  EXPECT_GT(s1.answers.size(), 0u);
  ExpectMatchesOracle(s1);
  ExpectIdentical(s1, RunWith(cfg));
}

TEST(ChurnRuntimeTest, LeaveOnlyTraceIsShardCountInvariantAndComplete) {
  workload::ExperimentConfig cfg = BaseChurnConfig();
  workload::ChurnSpec churn;
  churn.leaves = 12;
  churn.spare_nodes = 12;  // leave victims reserved at startup
  cfg.churn = churn;
  const RunOutput s1 = RunWith(cfg);
  EXPECT_EQ(s1.churn.leaves_applied, 12u);
  EXPECT_GT(s1.churn.handoff_messages, 0u);
  ExpectMatchesOracle(s1);
  ExpectIdentical(s1, RunWith(cfg));
}

TEST(ChurnRuntimeTest, MixedTraceMeetsAcceptanceBar) {
  // The acceptance scenario: >= 10 joins + 10 leaves mid-stream, the same
  // answer stream on a second run, oracle equality.
  workload::ExperimentConfig cfg = BaseChurnConfig();
  workload::ChurnSpec churn;
  churn.joins = 12;
  churn.leaves = 12;
  churn.spare_nodes = 6;  // half the victims are spares, half are joiners
  cfg.churn = churn;
  const RunOutput s1 = RunWith(cfg);
  EXPECT_GE(s1.churn.joins_applied, 10u);
  EXPECT_GE(s1.churn.leaves_applied, 10u);
  EXPECT_GT(s1.churn.handoff_messages, 0u);
  EXPECT_GT(s1.answers.size(), 0u);
  ExpectMatchesOracle(s1);
  ExpectIdentical(s1, RunWith(cfg));
}

TEST(ChurnRuntimeTest, RouteCacheOnOffIsBitIdenticalUnderChurn) {
  // The route cache memoizes per-topology-generation paths; every churn op
  // bumps the generation. The whole-run result surface — answer stream,
  // traffic totals, handoff accounting — must be bit-identical with the
  // cache killed (RJOIN_ROUTE_CACHE=0): the cache changes who computes a
  // path, never the path.
  workload::ExperimentConfig cfg = BaseChurnConfig();
  workload::ChurnSpec churn;
  churn.joins = 10;
  churn.leaves = 10;
  churn.spare_nodes = 5;
  cfg.churn = churn;
  const RunOutput on = RunWith(cfg);
  ASSERT_EQ(setenv("RJOIN_ROUTE_CACHE", "0", 1), 0);
  const RunOutput off = RunWith(cfg);
  unsetenv("RJOIN_ROUTE_CACHE");
  ExpectIdentical(on, off);
  ExpectMatchesOracle(on);
}

TEST(ChurnRuntimeTest, WindowedChurnHonorsAlttAcrossHandoff) {
  // Windowed continuous queries + churn: ALTT entries migrate with their
  // original expiry, window residuals expire identically on every path.
  workload::ExperimentConfig cfg = BaseChurnConfig();
  cfg.num_tuples = 64;
  sql::WindowSpec w;
  w.use_windows = true;
  w.unit = sql::WindowSpec::Unit::kTuples;
  w.size = 12;
  cfg.window = w;
  cfg.sweep_every = 8;
  workload::ChurnSpec churn;
  churn.joins = 8;
  churn.leaves = 8;
  churn.spare_nodes = 4;
  cfg.churn = churn;
  const RunOutput s1 = RunWith(cfg);
  EXPECT_GT(s1.churn.handoff_messages, 0u);
  ExpectIdentical(s1, RunWith(cfg));
}

TEST(ChurnRuntimeTest, PipelinedStormIsShardCountInvariant) {
  // Churn storm under pipelined streaming: many tuples and handoffs in
  // flight at once, topology mutating every few rounds.
  workload::ExperimentConfig cfg = BaseChurnConfig();
  cfg.pipeline_stream = true;
  workload::ChurnSpec churn;
  churn.joins = 16;
  churn.leaves = 16;
  churn.spare_nodes = 8;
  churn.settle_ticks = 32;
  cfg.churn = churn;
  const RunOutput s1 = RunWith(cfg);
  EXPECT_GE(s1.churn.joins_applied + s1.churn.leaves_applied, 24u);
  ExpectMatchesOracle(s1);
  ExpectIdentical(s1, RunWith(cfg));
}

class SeededChurnStormTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SeededChurnStormTest, RandomTraceStaysEquivalentAndComplete) {
  workload::ExperimentConfig cfg = BaseChurnConfig();
  cfg.seed = GetParam();
  cfg.num_queries = 60;
  workload::ChurnSpec churn;
  churn.rate = 0.5;  // ~one churn op every other tuple
  churn.spare_nodes = 6;
  churn.seed = GetParam() * 131 + 7;
  cfg.churn = churn;
  const RunOutput s1 = RunWith(cfg);
  EXPECT_GT(s1.churn.joins_applied + s1.churn.leaves_applied, 0u);
  ExpectMatchesOracle(s1);
  ExpectIdentical(s1, RunWith(cfg));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededChurnStormTest,
                         ::testing::Values(11, 12, 13));

TEST(ChurnTraceTest, GeneratorIsDeterministicAndClampsLeaves)
{
  workload::ChurnSpec spec;
  spec.joins = 5;
  spec.leaves = 9;      // only 5 joins + 2 spares available
  spec.spare_nodes = 2;
  size_t joins = 0, leaves = 0;
  const auto a = workload::GenerateChurnTrace(spec, 100, 1000, 5000, 42,
                                              &joins, &leaves);
  EXPECT_EQ(joins, 5u);
  EXPECT_EQ(leaves, 7u);  // clamped to the victim supply
  EXPECT_EQ(a.size(), 12u);
  const auto b = workload::GenerateChurnTrace(spec, 100, 1000, 5000, 42,
                                              nullptr, nullptr);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].time, b[i].time);
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].victim_slot, b[i].victim_slot);
  }
  // Times are ordered and inside the span (leaves may spill past the end
  // by their settle gap only).
  for (size_t i = 1; i < a.size(); ++i) EXPECT_GE(a[i].time, a[i - 1].time);
  EXPECT_GE(a.front().time, 1000u);
}

}  // namespace
}  // namespace rjoin
