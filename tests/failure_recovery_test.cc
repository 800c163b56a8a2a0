// Fault-injection battery for successor-list replication and silent-failure
// recovery (docs/failures.md): nodes CRASH — no goodbye, no handoff — while
// the tuple stream runs, the successor detects ownership at the topology
// generation bump and promotes its replica slices, and the suite asserts
// the three hard properties: (1) with replication factor r=2, killing any
// single node loses zero answers against the uncrashed centralized oracle;
// (2) the answer stream stays bit-identical for any shard count under any
// seeded FaultPlan trace; (3) a promoted owner's per-key state equals the
// state a graceful leave of the same node would have handed off.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/node_state.h"
#include "core/slab_pool.h"
#include "dht/chord_network.h"
#include "dht/transport.h"
#include "sim/latency.h"
#include "sim/simulator.h"
#include "sql/evaluator.h"
#include "stats/metrics.h"
#include "util/random.h"
#include "workload/churn.h"
#include "workload/experiment.h"
#include "workload/generator.h"

namespace rjoin {
namespace {

constexpr uint32_t kNilQ = core::SlabPool<core::StoredQuery>::kNil;
constexpr uint32_t kNilC = core::SlabPool<core::TupleChunk>::kNil;
constexpr uint32_t kNilA = core::SlabPool<core::AlttEntry>::kNil;

// ----------------------------------------------------- serial crashes ----

/// Minimal serial harness with a replication knob: explicit crashes between
/// publishes, oracle checks at the end (mirrors churn_runtime_test's
/// SerialHarness).
struct FaultHarness {
  explicit FaultHarness(size_t nodes, uint32_t replication, uint64_t seed = 7)
      : network(dht::ChordNetwork::Create(nodes, seed)),
        latency(1),
        metrics(network->num_total()),
        transport(network.get(), &simulator, &latency, &metrics,
                  Rng(seed * 31)),
        engine(Config(replication), &catalog, network.get(), &transport,
               &simulator, &metrics) {}

  static core::EngineConfig Config(uint32_t replication) {
    core::EngineConfig cfg;
    cfg.keep_history = true;
    cfg.replication = replication;
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
    simulator.Run();
    return *id;
  }

  void Publish(dht::NodeIndex node, const std::string& rel,
               std::vector<int64_t> ints) {
    std::vector<sql::Value> vals;
    vals.reserve(ints.size());
    for (int64_t v : ints) vals.push_back(sql::Value::Int(v));
    auto t = engine.PublishTuple(node, rel, std::move(vals));
    EXPECT_TRUE(t.ok()) << t.status().ToString();
    simulator.Run();
  }

  void Crash(dht::NodeIndex victim, uint32_t take_successors = 0) {
    ASSERT_TRUE(
        engine.ScheduleCrash(simulator.Now(), victim, take_successors).ok());
    simulator.Run();
  }

  std::vector<std::string> OracleRows(uint64_t qid) {
    sql::CentralizedEvaluator oracle(&catalog);
    auto iq = engine.FindQuery(qid);
    EXPECT_NE(iq, nullptr);
    std::vector<std::string> rows;
    for (const auto& row :
         oracle.Evaluate(iq->spec(), iq->ins_time(), engine.history())) {
      rows.push_back(sql::AnswerRowKey(row));
    }
    std::sort(rows.begin(), rows.end());
    return rows;
  }

  std::vector<std::string> GotRows(uint64_t qid) {
    std::vector<std::string> rows;
    for (const auto& a : engine.AnswersFor(qid)) {
      rows.push_back(sql::AnswerRowKey(a.row));
    }
    std::sort(rows.begin(), rows.end());
    return rows;
  }

  sql::Catalog catalog = MakeCatalog();
  std::unique_ptr<dht::ChordNetwork> network;
  sim::Simulator simulator;
  sim::FixedLatency latency;
  stats::MetricsRegistry metrics;
  dht::Transport transport;
  core::RJoinEngine engine;
};

TEST(SerialCrashTest, ReplicatedCrashesLoseNothing) {
  // r=2: every slice lives at its owner and the owner's first successor.
  // Crash 11 of 16 nodes one at a time — each promotion must recover the
  // full slice, so the late matching tuple still joins completely.
  FaultHarness h(16, /*replication=*/2);
  const uint64_t q = h.Submit(0, "SELECT R.B, S.C FROM R, S WHERE R.A=S.A");
  h.Publish(1, "R", {7, 10, 11});
  h.Publish(1, "R", {8, 12, 13});

  size_t crashes = 0;
  for (dht::NodeIndex victim = 3; victim < 16 && h.network->num_alive() > 4;
       ++victim) {
    h.Crash(victim);
    EXPECT_TRUE(h.network->ValidSuccessorLists())
        << "successor lists broken after crashing node " << victim;
    ++crashes;
  }
  EXPECT_EQ(h.engine.churn_stats().crashes_applied, crashes);
  EXPECT_EQ(h.engine.churn_stats().handoff_messages, 0u)
      << "silent failures must not emit goodbye handoffs";
  EXPECT_GT(h.engine.replication_stats().replica_updates, 0u);
  EXPECT_EQ(h.engine.replication_stats().mirror_gaps, 0u);

  h.Publish(2, "S", {7, 20, 21});
  h.Publish(2, "S", {8, 22, 23});
  EXPECT_EQ(h.GotRows(q), h.OracleRows(q));
  EXPECT_EQ(h.engine.AnswersFor(q).size(), 2u);
}

TEST(SerialCrashTest, UnreplicatedCrashStaysSoundButMayLose) {
  // r=1 (replication off): crashed state is simply gone. The engine must
  // neither crash nor invent answers — delivered rows are a subset of the
  // oracle's.
  FaultHarness h(16, /*replication=*/1);
  const uint64_t q = h.Submit(0, "SELECT R.B, S.C FROM R, S WHERE R.A=S.A");
  h.Publish(1, "R", {7, 10, 11});

  for (dht::NodeIndex victim = 3; victim < 16 && h.network->num_alive() > 4;
       ++victim) {
    h.Crash(victim);
  }
  EXPECT_EQ(h.engine.replication_stats().replica_updates, 0u);
  EXPECT_EQ(h.engine.replication_stats().promotions_emitted, 0u);

  h.Publish(2, "S", {7, 20, 21});
  const auto got = h.GotRows(q);
  const auto expected = h.OracleRows(q);
  EXPECT_TRUE(std::includes(expected.begin(), expected.end(), got.begin(),
                            got.end()))
      << "crash without replication produced rows the oracle does not have";
}

TEST(SerialCrashTest, CorrelatedCrashTakesAdjacentSuccessors) {
  FaultHarness h(16, /*replication=*/2);
  h.Publish(1, "R", {7, 10, 11});
  h.Crash(3, /*take_successors=*/2);
  EXPECT_EQ(h.engine.churn_stats().crashes_applied, 3u);
  EXPECT_EQ(h.network->num_alive(), 13u);
  EXPECT_TRUE(h.network->ValidSuccessorLists());
}

TEST(SerialCrashTest, CrashOfLastNodeIsRejected) {
  FaultHarness h(2, /*replication=*/2);
  h.Crash(0);
  EXPECT_EQ(h.engine.churn_stats().crashes_applied, 1u);
  // The survivor cannot crash: its range would be ownerless.
  h.Crash(1);
  EXPECT_EQ(h.engine.churn_stats().crashes_applied, 1u);
  EXPECT_EQ(h.engine.churn_stats().ops_rejected, 1u);
}

// ------------------------------------------ successor-list repair (dht) ----

TEST(SuccessorListRepairTest, EveryChurnOpLeavesValidLists) {
  // Regression for the graceful-leave gap: LeaveNode (and CrashNode) must
  // repair the successor lists of the departed node's predecessors, not
  // just splice the ring. Walk a seeded mixed sequence and revalidate the
  // ground truth after every single operation.
  auto network = dht::ChordNetwork::Create(32, 17);
  ASSERT_TRUE(network->ValidSuccessorLists());
  Rng rng(991);
  size_t joins = 0;
  for (int op = 0; op < 40 && network->num_alive() > 4; ++op) {
    const uint64_t pick = rng.NextBounded(3);
    const auto alive = network->AliveNodes();  // ring order, any may die
    if (pick == 0) {
      auto added = network->JoinAndSplice(
          dht::NodeId::FromKey("repair-join:" + std::to_string(joins++)),
          alive.front());
      ASSERT_TRUE(added.ok()) << added.status().ToString();
    } else {
      // Remove a random alive node, half gracefully, half by crash — both
      // paths share the splice-and-repair.
      const dht::NodeIndex victim = alive[rng.NextBounded(alive.size())];
      if (pick == 1) {
        ASSERT_TRUE(network->LeaveNode(victim).ok());
      } else {
        ASSERT_TRUE(network->CrashNode(victim).ok());
      }
    }
    ASSERT_TRUE(network->ValidSuccessorLists())
        << "op " << op << " left a stale successor list";
  }
}

// ------------------------------------------------- sharded equivalence ----

workload::ExperimentConfig BaseFailureConfig() {
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
  cfg.replication = 2;
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
  core::RJoinEngine::ReplicationStats replication;
  std::vector<uint64_t> recovery_ticks;
  /// Per-query sorted row keys + history render, for oracle comparison.
  std::map<uint64_t, std::vector<std::string>> per_query_rows;
  std::map<uint64_t, std::vector<std::string>> oracle_rows;
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
    out.per_query_rows[a.query_id].push_back(sql::AnswerRowKey(a.row));
  }
  out.total_messages = e.metrics().total_messages();
  out.total_qpl = e.metrics().total_qpl();
  out.stored_queries = e.engine().CountStoredQueries();
  out.stored_tuples = e.engine().CountStoredTuples();
  out.churn = e.engine().churn_stats();
  out.replication = e.engine().replication_stats();
  out.recovery_ticks = e.engine().promotion_recovery_ticks();
  // Experiments run on fixed latency: mirrors never overtake each other,
  // so no replica ever needs the gap fallback.
  EXPECT_EQ(out.replication.mirror_gaps, 0u);

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
  // delivery times — under crashes, promotions, and mirror traffic.
  EXPECT_EQ(a.answers, b.answers);
  EXPECT_EQ(a.result.final_snapshot.storage, b.result.final_snapshot.storage);
  EXPECT_EQ(a.total_messages, b.total_messages);
  EXPECT_EQ(a.total_qpl, b.total_qpl);
  EXPECT_EQ(a.stored_queries, b.stored_queries);
  EXPECT_EQ(a.stored_tuples, b.stored_tuples);
  EXPECT_EQ(a.churn.joins_applied, b.churn.joins_applied);
  EXPECT_EQ(a.churn.leaves_applied, b.churn.leaves_applied);
  EXPECT_EQ(a.churn.crashes_applied, b.churn.crashes_applied);
  EXPECT_EQ(a.churn.handoff_messages, b.churn.handoff_messages);
  EXPECT_EQ(a.churn.handoffs_installed, b.churn.handoffs_installed);
  EXPECT_EQ(a.churn.forwarded_messages, b.churn.forwarded_messages);
  // The replication ledger is part of the determinism surface.
  EXPECT_EQ(a.replication.replica_updates, b.replication.replica_updates);
  EXPECT_EQ(a.replication.replica_keys, b.replication.replica_keys);
  EXPECT_EQ(a.replication.replica_bytes, b.replication.replica_bytes);
  EXPECT_EQ(a.replication.mirror_gaps, b.replication.mirror_gaps);
  EXPECT_EQ(a.replication.promotions_emitted,
            b.replication.promotions_emitted);
  EXPECT_EQ(a.replication.promotions_installed,
            b.replication.promotions_installed);
  EXPECT_EQ(a.replication.promoted_records, b.replication.promoted_records);
  EXPECT_EQ(a.replication.answers_lost, b.replication.answers_lost);
  EXPECT_EQ(a.recovery_ticks, b.recovery_ticks);
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

void ExpectSubsetOfOracle(const RunOutput& out) {
  for (const auto& [qid, got] : out.per_query_rows) {
    auto it = out.oracle_rows.find(qid);
    ASSERT_NE(it, out.oracle_rows.end()) << "answers for unknown query";
    const std::vector<std::string>& expected = it->second;
    EXPECT_TRUE(std::includes(expected.begin(), expected.end(), got.begin(),
                              got.end()))
        << "query " << qid << " delivered rows the oracle does not have";
  }
}

TEST(FailureRuntimeTest, SingleKillWithR2LosesZeroAnswers) {
  // The acceptance scenario: one silent kill mid-run, replication_factor=2
  // — the delivered answers must equal the uncrashed centralized oracle's,
  // at every shard count, bit-identically.
  workload::ExperimentConfig cfg = BaseFailureConfig();
  workload::ChurnSpec churn;
  churn.spare_nodes = 1;
  workload::FaultPlan faults;
  faults.crashes = 1;
  churn.faults = faults;
  cfg.churn = churn;
  const RunOutput s1 = RunWith(cfg, 1);
  EXPECT_EQ(s1.churn.crashes_applied, 1u);
  EXPECT_EQ(s1.churn.handoff_messages, 0u)
      << "a silent kill must not emit goodbye handoffs";
  EXPECT_GT(s1.replication.promotions_emitted, 0u);
  EXPECT_GT(s1.replication.replica_updates, 0u);
  EXPECT_GT(s1.answers.size(), 0u);
  ExpectMatchesOracle(s1);
  ExpectIdentical(s1, RunWith(cfg, 4));
  ExpectIdentical(s1, RunWith(cfg, 7));  // uneven partition
}

TEST(FailureRuntimeTest, MultiKillSweepWithR2StaysComplete) {
  // Several independent (non-correlated) kills across the stream: every
  // orphaned range has a live replica, so completeness still holds.
  workload::ExperimentConfig cfg = BaseFailureConfig();
  workload::ChurnSpec churn;
  churn.spare_nodes = 6;
  workload::FaultPlan faults;
  faults.crashes = 6;
  churn.faults = faults;
  cfg.churn = churn;
  const RunOutput s1 = RunWith(cfg, 1);
  EXPECT_EQ(s1.churn.crashes_applied, 6u);
  ExpectMatchesOracle(s1);
  ExpectIdentical(s1, RunWith(cfg, 4));
  ExpectIdentical(s1, RunWith(cfg, 7));
}

TEST(FailureRuntimeTest, SingleKillWithoutReplicationIsSoundSubset) {
  // Same trace, replication off: loss is allowed (and measured by the
  // bench), but the engine must stay sound and deterministic.
  workload::ExperimentConfig cfg = BaseFailureConfig();
  cfg.replication = 1;
  workload::ChurnSpec churn;
  churn.spare_nodes = 1;
  workload::FaultPlan faults;
  faults.crashes = 1;
  churn.faults = faults;
  cfg.churn = churn;
  const RunOutput s1 = RunWith(cfg, 1);
  EXPECT_EQ(s1.churn.crashes_applied, 1u);
  EXPECT_EQ(s1.replication.replica_updates, 0u);
  ExpectSubsetOfOracle(s1);
  ExpectIdentical(s1, RunWith(cfg, 4));
}

TEST(FailureRuntimeTest, CorrelatedKillWorstCaseIsBoundedAndDeterministic) {
  // Correlated kill of a victim plus its adjacent successor defeats r=2 for
  // ranges whose both copies died: loss is expected, but it must stay a
  // strict subset (no invented or duplicated rows), the run must terminate,
  // and every shard count must agree bit-for-bit on what was lost.
  workload::ExperimentConfig cfg = BaseFailureConfig();
  workload::ChurnSpec churn;
  churn.spare_nodes = 2;
  workload::FaultPlan faults;
  faults.crashes = 2;
  faults.correlated = 1;
  churn.faults = faults;
  cfg.churn = churn;
  const RunOutput s1 = RunWith(cfg, 1);
  // Each crash event kills the victim plus one ring successor.
  EXPECT_EQ(s1.churn.crashes_applied, 4u);
  ExpectSubsetOfOracle(s1);
  ExpectIdentical(s1, RunWith(cfg, 4));
  ExpectIdentical(s1, RunWith(cfg, 7));
}

TEST(FailureRuntimeTest, CrashDuringHandoffRaceRecovers) {
  // Crashes pinned one tick after a join/leave: the StateHandoff is still
  // in flight when the ring changes under it. Reforwarding plus promotion
  // must still deliver the complete answer set.
  workload::ExperimentConfig cfg = BaseFailureConfig();
  workload::ChurnSpec churn;
  churn.joins = 4;
  churn.leaves = 4;
  churn.spare_nodes = 6;
  workload::FaultPlan faults;
  faults.crashes = 2;
  faults.crash_during_handoff = true;
  churn.faults = faults;
  cfg.churn = churn;
  const RunOutput s1 = RunWith(cfg, 1);
  EXPECT_EQ(s1.churn.crashes_applied, 2u);
  EXPECT_GT(s1.churn.joins_applied + s1.churn.leaves_applied, 0u);
  ExpectMatchesOracle(s1);
  ExpectIdentical(s1, RunWith(cfg, 4));
  ExpectIdentical(s1, RunWith(cfg, 7));
}

TEST(FailureRuntimeTest, CrashThenRejoinRaceRecovers) {
  // Every crash is followed by a fresh join that may land inside the
  // promoted region: the promoted owner hands the recovered slice onward.
  workload::ExperimentConfig cfg = BaseFailureConfig();
  workload::ChurnSpec churn;
  churn.spare_nodes = 3;
  workload::FaultPlan faults;
  faults.crashes = 3;
  faults.crash_then_rejoin = true;
  churn.faults = faults;
  cfg.churn = churn;
  const RunOutput s1 = RunWith(cfg, 1);
  EXPECT_EQ(s1.churn.crashes_applied, 3u);
  EXPECT_EQ(s1.churn.joins_applied, 3u);  // the rejoins
  ExpectMatchesOracle(s1);
  ExpectIdentical(s1, RunWith(cfg, 4));
}

class SeededFaultTraceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SeededFaultTraceTest, MixedFaultStormStaysEquivalent) {
  // Seeded mixed storm: graceful churn + silent kills interleaved, r=3.
  workload::ExperimentConfig cfg = BaseFailureConfig();
  cfg.seed = GetParam();
  cfg.num_queries = 60;
  cfg.replication = 3;
  workload::ChurnSpec churn;
  churn.joins = 6;
  churn.leaves = 4;
  churn.spare_nodes = 8;
  churn.seed = GetParam() * 131 + 7;
  workload::FaultPlan faults;
  faults.crashes = 4;
  faults.seed = GetParam() * 17 + 3;
  churn.faults = faults;
  cfg.churn = churn;
  const RunOutput s1 = RunWith(cfg, 1);
  EXPECT_EQ(s1.churn.crashes_applied, 4u);
  ExpectMatchesOracle(s1);
  ExpectIdentical(s1, RunWith(cfg, 4));
  ExpectIdentical(s1, RunWith(cfg, 7));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededFaultTraceTest,
                         ::testing::Values(21, 22, 23));

// ------------------------------------- promoted-state equality property ----

/// Digest of one node's primary per-key state: stored-query content
/// fingerprints, the stored-tuple id multiset, live ALTT (tuple, expiry)
/// pairs, and the raw rate bucket. Replica slices and DISTINCT bookkeeping
/// are deliberately excluded — they are caches, not state the paper's
/// operators observe.
std::map<core::KeyId, std::string> StateDigest(const core::RJoinEngine& eng,
                                               dht::NodeIndex n,
                                               uint64_t now) {
  const core::NodeState& st = eng.state_of(n);
  std::map<core::KeyId, std::vector<std::string>> parts;
  st.queries.ForEach([&](core::KeyId key, const core::BucketList& bucket) {
    for (uint32_t cur = bucket.head; cur != kNilQ;
         cur = st.query_pool.at(cur).next) {
      parts[key].push_back(
          "q:" + std::to_string(
                     st.query_pool.at(cur).value.residual.ContentFingerprint64()));
    }
  });
  st.tuples.ForEach([&](core::KeyId key, const core::TupleBucket& bucket) {
    for (uint32_t cur = bucket.head; cur != kNilC;
         cur = st.tuple_chunks.at(cur).next) {
      const core::TupleChunk& chunk = st.tuple_chunks.at(cur).value;
      for (uint32_t i = 0; i < chunk.count; ++i) {
        parts[key].push_back("t:" +
                             std::to_string(chunk.refs[i]->tuple_id));
      }
    }
  });
  st.altt.ForEach([&](core::KeyId key, const core::BucketList& bucket) {
    for (uint32_t cur = bucket.head; cur != kNilA;
         cur = st.altt_pool.at(cur).next) {
      const core::AlttEntry& e = st.altt_pool.at(cur).value;
      if (e.expires < now) continue;  // lazily-expired entries don't count
      parts[key].push_back("a:" + std::to_string(e.tuple->tuple_id) + "@" +
                           std::to_string(e.expires));
    }
  });
  std::vector<core::KeyId> rate_keys;
  st.rates.AppendTrackedKeys(&rate_keys);
  for (core::KeyId key : rate_keys) {
    const core::RateBucket rate = st.rates.PeekKey(key);
    if (!rate.empty()) {
      parts[key].push_back("r:" + std::to_string(rate.epoch) + ":" +
                           std::to_string(rate.current) + ":" +
                           std::to_string(rate.previous));
    }
  }
  std::map<core::KeyId, std::string> digest;
  for (auto& [key, v] : parts) {
    std::sort(v.begin(), v.end());
    std::string joined;
    for (const std::string& s : v) {
      joined += s;
      joined += '|';
    }
    if (!joined.empty()) digest[key] = std::move(joined);
  }
  return digest;
}

TEST(PromotionPropertyTest, CrashedStateEqualsGracefulHandoffState) {
  // Property: for the same seeded operation script, crashing a node under
  // r=2 leaves the network in exactly the state a graceful leave of that
  // node would have — per key: same StoredQuery set, same tuple multiset,
  // same live ALTT expiries, same rate buckets. Run the crash script and
  // its graceful twin in lockstep on a fixed virtual clock and compare
  // every alive node's digest.
  constexpr size_t kNodes = 20;
  constexpr uint64_t kStep = 48;  // drains every cascade before the next op
  FaultHarness crashed(kNodes, /*replication=*/2, /*seed=*/13);
  FaultHarness graceful(kNodes, /*replication=*/2, /*seed=*/13);

  auto both_submit = [&](dht::NodeIndex owner, const std::string& text) {
    crashed.Submit(owner, text);
    graceful.Submit(owner, text);
  };
  auto both_publish = [&](dht::NodeIndex node, const std::string& rel,
                          std::vector<int64_t> ints) {
    crashed.Publish(node, rel, ints);
    graceful.Publish(node, rel, std::move(ints));
  };
  auto advance_to = [&](uint64_t t) {
    crashed.simulator.RunUntil(t);
    graceful.simulator.RunUntil(t);
  };

  both_submit(0, "SELECT R.B, S.C FROM R, S WHERE R.A=S.A");
  both_submit(1, "SELECT R.C, P.B FROM R, P WHERE R.B=P.B");
  both_submit(2, "SELECT DISTINCT S.B, P.C FROM S, P WHERE S.A=P.A");
  advance_to(kStep);

  Rng rng(515);
  const std::vector<dht::NodeIndex> victims = {5, 9, 13};
  size_t next_victim = 0;
  const char* rels[] = {"R", "S", "P"};
  uint64_t t = kStep;
  for (int step = 0; step < 18; ++step) {
    const dht::NodeIndex publisher = rng.NextBounded(3);
    const std::string rel = rels[rng.NextBounded(3)];
    const int64_t a = 5 + static_cast<int64_t>(rng.NextBounded(4));
    const int64_t b = 20 + static_cast<int64_t>(rng.NextBounded(3));
    const int64_t c = 30 + static_cast<int64_t>(rng.NextBounded(5));
    both_publish(publisher, rel, {a, b, c});
    if (step % 6 == 5 && next_victim < victims.size()) {
      const dht::NodeIndex v = victims[next_victim++];
      ASSERT_TRUE(
          crashed.engine.ScheduleCrash(crashed.simulator.Now(), v).ok());
      ASSERT_TRUE(
          graceful.engine.ScheduleLeave(graceful.simulator.Now(), v).ok());
      crashed.simulator.Run();
      graceful.simulator.Run();
    }
    t += kStep;
    advance_to(t);
  }
  ASSERT_EQ(crashed.engine.churn_stats().crashes_applied, victims.size());
  ASSERT_EQ(graceful.engine.churn_stats().leaves_applied, victims.size());
  EXPECT_GT(crashed.engine.replication_stats().promotions_installed, 0u);

  // Same splice, same survivors.
  const auto alive = crashed.network->AliveNodes();
  ASSERT_EQ(alive, graceful.network->AliveNodes());

  for (dht::NodeIndex n : alive) {
    const auto got = StateDigest(crashed.engine, n, t);
    const auto want = StateDigest(graceful.engine, n, t);
    EXPECT_EQ(got, want) << "node " << n
                         << ": promoted state diverges from the graceful"
                            " handoff twin";
  }

  // Both twins keep their slab pools balanced through the churn.
  for (dht::NodeIndex n = 0; n < crashed.engine.num_nodes(); ++n) {
    const core::NodeState& st = crashed.engine.state_of(n);
    EXPECT_EQ(st.query_pool.acquired() - st.query_pool.released(),
              st.query_pool.live());
    EXPECT_EQ(st.altt_pool.acquired() - st.altt_pool.released(),
              st.altt_pool.live());
  }
}

}  // namespace
}  // namespace rjoin
