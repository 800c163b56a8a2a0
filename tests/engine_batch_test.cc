// Tests of the batched ingest hot path: RJoinEngine::PublishBatch and
// ObserveStreamHistoryBulk must be observationally identical to the
// equivalent sequence of per-tuple calls — same answers, same message
// counts, same stored state — while error paths must leave no partial state.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "dht/chord_network.h"
#include "dht/transport.h"
#include "runtime/sharded_runtime.h"
#include "sim/latency.h"
#include "sim/event_pump.h"
#include "sql/evaluator.h"
#include "sql/schema.h"
#include "stats/metrics.h"
#include "workload/generator.h"

namespace rjoin::core {
namespace {

struct Harness {
  /// `shards` > 0 routes the engine through the sharded parallel runtime
  /// (the RJOIN_SHARDS path); 0 keeps the serial simulator.
  Harness(size_t nodes, EngineConfig cfg, uint64_t seed = 7,
          uint32_t shards = 0)
      : catalog(TestCatalog()),
        network(dht::ChordNetwork::Create(nodes, seed)),
        latency(std::make_unique<sim::FixedLatency>(1)),
        metrics(network->num_total()),
        pump(runtime::MakeEventPump(shards, network->num_total(), *latency,
                                    &metrics, seed * 31)),
        transport(network.get(), pump.get(), latency.get()),
        engine(cfg, &catalog, network.get(), &transport, pump.get()) {}

  void Run() { pump->Run(); }

  static sql::Catalog TestCatalog() {
    sql::Catalog c;
    EXPECT_TRUE(c.AddRelation(sql::Schema("R", {"A", "B", "C"})).ok());
    EXPECT_TRUE(c.AddRelation(sql::Schema("S", {"A", "B", "C"})).ok());
    EXPECT_TRUE(c.AddRelation(sql::Schema("P", {"A", "B", "C"})).ok());
    return c;
  }

  uint64_t Submit(dht::NodeIndex owner, const std::string& text) {
    auto id = engine.SubmitQuerySql(owner, text);
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    Run();
    return *id;
  }

  sql::Catalog catalog;
  std::unique_ptr<dht::ChordNetwork> network;
  std::unique_ptr<sim::LatencyModel> latency;
  stats::MetricsRegistry metrics;
  std::unique_ptr<sim::EventPump> pump;
  dht::Transport transport;
  RJoinEngine engine;
};

std::vector<sql::Value> Row(std::vector<int64_t> ints) {
  std::vector<sql::Value> vals;
  vals.reserve(ints.size());
  for (int64_t v : ints) vals.push_back(sql::Value::Int(v));
  return vals;
}

std::vector<std::string> SortedRowKeys(const AnswerLog& answers) {
  std::vector<std::string> keys;
  keys.reserve(answers.size());
  for (const Answer& a : answers) {
    keys.push_back(std::to_string(a.query_id) + "/" +
                   sql::AnswerRowKey(a.row));
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

// The workload both harnesses of the equivalence tests run: two continuous
// joins, then the same tuple stream — via PublishTuple in one and
// PublishBatch in the other.
const char* kQueryRS = "SELECT R.B, S.B FROM R, S WHERE R.A = S.A";
const char* kQuerySP = "SELECT S.C, P.C FROM S, P WHERE S.B = P.B";

std::vector<std::pair<std::string, std::vector<int64_t>>> StreamRows() {
  return {
      {"R", {1, 10, 100}}, {"R", {2, 20, 200}}, {"R", {1, 11, 101}},
      {"S", {1, 5, 50}},   {"S", {2, 5, 51}},   {"S", {3, 6, 52}},
      {"P", {9, 5, 90}},   {"P", {9, 6, 91}},
  };
}

void RunQueries(Harness& h) {
  h.Submit(0, kQueryRS);
  h.Submit(1, kQuerySP);
}

TEST(PublishBatchTest, BatchOfOneEqualsPublishTuple) {
  EngineConfig cfg;
  Harness single(64, cfg);
  Harness batched(64, cfg);
  RunQueries(single);
  RunQueries(batched);

  for (const auto& [rel, ints] : StreamRows()) {
    auto t = single.engine.PublishTuple(3, rel, Row(ints));
    ASSERT_TRUE(t.ok()) << t.status().ToString();
    single.Run();

    std::vector<std::vector<sql::Value>> rows;
    rows.push_back(Row(ints));
    auto b = batched.engine.PublishBatch(3, rel, std::move(rows));
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    ASSERT_EQ(b->size(), 1u);
    batched.Run();

    EXPECT_EQ((*t)->seq_no, (*b)[0]->seq_no);
    EXPECT_EQ((*t)->pub_time, (*b)[0]->pub_time);
  }

  EXPECT_EQ(single.metrics.total_messages(), batched.metrics.total_messages());
  EXPECT_EQ(single.metrics.total_qpl(), batched.metrics.total_qpl());
  EXPECT_EQ(single.metrics.total_storage(), batched.metrics.total_storage());
  EXPECT_EQ(single.engine.CountStoredTuples(),
            batched.engine.CountStoredTuples());
  EXPECT_EQ(single.engine.CountStoredQueries(),
            batched.engine.CountStoredQueries());
  EXPECT_FALSE(single.engine.answers().empty());
  EXPECT_EQ(SortedRowKeys(single.engine.answers()),
            SortedRowKeys(batched.engine.answers()));
}

TEST(PublishBatchTest, WholeBatchEqualsSequentialPublishes) {
  EngineConfig cfg;
  Harness single(64, cfg);
  Harness batched(64, cfg);
  RunQueries(single);
  RunQueries(batched);

  // Sequential publishes without intermediate Run(): the messages enter the
  // network exactly as one batch per relation would send them.
  for (const auto& [rel, ints] : StreamRows()) {
    if (rel != "R") continue;
    ASSERT_TRUE(single.engine.PublishTuple(3, rel, Row(ints)).ok());
  }
  std::vector<std::vector<sql::Value>> r_rows;
  for (const auto& [rel, ints] : StreamRows()) {
    if (rel == "R") r_rows.push_back(Row(ints));
  }
  auto b = batched.engine.PublishBatch(3, "R", std::move(r_rows));
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(b->size(), 3u);

  single.Run();
  batched.Run();

  // Sequence numbers continue from the same counter in the same order.
  EXPECT_EQ((*b)[0]->seq_no + 1, (*b)[1]->seq_no);
  EXPECT_EQ((*b)[1]->seq_no + 1, (*b)[2]->seq_no);

  EXPECT_EQ(single.metrics.total_messages(), batched.metrics.total_messages());
  EXPECT_EQ(single.metrics.total_qpl(), batched.metrics.total_qpl());
  EXPECT_EQ(single.engine.CountStoredTuples(),
            batched.engine.CountStoredTuples());
  EXPECT_EQ(SortedRowKeys(single.engine.answers()),
            SortedRowKeys(batched.engine.answers()));
}

TEST(PublishBatchTest, UnknownRelationPublishesNothing) {
  EngineConfig cfg;
  cfg.keep_history = true;
  Harness h(64, cfg);
  const uint64_t msgs_before = h.metrics.total_messages();

  std::vector<std::vector<sql::Value>> rows;
  rows.push_back(Row({1, 2, 3}));
  auto b = h.engine.PublishBatch(0, "NoSuchRelation", std::move(rows));
  ASSERT_FALSE(b.ok());
  EXPECT_EQ(b.status().code(), StatusCode::kNotFound);

  h.Run();
  EXPECT_EQ(h.metrics.total_messages(), msgs_before);
  EXPECT_TRUE(h.engine.history().empty());
}

TEST(PublishBatchTest, ArityMismatchAnywhereInBatchIsAtomic) {
  EngineConfig cfg;
  cfg.keep_history = true;
  Harness h(64, cfg);

  // First row valid, second row too short: nothing may be published, no
  // sequence number may be consumed.
  std::vector<std::vector<sql::Value>> rows;
  rows.push_back(Row({1, 2, 3}));
  rows.push_back(Row({4, 5}));
  auto b = h.engine.PublishBatch(0, "R", std::move(rows));
  ASSERT_FALSE(b.ok());
  EXPECT_EQ(b.status().code(), StatusCode::kInvalidArgument);

  h.Run();
  EXPECT_EQ(h.metrics.total_messages(), 0u);
  EXPECT_EQ(h.engine.CountStoredTuples(), 0u);
  EXPECT_TRUE(h.engine.history().empty());

  // The failed batch must not have burned sequence numbers: the next publish
  // starts where a fresh engine would.
  auto t = h.engine.PublishTuple(0, "R", Row({1, 2, 3}));
  ASSERT_TRUE(t.ok());
  EXPECT_EQ((*t)->seq_no, 1u);
}

TEST(PublishBatchTest, EmptyBatchIsANoOp) {
  EngineConfig cfg;
  Harness h(64, cfg);
  auto b = h.engine.PublishBatch(0, "R", {});
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_TRUE(b->empty());
  h.Run();
  EXPECT_EQ(h.metrics.total_messages(), 0u);
}

TEST(PublishBatchTest, AttrReplicationShardsCycleLikeSequentialPublishes) {
  EngineConfig cfg;
  cfg.attr_replication = 3;
  Harness single(64, cfg);
  Harness batched(64, cfg);
  Harness unreplicated(64, EngineConfig{});
  RunQueries(single);
  RunQueries(batched);
  RunQueries(unreplicated);

  for (const auto& [rel, ints] : StreamRows()) {
    ASSERT_TRUE(single.engine.PublishTuple(3, rel, Row(ints)).ok());
    ASSERT_TRUE(unreplicated.engine.PublishTuple(3, rel, Row(ints)).ok());
  }
  // Same global publication order (R rows, then S, then P) in both engines,
  // so seq_no % replication — the shard assignment — matches row for row.
  for (const auto& [rel, ints] : StreamRows()) {
    std::vector<std::vector<sql::Value>> one;
    one.push_back(Row(ints));
    ASSERT_TRUE(batched.engine.PublishBatch(3, rel, std::move(one)).ok());
  }
  single.Run();
  batched.Run();
  unreplicated.Run();

  EXPECT_EQ(single.metrics.total_messages(), batched.metrics.total_messages());
  EXPECT_EQ(single.metrics.total_qpl(), batched.metrics.total_qpl());
  EXPECT_EQ(SortedRowKeys(single.engine.answers()),
            SortedRowKeys(batched.engine.answers()));
  // Replication spreads load but must not duplicate or lose answers; the
  // batched path under r=3 delivers the same rows as an unreplicated engine.
  EXPECT_EQ(SortedRowKeys(batched.engine.answers()),
            SortedRowKeys(unreplicated.engine.answers()));
}

TEST(ObserveBulkTest, BulkObservationsDriveTheSameRicDecisions) {
  // Prime two engines with identical stream history — one per tuple, one
  // bulk — then submit the same query under the RIC policy. If the recorded
  // rates differ, the indexing decision and therefore the traffic differ.
  EngineConfig cfg;
  cfg.policy = PlannerPolicy::kRic;
  Harness per_tuple(64, cfg);
  Harness bulk(64, cfg);

  std::vector<std::vector<sql::Value>> hot_r, cold_s;
  for (int64_t i = 0; i < 40; ++i) hot_r.push_back(Row({1, i, i}));
  for (int64_t i = 0; i < 2; ++i) cold_s.push_back(Row({1, i, i}));

  for (const auto& row : hot_r) {
    ASSERT_TRUE(per_tuple.engine.ObserveStreamHistory("R", row).ok());
  }
  for (const auto& row : cold_s) {
    ASSERT_TRUE(per_tuple.engine.ObserveStreamHistory("S", row).ok());
  }
  ASSERT_TRUE(bulk.engine.ObserveStreamHistoryBulk("R", hot_r).ok());
  ASSERT_TRUE(bulk.engine.ObserveStreamHistoryBulk("S", cold_s).ok());

  RunQueries(per_tuple);
  RunQueries(bulk);
  EXPECT_EQ(per_tuple.metrics.total_messages(), bulk.metrics.total_messages());
  EXPECT_EQ(per_tuple.metrics.total_ric_messages(),
            bulk.metrics.total_ric_messages());
  EXPECT_EQ(per_tuple.engine.CountStoredQueries(),
            bulk.engine.CountStoredQueries());
}

TEST(ObserveBulkTest, BulkValidatesEveryRowFirst) {
  EngineConfig cfg;
  cfg.policy = PlannerPolicy::kRic;
  Harness h(64, cfg);

  std::vector<std::vector<sql::Value>> rows;
  rows.push_back(Row({1, 2, 3}));
  rows.push_back(Row({1}));  // Bad arity.
  auto s = h.engine.ObserveStreamHistoryBulk("R", rows);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(h.engine.ObserveStreamHistoryBulk("NoSuchRelation", {}).code(),
            StatusCode::kNotFound);

  // Nothing was recorded: an engine that never observed anything makes the
  // same (rate-blind) indexing decision and spends the same traffic.
  Harness fresh(64, cfg);
  h.Submit(0, kQueryRS);
  fresh.Submit(0, kQueryRS);
  EXPECT_EQ(h.metrics.total_messages(), fresh.metrics.total_messages());
}

TEST(TupleGeneratorBatchTest, NextBatchGroupsByRelationPreservingOrder) {
  workload::WorkloadParams params;
  params.num_relations = 4;
  params.num_attributes = 3;
  auto catalog = workload::BuildCatalog(params);

  // Two generators with the same seed: Next() defines the reference stream.
  workload::TupleGenerator reference(params, catalog.get(), 17);
  workload::TupleGenerator grouped(params, catalog.get(), 17);

  constexpr size_t kN = 100;
  std::vector<workload::TupleGenerator::Draw> draws;
  for (size_t i = 0; i < kN; ++i) draws.push_back(reference.Next());
  const auto batches = grouped.NextBatch(kN);

  size_t total = 0;
  for (const auto& b : batches) {
    EXPECT_FALSE(b.rows.empty());
    total += b.rows.size();
    // Row order within a group follows draw order; verify against the
    // reference stream filtered to this relation.
    size_t next = 0;
    for (const auto& d : draws) {
      if (d.relation != b.relation) continue;
      ASSERT_LT(next, b.rows.size());
      EXPECT_EQ(d.values.size(), b.rows[next].size());
      for (size_t v = 0; v < d.values.size(); ++v) {
        EXPECT_EQ(d.values[v].ToKeyString(), b.rows[next][v].ToKeyString());
      }
      ++next;
    }
    EXPECT_EQ(next, b.rows.size());
  }
  EXPECT_EQ(total, kN);

  // Relations must not repeat across groups.
  for (size_t i = 0; i < batches.size(); ++i) {
    for (size_t j = i + 1; j < batches.size(); ++j) {
      EXPECT_NE(batches[i].relation, batches[j].relation);
    }
  }
}

// ------------------------------------------- sharded-runtime equivalence --
//
// Batched ingest must stay observationally identical to per-tuple ingest
// when the engine runs on the sharded parallel runtime (the RJOIN_SHARDS
// path): same MultiSend envelope chains, same emission-seq draws, same
// barrier schedule.

/// Runs the standard two-query workload with `batched` choosing the ingest
/// path, on `shards` workers (0 = serial).
std::unique_ptr<Harness> RunShardedWorkload(bool batched, uint32_t shards) {
  auto harness =
      std::make_unique<Harness>(64, EngineConfig{}, /*seed=*/7, shards);
  Harness& h = *harness;
  RunQueries(h);
  if (batched) {
    // Group consecutive same-relation rows exactly as the stream emits
    // them, preserving the global publication order.
    const auto stream = StreamRows();
    size_t i = 0;
    while (i < stream.size()) {
      const std::string rel = stream[i].first;
      std::vector<std::vector<sql::Value>> rows;
      while (i < stream.size() && stream[i].first == rel) {
        rows.push_back(Row(stream[i].second));
        ++i;
      }
      EXPECT_TRUE(h.engine.PublishBatch(3, rel, std::move(rows)).ok());
      h.Run();
    }
  } else {
    for (const auto& [rel, ints] : StreamRows()) {
      EXPECT_TRUE(h.engine.PublishTuple(3, rel, Row(ints)).ok());
      h.Run();
    }
  }
  return harness;
}

void ExpectEquivalent(Harness& a, Harness& b) {
  EXPECT_EQ(a.metrics.total_messages(), b.metrics.total_messages());
  EXPECT_EQ(a.metrics.total_qpl(), b.metrics.total_qpl());
  EXPECT_EQ(a.metrics.total_storage(), b.metrics.total_storage());
  EXPECT_EQ(a.engine.CountStoredTuples(), b.engine.CountStoredTuples());
  EXPECT_EQ(a.engine.CountStoredQueries(), b.engine.CountStoredQueries());
  EXPECT_FALSE(a.engine.answers().empty());
  EXPECT_EQ(SortedRowKeys(a.engine.answers()),
            SortedRowKeys(b.engine.answers()));
}

TEST(ShardedBatchTest, BatchEqualsSinglesOnTheShardedRuntime) {
  auto singles = RunShardedWorkload(/*batched=*/false, /*shards=*/4);
  auto batched = RunShardedWorkload(/*batched=*/true, /*shards=*/4);
  ExpectEquivalent(*singles, *batched);
}

TEST(ShardedBatchTest, ShardedBatchMatchesOneShardBitIdentically) {
  auto s1p = RunShardedWorkload(/*batched=*/true, /*shards=*/1);
  auto s4p = RunShardedWorkload(/*batched=*/true, /*shards=*/4);
  Harness& s1 = *s1p;
  Harness& s4 = *s4p;
  ExpectEquivalent(s1, s4);
  // Bit-identical, not just same multiset: delivery order and times match.
  ASSERT_EQ(s1.engine.answers().size(), s4.engine.answers().size());
  for (size_t i = 0; i < s1.engine.answers().size(); ++i) {
    EXPECT_EQ(s1.engine.answers()[i].query_id,
              s4.engine.answers()[i].query_id);
    EXPECT_EQ(s1.engine.answers()[i].delivered_at,
              s4.engine.answers()[i].delivered_at);
    EXPECT_EQ(sql::AnswerRowKey(s1.engine.answers()[i].row),
              sql::AnswerRowKey(s4.engine.answers()[i].row));
  }
}

TEST(ShardedBatchTest, ObserveBulkMatchesSinglesOnTheShardedRuntime) {
  // Identical stream history — bulk vs per-tuple — then the same RIC-driven
  // workload on 4 shards: any rate divergence changes indexing decisions
  // and therefore traffic.
  Harness bulk(64, EngineConfig{}, /*seed=*/7, /*shards=*/4);
  Harness singles(64, EngineConfig{}, /*seed=*/7, /*shards=*/4);

  std::vector<std::pair<std::string, std::vector<int64_t>>> history = {
      {"R", {1, 10, 100}}, {"R", {1, 11, 101}}, {"S", {1, 5, 50}},
      {"S", {2, 5, 51}},   {"P", {9, 5, 90}},
  };
  std::vector<std::vector<sql::Value>> r_rows, s_rows, p_rows;
  for (const auto& [rel, ints] : history) {
    ASSERT_TRUE(singles.engine.ObserveStreamHistory(rel, Row(ints)).ok());
    auto& bucket = rel == "R" ? r_rows : (rel == "S" ? s_rows : p_rows);
    bucket.push_back(Row(ints));
  }
  ASSERT_TRUE(bulk.engine.ObserveStreamHistoryBulk("R", r_rows).ok());
  ASSERT_TRUE(bulk.engine.ObserveStreamHistoryBulk("S", s_rows).ok());
  ASSERT_TRUE(bulk.engine.ObserveStreamHistoryBulk("P", p_rows).ok());

  RunQueries(bulk);
  RunQueries(singles);
  for (const auto& [rel, ints] : StreamRows()) {
    ASSERT_TRUE(bulk.engine.PublishTuple(3, rel, Row(ints)).ok());
    ASSERT_TRUE(singles.engine.PublishTuple(3, rel, Row(ints)).ok());
    bulk.Run();
    singles.Run();
  }
  ExpectEquivalent(bulk, singles);
}

}  // namespace
}  // namespace rjoin::core
