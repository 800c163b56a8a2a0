// Tests of the integer-only compiled query and of key resolution from ids:
// spec() rebuilds exactly the submitted query from the record, and the id
// forms of KeyInterner return the text forms' KeyIds while building key
// text only on a key's first sight.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/interner.h"
#include "core/planner.h"
#include "dht/chord_network.h"
#include "dht/transport.h"
#include "sim/latency.h"
#include "sim/simulator.h"
#include "sql/parser.h"
#include "sql/schema.h"
#include "stats/metrics.h"
#include "workload/experiment.h"
#include "workload/generator.h"

namespace rjoin::core {
namespace {

using sql::WindowSpec;

constexpr uint32_t kNil = SlabPool<StoredQuery>::kNil;

struct Harness {
  explicit Harness(const workload::WorkloadParams& wp)
      : catalog(workload::BuildCatalog(wp)),
        network(dht::ChordNetwork::Create(32, 3)),
        latency(1),
        metrics(network->num_total()),
        simulator(&metrics, 11),
        transport(network.get(), &simulator, &latency),
        engine(EngineConfig{}, catalog.get(), network.get(), &transport,
               &simulator) {}

  std::unique_ptr<sql::Catalog> catalog;
  std::unique_ptr<dht::ChordNetwork> network;
  sim::FixedLatency latency;
  stats::MetricsRegistry metrics;
  sim::Simulator simulator;
  dht::Transport transport;
  RJoinEngine engine;
};

/// Field-by-field equality of two queries, then equality of their text.
void ExpectSameQuery(const sql::Query& got, const sql::Query& want) {
  EXPECT_EQ(got.distinct, want.distinct);
  EXPECT_EQ(got.window, want.window);
  EXPECT_EQ(got.relations, want.relations);
  EXPECT_EQ(got.joins, want.joins);
  EXPECT_EQ(got.selections, want.selections);
  ASSERT_EQ(got.select_list.size(), want.select_list.size());
  for (size_t i = 0; i < want.select_list.size(); ++i) {
    EXPECT_EQ(got.select_list[i].constant, want.select_list[i].constant)
        << "select item " << i;
    if (!want.select_list[i].is_constant()) {
      EXPECT_EQ(got.select_list[i].attr, want.select_list[i].attr)
          << "select item " << i;
    }
  }
  EXPECT_EQ(got.ToString(), want.ToString());
}

TEST(CompiledQueryTest, SpecRoundTripsGeneratedQueries) {
  const workload::WorkloadParams wp;
  Harness h(wp);
  workload::QueryGenerator gen(wp, h.catalog.get(), 17);
  const WindowSpec windows[] = {
      WindowSpec{},
      WindowSpec{true, WindowSpec::Unit::kTuples, WindowSpec::Kind::kSliding,
                 64},
      WindowSpec{true, WindowSpec::Unit::kTime, WindowSpec::Kind::kSliding,
                 500},
      WindowSpec{true, WindowSpec::Unit::kTuples,
                 WindowSpec::Kind::kTumbling, 32},
      WindowSpec{true, WindowSpec::Unit::kTime, WindowSpec::Kind::kTumbling,
                 1000},
  };
  for (int way = 2; way <= 6; ++way) {
    for (const WindowSpec& w : windows) {
      for (int i = 0; i < 4; ++i) {
        const sql::Query spec = gen.Next(way, w);
        auto id = h.engine.SubmitQuery(0, spec);
        ASSERT_TRUE(id.ok()) << id.status().ToString();
        const InputQuery* q = h.engine.FindQuery(*id);
        ASSERT_NE(q, nullptr);
        EXPECT_EQ(q->window(), w);
        ExpectSameQuery(q->spec(), spec);
      }
    }
  }
  h.simulator.Run();
}

TEST(CompiledQueryTest, SpecRoundTripsParsedQueries) {
  Harness h(workload::WorkloadParams{});
  const char* texts[] = {
      "SELECT DISTINCT R0.A1, R1.A2 FROM R0, R1 WHERE R0.A0 = R1.A0",
      "SELECT R0.A1 FROM R0, R1 WHERE R0.A0 = R1.A0 AND R1.A3 = 42",
      "SELECT R0.A1 FROM R0, R1 WHERE R0.A0 = R1.A0 AND R1.A3 = '42'",
      "SELECT 5, R1.A2, 'x' FROM R0, R1 WHERE R0.A0 = R1.A0",
      "SELECT R2.A9 FROM R2 WHERE R2.A4 = -7 AND R2.A5 = 'abc'",
      "SELECT DISTINCT R0.A1, 3 FROM R0, R1, R2 WHERE R0.A0 = R1.A0 AND "
      "R1.A1 = R2.A2 AND R2.A3 = 9 WINDOW 10 TUPLES TUMBLING",
  };
  for (const char* text : texts) {
    auto spec = sql::Parser::Parse(text);
    ASSERT_TRUE(spec.ok()) << text << ": " << spec.status().ToString();
    auto id = h.engine.SubmitQuery(0, *spec);
    ASSERT_TRUE(id.ok()) << text << ": " << id.status().ToString();
    const InputQuery* q = h.engine.FindQuery(*id);
    ASSERT_NE(q, nullptr);
    EXPECT_FALSE(q->one_time());
    ExpectSameQuery(q->spec(), *spec);
  }

  auto one_time = sql::Parser::Parse(
      "SELECT R0.A1, 'y' FROM R0, R1 WHERE R0.A0 = R1.A0 AND R0.A2 = 4");
  ASSERT_TRUE(one_time.ok());
  auto id = h.engine.SubmitOneTimeQuery(1, *one_time);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  const InputQuery* q = h.engine.FindQuery(*id);
  ASSERT_NE(q, nullptr);
  EXPECT_TRUE(q->one_time());
  EXPECT_EQ(q->owner(), 1u);
  ExpectSameQuery(q->spec(), *one_time);

  EXPECT_EQ(h.engine.FindQuery(0), nullptr);
  EXPECT_EQ(h.engine.FindQuery(*id + 1), nullptr);
  h.simulator.Run();
}

// ------------------------------------------------------ keys from ids --

class KeyResolutionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(catalog_.AddRelation(sql::Schema("R", {"A", "B"})).ok());
    ASSERT_TRUE(catalog_.AddRelation(sql::Schema("S", {"A", "C"})).ok());
  }
  static uint32_t Rel(const std::string& name) {
    return TuplePool::Global().InternRelation(name);
  }
  static ValueId Vid(const sql::Value& v) {
    return ValueInterner::Global().Intern(v);
  }

  sql::Catalog catalog_;
};

TEST_F(KeyResolutionTest, IdFormsReturnTheTextFormsKeyIds) {
  KeyInterner in;
  const sql::Value values[] = {sql::Value::Int(7), sql::Value::Int(-3),
                               sql::Value::Str("x"), sql::Value::Str("#3")};
  for (const char* rel : {"R", "S"}) {
    const sql::Schema& schema = *catalog_.Find(rel);
    for (int attr = 0; attr < 2; ++attr) {
      const std::string& name = schema.attributes()[static_cast<size_t>(attr)];
      const KeyId by_ids = in.ResolveAttribute(catalog_, Rel(rel), attr);
      EXPECT_EQ(by_ids, in.InternAttribute(rel, name));
      for (uint32_t shard = 0; shard < 4; ++shard) {
        EXPECT_EQ(in.WithShard(by_ids, shard),
                  in.Intern(ShardedAttributeKey(rel, name, shard)));
      }
      for (const sql::Value& v : values) {
        EXPECT_EQ(in.ResolveValue(catalog_, Rel(rel), attr, Vid(v)),
                  in.InternValue(rel, name, v));
      }
    }
  }
  // The sharded attribute key R·A·#3 and the value key R.A='#3' share text
  // but not level, so they stay distinct.
  EXPECT_NE(in.WithShard(in.ResolveAttribute(catalog_, Rel("R"), 0), 3),
            in.ResolveValue(catalog_, Rel("R"), 0, Vid(sql::Value::Str("#3"))));
}

TEST_F(KeyResolutionTest, IntAndStringOfOneTextShareAKey) {
  KeyInterner in;
  const ValueId as_int = Vid(sql::Value::Int(42));
  const ValueId as_str = Vid(sql::Value::Str("42"));
  ASSERT_NE(as_int, as_str);
  const KeyId k = in.ResolveValue(catalog_, Rel("R"), 0, as_int);
  EXPECT_EQ(in.ResolveValue(catalog_, Rel("R"), 0, as_str), k);
  EXPECT_EQ(in.InternValue("R", "A", sql::Value::Int(42)), k);
  EXPECT_EQ(in.size(), 1u);
}

TEST_F(KeyResolutionTest, TextIsBuiltOnlyOnFirstSightAndEachCallCounts) {
  KeyInterner in;
  const ValueId v = Vid(sql::Value::Int(5));
  const KeyId k = in.ResolveValue(catalog_, Rel("S"), 1, v);
  EXPECT_EQ(in.text(k), ValueKey("S", "C", sql::Value::Int(5)).text);
  EXPECT_EQ(in.level(k), Level::kValue);
  const KeyInterner::Stats first = in.stats();
  EXPECT_EQ(first.text_builds, 1u);
  EXPECT_EQ(first.misses, 1u);
  EXPECT_EQ(first.hits, 0u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(in.ResolveValue(catalog_, Rel("S"), 1, v), k);
  }
  const KeyInterner::Stats again = in.stats();
  EXPECT_EQ(again.text_builds, 1u);
  EXPECT_EQ(again.hits, 3u);  // one count per resolution
  EXPECT_EQ(again.misses, 1u);
}

TEST(KeyResolutionRunTest, CandidatesOfStoredResidualsBuildNoText) {
  workload::ExperimentConfig cfg;
  cfg.num_nodes = 64;
  cfg.num_queries = 300;
  cfg.num_tuples = 200;
  cfg.window =
      WindowSpec{true, WindowSpec::Unit::kTuples, WindowSpec::Kind::kSliding,
                 64};
  cfg.shards = workload::ExperimentConfig::kForceSerial;
  cfg.seed = 5;
  workload::Experiment e(cfg);
  e.Run();
  const RJoinEngine& engine = e.engine();

  KeyInterner& in = KeyInterner::Global();
  const uint64_t builds = in.stats().text_builds;
  std::vector<KeyId> candidates;
  size_t rewritten = 0;
  for (dht::NodeIndex n = 0; n < engine.num_nodes(); ++n) {
    const NodeState& st = engine.state_of(n);
    st.queries.ForEach([&](KeyId key, const BucketList& bucket) {
      for (uint32_t cur = bucket.head; cur != kNil;
           cur = st.query_pool.at(cur).next) {
        const Residual& r = st.query_pool.at(cur).value.residual;
        if (!r.IsInputQuery()) ++rewritten;
        IndexingCandidates(r, engine.config().rewrite_levels, in,
                           &candidates);
        ASSERT_FALSE(candidates.empty());
        // A stored residual waits under one of its own candidates.
        EXPECT_NE(std::find(candidates.begin(), candidates.end(), key),
                  candidates.end());
      }
    });
  }
  EXPECT_GT(rewritten, 0u);
  EXPECT_EQ(in.stats().text_builds, builds);
}

}  // namespace
}  // namespace rjoin::core
