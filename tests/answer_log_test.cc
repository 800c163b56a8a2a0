// Tests of the answer log (core::AnswerLog): records, interned rows and
// exact DISTINCT as a unit, then the engine's answer sink on both pumps —
// allocation-free once warm, the same log at every shard count, and one
// answers_delivered count per logged answer.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/answer_log.h"
#include "core/engine.h"
#include "dht/chord_network.h"
#include "dht/transport.h"
#include "runtime/sharded_runtime.h"
#include "sim/event_pump.h"
#include "sim/latency.h"
#include "sql/evaluator.h"
#include "sql/schema.h"
#include "stats/alloc_tracker.h"
#include "stats/metrics.h"
#include "stats/trace.h"
#include "util/random.h"

namespace rjoin::core {
namespace {

/// Interned ids of the integers `ints`.
std::vector<ValueId> Ids(const std::vector<int64_t>& ints) {
  std::vector<ValueId> ids;
  for (int64_t v : ints) {
    ids.push_back(ValueInterner::Global().Intern(sql::Value::Int(v)));
  }
  return ids;
}

std::vector<sql::Value> Values(const std::vector<int64_t>& ints) {
  std::vector<sql::Value> out;
  for (int64_t v : ints) out.push_back(sql::Value::Int(v));
  return out;
}

bool Append(AnswerLog& log, uint64_t query, const std::vector<int64_t>& row,
            uint64_t at, bool distinct = false) {
  const std::vector<ValueId> ids = Ids(row);
  return log.Append(query, ids.data(), static_cast<uint32_t>(ids.size()), at,
                    distinct);
}

// ------------------------------------------------------------- units ----

TEST(AnswerLogTest, RowsOfEveryWidthReadBack) {
  AnswerLog log;
  for (int width = 1; width <= kMaxSelectItems; ++width) {
    std::vector<int64_t> row;
    for (int i = 0; i < width; ++i) row.push_back(1000 * width + i);
    ASSERT_TRUE(Append(log, static_cast<uint64_t>(width), row, 5u + width));
  }
  ASSERT_EQ(log.size(), static_cast<size_t>(kMaxSelectItems));
  EXPECT_EQ(log.rows(), static_cast<size_t>(kMaxSelectItems));
  for (int width = 1; width <= kMaxSelectItems; ++width) {
    const Answer a = log[static_cast<size_t>(width - 1)];
    EXPECT_EQ(a.query_id, static_cast<uint64_t>(width));
    EXPECT_EQ(a.delivered_at, 5u + width);
    std::vector<int64_t> want;
    for (int i = 0; i < width; ++i) want.push_back(1000 * width + i);
    EXPECT_EQ(a.row, Values(want)) << "width " << width;
  }
}

TEST(AnswerLogTest, EqualContentSharesOneRow) {
  AnswerLog log;
  ASSERT_TRUE(Append(log, 1, {7, 8}, 1));
  ASSERT_TRUE(Append(log, 2, {7, 8}, 2));  // another query, same content
  ASSERT_TRUE(Append(log, 1, {7, 8}, 3));  // bag semantics keep repeats
  EXPECT_EQ(log.rows(), 1u);
  ASSERT_TRUE(Append(log, 1, {7}, 4));      // a prefix is another row
  ASSERT_TRUE(Append(log, 1, {7, 8, 9}, 5));  // so is an extension
  ASSERT_TRUE(Append(log, 1, {8, 7}, 6));     // and a permutation
  EXPECT_EQ(log.rows(), 4u);
  EXPECT_EQ(log.size(), 6u);
  EXPECT_EQ(log[5].row, Values({8, 7}));
}

TEST(AnswerLogTest, ManyRowsInternOnceAndReadBack) {
  // Enough distinct rows to grow the index several times and fill more
  // than one value-arena chunk with rows of a width that does not divide
  // the chunk (rows never straddle a chunk).
  constexpr int kRows = 20000;
  AnswerLog log;
  for (int pass = 0; pass < 2; ++pass) {
    for (int r = 0; r < kRows; ++r) {
      ASSERT_TRUE(Append(log, 1, {r, r + 1, r + 2}, static_cast<uint64_t>(r)));
    }
  }
  EXPECT_EQ(log.rows(), static_cast<size_t>(kRows));
  ASSERT_EQ(log.size(), 2u * kRows);
  for (int r = 0; r < kRows; r += 97) {
    EXPECT_EQ(log[static_cast<size_t>(r)].row, Values({r, r + 1, r + 2}));
    EXPECT_EQ(log[static_cast<size_t>(kRows + r)].row,
              Values({r, r + 1, r + 2}));
  }
}

TEST(AnswerLogTest, RecordsCrossChunkBoundaries) {
  // Past two 16Ki-record chunks: every record reads back where it was put.
  constexpr uint64_t kAnswers = 40000;
  AnswerLog log;
  for (uint64_t i = 0; i < kAnswers; ++i) {
    ASSERT_TRUE(Append(log, 1 + i % 13, {static_cast<int64_t>(i % 50)},
                       3 * i));
  }
  ASSERT_EQ(log.size(), kAnswers);
  for (uint64_t i = 0; i < kAnswers; ++i) {
    const Answer a = log[i];
    ASSERT_EQ(a.query_id, 1 + i % 13) << "record " << i;
    ASSERT_EQ(a.delivered_at, 3 * i) << "record " << i;
    ASSERT_EQ(a.row, Values({static_cast<int64_t>(i % 50)})) << "record " << i;
  }
}

TEST(AnswerLogTest, IndexingAgreesWithIteration) {
  AnswerLog log;
  for (uint64_t i = 0; i < 20000; ++i) {
    ASSERT_TRUE(Append(log, 1 + i % 5,
                       {static_cast<int64_t>(i % 7),
                        static_cast<int64_t>(i % 11)},
                       i));
  }
  size_t i = 0;
  for (const Answer& a : log) {
    const Answer b = log[i++];
    ASSERT_EQ(a.query_id, b.query_id);
    ASSERT_EQ(a.delivered_at, b.delivered_at);
    ASSERT_EQ(a.row, b.row);
  }
  EXPECT_EQ(i, log.size());
  const AnswerLog empty;
  EXPECT_TRUE(empty.begin() == empty.end());
}

TEST(AnswerLogTest, ForReturnsOneQueryInDeliveryOrder) {
  AnswerLog log;
  ASSERT_TRUE(Append(log, 1, {1}, 10));
  ASSERT_TRUE(Append(log, 2, {2}, 11));
  ASSERT_TRUE(Append(log, 1, {3}, 12));
  const std::vector<Answer> mine = log.For(1);
  ASSERT_EQ(mine.size(), 2u);
  EXPECT_EQ(mine[0].row, Values({1}));
  EXPECT_EQ(mine[1].row, Values({3}));
  EXPECT_EQ(mine[1].delivered_at, 12u);
  EXPECT_TRUE(log.For(3).empty());
}

TEST(AnswerLogTest, DistinctKeepsTheFirstDeliveryPerQueryAndRow) {
  AnswerLog log;
  EXPECT_TRUE(Append(log, 1, {4, 5}, 1, /*distinct=*/true));
  EXPECT_FALSE(Append(log, 1, {4, 5}, 2, /*distinct=*/true));
  EXPECT_TRUE(Append(log, 2, {4, 5}, 3, /*distinct=*/true));  // other query
  EXPECT_TRUE(Append(log, 1, {5, 4}, 4, /*distinct=*/true));  // other row
  EXPECT_TRUE(Append(log, 3, {4, 5}, 5));  // bag query: repeats kept
  EXPECT_TRUE(Append(log, 3, {4, 5}, 6));
  ASSERT_EQ(log.size(), 5u);
  EXPECT_EQ(log[0].delivered_at, 1u);  // the first delivery survives
  EXPECT_EQ(log.rows(), 2u);
}

TEST(AnswerLogDeathTest, QueryIdsBeyond32BitsAreRejected) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  AnswerLog log;
  EXPECT_DEATH(Append(log, uint64_t{1} << 32, {1}, 0), "32 bits");
}

// ------------------------------------------------- the engine's sink ----

sql::Catalog TestCatalog() {
  sql::Catalog c;
  EXPECT_TRUE(c.AddRelation(sql::Schema("R", {"A", "B", "C"})).ok());
  EXPECT_TRUE(c.AddRelation(sql::Schema("S", {"A", "B", "C"})).ok());
  EXPECT_TRUE(c.AddRelation(sql::Schema("P", {"A", "B", "C"})).ok());
  return c;
}

/// `shards` = 0 is the serial pump; otherwise the sharded runtime.
struct Harness {
  Harness(size_t nodes, uint32_t shards)
      : network(dht::ChordNetwork::Create(nodes, 5)),
        latency(1),
        metrics(network->num_total()),
        pump(runtime::MakeEventPump(shards, network->num_total(), latency,
                                    &metrics, 9)),
        transport(network.get(), pump.get(), &latency),
        engine(EngineConfig{}, &catalog, network.get(), &transport,
               pump.get()) {}

  void Submit(dht::NodeIndex owner, const std::string& text) {
    ASSERT_TRUE(engine.SubmitQuerySql(owner, text).ok()) << text;
    pump->Run();
  }

  sql::Catalog catalog = TestCatalog();
  std::unique_ptr<dht::ChordNetwork> network;
  sim::FixedLatency latency;
  stats::MetricsRegistry metrics;
  std::unique_ptr<sim::EventPump> pump;
  dht::Transport transport;
  RJoinEngine engine;
};

uint64_t TotalAllocs(const stats::AllocCounts& c) {
  uint64_t n = 0;
  for (uint64_t v : c.counts) n += v;
  return n;
}

/// Windowed 2-way joins over a 4-value domain: every tuple completes
/// answers, rows repeat (the row table stops growing), and stored state is
/// swept, so once warm only the log's chunks may still allocate. Each
/// tuple starts on a multiple of the event queue's ring size, so the
/// queue's buckets see the same load every period.
struct SinkStream {
  void Run(Harness& h, int tuples) {
    for (int n = 0; n < tuples; ++n, ++next) {
      row[0] = sql::Value::Int((next / 2) % 4);
      row[1] = sql::Value::Int((next / 8) % 4);
      EXPECT_TRUE(h.engine
                      .PublishTuple(next % 16, next % 2 == 0 ? "R" : "S", row)
                      .ok());
      h.pump->Run();
      if (next % 4 == 3) h.engine.SweepWindows();
      constexpr sim::SimTime kRing = 1024;  // sim::CalendarQueue buckets
      h.pump->RunUntil((h.pump->Now() / kRing + 1) * kRing);
    }
  }

  int next = 0;  // position in the stream's 32-tuple period
  std::vector<sql::Value> row = std::vector<sql::Value>(3, sql::Value::Int(0));
};

class AnswerSinkTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(AnswerSinkTest, WarmDeliveryAllocatesOnlyLogCapacity) {
  Harness h(32, GetParam());
  for (dht::NodeIndex owner = 0; owner < 8; ++owner) {
    h.Submit(owner,
             "SELECT R.B, S.B FROM R, S WHERE R.A = S.A WINDOW 8 TUPLES");
  }
  SinkStream stream;
  stream.Run(h, 400);  // warm every pool, table and staging vector
  const size_t answers = h.engine.answers().size();
  const stats::AllocCounts before = stats::ReadAllocCounts();
  stream.Run(h, 200);
  const stats::AllocCounts after = stats::ReadAllocCounts();
  EXPECT_GT(h.engine.answers().size(), answers + 1000)
      << "the window delivered too few answers to mean anything";
  EXPECT_EQ(TotalAllocs(after) - TotalAllocs(before),
            after.pool_capacity() - before.pool_capacity())
      << "other plane: " << after.other() - before.other();
}

INSTANTIATE_TEST_SUITE_P(Pumps, AnswerSinkTest, ::testing::Values(0u, 3u),
                         [](const auto& info) {
                           return info.param == 0
                                      ? std::string("Serial")
                                      : "S" + std::to_string(info.param);
                         });

struct LoggedAnswer {
  uint64_t query;
  uint64_t at;
  std::string row;
  auto operator<=>(const LoggedAnswer&) const = default;
};

struct DistinctRun {
  std::vector<LoggedAnswer> log;
  uint64_t delivered = 0;   ///< metrics().answers_delivered()
  uint64_t deliveries = 0;  ///< AnswerDeliver messages the owners received
};

/// DISTINCT and bag queries with owners spread over the ring, fed a seeded
/// stream in bursts of four same-instant publications, so owner-side
/// duplicate suppression fires on every shard.
DistinctRun RunDistinct(uint32_t shards) {
  const uint64_t deliveries_before =
      stats::Tracer::Global().AggregateHistograms().answer_latency.count();
  Harness h(48, shards);
  const char* const kQueries[] = {
      "SELECT DISTINCT R.A, S.A FROM R, S WHERE R.B = S.B",
      "SELECT DISTINCT S.C FROM S, P WHERE S.B = P.B",
      "SELECT DISTINCT R.A FROM R, S, P WHERE R.B = S.B AND S.C = P.C",
      "SELECT R.A, S.A FROM R, S WHERE R.B = S.B",
  };
  dht::NodeIndex owner = 3;
  for (const char* q : kQueries) {
    h.Submit(owner, q);
    owner = (owner + 11) % 48;
  }
  Rng rng(17);
  const char* const kRelations[] = {"R", "S", "P"};
  for (int i = 0; i < 90; ++i) {
    std::vector<sql::Value> row;
    for (int a = 0; a < 3; ++a) {
      row.push_back(sql::Value::Int(static_cast<int64_t>(rng.NextBounded(3))));
    }
    const auto publisher = static_cast<dht::NodeIndex>(rng.NextBounded(48));
    const char* relation = kRelations[rng.NextBounded(3)];
    EXPECT_TRUE(h.engine.PublishTuple(publisher, relation, row).ok());
    if (i % 4 == 3) h.pump->Run();
  }
  h.pump->Run();
  DistinctRun out;
  for (const Answer& a : h.engine.answers()) {
    out.log.push_back({a.query_id, a.delivered_at, sql::AnswerRowKey(a.row)});
  }
  out.delivered = h.metrics.answers_delivered();
  out.deliveries =
      stats::Tracer::Global().AggregateHistograms().answer_latency.count() -
      deliveries_before;
  return out;
}

/// (query, row) pairs of a log, sorted: its rows as a multiset per query.
std::vector<std::pair<uint64_t, std::string>> RowMultiset(
    const DistinctRun& run) {
  std::vector<std::pair<uint64_t, std::string>> out;
  for (const LoggedAnswer& a : run.log) out.emplace_back(a.query, a.row);
  std::sort(out.begin(), out.end());
  return out;
}

TEST(AnswerSinkDistinctTest, LogsAgreeAcrossPumpsAndShardCounts) {
  const DistinctRun serial = RunDistinct(0);
  const DistinctRun s1 = RunDistinct(1);
  const DistinctRun s4 = RunDistinct(4);
  const DistinctRun s7 = RunDistinct(7);
  ASSERT_FALSE(s1.log.empty());
  EXPECT_GT(s1.deliveries, s1.log.size())
      << "no duplicate reached an owner: DISTINCT suppressed nothing";
  EXPECT_EQ(s4.log, s1.log);
  EXPECT_EQ(s7.log, s1.log);
  EXPECT_EQ(RowMultiset(serial), RowMultiset(s1));
  for (const DistinctRun* run : {&serial, &s1, &s4, &s7}) {
    EXPECT_EQ(run->delivered, run->log.size());
  }
}

}  // namespace
}  // namespace rjoin::core
