#include <gtest/gtest.h>

#include <sstream>

#include "stats/distribution.h"
#include "stats/metrics.h"
#include "stats/reporter.h"

namespace rjoin::stats {
namespace {

TEST(MetricsTest, TrafficAccumulates) {
  MetricsRegistry m(4);
  m.AddTraffic(0);
  m.AddTraffic(0, 2, /*ric=*/true);
  m.AddTraffic(3);
  EXPECT_EQ(m.total_messages(), 4u);
  EXPECT_EQ(m.total_ric_messages(), 2u);
  EXPECT_EQ(m.node(0).messages_sent, 3u);
  EXPECT_EQ(m.node(0).ric_messages_sent, 2u);
  EXPECT_EQ(m.node(3).messages_sent, 1u);
}

TEST(MetricsTest, StorageCurrentTracksRemovals) {
  MetricsRegistry m(2);
  m.AddStore(1);
  m.AddStore(1);
  m.RemoveStore(1);
  EXPECT_EQ(m.node(1).storage_total, 2u);
  EXPECT_EQ(m.node(1).storage_current, 1);
  EXPECT_EQ(m.total_storage(), 2u);
}

TEST(MetricsTest, ResizeKeepsCounts) {
  MetricsRegistry m(1);
  m.AddQpl(0, 5);
  m.Resize(3);
  EXPECT_EQ(m.node(0).qpl, 5u);
  EXPECT_EQ(m.num_nodes(), 3u);
}

TEST(DistributionTest, RankedSortsDescending) {
  auto d = MakeRanked({3, 9, 1, 7});
  EXPECT_EQ(d.sorted_desc, (std::vector<uint64_t>{9, 7, 3, 1}));
  EXPECT_EQ(d.max(), 9u);
  EXPECT_EQ(d.total(), 20u);
  EXPECT_DOUBLE_EQ(d.mean(), 5.0);
}

TEST(DistributionTest, ParticipantsCountsNonZero) {
  auto d = MakeRanked({5, 0, 0, 2, 0});
  EXPECT_EQ(d.participants(), 2u);
}

TEST(DistributionTest, GiniZeroWhenBalanced) {
  auto d = MakeRanked({4, 4, 4, 4});
  EXPECT_NEAR(d.gini(), 0.0, 1e-9);
}

TEST(DistributionTest, GiniEmptyDistributionIsZero) {
  auto d = MakeRanked({});
  EXPECT_DOUBLE_EQ(d.gini(), 0.0);
}

TEST(DistributionTest, GiniSingleNodeIsZero) {
  auto d = MakeRanked({42});
  EXPECT_NEAR(d.gini(), 0.0, 1e-9);
}

TEST(DistributionTest, GiniAllZeroLoadsIsZero) {
  auto d = MakeRanked({0, 0, 0});
  EXPECT_DOUBLE_EQ(d.gini(), 0.0);
}

TEST(DistributionTest, GiniPerfectlyUniformLargePopulation) {
  std::vector<uint64_t> loads(1000, 7);
  auto d = MakeRanked(loads);
  EXPECT_NEAR(d.gini(), 0.0, 1e-9);
}

TEST(DistributionTest, GiniHighWhenConcentrated) {
  std::vector<uint64_t> loads(100, 0);
  loads[0] = 1000;
  auto d = MakeRanked(loads);
  EXPECT_GT(d.gini(), 0.95);
  EXPECT_LE(d.gini(), 1.0);
}

TEST(DistributionTest, GiniOrdersByImbalance) {
  auto balanced = MakeRanked({10, 10, 10, 10});
  auto mild = MakeRanked({16, 12, 8, 4});
  auto extreme = MakeRanked({37, 1, 1, 1});
  EXPECT_LT(balanced.gini(), mild.gini());
  EXPECT_LT(mild.gini(), extreme.gini());
}

TEST(DistributionTest, AtRankBeyondEndIsZero) {
  auto d = MakeRanked({5});
  EXPECT_EQ(d.at_rank(0), 5u);
  EXPECT_EQ(d.at_rank(9), 0u);
}

TEST(ReporterTest, SampleRankGridNeverRepeatsARank) {
  for (size_t max_nodes : {size_t{1}, size_t{2}, size_t{3}, size_t{7},
                           size_t{9}, size_t{10}, size_t{11}, size_t{100}}) {
    auto ranks = SampleRankGrid(max_nodes, 10);
    EXPECT_EQ(ranks.size(), std::min<size_t>(10, max_nodes));
    for (size_t i = 1; i < ranks.size(); ++i) {
      EXPECT_LT(ranks[i - 1], ranks[i])
          << "duplicate/unordered rank with max_nodes=" << max_nodes;
    }
    if (!ranks.empty()) {
      EXPECT_EQ(ranks.front(), 0u);
      EXPECT_EQ(ranks.back(), max_nodes - 1);
    }
  }
}

TEST(ReporterTest, SampleRankGridEmptyEdges) {
  EXPECT_TRUE(SampleRankGrid(0, 10).empty());
  EXPECT_TRUE(SampleRankGrid(10, 0).empty());
  EXPECT_EQ(SampleRankGrid(1, 10), (std::vector<size_t>{0}));
}

TEST(ReporterTest, TablePrintsAllSeries) {
  TableReporter t("My Figure", "x");
  t.set_x({1, 2});
  t.AddSeries({"alpha", {10, 20}});
  t.AddSeries({"beta", {30, 40}});
  std::ostringstream os;
  t.Print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("My Figure"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("beta"), std::string::npos);
  EXPECT_NE(out.find("40.000"), std::string::npos);
}

TEST(ReporterTest, RankedFigurePrintsParticipants) {
  std::ostringstream os;
  PrintRankedFigure(os, "Loads", {"run1"}, {MakeRanked({5, 3, 0, 0})}, 4);
  const std::string out = os.str();
  EXPECT_NE(out.find("participants"), std::string::npos);
  EXPECT_NE(out.find("Loads"), std::string::npos);
}

}  // namespace
}  // namespace rjoin::stats
