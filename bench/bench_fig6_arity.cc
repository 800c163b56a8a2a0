// Figure 6 — Effect of having more complex queries (number of joins).
//
// Setup (paper): 10^3 nodes, 2*10^4 k-way join queries for k in {4, 6, 8},
// then 10^3 tuples. Series: (a) per-tuple traffic (total vs RIC),
// (b)/(c) ranked QPL and SL distributions per arity.

#include <iostream>

#include "bench/bench_common.h"
#include "stats/reporter.h"

using namespace rjoin;

int main() {
  const std::vector<int> kWays = {4, 6, 8};

  workload::ExperimentConfig base = bench::PaperBaseConfig(6);
  base.num_tuples = bench::ScaledCount(1000);
  base.rewrite_levels = core::RewriteIndexLevels::kIncludeAttribute;
  bench::PrintHeader("Figure 6: effect of query complexity", base);
  bench::JsonReporter json("fig6_arity",
                           "Figure 6: effect of query complexity", base);

  std::vector<double> xs, total_series, ric_series;
  std::vector<std::string> labels;
  std::vector<stats::RankedDistribution> qpl_dists, sl_dists;

  for (int way : kWays) {
    workload::ExperimentConfig cfg = base;
    cfg.way = way;
    workload::Experiment experiment(cfg);
    auto result = experiment.Run();
    json.AddTuplesProcessed(result.num_tuples);

    xs.push_back(way);
    total_series.push_back(result.MsgsPerNodePerTuple());
    ric_series.push_back(result.RicMsgsPerNodePerTuple());
    labels.push_back(std::to_string(way) + "-way joins");
    qpl_dists.push_back(bench::Ranked(result.final_snapshot.qpl));
    sl_dists.push_back(bench::Ranked(result.final_snapshot.storage));
  }

  stats::TableReporter a("Fig 6(a): messages per node per tuple",
                         "# of joins in queries");
  a.set_x(xs);
  a.AddSeries({"TotalHops", total_series});
  a.AddSeries({"RequestRIC", ric_series});
  a.Print(std::cout);
  json.AddChart(a);

  PrintRankedFigure(std::cout, "Fig 6(b): query processing load", labels,
                    qpl_dists);
  PrintRankedFigure(std::cout, "Fig 6(c): storage load", labels, sl_dists);
  json.AddRankedChart("Fig 6(b): query processing load", labels, qpl_dists);
  json.AddRankedChart("Fig 6(c): storage load", labels, sl_dists);
  json.Write();
  return 0;
}
