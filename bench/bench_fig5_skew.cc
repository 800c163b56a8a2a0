// Figure 5 — Varying the skew of the data distribution.
//
// Setup (paper): 10^3 nodes, 2*10^4 queries, 10^3 tuples; Zipf theta in
// {0.3, 0.5, 0.7, 0.9} both for relation choice and attribute values.
// Series: (a) per-tuple traffic (total vs RIC), (b)/(c) ranked QPL and SL
// distributions per theta.

#include <iostream>

#include "bench/bench_common.h"
#include "stats/reporter.h"

using namespace rjoin;

int main() {
  const std::vector<double> kThetas = {0.3, 0.5, 0.7, 0.9};

  workload::ExperimentConfig base = bench::PaperBaseConfig(5);
  base.num_tuples = bench::ScaledCount(1000);
  base.rewrite_levels = core::RewriteIndexLevels::kIncludeAttribute;
  bench::PrintHeader("Figure 5: effect of skewed data", base);
  bench::JsonReporter json("fig5_skew", "Figure 5: effect of skewed data",
                           base);

  std::vector<double> xs, total_series, ric_series;
  std::vector<std::string> labels;
  std::vector<stats::RankedDistribution> qpl_dists, sl_dists;

  for (double theta : kThetas) {
    workload::ExperimentConfig cfg = base;
    cfg.workload.zipf_theta = theta;
    workload::Experiment experiment(cfg);
    auto result = experiment.Run();
    json.AddTuplesProcessed(result.num_tuples);

    xs.push_back(theta);
    total_series.push_back(result.MsgsPerNodePerTuple());
    ric_series.push_back(result.RicMsgsPerNodePerTuple());
    labels.push_back("theta=" + std::to_string(theta).substr(0, 3));
    qpl_dists.push_back(bench::Ranked(result.final_snapshot.qpl));
    sl_dists.push_back(bench::Ranked(result.final_snapshot.storage));
  }

  stats::TableReporter a("Fig 5(a): messages per node per tuple",
                         "zipf theta");
  a.set_x(xs);
  a.AddSeries({"TotalHops", total_series});
  a.AddSeries({"RequestRIC", ric_series});
  a.Print(std::cout);
  json.AddChart(a);

  PrintRankedFigure(std::cout, "Fig 5(b): query processing load", labels,
                    qpl_dists);
  PrintRankedFigure(std::cout, "Fig 5(c): storage load", labels, sl_dists);
  json.AddRankedChart("Fig 5(b): query processing load", labels, qpl_dists);
  json.AddRankedChart("Fig 5(c): storage load", labels, sl_dists);
  json.Write();
  return 0;
}
