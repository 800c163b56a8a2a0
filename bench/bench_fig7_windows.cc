// Figure 7 — Effect of sliding window size (W).
//
// Setup (paper): 10^3 nodes, 2*10^4 4-way join queries, all with the same
// tuple-based sliding window W in {50, 100, 200, 400, 1000}; 10^3 tuples.
// Series: (a) per-tuple traffic (total vs RIC), (b)/(c) ranked QPL and SL
// distributions per window size.

#include <iostream>

#include "bench/bench_common.h"
#include "stats/reporter.h"

using namespace rjoin;

int main() {
  std::vector<uint64_t> kWindows;
  for (size_t w : bench::ScaledCounts({50, 100, 200, 400, 1000})) {
    kWindows.push_back(w);
  }

  workload::ExperimentConfig base = bench::PaperBaseConfig(7);
  base.num_tuples = bench::ScaledCount(1000);
  base.sweep_every = 16;
  base.rewrite_levels = core::RewriteIndexLevels::kIncludeAttribute;
  bench::PrintHeader("Figure 7: effect of sliding window size", base);
  bench::JsonReporter json("fig7_windows",
                           "Figure 7: effect of sliding window size", base);

  std::vector<double> xs, total_series, ric_series;
  std::vector<std::string> labels;
  std::vector<stats::RankedDistribution> qpl_dists, sl_dists;

  for (uint64_t w : kWindows) {
    workload::ExperimentConfig cfg = base;
    sql::WindowSpec window;
    window.use_windows = true;
    window.unit = sql::WindowSpec::Unit::kTuples;
    window.kind = sql::WindowSpec::Kind::kSliding;
    window.size = w;
    cfg.window = window;
    workload::Experiment experiment(cfg);
    auto result = experiment.Run();
    json.AddTuplesProcessed(result.num_tuples);

    xs.push_back(static_cast<double>(w));
    total_series.push_back(result.MsgsPerNodePerTuple());
    ric_series.push_back(result.RicMsgsPerNodePerTuple());
    labels.push_back("W=" + std::to_string(w));
    qpl_dists.push_back(bench::Ranked(result.final_snapshot.qpl));
    sl_dists.push_back(bench::Ranked(result.final_snapshot.storage));
  }

  stats::TableReporter a("Fig 7(a): messages per node per tuple",
                         "window (tuples)");
  a.set_x(xs);
  a.AddSeries({"TotalHops", total_series});
  a.AddSeries({"RequestRIC", ric_series});
  a.Print(std::cout);
  json.AddChart(a);

  PrintRankedFigure(std::cout, "Fig 7(b): query processing load", labels,
                    qpl_dists);
  PrintRankedFigure(std::cout, "Fig 7(c): storage load (current)", labels,
                    sl_dists);
  json.AddRankedChart("Fig 7(b): query processing load", labels, qpl_dists);
  json.AddRankedChart("Fig 7(c): storage load (current)", labels, sl_dists);
  json.Write();
  return 0;
}
