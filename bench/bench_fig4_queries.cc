// Figure 4 — Effect of increasing the number of indexed queries.
//
// Setup (paper): 10^3 nodes; 2k/4k/8k/16k/32k 4-way join queries; then 10^3
// tuples. Series: (a) per-tuple traffic (total vs RIC), (b)/(c) ranked QPL
// and SL distributions per query count.

#include <iostream>

#include "bench/bench_common.h"
#include "stats/reporter.h"

using namespace rjoin;

int main() {
  const std::vector<size_t> kQueryCounts = {2000, 4000, 8000, 16000, 32000};

  workload::ExperimentConfig base = bench::PaperBaseConfig(4);
  base.num_tuples = bench::ScaledCount(1000);
  base.rewrite_levels = core::RewriteIndexLevels::kIncludeAttribute;
  bench::PrintHeader("Figure 4: effect of increasing indexed queries", base);
  bench::JsonReporter json("fig4_queries",
                           "Figure 4: effect of increasing indexed queries",
                           base);

  std::vector<double> xs, total_series, ric_series;
  std::vector<std::string> labels;
  std::vector<stats::RankedDistribution> qpl_dists, sl_dists;

  for (size_t q : kQueryCounts) {
    workload::ExperimentConfig cfg = base;
    cfg.num_queries =
        std::max<size_t>(16, static_cast<size_t>(q * bench::AppliedScale()));
    workload::Experiment experiment(cfg);
    auto result = experiment.Run();
    json.AddTuplesProcessed(result.num_tuples);

    xs.push_back(static_cast<double>(q) / 1000.0);
    total_series.push_back(result.MsgsPerNodePerTuple());
    ric_series.push_back(result.RicMsgsPerNodePerTuple());
    labels.push_back(std::to_string(q / 1000) + "K queries");
    qpl_dists.push_back(bench::Ranked(result.final_snapshot.qpl));
    sl_dists.push_back(bench::Ranked(result.final_snapshot.storage));
  }

  stats::TableReporter a("Fig 4(a): messages per node per tuple",
                         "# queries (x1000)");
  a.set_x(xs);
  a.AddSeries({"TotalHops", total_series});
  a.AddSeries({"RequestRIC", ric_series});
  a.Print(std::cout);
  json.AddChart(a);

  PrintRankedFigure(std::cout, "Fig 4(b): query processing load", labels,
                    qpl_dists);
  PrintRankedFigure(std::cout, "Fig 4(c): storage load", labels, sl_dists);
  json.AddRankedChart("Fig 4(b): query processing load", labels, qpl_dists);
  json.AddRankedChart("Fig 4(c): storage load", labels, sl_dists);
  json.Write();
  return 0;
}
