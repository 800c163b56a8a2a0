// Figure 8 — Cumulative load created with each new tuple, per window size.
//
// Same runs as Figure 7, but reporting the cumulative query-processing and
// storage load as the tuple count grows from 0 to 10^3 (sampled every 100
// tuples), one curve per window size.

#include <iostream>

#include "bench/bench_common.h"
#include "stats/reporter.h"

using namespace rjoin;

int main() {
  std::vector<uint64_t> kWindows;
  for (size_t w : bench::ScaledCounts({50, 100, 200, 400, 1000})) {
    kWindows.push_back(w);
  }
  const size_t kSampleEvery = std::max<size_t>(1, bench::ScaledCount(1000) / 10);

  workload::ExperimentConfig base = bench::PaperBaseConfig(8);
  base.num_tuples = bench::ScaledCount(1000);
  base.sweep_every = 16;
  base.rewrite_levels = core::RewriteIndexLevels::kIncludeAttribute;
  bench::PrintHeader("Figure 8: cumulative load vs tuples per window size",
                     base);
  bench::JsonReporter json(
      "fig8_cumulative", "Figure 8: cumulative load vs tuples per window size",
      base);

  std::vector<stats::Series> qpl_series, sl_series;
  std::vector<double> xs;

  for (uint64_t w : kWindows) {
    workload::ExperimentConfig cfg = base;
    sql::WindowSpec window;
    window.use_windows = true;
    window.unit = sql::WindowSpec::Unit::kTuples;
    window.size = w;
    cfg.window = window;
    workload::Experiment experiment(cfg);
    auto result = experiment.Run();
    json.AddTuplesProcessed(result.num_tuples);

    stats::Series q{"W=" + std::to_string(w), {}};
    stats::Series s{"W=" + std::to_string(w), {}};
    if (xs.empty()) {
      for (size_t i = kSampleEvery; i <= result.per_tuple.size();
           i += kSampleEvery) {
        xs.push_back(static_cast<double>(i));
      }
    }
    for (size_t i = kSampleEvery; i <= result.per_tuple.size();
         i += kSampleEvery) {
      q.values.push_back(
          static_cast<double>(result.per_tuple[i - 1].total_qpl));
      s.values.push_back(
          static_cast<double>(result.per_tuple[i - 1].total_storage));
    }
    qpl_series.push_back(std::move(q));
    sl_series.push_back(std::move(s));
  }

  stats::TableReporter a("Fig 8(a): cumulative query processing load",
                         "# tuples");
  a.set_x(xs);
  for (auto& s : qpl_series) a.AddSeries(s);
  a.Print(std::cout);
  json.AddChart(a);

  stats::TableReporter b("Fig 8(b): cumulative storage load", "# tuples");
  b.set_x(xs);
  for (auto& s : sl_series) b.AddSeries(s);
  b.Print(std::cout);
  json.AddChart(b);
  json.Write();
  return 0;
}
