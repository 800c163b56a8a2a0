// Figure 3 — Effect of increasing the number of incoming tuples.
//
// Setup (paper): 10^3 nodes, 2*10^4 4-way join queries, theta = 0.9;
// one run streaming 2560 tuples with snapshots at 40/80/160/320/640/1280/
// 2560.
//
// Series reproduced: (a) per-tuple traffic per node (total vs RIC-request),
// (b) ranked query-processing-load distribution per tuple count, (c) ranked
// storage-load distribution per tuple count.

#include <iostream>

#include "bench/bench_common.h"
#include "stats/reporter.h"

using namespace rjoin;

int main() {
  const std::vector<size_t> kCounts =
      bench::ScaledCounts({40, 80, 160, 320, 640, 1280, 2560});

  workload::ExperimentConfig cfg = bench::PaperBaseConfig(3);
  cfg.num_tuples = kCounts.back();
  cfg.checkpoints = kCounts;
  cfg.rewrite_levels = core::RewriteIndexLevels::kIncludeAttribute;
  bench::PrintHeader("Figure 3: effect of increasing incoming tuples", cfg);
  bench::JsonReporter json("fig3_tuples",
                           "Figure 3: effect of increasing incoming tuples",
                           cfg);

  workload::Experiment experiment(cfg);
  auto result = experiment.Run();
  json.AddTuplesProcessed(result.num_tuples);

  // Steady-state alloc window: the last two checkpoints bound the second
  // half of the stream (1280 -> 2560 at paper scale), after pools and
  // dictionaries have warmed — the window the <= 1 allocs-per-tuple
  // target is defined over. The whole-run average (which folds in the
  // cold ramp) still lands in allocs_per_tuple_lifetime.
  if (result.snapshots.size() >= 2) {
    const auto& head = result.snapshots[result.snapshots.size() - 2];
    const auto& tail = result.snapshots.back();
    json.SetSteadyStateAllocs(head.allocs, tail.allocs,
                              tail.after_tuples - head.after_tuples);
    json.SetSteadyStateRouteCache(head.route_cache, tail.route_cache);
  }

  // (a) incremental per-tuple traffic between snapshots.
  std::vector<double> xs, total_series, ric_series;
  uint64_t prev_msgs = result.traffic_after_queries;
  uint64_t prev_ric = result.ric_after_queries;
  size_t prev_count = 0;
  for (const auto& snap : result.snapshots) {
    const uint64_t msgs = bench::SumLoads(snap.messages);
    const uint64_t ric = bench::SumLoads(snap.ric_messages);
    const double dt = static_cast<double>(snap.after_tuples - prev_count);
    const double n = static_cast<double>(cfg.num_nodes);
    xs.push_back(static_cast<double>(snap.after_tuples));
    total_series.push_back(static_cast<double>(msgs - prev_msgs) / (n * dt));
    ric_series.push_back(static_cast<double>(ric - prev_ric) / (n * dt));
    prev_msgs = msgs;
    prev_ric = ric;
    prev_count = snap.after_tuples;
  }
  stats::TableReporter a("Fig 3(a): messages per node per tuple",
                         "# tuples");
  a.set_x(xs);
  a.AddSeries({"TotalHops", total_series});
  a.AddSeries({"RequestRIC", ric_series});
  a.Print(std::cout);
  json.AddChart(a);

  // (b)/(c) ranked distributions.
  std::vector<std::string> labels;
  std::vector<stats::RankedDistribution> qpl_dists, sl_dists;
  for (const auto& snap : result.snapshots) {
    labels.push_back(std::to_string(snap.after_tuples) + " tuples");
    qpl_dists.push_back(bench::Ranked(snap.qpl));
    sl_dists.push_back(bench::Ranked(snap.storage));
  }
  PrintRankedFigure(std::cout, "Fig 3(b): query processing load", labels,
                    qpl_dists);
  PrintRankedFigure(std::cout, "Fig 3(c): storage load", labels, sl_dists);
  json.AddRankedChart("Fig 3(b): query processing load", labels, qpl_dists);
  json.AddRankedChart("Fig 3(c): storage load", labels, sl_dists);
  json.Write();
  return 0;
}
