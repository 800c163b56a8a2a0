// Figure 9 — Effect of id movement (lower-level load balancing, [19]).
//
// Setup (paper): 10^3 nodes, 2*10^4 4-way join queries, 10^3 tuples. Two
// runs of the same workload: once on a plain consistent-hashing ring, once
// with node positions rebalanced by the Karger-Ruhl-style id movement
// computed from the observed per-key load profile. Series: ranked QPL and
// SL distributions, with and without id movement.

#include <iostream>

#include "bench/bench_common.h"
#include "dht/load_balancer.h"
#include "stats/reporter.h"

using namespace rjoin;

int main() {
  workload::ExperimentConfig cfg = bench::PaperBaseConfig(9);
  cfg.num_tuples = bench::ScaledCount(1000);
  cfg.rewrite_levels = core::RewriteIndexLevels::kIncludeAttribute;
  bench::PrintHeader("Figure 9: effect of id movement", cfg);
  bench::JsonReporter json("fig9_idmove", "Figure 9: effect of id movement",
                           cfg);

  workload::Experiment baseline(cfg);
  auto base_result = baseline.Run();
  json.AddTuplesProcessed(base_result.num_tuples);
  auto profile = baseline.KeyLoadProfile();

  workload::ExperimentConfig balanced_cfg = cfg;
  balanced_cfg.node_positions =
      dht::IdMovementBalancer::ComputeBalancedPositions(profile,
                                                        cfg.num_nodes);
  workload::Experiment balanced(balanced_cfg);
  auto bal_result = balanced.Run();
  json.AddTuplesProcessed(bal_result.num_tuples);

  stats::PrintRankedFigure(
      std::cout, "Fig 9(a): query processing load",
      {"Without", "WithIdMove"},
      {bench::Ranked(base_result.final_snapshot.qpl),
       bench::Ranked(bal_result.final_snapshot.qpl)});
  stats::PrintRankedFigure(
      std::cout, "Fig 9(b): storage load",
      {"Without", "WithIdMove"},
      {bench::Ranked(base_result.final_snapshot.storage),
       bench::Ranked(bal_result.final_snapshot.storage)});

  const auto gb = bench::Ranked(base_result.final_snapshot.storage);
  const auto gw = bench::Ranked(bal_result.final_snapshot.storage);
  std::cout << "storage gini without=" << gb.gini() << " with=" << gw.gini()
            << "\n";
  json.AddRankedChart("Fig 9(a): query processing load",
                      {"Without", "WithIdMove"},
                      {bench::Ranked(base_result.final_snapshot.qpl),
                       bench::Ranked(bal_result.final_snapshot.qpl)});
  json.AddRankedChart("Fig 9(b): storage load", {"Without", "WithIdMove"},
                      {gb, gw});
  json.AddScalar("storage_gini_without", gb.gini());
  json.AddScalar("storage_gini_with", gw.gini());
  json.Write();
  return 0;
}
