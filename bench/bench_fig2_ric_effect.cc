// Figure 2 — Effect of taking into account RIC information.
//
// Setup (paper): 10^3 nodes, 2*10^4 4-way join queries, theta = 0.9;
// snapshots after 50/100/200/400 tuples. Three planners are compared:
// Worst (always the worst placement), Random, and RJoin (RIC-driven), with
// RJoin's RIC-request traffic shown separately.
//
// Series reproduced: (a) total messages per node, (b) query processing load
// per node, (c) storage load per node.

#include <iostream>

#include "bench/bench_common.h"
#include "stats/reporter.h"

using namespace rjoin;

int main() {
  const std::vector<size_t> kCheckpoints =
      bench::ScaledCounts({50, 100, 200, 400});

  struct Variant {
    const char* label;
    core::PlannerPolicy policy;
    bool charge_ric;
  };
  const Variant kVariants[] = {
      {"Worst", core::PlannerPolicy::kWorst, false},
      {"Random", core::PlannerPolicy::kRandom, false},
      {"RJoin", core::PlannerPolicy::kRic, true},
  };

  workload::ExperimentConfig base = bench::PaperBaseConfig(2);
  base.num_tuples = kCheckpoints.back();
  base.checkpoints = kCheckpoints;
  // Full Section 6 candidate set: value triples and attribute pairs. This
  // is what lets "Worst" pick genuinely terrible placements.
  base.rewrite_levels = core::RewriteIndexLevels::kIncludeAttribute;
  bench::PrintHeader("Figure 2: effect of RIC information", base);
  bench::JsonReporter json("fig2_ric_effect",
                           "Figure 2: effect of RIC information", base);

  std::vector<std::vector<double>> msgs(3), qpl(3), storage(3);
  std::vector<double> ric_requests;

  for (size_t v = 0; v < 3; ++v) {
    workload::ExperimentConfig cfg = base;
    cfg.policy = kVariants[v].policy;
    cfg.charge_ric = kVariants[v].charge_ric;
    workload::Experiment experiment(cfg);
    auto result = experiment.Run();
    json.AddTuplesProcessed(result.num_tuples);
    for (const auto& snap : result.snapshots) {
      msgs[v].push_back(bench::PerNode(snap.messages));
      qpl[v].push_back(bench::PerNode(snap.qpl));
      storage[v].push_back(bench::PerNode(snap.storage));
      if (kVariants[v].policy == core::PlannerPolicy::kRic) {
        ric_requests.push_back(bench::PerNode(snap.ric_messages));
      }
    }
  }

  std::vector<double> xs(kCheckpoints.begin(), kCheckpoints.end());

  stats::TableReporter a("Fig 2(a): total messages per node", "# tuples");
  a.set_x(xs);
  for (size_t v = 0; v < 3; ++v) {
    a.AddSeries({kVariants[v].label, msgs[v]});
  }
  a.AddSeries({"RequestRIC", ric_requests});
  a.Print(std::cout);
  json.AddChart(a);

  stats::TableReporter b("Fig 2(b): query processing load per node",
                         "# tuples");
  b.set_x(xs);
  for (size_t v = 0; v < 3; ++v) {
    b.AddSeries({kVariants[v].label, qpl[v]});
  }
  b.Print(std::cout);
  json.AddChart(b);

  stats::TableReporter c("Fig 2(c): storage load per node", "# tuples");
  c.set_x(xs);
  for (size_t v = 0; v < 3; ++v) {
    c.AddSeries({kVariants[v].label, storage[v]});
  }
  c.Print(std::cout);
  json.AddChart(c);
  json.Write();

  return 0;
}
