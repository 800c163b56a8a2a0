// Message delays and the attribute-level tuple table (Section 4).
//
// Example 1 of the paper: a query and a matching tuple race through the
// network; if the tuple reaches the rendezvous node first and is discarded,
// the answer is lost. The ALTT keeps attribute-level tuples for Delta so
// the delayed query still meets them (eventual completeness, Theorem 1).
//
// This example runs the race under heavy-traffic latencies with and
// without the ALTT and reports how many interleavings lose answers.

#include <iostream>

#include "core/engine.h"
#include "dht/chord_network.h"
#include "dht/transport.h"
#include "sim/latency.h"
#include "sim/simulator.h"
#include "sql/schema.h"
#include "stats/metrics.h"

using namespace rjoin;

namespace {

/// Runs the Example-1 race once; returns true iff the answer arrived.
bool RaceOnce(uint64_t seed, bool enable_altt) {
  auto network = dht::ChordNetwork::Create(32, seed);
  // Heavy network traffic: one hop in ten takes 80 ticks instead of 1.
  sim::BurstyLatency latency(1, 80, 0.1);
  stats::MetricsRegistry metrics(network->num_total());
  sim::Simulator simulator(&metrics, seed * 17);
  dht::Transport transport(network.get(), &simulator, &latency);

  sql::Catalog catalog;
  (void)catalog.AddRelation(sql::Schema("R", {"A1", "A2", "A3"}));
  (void)catalog.AddRelation(sql::Schema("S", {"B1", "B2", "B3"}));

  core::EngineConfig config;
  config.enable_altt = enable_altt;
  config.altt_delta = 1 << 16;  // A comfortable overestimate of Delta.
  core::RJoinEngine engine(config, &catalog, network.get(), &transport,
                           &simulator);

  // The query of Example 1, submitted at T0...
  auto qid = engine.SubmitQuerySql(
      0, "SELECT R.A1, S.B1 FROM R, S WHERE R.A2 = S.B2");
  if (!qid.ok()) {
    std::cerr << qid.status().ToString() << "\n";
    return false;
  }
  // ...while matching tuples are published concurrently (pubT >= insT, but
  // the tuple may win the race to Successor(Hash(R + A2))).
  auto I = [](int64_t v) { return sql::Value::Int(v); };
  (void)engine.PublishTuple(5, "R", {I(1), I(2), I(3)});
  (void)engine.PublishTuple(9, "S", {I(10), I(2), I(30)});
  simulator.Run();

  return !engine.AnswersFor(*qid).empty();
}

}  // namespace

int main() {
  const int kRuns = 40;
  int lost_without = 0, lost_with = 0;
  for (uint64_t seed = 1; seed <= kRuns; ++seed) {
    if (!RaceOnce(seed, /*enable_altt=*/false)) ++lost_without;
    if (!RaceOnce(seed, /*enable_altt=*/true)) ++lost_with;
  }
  std::cout << "Example-1 race over " << kRuns << " interleavings:\n";
  std::cout << "  without ALTT: " << lost_without << " lost answers\n";
  std::cout << "  with ALTT:    " << lost_with << " lost answers\n";
  if (lost_with != 0) {
    std::cerr << "ALTT must never lose answers (Theorem 1)\n";
    return 1;
  }
  std::cout << "The ALTT recovers every racy interleaving, as Theorem 1 "
               "promises.\n";
  return 0;
}
