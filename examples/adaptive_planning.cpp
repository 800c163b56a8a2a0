// Adaptive planning with RIC information (Sections 6-7).
//
// Two engines evaluate the same continuous joins over the same streams. One
// indexes queries at the first WHERE-clause expression (the naive Section 3
// strategy); the other requests rate-of-incoming-tuple (RIC) information
// and places queries where few tuples arrive. The rate-skewed workload —
// one hot stream, one trickle — makes the difference visible directly.

#include <iostream>

#include "core/engine.h"
#include "dht/chord_network.h"
#include "dht/transport.h"
#include "sim/latency.h"
#include "sim/simulator.h"
#include "sql/schema.h"
#include "stats/metrics.h"
#include "util/random.h"

using namespace rjoin;

namespace {

struct Run {
  uint64_t messages = 0;
  uint64_t qpl = 0;
  uint64_t answers = 0;
};

Run Evaluate(core::PlannerPolicy policy) {
  auto network = dht::ChordNetwork::Create(64, 11);
  sim::FixedLatency latency(1);
  stats::MetricsRegistry metrics(network->num_total());
  sim::Simulator simulator(&metrics, 5);
  dht::Transport transport(network.get(), &simulator, &latency);

  sql::Catalog catalog;
  // Clicks is a firehose; Purchases is a trickle.
  (void)catalog.AddRelation(sql::Schema("Clicks", {"user", "page"}));
  (void)catalog.AddRelation(sql::Schema("Purchases", {"user", "amount"}));

  core::EngineConfig config;
  config.policy = policy;
  core::RJoinEngine engine(config, &catalog, network.get(), &transport,
                           &simulator);

  Rng rng(21);
  auto I = [](int64_t v) { return sql::Value::Int(v); };

  // Stream history so RIC has a last window to look at: ~50 clicks per
  // purchase.
  for (int i = 0; i < 200; ++i) {
    (void)engine.ObserveStreamHistory(
        "Clicks", {I(static_cast<int64_t>(rng.NextBounded(50))),
                   I(static_cast<int64_t>(rng.NextBounded(1000)))});
    if (i % 50 == 0) {
      (void)engine.ObserveStreamHistory(
          "Purchases", {I(static_cast<int64_t>(rng.NextBounded(50))),
                        I(static_cast<int64_t>(rng.NextBounded(100)))});
    }
  }

  // 40 analysts watch for purchases attributable to clicks. A query indexed
  // under Clicks.user is rewritten on *every* click; indexed under
  // Purchases.user it is rewritten only on the rare purchases.
  for (int i = 0; i < 40; ++i) {
    auto qid = engine.SubmitQuerySql(
        static_cast<dht::NodeIndex>(i % 64),
        "SELECT Clicks.page, Purchases.amount FROM Clicks, Purchases "
        "WHERE Clicks.user = Purchases.user");
    if (!qid.ok()) std::cerr << qid.status().ToString() << "\n";
  }
  simulator.Run();

  for (int i = 0; i < 600; ++i) {
    const auto node = static_cast<dht::NodeIndex>(rng.NextBounded(64));
    if (i % 50 == 17) {
      (void)engine.PublishTuple(
          node, "Purchases", {I(static_cast<int64_t>(rng.NextBounded(50))),
                              I(static_cast<int64_t>(rng.NextBounded(100)))});
    } else {
      (void)engine.PublishTuple(
          node, "Clicks", {I(static_cast<int64_t>(rng.NextBounded(50))),
                           I(static_cast<int64_t>(rng.NextBounded(1000)))});
    }
    simulator.Run();
    simulator.RunUntil(simulator.Now() + 2);
  }

  Run out;
  out.messages = metrics.total_messages();
  out.qpl = metrics.total_qpl();
  out.answers = metrics.answers_delivered();
  return out;
}

}  // namespace

int main() {
  const Run naive = Evaluate(core::PlannerPolicy::kFirstInClause);
  const Run ric = Evaluate(core::PlannerPolicy::kRic);

  std::cout << "strategy            messages        QPL    answers\n";
  std::cout << "first-in-clause   " << naive.messages << "   " << naive.qpl
            << "   " << naive.answers << "\n";
  std::cout << "RIC (RJoin)       " << ric.messages << "   " << ric.qpl
            << "   " << ric.answers << "\n";

  if (ric.answers != naive.answers) {
    std::cerr << "planning must not change the answers!\n";
    return 1;
  }
  if (ric.qpl >= naive.qpl) {
    std::cerr << "expected RIC planning to reduce query processing load\n";
    return 1;
  }
  std::cout << "RIC planning saved "
            << 100.0 - 100.0 * static_cast<double>(ric.qpl) /
                           static_cast<double>(naive.qpl)
            << "% of query processing load, with identical answers.\n";
  return 0;
}
