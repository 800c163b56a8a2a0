// Quickstart: a 32-node Chord network evaluating one continuous 3-way join.
//
// Reproduces the running example of the paper (Figure 1): the query is
// submitted first, tuples stream in afterwards, and RJoin incrementally
// rewrites and re-indexes the query until answers form.

#include <iostream>

#include "core/engine.h"
#include "dht/chord_network.h"
#include "dht/transport.h"
#include "sim/latency.h"
#include "sim/simulator.h"
#include "sql/schema.h"
#include "stats/metrics.h"

using namespace rjoin;

int main() {
  // 1. The substrate: a stabilized 32-node Chord overlay, a discrete-event
  //    simulator, and the hop-counting message transport.
  auto network = dht::ChordNetwork::Create(32, /*seed=*/7);
  sim::FixedLatency latency(1);
  stats::MetricsRegistry metrics(network->num_total());
  sim::Simulator simulator(&metrics, 1234);
  dht::Transport transport(network.get(), &simulator, &latency);

  // 2. The schema: three append-only relations.
  sql::Catalog catalog;
  (void)catalog.AddRelation(sql::Schema("R", {"A", "B", "C"}));
  (void)catalog.AddRelation(sql::Schema("S", {"A", "B", "C"}));
  (void)catalog.AddRelation(sql::Schema("M", {"B", "C", "D"}));

  // 3. The engine, with the paper's defaults (RIC planning + ALTT).
  core::EngineConfig config;
  config.keep_history = true;
  core::RJoinEngine engine(config, &catalog, network.get(), &transport,
                           &simulator);

  // 4. Node 0 submits a continuous 3-way join.
  auto qid = engine.SubmitQuerySql(
      0, "SELECT R.B, M.D FROM R, S, M WHERE R.A = S.A AND S.B = M.B");
  if (!qid.ok()) {
    std::cerr << "submit failed: " << qid.status().ToString() << "\n";
    return 1;
  }
  simulator.Run();

  // 5. Tuples arrive over time, published by different nodes.
  auto publish = [&](dht::NodeIndex node, const std::string& rel,
                     std::vector<int64_t> ints) {
    std::vector<sql::Value> vals;
    for (int64_t v : ints) vals.push_back(sql::Value::Int(v));
    auto t = engine.PublishTuple(node, rel, std::move(vals));
    if (!t.ok()) std::cerr << "publish failed: " << t.status().ToString() << "\n";
    simulator.Run();
  };

  publish(3, "R", {2, 5, 8});    // R(2,5,8): triggers the input query
  publish(9, "M", {6, 1, 42});   // M(6,1,42): stored, waits for the rewrite
  publish(17, "S", {2, 6, 3});   // S(2,6,3): joins R on A=2, M on B=6

  // 6. Answers were delivered directly to node 0, the query owner.
  std::cout << "answers for query " << *qid << ":\n";
  for (const core::Answer& a : engine.AnswersFor(*qid)) {
    std::cout << "  (";
    for (size_t i = 0; i < a.row.size(); ++i) {
      if (i > 0) std::cout << ", ";
      std::cout << a.row[i].ToDisplayString();
    }
    std::cout << ")  delivered at t=" << a.delivered_at << "\n";
  }

  std::cout << "network totals: " << metrics.total_messages()
            << " messages, QPL " << metrics.total_qpl() << ", stored items "
            << metrics.total_storage() << "\n";
  return engine.AnswersFor(*qid).empty() ? 1 : 0;
}
