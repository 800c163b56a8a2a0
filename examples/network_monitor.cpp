// Network monitoring over a DHT — the class of application that motivates
// continuous multi-way joins (intrusion-detection style correlation of
// several event streams, cf. the distributed-triggers and stream-monitoring
// work the paper cites).
//
// Three append-only streams are published by sensor nodes all over the
// overlay:
//   Alerts(host, sig, severity)  — IDS alerts
//   Flows(src, dst, bytes)       — flow records
//   Logins(host, user, ok)       — authentication events
//
// The monitoring query correlates them inside a sliding window: an alert on
// a host that also shows a large inbound flow and a failed login within the
// same window is worth reporting.

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

int main() {
  auto network = dht::ChordNetwork::Create(64, 3);
  sim::FixedLatency latency(1);
  stats::MetricsRegistry metrics(network->num_total());
  sim::Simulator simulator(&metrics, 99);
  dht::Transport transport(network.get(), &simulator, &latency);

  sql::Catalog catalog;
  (void)catalog.AddRelation(sql::Schema("Alerts", {"host", "sig", "sev"}));
  (void)catalog.AddRelation(sql::Schema("Flows", {"src", "dst", "bytes"}));
  (void)catalog.AddRelation(sql::Schema("Logins", {"host", "user", "ok"}));

  core::EngineConfig config;
  core::RJoinEngine engine(config, &catalog, network.get(), &transport,
                           &simulator);

  // The security console at node 0 watches for correlated incidents within
  // a 64-tuple sliding window; only failed logins (ok = 0) are relevant.
  auto qid = engine.SubmitQuerySql(
      0,
      "SELECT Alerts.host, Alerts.sig, Flows.src, Logins.user "
      "FROM Alerts, Flows, Logins "
      "WHERE Alerts.host = Flows.dst AND Flows.dst = Logins.host "
      "AND Logins.ok = 0 "
      "WINDOW 64 TUPLES");
  if (!qid.ok()) {
    std::cerr << qid.status().ToString() << "\n";
    return 1;
  }
  simulator.Run();

  // Sensors publish events; host 7 is under attack around event 40.
  Rng rng(7);
  auto rand_node = [&] {
    return static_cast<dht::NodeIndex>(rng.NextBounded(64));
  };
  auto I = [](int64_t v) { return sql::Value::Int(v); };
  for (int i = 0; i < 120; ++i) {
    const int64_t host = static_cast<int64_t>(rng.NextBounded(16));
    switch (i % 3) {
      case 0:
        (void)engine.PublishTuple(rand_node(), "Flows",
                                  {I(host), I((i > 35 && i < 60) ? 7 : host),
                                   I(1000 + i)});
        break;
      case 1:
        (void)engine.PublishTuple(
            rand_node(), "Logins",
            {I((i > 35 && i < 60) ? 7 : host), I(100 + host),
             I(i % 5 == 1 ? 0 : 1)});
        break;
      default:
        (void)engine.PublishTuple(rand_node(), "Alerts",
                                  {I(i > 38 && i < 55 ? 7 : host),
                                   I(4000 + (i % 3)), I(i % 4)});
        break;
    }
    simulator.Run();
    simulator.RunUntil(simulator.Now() + 4);
    if (i % 16 == 15) engine.SweepWindows();
  }

  const auto incidents = engine.AnswersFor(*qid);
  std::cout << "correlated incidents: " << incidents.size() << "\n";
  for (size_t i = 0; i < incidents.size() && i < 5; ++i) {
    const auto& row = incidents[i].row;
    std::cout << "  host=" << row[0].ToDisplayString()
              << " sig=" << row[1].ToDisplayString()
              << " flow-src=" << row[2].ToDisplayString()
              << " user=" << row[3].ToDisplayString() << "\n";
  }
  std::cout << "network cost: " << metrics.total_messages()
            << " messages across " << network->num_alive() << " nodes\n";
  return incidents.empty() ? 1 : 0;
}
