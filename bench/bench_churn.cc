// Churn — live topology churn during the tuple stream (docs/churn.md).
//
// Not a paper figure: the paper's Section 2 assumes the DHT hides network
// dynamism; this bench measures what that dynamism costs the engine once
// joins and graceful leaves are first-class in-band events. Sweeps the
// churn rate (operations per published tuple) and reports:
//   (a) delivered answers and answers/sec vs churn rate (completeness is
//       asserted by tests; the bench tracks throughput cost),
//   (b) handoff volume: StateHandoff messages, moved records, approximate
//       bytes,
//   (c) recovery: mean rounds (virtual ticks; every hop takes one) from
//       handoff emission to installation, plus post-churn forwarded
//       payloads.

#include <chrono>
#include <iostream>

#include "bench/bench_common.h"
#include "stats/reporter.h"

using namespace rjoin;

int main() {
  const std::vector<double> kRates = {0.0, 0.1, 0.25, 0.5, 1.0};

  workload::ExperimentConfig base = bench::PaperBaseConfig(21);
  base.num_tuples = bench::ScaledCount(400);
  bench::PrintHeader("Churn: live topology churn vs throughput", base);
  bench::JsonReporter json("churn", "Live topology churn during the stream",
                           base);

  std::vector<double> xs;
  std::vector<double> answers_series, answers_per_sec_series;
  std::vector<double> handoff_msgs_series, handoff_records_series;
  std::vector<double> handoff_bytes_series, recovery_rounds_series;
  std::vector<double> forwarded_series, msgs_per_node_series;

  for (double rate : kRates) {
    workload::ExperimentConfig cfg = base;
    if (rate > 0.0) {
      workload::ChurnSpec churn;
      churn.rate = rate;
      // Half the leave victims are startup spares, the rest are joiners
      // departing again — both directions of id movement.
      churn.spare_nodes = std::max<size_t>(
          2, static_cast<size_t>(rate * cfg.num_tuples / 4));
      cfg.churn = churn;
    }
    workload::Experiment experiment(cfg);
    const auto start = std::chrono::steady_clock::now();
    auto result = experiment.Run();
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    json.AddTuplesProcessed(result.num_tuples);

    const auto& cs = experiment.engine().churn_stats();
    const uint64_t ops = cs.joins_applied + cs.leaves_applied;
    const double recovery_rounds =
        cs.handoffs_installed == 0
            ? 0.0
            : static_cast<double>(cs.handoff_recovery_ticks) /
                  static_cast<double>(cs.handoffs_installed);

    xs.push_back(rate);
    answers_series.push_back(static_cast<double>(result.answers_delivered));
    answers_per_sec_series.push_back(
        secs > 0.0 ? static_cast<double>(result.answers_delivered) / secs
                   : 0.0);
    handoff_msgs_series.push_back(static_cast<double>(cs.handoff_messages));
    handoff_records_series.push_back(static_cast<double>(
        cs.handoff_queries + cs.handoff_tuples + cs.handoff_altt +
        cs.handoff_rates));
    handoff_bytes_series.push_back(static_cast<double>(cs.handoff_bytes));
    recovery_rounds_series.push_back(recovery_rounds);
    forwarded_series.push_back(static_cast<double>(cs.forwarded_messages));
    msgs_per_node_series.push_back(result.MsgsPerNodePerTuple());

    std::cout << "rate=" << rate << ": ops=" << ops
              << " handoffs=" << cs.handoff_messages
              << " records=" << handoff_records_series.back()
              << " bytes=" << cs.handoff_bytes
              << " recovery_rounds=" << recovery_rounds
              << " forwarded=" << cs.forwarded_messages
              << " answers=" << result.answers_delivered
              << " answers/s=" << answers_per_sec_series.back() << "\n";
  }

  stats::TableReporter a("Churn (a): answers vs churn rate",
                         "churn ops per tuple");
  a.set_x(xs);
  a.AddSeries({"AnswersDelivered", answers_series});
  a.AddSeries({"AnswersPerSec", answers_per_sec_series});
  a.AddSeries({"MsgsPerNodePerTuple", msgs_per_node_series});
  a.Print(std::cout);
  json.AddChart(a);

  stats::TableReporter b("Churn (b): handoff volume", "churn ops per tuple");
  b.set_x(xs);
  b.AddSeries({"HandoffMessages", handoff_msgs_series});
  b.AddSeries({"HandoffRecords", handoff_records_series});
  b.AddSeries({"HandoffBytes", handoff_bytes_series});
  b.Print(std::cout);
  json.AddChart(b);

  stats::TableReporter c("Churn (c): recovery", "churn ops per tuple");
  c.set_x(xs);
  c.AddSeries({"RecoveryRounds", recovery_rounds_series});
  c.AddSeries({"ForwardedPayloads", forwarded_series});
  c.Print(std::cout);
  json.AddChart(c);

  // Trajectory scalars: the highest-churn point, so the cost of churn is
  // one number per PR.
  json.AddScalar("max_rate_handoff_bytes", handoff_bytes_series.back());
  json.AddScalar("max_rate_handoff_messages", handoff_msgs_series.back());
  json.AddScalar("max_rate_recovery_rounds", recovery_rounds_series.back());
  json.AddScalar("max_rate_answers_per_sec", answers_per_sec_series.back());
  json.AddScalar("zero_rate_answers_per_sec",
                 answers_per_sec_series.front());
  json.Write();
  return 0;
}
