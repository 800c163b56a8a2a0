// Failures — silent node crashes vs the replication factor
// (docs/failures.md).
//
// Not a paper figure: Section 2 of the paper delegates fault tolerance to
// the DHT's successor-list replication and never measures it. This bench
// quantifies that delegation once crashes are first-class in-band events:
//   (a) steady-state replication overhead vs r — mirror messages/sec,
//       mirrored bytes, and the answer-throughput cost of write-through
//       mirroring (r=1 is the replication-off baseline),
//   (b) answer loss vs r on the reference fault trace — delivered rows
//       against the uncrashed centralized oracle (with r>=2 a single kill
//       must lose nothing; the CI gate pins answer_loss_rate to 0),
//   (c) recovery latency — rounds (virtual ticks; every hop takes one)
//       from the crash-detection generation bump to replica-promotion
//       install (p50/p99).

#include <algorithm>
#include <chrono>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "sql/evaluator.h"
#include "stats/reporter.h"
#include "workload/churn.h"

using namespace rjoin;

namespace {

double Percentile(std::vector<uint64_t> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t idx = std::min(
      v.size() - 1, static_cast<size_t>(p * static_cast<double>(v.size())));
  return static_cast<double>(v[idx]);
}

}  // namespace

int main() {
  const std::vector<uint32_t> kReplication = {1, 2, 3};

  workload::ExperimentConfig base = bench::PaperBaseConfig(23);
  base.num_tuples = bench::ScaledCount(400);
  bench::PrintHeader("Failures: silent crashes vs replication factor", base);
  bench::JsonReporter json("failures",
                           "Silent-failure recovery vs replication factor",
                           base);

  bench::RunRepeated(json, [&] {
    std::vector<double> xs;
    std::vector<double> mirror_msgs_series, mirror_bytes_series;
    std::vector<double> answers_per_sec_series, msgs_per_node_series;
    std::vector<double> loss_series, promoted_series;
    std::vector<double> recovery_p50_series, recovery_p99_series;

    for (uint32_t r : kReplication) {
      // ---- (a) overhead run: paper-scale stream, a small crash storm ----
      workload::ExperimentConfig cfg = base;
      cfg.replication = r;
      {
        workload::ChurnSpec churn;
        churn.spare_nodes = 4;
        workload::FaultPlan faults;
        faults.crashes = 4;
        churn.faults = faults;
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
      const auto& rs = experiment.engine().replication_stats();

      // ---- (b) loss run: oracle-checked reference fault trace ----------
      // Small enough that the centralized oracle is cheap, same shape as
      // the failure_recovery_test battery: six independent kills spread across the stream.
      workload::ExperimentConfig ref;
      ref.num_nodes = 40;
      ref.num_queries = 100;
      ref.num_tuples = 48;
      ref.way = 3;
      ref.workload.num_relations = 6;
      ref.workload.num_attributes = 4;
      ref.workload.num_values = 25;
      ref.seed = 9;
      ref.keep_history = true;
      ref.replication = r;
      {
        workload::ChurnSpec churn;
        churn.spare_nodes = 6;
        workload::FaultPlan faults;
        faults.crashes = 6;
        churn.faults = faults;
        ref.churn = churn;
      }
      workload::Experiment loss_run(ref);
      auto loss_result = loss_run.Run();
      json.AddTuplesProcessed(loss_result.num_tuples);

      // Delivered rows per query vs the uncrashed oracle over the full
      // published history. Under crashes delivered is a subset of oracle,
      // so the ratio of totals is the loss rate.
      std::map<uint64_t, size_t> delivered;
      for (const core::Answer& a : loss_run.engine().answers()) {
        ++delivered[a.query_id];
      }
      sql::CentralizedEvaluator oracle(&loss_run.catalog());
      uint64_t oracle_rows = 0, got_rows = 0;
      for (uint64_t qid = 1; qid <= ref.num_queries; ++qid) {
        auto iq = loss_run.engine().FindQuery(qid);
        if (iq == nullptr) continue;
        oracle_rows += oracle
                           .Evaluate(iq->spec(), iq->ins_time(),
                                     loss_run.engine().history())
                           .size();
        auto it = delivered.find(qid);
        if (it != delivered.end()) got_rows += it->second;
      }
      const double loss =
          oracle_rows == 0
              ? 0.0
              : 1.0 - static_cast<double>(got_rows) /
                          static_cast<double>(oracle_rows);

      const std::vector<uint64_t> ticks =
          loss_run.engine().promotion_recovery_ticks();
      const double p50 = Percentile(ticks, 0.50);
      const double p99 = Percentile(ticks, 0.99);

      xs.push_back(static_cast<double>(r));
      mirror_msgs_series.push_back(
          secs > 0.0 ? static_cast<double>(rs.replica_updates) / secs : 0.0);
      mirror_bytes_series.push_back(static_cast<double>(rs.replica_bytes));
      answers_per_sec_series.push_back(
          secs > 0.0 ? static_cast<double>(result.answers_delivered) / secs
                     : 0.0);
      msgs_per_node_series.push_back(result.MsgsPerNodePerTuple());
      loss_series.push_back(loss);
      promoted_series.push_back(static_cast<double>(
          loss_run.engine().replication_stats().promoted_records));
      recovery_p50_series.push_back(p50);
      recovery_p99_series.push_back(p99);

      std::cout << "r=" << r << ": mirror_msgs/s=" << mirror_msgs_series.back()
                << " replica_bytes=" << rs.replica_bytes
                << " answers/s=" << answers_per_sec_series.back()
                << " | reference trace: loss=" << loss << " (" << got_rows
                << "/" << oracle_rows << " rows)"
                << " promoted=" << promoted_series.back()
                << " recovery_rounds_p50=" << p50 << " p99=" << p99 << "\n";
    }

    stats::TableReporter a("Failures (a): replication overhead",
                           "replication factor r");
    a.set_x(xs);
    a.AddSeries({"MirrorMsgsPerSec", mirror_msgs_series});
    a.AddSeries({"ReplicaBytes", mirror_bytes_series});
    a.AddSeries({"AnswersPerSec", answers_per_sec_series});
    a.AddSeries({"MsgsPerNodePerTuple", msgs_per_node_series});
    a.Print(std::cout);
    json.AddChart(a);

    stats::TableReporter b("Failures (b): answer loss on reference trace",
                           "replication factor r");
    b.set_x(xs);
    b.AddSeries({"AnswerLossRate", loss_series});
    b.AddSeries({"PromotedRecords", promoted_series});
    b.Print(std::cout);
    json.AddChart(b);

    stats::TableReporter c("Failures (c): crash recovery rounds",
                           "replication factor r");
    c.set_x(xs);
    c.AddSeries({"RecoveryRoundsP50", recovery_p50_series});
    c.AddSeries({"RecoveryRoundsP99", recovery_p99_series});
    c.Print(std::cout);
    json.AddChart(c);

    // Trajectory scalars: the r=2 point is the recommended configuration
    // (first successor mirrors; single kills lose nothing), r=1 the
    // baseline contrast the CI gate checks against.
    json.AddScalar("replication_msgs_per_sec", mirror_msgs_series[1]);
    json.AddScalar("replica_bytes", mirror_bytes_series[1]);
    json.AddScalar("answer_loss_rate", loss_series[1]);
    json.AddScalar("answer_loss_rate_r1", loss_series[0]);
    json.AddScalar("recovery_rounds_p99", recovery_p99_series[1]);
    json.AddScalar("answers_per_sec_replication_off",
                   answers_per_sec_series[0]);
    json.AddScalar("answers_per_sec_r2", answers_per_sec_series[1]);
  });
  json.Write();
  return 0;
}
