// Runtime scaling — serial simulator vs the sharded parallel runtime at
// S = {1, 2, 4, 8} worker threads on the Figure-3-style workload (paper
// base setup, full Section 6 candidate set), streamed in pipelined mode so
// cascades from many tuples are in flight at once — the steady-state load a
// production deployment would see.
//
// Reported: wall-clock seconds and tuples/sec per configuration, plus
// speedups relative to the 1-shard runtime (S >= 1 runs execute the
// identical event schedule, so the speedup is pure runtime efficiency; the
// serial row uses live RIC rates and is listed for reference). Shard counts
// above the machine's core count cannot speed up — "hardware_threads"
// records what the numbers were measured on.

#include <algorithm>
#include <chrono>
#include <iostream>
#include <vector>

#include "bench/bench_common.h"
#include "stats/reporter.h"
#include "util/logging.h"

using namespace rjoin;

namespace {

struct Row {
  std::string label;
  uint32_t shards = 0;  // 0 = serial simulator
  double wall_seconds = 0;
  double tuples_per_sec = 0;
  uint64_t answers = 0;
  uint64_t total_messages = 0;
  uint64_t watermark_stalls = 0;  // worker park episodes (perf signal)
  double overlap_ratio = 0;       // barriers eliminated vs lockstep rounds
};

Row RunConfig(workload::ExperimentConfig cfg, uint32_t shards,
              const std::string& label) {
  cfg.shards = shards;
  workload::Experiment experiment(cfg);
  const auto start = std::chrono::steady_clock::now();
  auto result = experiment.Run();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  Row row;
  row.label = label;
  row.shards = workload::ResolveShardCount(shards);  // kForceSerial -> 0
  row.wall_seconds = wall;
  row.tuples_per_sec =
      wall > 0 ? static_cast<double>(result.num_tuples) / wall : 0;
  row.answers = result.answers_delivered;
  row.total_messages = result.per_tuple.back().total_messages;
  if (experiment.runtime() != nullptr) {
    const auto sched = experiment.runtime()->scheduler_stats();
    row.watermark_stalls = sched.watermark_stalls;
    row.overlap_ratio = sched.overlap_ratio();
  }
  return row;
}

}  // namespace

int main() {
  workload::ExperimentConfig cfg = bench::PaperBaseConfig(3);
  cfg.num_tuples = bench::ScaledCount(2560);
  cfg.rewrite_levels = core::RewriteIndexLevels::kIncludeAttribute;
  cfg.pipeline_stream = true;  // keep many tuple cascades in flight
  cfg.tuple_gap = 8;
  // Epochs stretch to RIC-epoch boundaries and shards overlap freely in
  // between, with exact 1-tick message timing throughout.
  bench::PrintHeader("Runtime scaling: serial vs sharded workers", cfg);
  bench::JsonReporter json("runtime_scaling",
                           "Runtime scaling: serial vs sharded workers", cfg);

  bench::RunRepeated(json, [&] {
    std::vector<Row> rows;
    // kForceSerial, not 0: the baseline must stay on the legacy serial
    // simulator even when RJOIN_SHARDS is set (as in the sharded CI job).
    rows.push_back(RunConfig(cfg, workload::ExperimentConfig::kForceSerial,
                             "serial simulator"));
    json.AddTuplesProcessed(cfg.num_tuples);
    for (uint32_t s : {1u, 2u, 4u, 8u}) {
      rows.push_back(RunConfig(cfg, s, "shards=" + std::to_string(s)));
      json.AddTuplesProcessed(cfg.num_tuples);
    }

    // Sharded runs execute one deterministic schedule: any divergence
    // between S values is a runtime bug, so check it on every bench run.
    for (size_t i = 2; i < rows.size(); ++i) {
      RJOIN_CHECK(rows[i].answers == rows[1].answers &&
                  rows[i].total_messages == rows[1].total_messages)
          << rows[i].label << " diverged from shards=1: answers "
          << rows[i].answers << " vs " << rows[1].answers << ", messages "
          << rows[i].total_messages << " vs " << rows[1].total_messages;
    }

    const double base_tps = rows[1].tuples_per_sec;  // shards=1 runtime
    std::vector<double> xs;
    stats::Series tps{"tuples_per_sec", {}}, wall{"wall_seconds", {}},
        speedup{"speedup_vs_s1", {}};
    printf("%-18s %12s %14s %12s %12s %14s %10s %9s\n", "config", "wall s",
           "tuples/s", "speedup", "answers", "messages", "stalls", "overlap");
    for (const Row& r : rows) {
      const double sp = base_tps > 0 ? r.tuples_per_sec / base_tps : 0;
      xs.push_back(static_cast<double>(r.shards));
      tps.values.push_back(r.tuples_per_sec);
      wall.values.push_back(r.wall_seconds);
      speedup.values.push_back(sp);
      printf("%-18s %12.3f %14.0f %11.2fx %12llu %14llu %10llu %9.3f\n",
             r.label.c_str(), r.wall_seconds, r.tuples_per_sec, sp,
             static_cast<unsigned long long>(r.answers),
             static_cast<unsigned long long>(r.total_messages),
             static_cast<unsigned long long>(r.watermark_stalls),
             r.overlap_ratio);
      json.AddScalar(r.label + " tuples_per_sec", r.tuples_per_sec);
    }
    // Scheduler-health trajectory scalars, from the widest sharded run: the
    // overlap ratio is the fraction of the old lockstep barrier schedule the
    // watermark model eliminated (deterministic); stalls count worker park
    // episodes (wall-clock-dependent, perf signal only).
    const Row& widest = rows.back();
    json.AddScalar("watermark_stalls",
                   static_cast<double>(widest.watermark_stalls));
    json.AddScalar("overlap_ratio", widest.overlap_ratio);
    json.AddChart("Streaming throughput vs worker shards",
                  "shards (0 = serial)", xs, {tps, wall, speedup});
    json.AddScalar("speedup_s2_vs_s1", speedup.values[2]);
    json.AddScalar("speedup_s4_vs_s1", speedup.values[3]);
    json.AddScalar("speedup_s8_vs_s1", speedup.values[4]);
    // The trajectory scalar: best sharded throughput over the legacy serial
    // simulator (rows[0]); bounded by hardware_threads on small machines.
    double best_sharded_tps = 0;
    for (size_t i = 1; i < rows.size(); ++i) {
      best_sharded_tps = std::max(best_sharded_tps, rows[i].tuples_per_sec);
    }
    json.AddSpeedup("speedup_sharded_vs_serial", rows[0].tuples_per_sec,
                    best_sharded_tps);
  });
  json.Write();

  json.PrintMessagePlane(std::cout);

  std::cout << "All sharded runs produced identical answers and message "
               "counts (checked).\nSpeedup is bounded by hardware_threads; "
               "see BENCH_runtime_scaling.json.\n";
  return 0;
}
