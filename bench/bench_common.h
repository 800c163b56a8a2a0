#ifndef RJOIN_BENCH_BENCH_COMMON_H_
#define RJOIN_BENCH_BENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "stats/alloc_tracker.h"
#include "stats/distribution.h"
#include "stats/reporter.h"
#include "stats/trace.h"
#include "workload/experiment.h"

namespace rjoin::bench {

/// The paper's Section 8 base setup (10^3 nodes, 2*10^4 4-way joins,
/// theta = 0.9), scaled by RJOIN_SCALE (default 0.25 so the whole bench
/// suite runs in minutes; RJOIN_SCALE=paper for full size).
workload::ExperimentConfig PaperBaseConfig(uint64_t seed = 1);

/// The scale factor applied, for the printed header.
double AppliedScale();

/// Scales a paper-sized count (tuples, window sizes, checkpoints) by
/// RJOIN_SCALE. Continuous joins without windows accumulate state
/// quadratically in the tuple count, so the tuple axis must shrink together
/// with the query/node axes to keep scaled runs proportionate.
size_t ScaledCount(size_t paper_count);

/// ScaledCount over a whole axis.
std::vector<size_t> ScaledCounts(std::vector<size_t> paper_counts);

/// Prints a standard header naming the figure and the effective setup.
void PrintHeader(const std::string& figure,
                 const workload::ExperimentConfig& cfg);

/// Sum of a per-node load vector.
uint64_t SumLoads(const std::vector<uint64_t>& loads);

/// Average per node.
double PerNode(const std::vector<uint64_t>& loads);

/// Ranked distribution of one snapshot metric.
stats::RankedDistribution Ranked(const std::vector<uint64_t>& loads);

/// Directory BENCH_*.json files are written to: $RJOIN_BENCH_OUT, or the
/// working directory when unset. A missing directory is created (and the
/// bench aborts loudly if that fails) so pointing RJOIN_BENCH_OUT at a
/// fresh path never silently drops the results.
std::string BenchOutDir();

/// Number of times each figure body runs: $RJOIN_BENCH_REPEAT clamped to
/// [1, 32], default 1. Repeats quantify run-to-run noise on a machine —
/// one fast run is a point estimate, the median of N is a measurement.
size_t BenchRepeat();

class JsonReporter;

/// Runs `body` BenchRepeat() times, timing each repeat and snapshotting the
/// reporter's tuple counter around it. With N > 1, records the scalars
/// "bench_repeats", "tuples_per_sec_median", "tuples_per_sec_spread"
/// ((max - min) / median), and "wall_seconds_median" on `json`. Charts and
/// named scalars the body re-adds overwrite their previous repeat's values
/// (see JsonReporter::UpsertChart), so the emitted JSON has one copy of
/// everything regardless of N. Repeats re-run the same seeds: virtual-cost
/// results are identical, only wall-clock timing varies.
void RunRepeated(JsonReporter& json, const std::function<void()>& body);

/// Machine-readable bench output: collects the figure's charts and writes
/// them as `BENCH_<figure>.json` so the perf trajectory across PRs can be
/// diffed and plotted without scraping the printed tables.
///
/// Layout:
///   {"figure": ..., "title": ..., "scale": ...,
///    "config": {nodes/queries/tuples/way/theta/policy/...},
///    "scalars": {...},
///    "charts": [{"title", "x_label", "x": [...],
///                "series": [{"label", "values": [...]}]}]}
class JsonReporter {
 public:
  struct Chart {
    std::string title;
    std::string x_label;
    std::vector<double> xs;
    std::vector<stats::Series> series;
  };

  /// `figure` is the file slug (BENCH_<figure>.json); `title` the printed
  /// figure name; `cfg` the base experiment setup recorded under "config".
  JsonReporter(std::string figure, std::string title,
               const workload::ExperimentConfig& cfg);

  /// One chart: an x axis plus labeled series (same shape TableReporter
  /// prints).
  void AddChart(const std::string& title, const std::string& x_label,
                std::vector<double> xs, std::vector<stats::Series> series);

  /// Mirrors a TableReporter that the bench already prints.
  void AddChart(const stats::TableReporter& table);

  /// Mirrors PrintRankedFigure: series sampled at `sample_points` ranks,
  /// x = rank.
  void AddRankedChart(const std::string& title,
                      const std::vector<std::string>& labels,
                      const std::vector<stats::RankedDistribution>& dists,
                      size_t sample_points = 10);

  /// A single named number under "scalars" (e.g. a Gini coefficient).
  /// Re-adding a name overwrites the previous value, so the emitted JSON
  /// object never carries duplicate keys (duplicate keys made downstream
  /// trajectory parsers drop the whole scalar set).
  void AddScalar(const std::string& name, double value);

  /// Prints stats::PrintMessagePlaneSummary from the same baselines the
  /// JSON scalars use (pool counters and wall clock captured at
  /// construction), so console and BENCH_*.json never diverge.
  void PrintMessagePlane(std::ostream& os) const;

  /// Counts tuples the figure's experiments streamed; Write() turns the
  /// total plus the reporter's wall clock into the "tuples_per_sec"
  /// throughput scalar that tracks speedups across PRs.
  void AddTuplesProcessed(uint64_t tuples) { tuples_processed_ += tuples; }

  /// Restricts the allocs_per_tuple* scalars to a steady-state window:
  /// per-plane counter snapshots taken `window_tuples` apart (e.g. the
  /// last two experiment checkpoints). Without this, the scalars average
  /// the cold ramp — pool/dictionary capacity growth from process start —
  /// into every tuple, which is not what the <= 1 steady-state target
  /// measures. The whole-run average is still emitted as
  /// "allocs_per_tuple_lifetime". Under RJOIN_BENCH_REPEAT the last
  /// repeat's window wins (same rule as UpsertChart).
  void SetSteadyStateAllocs(const stats::AllocCounts& begin,
                            const stats::AllocCounts& end,
                            uint64_t window_tuples);

  /// Same steady-state windowing for the route-cache counters: the
  /// "route_cache_hit_rate" scalar then covers only the window between two
  /// checkpoints, excluding the cold first-sight ramp (every key's first
  /// route is a structural miss; what the cache is *for* is the steady
  /// state). The whole-run rate is still emitted as
  /// "route_cache_hit_rate_lifetime".
  void SetSteadyStateRouteCache(const dht::RouteCache::Stats& begin,
                                const dht::RouteCache::Stats& end);

  /// Running tuple total (RunRepeated snapshots it around each repeat).
  uint64_t tuples_processed() const { return tuples_processed_; }

  /// Writes BENCH_<figure>.json into $RJOIN_BENCH_OUT (default: the working
  /// directory) and returns the path. Logs the path to stdout. Every file
  /// carries "wall_seconds" (construction to Write), "tuples_processed",
  /// "tuples_per_sec", "messages_per_sec" (envelopes dispatched through the
  /// message plane per wall second), "allocs_per_tuple" (data-plane heap
  /// allocations — tuple + residual + message planes — per streamed tuple,
  /// with an allocs_per_tuple_<plane> breakdown plus the envelope-only
  /// "envelope_allocs_per_tuple"; near zero once the pools reach their
  /// steady-state high-water mark), "hardware_threads", and the
  /// observability scalars (answer_latency_p50/p95/p99 in virtual ticks,
  /// routing/rewrite percentiles) so the
  /// bench trajectory records measured time and allocation behavior, not
  /// just virtual-cost curves. A "provenance" object (git SHA, build type,
  /// effective RJOIN_* knobs) makes every file self-describing — the full
  /// schema is documented in bench/trajectory/README.md. When RJOIN_TRACE
  /// is on, the merged virtual-time timeline is additionally written as
  /// Perfetto-loadable TRACE_<figure>.json next to the bench JSON.
  std::string Write() const;

 private:
  /// Message-plane counters (envelope pools, key interner, routing)
  /// measured since construction.
  stats::MessagePlaneSummary PlaneDelta() const;

  /// Appends `chart`, replacing an existing chart with the same title —
  /// RunRepeated re-runs a figure body, and the last repeat wins instead of
  /// duplicating every chart N times.
  void UpsertChart(Chart&& chart);

  std::string figure_;
  std::string title_;
  workload::ExperimentConfig config_;
  std::chrono::steady_clock::time_point start_;
  /// Message-plane counters at construction; Write() reports the delta.
  uint64_t base_envelope_allocs_ = 0;
  uint64_t base_messages_ = 0;
  uint64_t base_interner_hits_ = 0;
  uint64_t base_interner_misses_ = 0;
  uint64_t base_route_cache_hits_ = 0;
  uint64_t base_route_cache_misses_ = 0;
  uint64_t base_coalesce_groups_ = 0;
  uint64_t base_coalesce_payloads_ = 0;
  /// Observability histograms at construction; Write() reports bucket-count
  /// deltas, so percentiles cover only this figure's samples.
  stats::Tracer::HistogramSet base_hist_;
  /// Per-plane heap-allocation counters at construction (alloc_tracker.h);
  /// Write() reports deltas as allocs_per_tuple_<plane> scalars.
  stats::AllocCounts base_allocs_;
  /// Steady-state alloc window (SetSteadyStateAllocs); tuples == 0 means
  /// unset and Write() falls back to the whole-run delta.
  stats::AllocCounts steady_allocs_delta_;
  uint64_t steady_allocs_tuples_ = 0;
  /// Steady-state route-cache window (SetSteadyStateRouteCache); both
  /// counters == 0 means unset and Write() falls back to the whole-run
  /// delta for "route_cache_hit_rate".
  dht::RouteCache::Stats steady_route_cache_delta_;
  uint64_t tuples_processed_ = 0;
  std::vector<std::pair<std::string, double>> scalars_;
  std::vector<Chart> charts_;
};

}  // namespace rjoin::bench

#endif  // RJOIN_BENCH_BENCH_COMMON_H_
