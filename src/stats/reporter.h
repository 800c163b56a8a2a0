#ifndef RJOIN_STATS_REPORTER_H_
#define RJOIN_STATS_REPORTER_H_

#include <ostream>
#include <string>
#include <vector>

#include "stats/distribution.h"

namespace rjoin::stats {

/// A labeled numeric series (one curve of a figure).
struct Series {
  std::string label;
  std::vector<double> values;
};

/// Renders the tables that the benches print for each figure: a header
/// column (x axis) plus one column per series, aligned, with a title line.
/// Matches the "rows/series the paper reports" requirement.
class TableReporter {
 public:
  TableReporter(std::string title, std::string x_label)
      : title_(std::move(title)), x_label_(std::move(x_label)) {}

  void set_x(std::vector<double> xs) { xs_ = std::move(xs); }
  void AddSeries(Series s) { series_.push_back(std::move(s)); }

  /// Writes the table to `os`.
  void Print(std::ostream& os) const;

  const std::string& title() const { return title_; }
  const std::string& x_label() const { return x_label_; }
  const std::vector<double>& xs() const { return xs_; }
  const std::vector<Series>& series() const { return series_; }

 private:
  std::string title_;
  std::string x_label_;
  std::vector<double> xs_;
  std::vector<Series> series_;
};

/// The rank positions a ranked figure samples: at most `points` evenly
/// spaced distinct ranks over [0, max_nodes - 1] (fewer when max_nodes <
/// points — the grid never repeats a rank). Shared by PrintRankedFigure
/// and the benches' JSON output so the two never diverge.
std::vector<size_t> SampleRankGrid(size_t max_nodes, size_t points);

/// Prints a ranked-distribution figure: one row per sampled rank, one column
/// per labeled distribution (e.g. "2560 tuples", "1280 tuples", ...).
void PrintRankedFigure(std::ostream& os, const std::string& title,
                       const std::vector<std::string>& labels,
                       const std::vector<RankedDistribution>& dists,
                       size_t sample_points = 10);

/// Message-plane counters for one measured interval. Plain numbers so the
/// stats layer stays independent of core: benches fill them from
/// core::MessagePool::Aggregate() and core::KeyInterner::Global().stats()
/// deltas.
struct MessagePlaneSummary {
  uint64_t messages = 0;         ///< pooled-envelope acquires
  uint64_t envelope_allocs = 0;  ///< envelope heap allocations
  double wall_seconds = 0.0;
  uint64_t interned_keys = 0;    ///< distinct keys in the interner
  uint64_t interner_hits = 0;    ///< Intern() calls that found the key
  uint64_t interner_misses = 0;  ///< first-sight inserts
  // Routing plane (docs/routing.md): per-node route-cache effectiveness and
  // destination coalescing of the publication fan-out.
  uint64_t route_cache_hits = 0;    ///< sends resolved from a cached path
  uint64_t route_cache_misses = 0;  ///< sends that walked RoutePath
  uint64_t coalesce_groups = 0;     ///< wire messages MultiSendKeys emitted
  uint64_t coalesce_payloads = 0;   ///< payloads those wire messages carried
  uint64_t queue_depth_p99 = 0;     ///< p99 pending events at event-pump push
  // Observability layer (docs/observability.md): end-to-end answer latency
  // in virtual ticks (deterministic).
  uint64_t answers = 0;                 ///< answer-latency samples
  uint64_t answer_latency_p50 = 0;
  uint64_t answer_latency_p95 = 0;
  uint64_t answer_latency_p99 = 0;
  // Per-subsystem heap-allocation counts (alloc_tracker.h planes), so an
  // allocation regression is locatable: which plane started allocating.
  uint64_t alloc_tuple = 0;     ///< tuple dictionaries, tuple records
  uint64_t alloc_residual = 0;  ///< stored-query / residual records
  uint64_t alloc_message = 0;   ///< per-envelope traffic
  uint64_t alloc_other = 0;     ///< untagged (setup, reporting, answers)
  uint64_t alloc_pool_capacity = 0;  ///< slab growth, table doubling
};

/// Prints the message-plane summary: messages dispatched, envelope heap
/// allocations and the allocs-per-message ratio (near zero once the pools
/// reach their steady-state high-water mark), the key-interner size and
/// hit rate (near one once the key dictionary is warm), routing and
/// coalescing rates, queue depth and answer latency.
void PrintMessagePlaneSummary(std::ostream& os,
                              const MessagePlaneSummary& s);

}  // namespace rjoin::stats

#endif  // RJOIN_STATS_REPORTER_H_
