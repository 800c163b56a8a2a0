#include "stats/reporter.h"

#include <algorithm>
#include <iomanip>

#include "util/logging.h"

namespace rjoin::stats {

void TableReporter::Print(std::ostream& os) const {
  os << "== " << title_ << " ==\n";
  os << std::left << std::setw(18) << x_label_;
  for (const auto& s : series_) os << std::right << std::setw(18) << s.label;
  os << "\n";
  for (size_t row = 0; row < xs_.size(); ++row) {
    os << std::left << std::setw(18) << xs_[row];
    for (const auto& s : series_) {
      os << std::right << std::setw(18) << std::fixed << std::setprecision(3)
         << (row < s.values.size() ? s.values[row] : 0.0);
    }
    os << "\n";
  }
  os << "\n";
}

std::vector<size_t> SampleRankGrid(size_t max_nodes, size_t points) {
  std::vector<size_t> ranks;
  if (max_nodes == 0 || points == 0) return ranks;
  // Clamping the grid to the population size keeps the ranks distinct:
  // with n <= max_nodes sample points the stride (max_nodes-1)/(n-1) is
  // >= 1, so the floored positions are strictly increasing.
  const size_t n = std::min(points, max_nodes);
  ranks.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    ranks.push_back(n > 1 ? (max_nodes - 1) * i / (n - 1) : 0);
  }
  return ranks;
}

void PrintRankedFigure(std::ostream& os, const std::string& title,
                       const std::vector<std::string>& labels,
                       const std::vector<RankedDistribution>& dists,
                       size_t sample_points) {
  RJOIN_CHECK(labels.size() == dists.size());
  os << "== " << title << " (ranked nodes, highest load first) ==\n";
  os << std::left << std::setw(12) << "rank";
  for (const auto& l : labels) os << std::right << std::setw(16) << l;
  os << "\n";
  size_t max_nodes = 0;
  for (const auto& d : dists) max_nodes = std::max(max_nodes, d.sorted_desc.size());
  for (size_t rank : SampleRankGrid(max_nodes, sample_points)) {
    os << std::left << std::setw(12) << rank;
    for (const auto& d : dists) {
      os << std::right << std::setw(16) << d.at_rank(rank);
    }
    os << "\n";
  }
  os << std::left << std::setw(12) << "max";
  for (const auto& d : dists) os << std::right << std::setw(16) << d.max();
  os << "\n";
  os << std::left << std::setw(12) << "participants";
  for (const auto& d : dists) {
    os << std::right << std::setw(16) << d.participants();
  }
  os << "\n\n";
}

void PrintMessagePlaneSummary(std::ostream& os,
                              const MessagePlaneSummary& s) {
  os << "== message plane ==\n";
  os << "messages dispatched:     " << s.messages << "\n";
  os << "messages/sec (wall):     "
     << (s.wall_seconds > 0.0
             ? static_cast<uint64_t>(static_cast<double>(s.messages) /
                                     s.wall_seconds)
             : 0)
     << "\n";
  os << "envelope heap allocs:    " << s.envelope_allocs << "\n";
  os << "allocs per message:      "
     << (s.messages > 0 ? static_cast<double>(s.envelope_allocs) /
                              static_cast<double>(s.messages)
                        : 0.0)
     << "\n";
  os << "data-plane heap allocs:  "
     << (s.alloc_tuple + s.alloc_residual + s.alloc_message) << " (tuple "
     << s.alloc_tuple << ", residual " << s.alloc_residual << ", message "
     << s.alloc_message << "; pool capacity " << s.alloc_pool_capacity
     << ", other " << s.alloc_other << ")\n";
  const uint64_t interns = s.interner_hits + s.interner_misses;
  os << "interned keys:           " << s.interned_keys << "\n";
  os << "interner hit rate:       "
     << (interns > 0
             ? static_cast<double>(s.interner_hits) /
                   static_cast<double>(interns)
             : 0.0)
     << " (" << interns << " interns)\n";
  const uint64_t resolves = s.route_cache_hits + s.route_cache_misses;
  os << "route cache hit rate:    "
     << (resolves > 0
             ? static_cast<double>(s.route_cache_hits) /
                   static_cast<double>(resolves)
             : 0.0)
     << " (" << resolves << " resolves)\n";
  os << "coalesced fanout width:  "
     << (s.coalesce_groups > 0
             ? static_cast<double>(s.coalesce_payloads) /
                   static_cast<double>(s.coalesce_groups)
             : 0.0)
     << " (" << s.coalesce_groups << " wire messages, "
     << s.coalesce_payloads << " payloads)\n";
  os << "event queue depth p99:   " << s.queue_depth_p99 << "\n";
  os << "answer latency (vticks): p50 " << s.answer_latency_p50 << "  p95 "
     << s.answer_latency_p95 << "  p99 " << s.answer_latency_p99 << " ("
     << s.answers << " answers)\n\n";
}

}  // namespace rjoin::stats
