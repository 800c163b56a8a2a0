#ifndef RJOIN_STATS_DISTRIBUTION_H_
#define RJOIN_STATS_DISTRIBUTION_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace rjoin::stats {

/// Summary of a per-node load distribution, used for the paper's
/// "ranked nodes" plots (Figures 3-7 and 9): node loads sorted descending.
struct RankedDistribution {
  std::vector<uint64_t> sorted_desc;  ///< loads, highest first

  uint64_t max() const { return sorted_desc.empty() ? 0 : sorted_desc.front(); }
  uint64_t total() const;
  double mean() const;
  /// Number of nodes with non-zero load ("participating nodes").
  size_t participants() const;
  /// Value at rank r (0-based); 0 beyond the end.
  uint64_t at_rank(size_t r) const {
    return r < sorted_desc.size() ? sorted_desc[r] : 0;
  }
  /// Gini coefficient in [0,1]; 0 = perfectly balanced load.
  double gini() const;
};

/// Builds a ranked distribution from raw per-node loads.
RankedDistribution MakeRanked(const std::vector<uint64_t>& loads);

}  // namespace rjoin::stats

#endif  // RJOIN_STATS_DISTRIBUTION_H_
