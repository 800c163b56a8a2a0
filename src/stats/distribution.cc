#include "stats/distribution.h"

#include <algorithm>
#include <numeric>

namespace rjoin::stats {

uint64_t RankedDistribution::total() const {
  return std::accumulate(sorted_desc.begin(), sorted_desc.end(), uint64_t{0});
}

double RankedDistribution::mean() const {
  if (sorted_desc.empty()) return 0.0;
  return static_cast<double>(total()) / static_cast<double>(sorted_desc.size());
}

size_t RankedDistribution::participants() const {
  size_t n = 0;
  for (uint64_t v : sorted_desc) {
    if (v > 0) ++n;
  }
  return n;
}

double RankedDistribution::gini() const {
  const size_t n = sorted_desc.size();
  const uint64_t tot = total();
  if (n == 0 || tot == 0) return 0.0;
  // G = (2 * sum_i(rank_i * x_i)) / (n * total) - (n + 1) / n with x sorted
  // ascending and ranks 1..n. Element i of the descending array has
  // ascending rank (n - i).
  double weighted = 0.0;
  for (size_t i = 0; i < n; ++i) {
    weighted +=
        static_cast<double>(n - i) * static_cast<double>(sorted_desc[i]);
  }
  const double nd = static_cast<double>(n);
  return (2.0 * weighted) / (nd * static_cast<double>(tot)) - (nd + 1.0) / nd;
}

RankedDistribution MakeRanked(const std::vector<uint64_t>& loads) {
  RankedDistribution d;
  d.sorted_desc = loads;
  std::sort(d.sorted_desc.begin(), d.sorted_desc.end(),
            std::greater<uint64_t>());
  return d;
}

}  // namespace rjoin::stats
