#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>

namespace rjoin::stats {

// Log-bucketed (HDR-style) histogram of non-negative integer values.
//
// Bucketing: values below 2^kSubBits map to their own bucket; above that,
// each power-of-two major bucket is split into 2^kSubBits linear
// sub-buckets, so relative bucket error is bounded by 1/2^kSubBits
// (~6% at kSubBits = 4) across the full uint64_t range.
//
// All state is a fixed array of uint64_t counters plus min/max/sum, so
// Record() never allocates and MergeFrom() is an elementwise add —
// commutative and associative, which is what makes percentiles computed
// from merged histograms independent of merge order.
// Percentile() reports the *lower bound* of the bucket holding the
// requested rank; because bucket bounds are integers derived only from the
// (deterministic) counts, the reported value is bit-identical for any
// split of the same sample population.
class LogHistogram {
 public:
  static constexpr uint32_t kSubBits = 4;
  static constexpr uint32_t kSubBuckets = 1u << kSubBits;
  // One linear region of kSubBuckets, then (64 - kSubBits) shifted majors.
  static constexpr uint32_t kBuckets = (64 - kSubBits + 1) * kSubBuckets;

  void Record(uint64_t value) {
    ++counts_[BucketIndex(value)];
    ++count_;
    sum_ += value;
    min_ = count_ == 1 ? value : std::min(min_, value);
    max_ = std::max(max_, value);
  }

  void MergeFrom(const LogHistogram& other) {
    if (other.count_ == 0) return;
    for (uint32_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
    min_ = count_ == 0 ? other.min_ : std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
    sum_ += other.sum_;
    count_ += other.count_;
  }

  // Histogram of the samples recorded since `earlier` was snapshotted from
  // this same (monotonically growing) histogram. min/max cover the whole
  // lifetime, not just the delta window.
  LogHistogram DiffFrom(const LogHistogram& earlier) const {
    LogHistogram d;
    for (uint32_t i = 0; i < kBuckets; ++i)
      d.counts_[i] = counts_[i] - earlier.counts_[i];
    d.count_ = count_ - earlier.count_;
    d.sum_ = sum_ - earlier.sum_;
    d.min_ = min_;
    d.max_ = max_;
    return d;
  }

  // Lower bound of the bucket containing the ceil(p% * count)-th smallest
  // sample (1-indexed); 0 when empty. p in [0, 100].
  uint64_t Percentile(double p) const {
    if (count_ == 0) return 0;
    uint64_t rank = static_cast<uint64_t>(std::ceil(p / 100.0 * count_));
    rank = std::clamp<uint64_t>(rank, 1, count_);
    uint64_t cum = 0;
    for (uint32_t i = 0; i < kBuckets; ++i) {
      cum += counts_[i];
      if (cum >= rank) return BucketLowerBound(i);
    }
    return BucketLowerBound(kBuckets - 1);
  }

  uint64_t count() const { return count_; }
  uint64_t sum() const { return sum_; }
  uint64_t min() const { return count_ == 0 ? 0 : min_; }
  uint64_t max() const { return max_; }
  double mean() const {
    return count_ == 0 ? 0.0 : static_cast<double>(sum_) / count_;
  }

  bool CountsEqual(const LogHistogram& other) const {
    return count_ == other.count_ && counts_ == other.counts_;
  }

  void Reset() { *this = LogHistogram(); }

  static uint32_t BucketIndex(uint64_t value) {
    if (value < kSubBuckets) return static_cast<uint32_t>(value);
    const int msb = 63 - std::countl_zero(value);
    const int shift = msb - static_cast<int>(kSubBits);
    const uint64_t sub = (value >> shift) - kSubBuckets;
    return static_cast<uint32_t>((shift + 1) * kSubBuckets + sub);
  }

  static uint64_t BucketLowerBound(uint32_t index) {
    if (index < kSubBuckets) return index;
    const uint32_t shift = index / kSubBuckets - 1;
    const uint64_t sub = index % kSubBuckets;
    return (static_cast<uint64_t>(kSubBuckets) + sub) << shift;
  }

 private:
  std::array<uint64_t, kBuckets> counts_{};
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t min_ = 0;
  uint64_t max_ = 0;
};

}  // namespace rjoin::stats
