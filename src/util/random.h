#ifndef RJOIN_UTIL_RANDOM_H_
#define RJOIN_UTIL_RANDOM_H_

#include <cstdint>

namespace rjoin {

/// Deterministic, fast pseudo-random generator (xoshiro256**), seeded via
/// splitmix64. All randomness in the simulator flows through instances of
/// this class so that experiments are reproducible from a single seed.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Uniform 64-bit value.
  uint64_t Next();

  /// Uniform in [0, bound) using Lemire's unbiased method. bound must be > 0.
  uint64_t NextBounded(uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t NextInt(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// True with probability p (clamped to [0,1]).
  bool NextBernoulli(double p);

  /// Forks an independent generator; deterministic given this one's state.
  Rng Fork();

 private:
  uint64_t s_[4];
};

}  // namespace rjoin

#endif  // RJOIN_UTIL_RANDOM_H_
