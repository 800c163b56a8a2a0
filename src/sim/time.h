#ifndef RJOIN_SIM_TIME_H_
#define RJOIN_SIM_TIME_H_

#include <cstdint>

namespace rjoin::sim {

/// Virtual simulation time in abstract "ticks". The simulator makes no
/// assumption about what a tick is; the experiments treat one tick as roughly
/// one network hop of latency.
using SimTime = uint64_t;

inline constexpr SimTime kTimeZero = 0;

/// "Never": the identity of min-folds over times (the calendar queue's
/// empty ring). Arithmetic on it must saturate, not wrap.
inline constexpr SimTime kTimeMax = UINT64_MAX;

/// a + b clamped to kTimeMax (an overflowing add would wrap into the
/// past).
inline constexpr SimTime SaturatingAdd(SimTime a, SimTime b) {
  return a > kTimeMax - b ? kTimeMax : a + b;
}

}  // namespace rjoin::sim

#endif  // RJOIN_SIM_TIME_H_
