#ifndef RJOIN_SIM_LATENCY_H_
#define RJOIN_SIM_LATENCY_H_

#include <memory>

#include "sim/time.h"
#include "util/random.h"

namespace rjoin::sim {

/// Per-hop message latency model. The paper assumes a relaxed asynchronous
/// system with a universal maximum delay delta; concrete models below all
/// guarantee Delay() <= max_delay().
class LatencyModel {
 public:
  virtual ~LatencyModel() = default;

  /// Latency of one network hop.
  virtual SimTime Delay(Rng& rng) = 0;

  /// The universal bound delta on a single hop.
  virtual SimTime max_delay() const = 0;

  /// Lower bound on a single hop. The sharded runtime uses this as its
  /// conservative lookahead: a shard may execute ahead of its peers by up
  /// to this many ticks, because no message a peer emits can be due sooner
  /// than its emission time plus this bound. Models whose hops can take 0
  /// ticks must return 0 (the runtime then defers such cross-node
  /// deliveries by one tick, still deterministically).
  virtual SimTime min_delay() const { return 1; }
};

/// Every hop takes exactly `ticks`.
class FixedLatency : public LatencyModel {
 public:
  explicit FixedLatency(SimTime ticks = 1) : ticks_(ticks) {}
  SimTime Delay(Rng&) override { return ticks_; }
  SimTime max_delay() const override { return ticks_; }
  SimTime min_delay() const override { return ticks_; }

 private:
  SimTime ticks_;
};

/// Uniform in [lo, hi].
class UniformLatency : public LatencyModel {
 public:
  UniformLatency(SimTime lo, SimTime hi) : lo_(lo), hi_(hi) {}
  SimTime Delay(Rng& rng) override {
    return lo_ + rng.NextBounded(hi_ - lo_ + 1);
  }
  SimTime max_delay() const override { return hi_; }
  SimTime min_delay() const override { return lo_; }

 private:
  SimTime lo_;
  SimTime hi_;
};

/// Models "message delays due to heavy network traffic" (Section 4 of the
/// paper): with probability `burst_probability` a hop experiences congestion
/// and takes `burst_delay` ticks instead of `base_delay`.
class BurstyLatency : public LatencyModel {
 public:
  BurstyLatency(SimTime base_delay, SimTime burst_delay,
                double burst_probability)
      : base_(base_delay), burst_(burst_delay), p_(burst_probability) {}

  SimTime Delay(Rng& rng) override {
    return rng.NextBernoulli(p_) ? burst_ : base_;
  }
  SimTime max_delay() const override { return burst_ > base_ ? burst_ : base_; }
  SimTime min_delay() const override { return burst_ < base_ ? burst_ : base_; }

 private:
  SimTime base_;
  SimTime burst_;
  double p_;
};

}  // namespace rjoin::sim

#endif  // RJOIN_SIM_LATENCY_H_
