#ifndef RJOIN_SIM_SIMULATOR_H_
#define RJOIN_SIM_SIMULATOR_H_

#include <cstdint>

#include "core/messages.h"
#include "sim/event_queue.h"
#include "sim/time.h"
#include "stats/metrics.h"
#include "util/random.h"

namespace rjoin::sim {

/// Deterministic discrete-event simulator: the one event pump. The paper's
/// evaluation ran "multiple Chord nodes in one machine"; this is the C++
/// equivalent of that harness. dht::Transport sends through it,
/// core::RJoinEngine reads its clock and metrics registry and schedules
/// churn on it, and workload::Experiment runs it.
///
/// Events are pooled envelopes (core::Envelope), ordered by (time,
/// insertion order). Typed envelopes go to the attached
/// core::EnvelopeDispatcher (the transport); Control envelopes, which only
/// tests schedule, run inline. Sends route inline and every latency draw
/// comes from one stream, in emission order. The simulator owns the
/// MessagePool every envelope comes from, declared before the queue so
/// pending envelopes are released into a still-live pool on destruction.
class Simulator {
 public:
  /// `metrics` is the registry every send and handler writes; `seed` seeds
  /// the one latency stream.
  Simulator(stats::MetricsRegistry* metrics, uint64_t seed);

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Virtual time: the executing event's time, or the clock between runs.
  SimTime Now() const { return now_; }

  /// Registry every send and handler writes.
  stats::MetricsRegistry& metrics() { return *metrics_; }

  /// Pool every envelope of this pump comes from.
  core::MessagePool& pool() { return pool_; }

  /// The latency stream, drawn in emission order.
  Rng& rng() { return rng_; }

  /// Schedules `env` (src and dst set) at Now() + delay.
  void Deliver(SimTime delay, core::EnvelopeRef env);

  /// Schedules `env` at `env->time`, which must not lie in the past.
  void ScheduleEnvelope(core::EnvelopeRef env);

  /// Receiver of every envelope that is not a kControl delivery (the
  /// transport attaches itself). kControl closures run inline.
  void set_dispatcher(core::EnvelopeDispatcher* dispatcher) {
    dispatcher_ = dispatcher;
  }

  /// Runs events until none is pending. Returns the number executed.
  uint64_t Run();

  /// Runs events with time <= `until`, then advances the clock to `until`
  /// if it is behind. Returns the number executed.
  uint64_t RunUntil(SimTime until);

 private:
  void Step();
  /// Stamps the tracer context (now, 0, 0) as Run/RunUntil return.
  void EnterDriverPhase();

  core::MessagePool pool_;  // before queue_: members destroy in reverse
  EventQueue queue_;
  core::EnvelopeDispatcher* dispatcher_ = nullptr;
  stats::MetricsRegistry* metrics_;
  Rng rng_;
  SimTime now_ = kTimeZero;
  uint64_t executed_ = 0;
};

}  // namespace rjoin::sim

#endif  // RJOIN_SIM_SIMULATOR_H_
