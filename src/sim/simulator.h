#ifndef RJOIN_SIM_SIMULATOR_H_
#define RJOIN_SIM_SIMULATOR_H_

#include <cstdint>

#include "core/messages.h"
#include "sim/event_pump.h"
#include "sim/event_queue.h"
#include "sim/time.h"
#include "stats/metrics.h"
#include "util/random.h"

namespace rjoin::sim {

/// Deterministic discrete-event simulator: the serial EventPump. The
/// paper's evaluation ran "multiple Chord nodes in one machine"; this is
/// the C++ equivalent of that harness.
///
/// Events are pooled envelopes (core::Envelope), ordered by (time,
/// insertion order). Typed envelopes go to the attached
/// core::EnvelopeDispatcher (the transport); Control envelopes, which only
/// tests schedule, run inline. Sends route inline (DefersSends() is false)
/// and every latency draw comes from one stream, in emission order. The
/// simulator owns the serial path's MessagePool, declared before the queue
/// so pending envelopes are released into a still-live pool on
/// destruction.
class Simulator final : public EventPump {
 public:
  /// `metrics` is the registry every send and handler writes; `seed` seeds
  /// the one latency stream.
  Simulator(stats::MetricsRegistry* metrics, uint64_t seed);

  SimTime Now() const override { return now_; }
  stats::MetricsRegistry* ActiveMetrics() override { return metrics_; }
  core::EnvelopeRef AcquireFor(NodeIndex) override { return pool_.Acquire(); }
  bool DefersSends() const override { return false; }
  void Defer(NodeIndex src, core::EnvelopeRef env) override;
  /// Insertion order, not the emission seq, breaks ties here.
  uint64_t NextEmitSeq(NodeIndex) override { return 0; }
  Rng& MessageRng(NodeIndex, uint64_t) override { return rng_; }
  void Deliver(NodeIndex src, uint64_t seq, SimTime delay,
               core::EnvelopeRef env) override;
  void ScheduleEnvelope(core::EnvelopeRef env) override;
  void set_dispatcher(core::EnvelopeDispatcher* dispatcher) override {
    dispatcher_ = dispatcher;
  }
  uint64_t Run() override;
  uint64_t RunUntil(SimTime until) override;

  /// Pool every envelope of this pump comes from.
  core::MessagePool& pool() { return pool_; }

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
