#ifndef RJOIN_SIM_EVENT_PUMP_H_
#define RJOIN_SIM_EVENT_PUMP_H_

#include <cstdint>

#include "core/messages.h"
#include "sim/time.h"
#include "stats/metrics.h"
#include "util/random.h"

namespace rjoin::sim {

/// The loop that orders due envelopes and hands them to the transport, as
/// the layers above it see it. dht::Transport sends through it,
/// core::RJoinEngine reads its clock and metrics registry and schedules
/// churn on it, and workload::Experiment runs it. Two pumps implement it:
/// the serial sim::Simulator and the watermark-parallel
/// runtime::ShardedRuntime (docs/runtime.md).
///
/// A send builds its envelope in a routing stage (kRoute, kDirect or
/// kRouteGroup). When DefersSends() holds, the pump runs that stage later
/// as an event of its own (Defer); otherwise the transport routes inline,
/// takes an emission seq and a latency stream for the message, and hands
/// the finished kDeliver envelope to Deliver.
class EventPump {
 public:
  using NodeIndex = stats::NodeIndex;

  EventPump() = default;
  EventPump(const EventPump&) = delete;
  EventPump& operator=(const EventPump&) = delete;
  virtual ~EventPump() = default;

  /// Virtual time at the caller: the executing event's time, or the
  /// pump's clock between runs.
  virtual SimTime Now() const = 0;

  /// Registry the calling thread may write.
  virtual stats::MetricsRegistry* ActiveMetrics() = 0;

  /// Clean envelope for an event that `executor` will run.
  virtual core::EnvelopeRef AcquireFor(NodeIndex executor) = 0;

  /// True when sends from the calling thread must Defer their routing
  /// stage instead of routing inline.
  virtual bool DefersSends() const = 0;

  /// Runs the routing-stage envelope `env` (and its `link` chain) as one
  /// event on `src` at Now().
  virtual void Defer(NodeIndex src, core::EnvelopeRef env) = 0;

  /// Next emission sequence number of `src`.
  virtual uint64_t NextEmitSeq(NodeIndex src) = 0;

  /// Latency stream of message (src, seq). Valid until the calling thread
  /// asks for the next message's stream.
  virtual Rng& MessageRng(NodeIndex src, uint64_t seq) = 0;

  /// Schedules the kDeliver envelope `env`, emitted by `src` as its
  /// message `seq`, at Now() + delay on `env->dst`.
  virtual void Deliver(NodeIndex src, uint64_t seq, SimTime delay,
                       core::EnvelopeRef env) = 0;

  /// Schedules `env` at `env->time`; time, src, seq and dst are set.
  virtual void ScheduleEnvelope(core::EnvelopeRef env) = 0;

  /// Receiver of every envelope that is not a kControl delivery (the
  /// transport attaches itself). kControl closures run inline.
  virtual void set_dispatcher(core::EnvelopeDispatcher* dispatcher) = 0;

  /// Runs events until none is pending. Returns the number executed.
  virtual uint64_t Run() = 0;

  /// Runs events with time <= `until`, then advances the clock to `until`
  /// if it is behind. Returns the number executed.
  virtual uint64_t RunUntil(SimTime until) = 0;
};

}  // namespace rjoin::sim

#endif  // RJOIN_SIM_EVENT_PUMP_H_
