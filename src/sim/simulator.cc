#include "sim/simulator.h"

#include "stats/trace.h"
#include "util/logging.h"

namespace rjoin::sim {

Simulator::Simulator(stats::MetricsRegistry* metrics, uint64_t seed)
    : metrics_(metrics), rng_(seed) {}

void Simulator::Deliver(SimTime delay, core::EnvelopeRef env) {
  env->time = now_ + delay;
  queue_.Push(std::move(env));
}

void Simulator::ScheduleEnvelope(core::EnvelopeRef env) {
  RJOIN_CHECK(env->time >= now_) << "cannot schedule events in the past";
  queue_.Push(std::move(env));
}

void Simulator::Step() {
  core::EnvelopeRef env = queue_.Pop();
  now_ = env->time;
  ++executed_;
  if (stats::Tracer::On()) {
    // The queue's insertion order is the ordering key after time
    // (docs/messaging.md).
    stats::Tracer::SetContext(env->time, env->src, env->order);
  }
  if (env->task.kind() == core::MessageKind::kControl) {
    core::RunControl(std::move(env));
    return;
  }
  RJOIN_CHECK(dispatcher_ != nullptr)
      << "typed envelope popped without a dispatcher (no transport attached)";
  dispatcher_->DispatchEnvelope(std::move(env));
}

void Simulator::EnterDriverPhase() {
  // Sends the driver makes until the next Run route inline, so their
  // records carry the driver's clock as (now, 0, 0).
  if (stats::Tracer::On()) stats::Tracer::SetContext(now_, 0, 0);
}

uint64_t Simulator::Run() {
  const uint64_t before = executed_;
  while (!queue_.empty()) Step();
  EnterDriverPhase();
  return executed_ - before;
}

uint64_t Simulator::RunUntil(SimTime until) {
  const uint64_t before = executed_;
  while (!queue_.empty() && queue_.PeekTime() <= until) Step();
  if (now_ < until) now_ = until;
  EnterDriverPhase();
  return executed_ - before;
}

}  // namespace rjoin::sim
