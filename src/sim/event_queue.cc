#include "sim/event_queue.h"

#include <utility>

namespace rjoin::sim {

void EventQueue::Push(core::EnvelopeRef env) {
  env->order = next_order_++;
  calendar_.Push(std::move(env));
}

}  // namespace rjoin::sim
