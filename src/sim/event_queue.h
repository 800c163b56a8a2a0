#ifndef RJOIN_SIM_EVENT_QUEUE_H_
#define RJOIN_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <vector>

#include "core/messages.h"
#include "sim/calendar_queue.h"
#include "sim/time.h"

namespace rjoin::sim {

/// Pending-event set of the serial simulator, ordered by (time, insertion
/// order). Events with equal timestamps execute in insertion order (FIFO),
/// which keeps runs fully deterministic. Envelopes are pooled
/// (core::MessagePool) and moved in and out of flat vectors, so pushing and
/// popping a message performs no heap allocation in steady state.
///
/// Backed by a two-level calendar queue (sim/calendar_queue.h): O(1) push
/// and pop in the steady state where events land within a 1024-tick window
/// of the cursor, versus the O(log H) sift of the old std::push_heap /
/// pop_heap vector at deep backlogs.
class EventQueue {
 public:
  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Enqueues `env` at absolute time `env->time`, stamping `env->order`
  /// with the FIFO tie-break sequence.
  void Push(core::EnvelopeRef env);

  bool empty() const { return calendar_.empty(); }
  size_t size() const { return calendar_.size(); }

  /// Time of the earliest pending event. Requires !empty().
  SimTime PeekTime() const { return calendar_.PeekTime(); }

  /// Removes and returns the earliest pending event. Requires !empty().
  core::EnvelopeRef Pop() { return calendar_.Pop(); }

 private:
  struct Later {
    bool operator()(const core::EnvelopeRef& a,
                    const core::EnvelopeRef& b) const {
      if (a->time != b->time) return a->time > b->time;
      return a->order > b->order;
    }
  };

  CalendarQueue<Later> calendar_;
  uint64_t next_order_ = 0;
};

}  // namespace rjoin::sim

#endif  // RJOIN_SIM_EVENT_QUEUE_H_
