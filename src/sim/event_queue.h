#ifndef RJOIN_SIM_EVENT_QUEUE_H_
#define RJOIN_SIM_EVENT_QUEUE_H_

#include <array>
#include <cstdint>
#include <vector>

#include "core/messages.h"
#include "sim/time.h"

namespace rjoin::sim {

/// Pending-event set of the simulator, ordered by (time, insertion order).
/// Events with equal timestamps execute in insertion order (FIFO), which
/// keeps runs fully deterministic. Envelopes are pooled
/// (core::MessagePool) and moved in and out of flat vectors, so pushing and
/// popping a message performs no heap allocation in steady state.
///
/// A two-level calendar queue, used instead of a binary heap. Level one is
/// a ring of kBuckets one-tick buckets covering the window
/// [wstart_, wstart_ + kBuckets); an event at time t in the window lands in
/// bucket t & (kBuckets - 1) — the mapping is independent of wstart_, so
/// advancing the window (which only ever moves to the minimum pending time)
/// never rehashes anything. Level two is an overflow min-heap for far-future
/// timers; Pop() migrates overflow events into the ring as the window
/// reaches them. Push and Pop are O(1) in the steady state where almost all
/// events are due within the window — the discrete-event profile of this
/// codebase, whose hop latencies are tiny next to kBuckets — versus the
/// O(log H) sift of a binary heap at 10^5+ pending events.
///
/// Within a bucket all events share one virtual tick; the bucket keeps
/// arrivals in a vector, sorts lazily when the bucket becomes the drain
/// target, and binary-inserts same-tick arrivals that land while the bucket
/// is already draining — those always order after everything already
/// popped, because order stamps are monotone. FIFO-within-a-tick is
/// therefore exactly a binary heap's order, which keeps runs bit-identical
/// to a heap-driven pump.
class EventQueue {
 public:
  static constexpr size_t kBuckets = 1024;  // power of two, one tick each

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Enqueues `env` at absolute time `env->time`, stamping `env->order`
  /// with the FIFO tie-break sequence.
  void Push(core::EnvelopeRef env);

  bool empty() const { return total_ == 0; }
  size_t size() const { return total_; }

  /// Time of the earliest pending event. Requires !empty().
  SimTime PeekTime() const;

  /// Removes and returns the earliest pending event. Requires !empty().
  core::EnvelopeRef Pop();

 private:
  static constexpr uint64_t kMask = kBuckets - 1;
  static constexpr uint32_t kWords = kBuckets / 64;

  struct Bucket {
    std::vector<core::EnvelopeRef> items;
    uint32_t pos = 0;    ///< drain cursor; items[0, pos) already popped
    bool sorted = true;  ///< items[pos..] in ascending (time, order)
  };

  /// Dumps every pending ring event into the overflow heap and restarts the
  /// window at `t` (a push behind the current window start). O(pending),
  /// but such pushes are vanishingly rare: they need an event legally
  /// scheduled at or before a cursor that already advanced past it.
  void Rebase(SimTime t);

  void RingInsert(core::EnvelopeRef env, SimTime t);

  /// Earliest time present in the ring (kTimeMax when the ring is empty):
  /// first set bitmap bit at or after wstart_'s bucket, circularly.
  SimTime RingMinTime() const;

  std::array<Bucket, kBuckets> buckets_;
  std::array<uint64_t, kWords> bitmap_{};
  std::vector<core::EnvelopeRef> overflow_;  // heap, earliest on top
  size_t total_ = 0;
  SimTime wstart_ = 0;  ///< window start: no pending event is earlier
  uint64_t next_order_ = 0;
};

}  // namespace rjoin::sim

#endif  // RJOIN_SIM_EVENT_QUEUE_H_
