#ifndef RJOIN_SIM_CALENDAR_QUEUE_H_
#define RJOIN_SIM_CALENDAR_QUEUE_H_

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "core/messages.h"
#include "sim/time.h"
#include "stats/alloc_tracker.h"
#include "stats/trace.h"
#include "util/logging.h"

namespace rjoin::sim {

/// Two-level calendar queue over pooled envelopes: the simulator's event
/// set, used instead of a binary heap.
///
/// Level one is a ring of kBuckets one-tick buckets covering the window
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
/// Ordering: events pop in ascending `Later` order ((time, insertion
/// order), the comparator a binary heap would use). Within a bucket all
/// events share one virtual tick; the bucket keeps arrivals in a vector,
/// sorts lazily when the bucket becomes the drain target, and
/// binary-inserts same-tick arrivals that land while the bucket is already
/// draining — those always order after everything already popped, because
/// order stamps are monotone. FIFO-within-a-tick is therefore exactly the
/// heap's order, which keeps runs bit-identical to a heap-driven pump.
///
/// `Later(a, b)` must return true iff a orders strictly after b and must be
/// consistent with Envelope::time as the primary key.
template <class Later>
class CalendarQueue {
 public:
  static constexpr size_t kBuckets = 1024;  // power of two, one tick each
  static constexpr uint64_t kMask = kBuckets - 1;

  CalendarQueue() = default;
  CalendarQueue(const CalendarQueue&) = delete;
  CalendarQueue& operator=(const CalendarQueue&) = delete;
  ~CalendarQueue() { Clear(); }

  void Push(core::EnvelopeRef env) {
    const SimTime t = env->time;
    if (total_ == 0) wstart_ = t;  // empty queue: snap the window
    if (t < wstart_) {
      // Event behind the cursor (legal: a bounded run can schedule at or
      // before a clock that already advanced). Rebase the window so the
      // bucket mapping stays alias-free; rare enough to pay the full dump.
      Rebase(t);
    }
    ++total_;
    stats::Tracer::RecordQueueDepth(total_);
    if (t < SaturatingAdd(wstart_, kBuckets)) {
      RingInsert(std::move(env), t);
    } else {
      MakeRoom(overflow_);
      overflow_.push_back(std::move(env));
      std::push_heap(overflow_.begin(), overflow_.end(), Later{});
    }
  }

  bool empty() const { return total_ == 0; }
  size_t size() const { return total_; }

  /// Time of the earliest pending event. Requires !empty().
  SimTime PeekTime() const {
    const SimTime ring = RingMinTime();
    if (overflow_.empty()) return ring;
    const SimTime over = overflow_.front()->time;
    return ring < over ? ring : over;
  }

  /// Removes and returns the earliest pending event (ties by Later).
  /// Requires !empty().
  core::EnvelopeRef Pop() {
    RJOIN_DCHECK(total_ != 0);
    const SimTime t = PeekTime();
    // Advancing to the minimum pending time keeps every ring event inside
    // the new window (nothing is earlier), and never passes an overflow
    // event (t bounds those too) — so the move is always safe.
    wstart_ = t;
    // Overflow events the window has reached migrate into the ring; their
    // bucket ordering is restored by the same lazy sort as everyone else's.
    while (!overflow_.empty() &&
           overflow_.front()->time < SaturatingAdd(wstart_, kBuckets)) {
      std::pop_heap(overflow_.begin(), overflow_.end(), Later{});
      core::EnvelopeRef env = std::move(overflow_.back());
      overflow_.pop_back();
      const SimTime et = env->time;
      RingInsert(std::move(env), et);
    }
    Bucket& b = buckets_[t & kMask];
    if (b.pos == b.items.size()) {
      // Window-end saturation: an event at kTimeMax sits past every finite
      // window, so it can never migrate — serve it from the overflow heap.
      RJOIN_DCHECK(!overflow_.empty());
      std::pop_heap(overflow_.begin(), overflow_.end(), Later{});
      core::EnvelopeRef out = std::move(overflow_.back());
      overflow_.pop_back();
      --total_;
      return out;
    }
    if (!b.sorted) {
      std::sort(b.items.begin(), b.items.end(),
                [](const core::EnvelopeRef& x, const core::EnvelopeRef& y) {
                  return Later{}(y, x);
                });
      b.sorted = true;
    }
    core::EnvelopeRef out = std::move(b.items[b.pos]);
    ++b.pos;
    if (b.pos == b.items.size()) {
      b.items.clear();  // keeps capacity: steady state reuses the storage
      b.pos = 0;
      b.sorted = true;
      bitmap_[(t & kMask) >> 6] &= ~(uint64_t{1} << (t & 63));
    }
    --total_;
    return out;
  }

  /// Discards all pending events (envelopes return to their pools).
  void Clear() {
    for (Bucket& b : buckets_) {
      b.items.clear();
      b.pos = 0;
      b.sorted = true;
    }
    bitmap_.fill(0);
    overflow_.clear();
    total_ = 0;
    wstart_ = 0;
  }

 private:
  struct Bucket {
    std::vector<core::EnvelopeRef> items;
    uint32_t pos = 0;    ///< drain cursor; items[0, pos) already popped
    bool sorted = true;  ///< items[pos..] in ascending Later order
  };

  static bool Before(const core::EnvelopeRef& a, const core::EnvelopeRef& b) {
    return Later{}(b, a);
  }

  /// Dumps every pending ring event into the overflow heap and restarts the
  /// window at `t` (a push behind the current window start). O(pending),
  /// but such pushes are vanishingly rare: they need an event legally
  /// scheduled at or before a cursor that already advanced past it.
  void Rebase(SimTime t) {
    for (Bucket& b : buckets_) {
      for (size_t j = b.pos; j < b.items.size(); ++j) {
        MakeRoom(overflow_);
        overflow_.push_back(std::move(b.items[j]));
        std::push_heap(overflow_.begin(), overflow_.end(), Later{});
      }
      b.items.clear();
      b.pos = 0;
      b.sorted = true;
    }
    bitmap_.fill(0);
    wstart_ = t;
  }

  /// Makes room for one more event in `v`. Growing a bucket or the
  /// overflow heap is capacity acquisition of an amortized structure, so it
  /// is charged to kPoolCapacity whichever plane the pushing code runs in.
  static void MakeRoom(std::vector<core::EnvelopeRef>& v) {
    if (v.size() < v.capacity()) return;
    stats::AllocScope plane(stats::AllocPlane::kPoolCapacity);
    v.reserve(std::max<size_t>(1, 2 * v.capacity()));
  }

  void RingInsert(core::EnvelopeRef env, SimTime t) {
    Bucket& b = buckets_[t & kMask];
    bitmap_[(t & kMask) >> 6] |= uint64_t{1} << (t & 63);
    MakeRoom(b.items);
    if (b.items.empty() || !Before(env, b.items.back())) {
      b.items.push_back(std::move(env));  // in-order arrival: stays sorted
      return;
    }
    if (b.pos > 0) {
      // The bucket is actively draining (so already sorted): keep the
      // undrained suffix ordered. The insert position is never before the
      // cursor — a same-tick arrival orders after everything already
      // popped (see the class comment).
      auto it = std::upper_bound(b.items.begin() + b.pos, b.items.end(), env,
                                 Before);
      b.items.insert(it, std::move(env));
      return;
    }
    b.items.push_back(std::move(env));
    b.sorted = false;  // out-of-order arrival: sort lazily at drain time
  }

  /// Earliest time present in the ring (kTimeMax when the ring is empty):
  /// first set bitmap bit at or after wstart_'s bucket, circularly.
  SimTime RingMinTime() const {
    if (total_ == overflow_.size()) return kTimeMax;
    const uint32_t start = static_cast<uint32_t>(wstart_ & kMask);
    uint32_t word = start >> 6;
    // Mask off bits below the start position in the first word.
    uint64_t bits = bitmap_[word] & (~uint64_t{0} << (start & 63));
    for (uint32_t scanned = 0; scanned <= kWords; ++scanned) {
      if (bits != 0) {
        const uint32_t idx =
            (word << 6) + static_cast<uint32_t>(std::countr_zero(bits));
        // Circular distance from the start bucket to idx gives the offset
        // of that bucket's (unique) time from wstart_.
        const uint32_t dist =
            (idx - start + static_cast<uint32_t>(kBuckets)) & kMask;
        return wstart_ + dist;
      }
      word = (word + 1) % kWords;
      bits = bitmap_[word];
    }
    RJOIN_CHECK(false) << "ring accounting out of sync";
    return kTimeMax;
  }

  static constexpr uint32_t kWords = kBuckets / 64;

  std::array<Bucket, kBuckets> buckets_;
  std::array<uint64_t, kWords> bitmap_{};
  std::vector<core::EnvelopeRef> overflow_;  // max-Later heap (min time)
  size_t total_ = 0;
  SimTime wstart_ = 0;  ///< window start: no pending event is earlier
};

}  // namespace rjoin::sim

#endif  // RJOIN_SIM_CALENDAR_QUEUE_H_
