#include "sim/event_queue.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "stats/alloc_tracker.h"
#include "stats/trace.h"
#include "util/logging.h"

namespace rjoin::sim {

namespace {

/// True iff `a` pops before `b`: ascending (time, insertion order). A
/// closure, not a function, so the sort and heap algorithms inline it.
constexpr auto Before = [](const core::EnvelopeRef& a,
                           const core::EnvelopeRef& b) {
  if (a->time != b->time) return a->time < b->time;
  return a->order < b->order;
};

/// The overflow heap's comparator: std::push_heap keeps the greatest
/// element on top, so the latest event compares greatest.
constexpr auto After = [](const core::EnvelopeRef& a,
                          const core::EnvelopeRef& b) { return Before(b, a); };

/// Makes room for one more event in `v`. Growing a bucket or the overflow
/// heap is capacity acquisition of an amortized structure, so it is charged
/// to kPoolCapacity whichever plane the pushing code runs in.
void MakeRoom(std::vector<core::EnvelopeRef>& v) {
  if (v.size() < v.capacity()) return;
  stats::AllocScope plane(stats::AllocPlane::kPoolCapacity);
  v.reserve(std::max<size_t>(1, 2 * v.capacity()));
}

}  // namespace

void EventQueue::Push(core::EnvelopeRef env) {
  env->order = next_order_++;
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
    std::push_heap(overflow_.begin(), overflow_.end(), After);
  }
}

SimTime EventQueue::PeekTime() const {
  const SimTime ring = RingMinTime();
  if (overflow_.empty()) return ring;
  const SimTime over = overflow_.front()->time;
  return ring < over ? ring : over;
}

core::EnvelopeRef EventQueue::Pop() {
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
    std::pop_heap(overflow_.begin(), overflow_.end(), After);
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
    std::pop_heap(overflow_.begin(), overflow_.end(), After);
    core::EnvelopeRef out = std::move(overflow_.back());
    overflow_.pop_back();
    --total_;
    return out;
  }
  if (!b.sorted) {
    std::sort(b.items.begin(), b.items.end(), Before);
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

void EventQueue::Rebase(SimTime t) {
  for (Bucket& b : buckets_) {
    for (size_t j = b.pos; j < b.items.size(); ++j) {
      MakeRoom(overflow_);
      overflow_.push_back(std::move(b.items[j]));
      std::push_heap(overflow_.begin(), overflow_.end(), After);
    }
    b.items.clear();
    b.pos = 0;
    b.sorted = true;
  }
  bitmap_.fill(0);
  wstart_ = t;
}

void EventQueue::RingInsert(core::EnvelopeRef env, SimTime t) {
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
    // cursor — a same-tick arrival orders after everything already popped
    // (see the class comment).
    auto it = std::upper_bound(b.items.begin() + b.pos, b.items.end(), env,
                               Before);
    b.items.insert(it, std::move(env));
    return;
  }
  b.items.push_back(std::move(env));
  b.sorted = false;  // out-of-order arrival: sort lazily at drain time
}

SimTime EventQueue::RingMinTime() const {
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

}  // namespace rjoin::sim
