#ifndef RJOIN_STATS_ALLOC_TRACKER_H_
#define RJOIN_STATS_ALLOC_TRACKER_H_

#include <cstdint>

namespace rjoin::stats {

/// Which data plane a heap allocation belongs to. The process-wide
/// operator new override (alloc_tracker.cc) charges every allocation to
/// the calling thread's current plane, so a bench can report
/// `allocs_per_tuple_<plane>` and a regression is locatable, not just
/// detectable (ISSUE 8, satellite 2).
enum class AllocPlane : uint8_t {
  kOther = 0,    ///< untagged: setup, workload generation, reporting
  kTuple = 1,    ///< tuple dictionaries, per-record tuple-plane traffic
  kResidual = 2, ///< stored-query / residual per-record traffic
  kMessage = 3,  ///< per-envelope message-plane traffic
  /// Capacity acquisition of amortized structures: pool slab growth
  /// (SlabPool, TuplePool, MessagePool), hash-table doubling (KeyIdMap,
  /// the route caches' among them, and FlatU64Set). Dictionary inserts
  /// are not here: key inserts charge the caller's plane, value and
  /// relation-name inserts kTuple. These are O(log n) per structure by
  /// construction — the thing arenas amortize — and are tracked apart from
  /// the per-record planes, whose steady-state target is <= 1 alloc per
  /// tuple: a record-plane regression means a record started costing heap
  /// again, not that a pool grew a slab.
  kPoolCapacity = 4,
};

inline constexpr int kNumAllocPlanes = 5;

/// Cumulative allocation counts per plane since process start.
struct AllocCounts {
  uint64_t counts[kNumAllocPlanes] = {0, 0, 0, 0, 0};

  uint64_t other() const { return counts[0]; }
  uint64_t tuple() const { return counts[1]; }
  uint64_t residual() const { return counts[2]; }
  uint64_t message() const { return counts[3]; }
  uint64_t pool_capacity() const { return counts[4]; }
  /// Per-record data-plane total: tuple + residual + message (capacity
  /// growth and untagged allocations excluded).
  uint64_t data_plane() const {
    return counts[1] + counts[2] + counts[3];
  }
};

/// Snapshot of the global counters (relaxed reads; exact once threads are
/// quiescent, which is when benches sample them).
AllocCounts ReadAllocCounts();

/// RAII tag: allocations on this thread are charged to `plane` until the
/// scope ends (nests; restores the previous plane). Cheap enough for hot
/// paths — one thread_local store each way.
class AllocScope {
 public:
  explicit AllocScope(AllocPlane plane);
  ~AllocScope();
  AllocScope(const AllocScope&) = delete;
  AllocScope& operator=(const AllocScope&) = delete;

 private:
  AllocPlane prev_;
};

}  // namespace rjoin::stats

#endif  // RJOIN_STATS_ALLOC_TRACKER_H_
