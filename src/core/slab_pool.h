#ifndef RJOIN_CORE_SLAB_POOL_H_
#define RJOIN_CORE_SLAB_POOL_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "stats/alloc_tracker.h"
#include "util/logging.h"

namespace rjoin::core {

/// Index-linked slab allocator for node-state records (StoredQuery, ALTT
/// entries): the same slab/freelist discipline core::MessagePool applies
/// to envelopes, applied to the next allocation hot spot after delivery.
/// Nodes live in slabs (stable addresses — the engine holds references
/// across TryTrigger calls), are chained through u32 `next` indices
/// instead of pointers, and recycle through a freelist, so steady-state
/// store/drop cycles perform zero heap allocations.
///
/// Slabs grow geometrically: each new slab doubles the previous capacity
/// (base .. base << kMaxDoublings, then fixed at the cap). A pool holding
/// n nodes therefore cost O(log n) heap allocations, not n / slab_size —
/// with hundreds of per-node pools all growing monotonically (no-window
/// workloads accumulate stored rewrites forever), fixed-size slabs were
/// the dominant steady-state allocation source. The doubling caps at
/// base << kMaxDoublings nodes per slab so a huge pool never over-commits
/// more than one capped slab of slack. A slab is raw storage and each node
/// is constructed when first handed out, so the untouched tail of the
/// newest slab stays out of the resident set (at bench_fig3_tuples'
/// default scale, 30% of the stored-query slab nodes were never handed
/// out).
///
/// Single-threaded by design: each NodeState owns its pools, and a node's
/// events execute on exactly one shard.
template <typename T>
class SlabPool {
 public:
  static constexpr uint32_t kNil = UINT32_MAX;

  struct Node {
    T value{};
    uint32_t next = kNil;
  };

  /// `slab_nodes` (the first slab's capacity) must be a power of two.
  explicit SlabPool(uint32_t slab_nodes = 64)
      : base_shift_(static_cast<uint32_t>(std::countr_zero(slab_nodes))) {
    RJOIN_DCHECK(std::has_single_bit(slab_nodes));
  }
  SlabPool(const SlabPool&) = delete;
  SlabPool& operator=(const SlabPool&) = delete;

  ~SlabPool() {
    for (uint32_t idx = 0; idx < allocated_; ++idx) std::destroy_at(&at(idx));
    std::allocator<Node> storage;
    for (uint32_t k = 0; k < slabs_.size(); ++k) {
      storage.deallocate(slabs_[k], SlabCapacity(k));
    }
  }

  /// Hands out a clean node (freelist hit in steady state) with
  /// next == kNil; returns its index.
  uint32_t Allocate() {
    ++live_;
    ++acquired_;
    if (free_ != kNil) {
      ++recycled_;
      const uint32_t idx = free_;
      Node& n = at(idx);
      free_ = n.next;
      n.next = kNil;
      return idx;
    }
    const uint32_t idx = allocated_++;
    if (idx == capacity_) {
      stats::AllocScope plane(stats::AllocPlane::kPoolCapacity);
      const uint32_t cap = SlabCapacity(static_cast<uint32_t>(slabs_.size()));
      slabs_.emplace_back();
      slabs_.back() = std::allocator<Node>().allocate(cap);
      capacity_ += cap;
    }
    std::construct_at(&at(idx));
    return idx;
  }

  /// Returns `idx` to the freelist, dropping whatever its value owned.
  void Free(uint32_t idx) {
    Node& n = at(idx);
    n.value = T{};  // release owned resources (residuals, tuple refs)
    n.next = free_;
    free_ = idx;
    RJOIN_DCHECK(live_ > 0);
    --live_;
    ++released_;
  }

  Node& at(uint32_t idx) {
    RJOIN_DCHECK(idx < allocated_);
    const Location loc = Locate(idx);
    return slabs_[loc.slab][loc.offset];
  }
  const Node& at(uint32_t idx) const {
    RJOIN_DCHECK(idx < allocated_);
    const Location loc = Locate(idx);
    return slabs_[loc.slab][loc.offset];
  }

  /// Nodes ever created (the high-water mark) / currently in use.
  uint32_t allocated() const { return allocated_; }
  uint32_t live() const { return live_; }

  /// Pool-balance counters (mirror MessagePool::Stats): every Allocate is
  /// one `acquired`, every Free one `released`, freelist hits `recycled`.
  /// A drained pool must satisfy acquired == released (the balance the
  /// pool-balance suite asserts).
  uint64_t acquired() const { return acquired_; }
  uint64_t released() const { return released_; }
  uint64_t recycled() const { return recycled_; }

 private:
  /// Slab k holds base << min(k, kMaxDoublings) nodes.
  static constexpr uint32_t kMaxDoublings = 10;

  uint32_t SlabCapacity(uint32_t slab) const {
    return 1u << (base_shift_ + std::min(slab, kMaxDoublings));
  }

  struct Location {
    uint32_t slab;
    uint32_t offset;
  };

  /// O(1) index -> (slab, offset). In base-sized units u = idx >> shift,
  /// the doubling slabs 0..kMaxDoublings-1 cover u in [0, 2^D - 1) (slab k
  /// starts at 2^k - 1), then capped slabs of 2^D units each follow.
  Location Locate(uint32_t idx) const {
    const uint32_t u = idx >> base_shift_;
    constexpr uint32_t kGeomUnits = (1u << kMaxDoublings) - 1;
    if (u < kGeomUnits) {
      const uint32_t slab =
          static_cast<uint32_t>(std::bit_width(u + 1)) - 1;
      return {slab, idx - (((1u << slab) - 1) << base_shift_)};
    }
    const uint32_t v = u - kGeomUnits;
    const uint32_t low_mask = (1u << base_shift_) - 1;
    return {kMaxDoublings + (v >> kMaxDoublings),
            ((v & (kGeomUnits)) << base_shift_) | (idx & low_mask)};
  }

  const uint32_t base_shift_;
  std::vector<Node*> slabs_;  ///< nodes [0, allocated_) are constructed
  uint32_t capacity_ = 0;
  uint32_t allocated_ = 0;
  uint32_t live_ = 0;
  uint64_t acquired_ = 0;
  uint64_t released_ = 0;
  uint64_t recycled_ = 0;
  uint32_t free_ = kNil;
};

}  // namespace rjoin::core

#endif  // RJOIN_CORE_SLAB_POOL_H_
