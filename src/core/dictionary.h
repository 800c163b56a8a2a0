#ifndef RJOIN_CORE_DICTIONARY_H_
#define RJOIN_CORE_DICTIONARY_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "util/logging.h"

namespace rjoin::core {

/// The id Dictionary::Find returns for an absent entry. The users' invalid
/// ids (kInvalidKeyId, kInvalidValueId) equal it.
inline constexpr uint32_t kNotInterned = UINT32_MAX;

/// Append-only array of T in 2^kSlabBits-element slabs that are never
/// freed while the spine lives, so `at(i)` is lock-free from any thread and
/// element references stay valid. The spine is a fixed array of atomic slab
/// pointers: readers never race a growing vector. Writers append in index
/// order, one at a time (under their own lock), adding a slab whenever an
/// index opens one.
template <typename T, uint32_t kSlabBits, uint32_t kMaxSlabs>
class SlabSpine {
 public:
  static constexpr uint32_t kSlabSize = 1u << kSlabBits;
  static constexpr uint32_t kCapacity = kSlabSize * kMaxSlabs;

  SlabSpine() = default;
  SlabSpine(const SlabSpine&) = delete;
  SlabSpine& operator=(const SlabSpine&) = delete;
  ~SlabSpine() {
    for (uint32_t s = 0; s < kMaxSlabs; ++s) {
      delete[] slabs_[s].load(std::memory_order_relaxed);
    }
  }

  /// Element `i`; its slab must have been added.
  T& at(uint32_t i) const {
    return slabs_[i >> kSlabBits].load(std::memory_order_acquire)
        [i & (kSlabSize - 1)];
  }

  /// True when index `i` is the first of a slab, which AddSlab must add
  /// before `i` is written.
  static bool OpensSlab(uint32_t i) { return (i & (kSlabSize - 1)) == 0; }

  /// Allocates and publishes the slab that index `i` opens.
  void AddSlab(uint32_t i) {
    slabs_[i >> kSlabBits].store(new T[kSlabSize], std::memory_order_release);
  }

 private:
  // Value-initialised: every slab pointer starts null.
  const std::unique_ptr<std::atomic<T*>[]> slabs_ =
      std::make_unique<std::atomic<T*>[]>(kMaxSlabs);
};

/// Append-only interning table: each distinct entry is stored once in a
/// SlabSpine and named by a dense u32 id, assigned in first-insert order.
/// A user supplies the 64-bit hash and the equality of each lookup;
/// `HashOf` (a stateless functor over `const Entry&`) rehashes stored
/// entries when the index grows, and must agree with the lookup hashes.
///
/// Concurrency contract:
///  * Find() and at() are lock-free and safe from any thread, concurrently
///    with inserts.
///  * Insert() takes a mutex and re-checks under it, so racing first-sight
///    inserts of one entry agree on one id. Callers Find() first, so a
///    repeated entry never takes the lock.
///  * Entries are immortal: slabs and retired index tables are never freed
///    while the dictionary lives, so ids and entry references stay valid.
///
/// The index is open addressing over slots packing
/// `(hash >> 32) << 32 | (id + 1)`, 0 = empty; a slot is release-published
/// after its entry is fully written. At 70% load the index doubles into a
/// new table and retires (keeps) the old one: a reader still holding the
/// old table sees a subset, misses, and its Insert() finds the entry under
/// the lock — never a dangling pointer.
template <typename Entry, typename HashOf, uint32_t kSlabBits,
          uint32_t kMaxSlabs>
class Dictionary {
 public:
  /// `what` names the dictionary in its capacity check.
  explicit Dictionary(const char* what) : what_(what) {
    auto table = std::make_unique<Table>(kInitialSlots);
    table_.store(table.get(), std::memory_order_release);
    retired_.push_back(std::move(table));
  }

  uint32_t size() const { return size_.load(std::memory_order_acquire); }

  /// Entry `id`. The reference is stable for the dictionary's lifetime.
  const Entry& at(uint32_t id) const {
    RJOIN_DCHECK(id < size());
    return entries_.at(id);
  }

  /// Id of the entry that hashes to `hash` and satisfies `eq(entry)`, or
  /// kNotInterned. Lock-free.
  template <typename Eq>
  uint32_t Find(uint64_t hash, const Eq& eq) const {
    return FindIn(*table_.load(std::memory_order_acquire), hash, eq);
  }

  /// The locked half of interning: the id Find() would return, else a new
  /// entry that `fill(Entry&)` writes. `.second` is true when this call
  /// inserted. Allocations (slabs, index growth) charge the caller's plane.
  template <typename Eq, typename Fill>
  std::pair<uint32_t, bool> Insert(uint64_t hash, const Eq& eq,
                                   const Fill& fill) {
    std::lock_guard<std::mutex> lock(mutex_);
    Table* table = table_.load(std::memory_order_relaxed);
    const uint32_t found = FindIn(*table, hash, eq);
    if (found != kNotInterned) return {found, false};  // lost a race

    const uint32_t n = size_.load(std::memory_order_relaxed);
    RJOIN_CHECK(n < Spine::kCapacity)
        << what_ << " dictionary full (" << n
        << " entries): entries are immortal, so the workload's domain is "
           "too large for it (docs/keys.md)";
    if (Spine::OpensSlab(n)) entries_.AddSlab(n);
    fill(entries_.at(n));
    size_.store(n + 1, std::memory_order_release);

    if ((static_cast<uint64_t>(n) + 1) * 10 >= (table->mask + 1) * 7) {
      auto bigger = std::make_unique<Table>((table->mask + 1) * 2);
      for (uint32_t prev = 0; prev < n; ++prev) {
        PublishInto(*bigger, HashOf{}(entries_.at(prev)), prev);
      }
      table = bigger.get();
      table_.store(table, std::memory_order_release);
      retired_.push_back(std::move(bigger));
    }
    PublishInto(*table, hash, n);
    return {n, true};
  }

 private:
  using Spine = SlabSpine<Entry, kSlabBits, kMaxSlabs>;
  static constexpr size_t kInitialSlots = 1024;

  struct Table {
    explicit Table(size_t capacity)
        : mask(capacity - 1),
          slots(std::make_unique<std::atomic<uint64_t>[]>(capacity)) {}
    const size_t mask;
    // Value-initialised: every slot starts empty.
    const std::unique_ptr<std::atomic<uint64_t>[]> slots;
  };

  template <typename Eq>
  uint32_t FindIn(const Table& table, uint64_t hash, const Eq& eq) const {
    const uint32_t tag = static_cast<uint32_t>(hash >> 32);
    for (size_t i = hash & table.mask;; i = (i + 1) & table.mask) {
      const uint64_t slot = table.slots[i].load(std::memory_order_acquire);
      if (slot == 0) return kNotInterned;
      if (static_cast<uint32_t>(slot >> 32) == tag) {
        const uint32_t id = static_cast<uint32_t>(slot) - 1;
        if (eq(entries_.at(id))) return id;
      }
    }
  }

  static void PublishInto(Table& table, uint64_t hash, uint32_t id) {
    size_t i = hash & table.mask;
    while (table.slots[i].load(std::memory_order_relaxed) != 0) {
      i = (i + 1) & table.mask;
    }
    table.slots[i].store((hash >> 32 << 32) | (uint64_t{id} + 1),
                         std::memory_order_release);
  }

  Spine entries_;
  std::atomic<uint32_t> size_{0};
  std::atomic<Table*> table_;
  std::vector<std::unique_ptr<Table>> retired_;  // every table, kept alive
  std::mutex mutex_;
  const char* const what_;
};

}  // namespace rjoin::core

#endif  // RJOIN_CORE_DICTIONARY_H_
