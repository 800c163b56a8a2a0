#ifndef RJOIN_CORE_DICTIONARY_H_
#define RJOIN_CORE_DICTIONARY_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "util/logging.h"

namespace rjoin::core {

/// The id Dictionary::Find returns for an absent entry. The users' invalid
/// ids (kInvalidKeyId, kInvalidValueId) equal it.
inline constexpr uint32_t kNotInterned = UINT32_MAX;

/// Append-only array of T in 2^kSlabBits-element slabs that are never
/// freed while the spine lives, so element references stay valid. The
/// spine is a fixed array of slab pointers. Writers append in index order,
/// adding a slab whenever an index opens one.
template <typename T, uint32_t kSlabBits, uint32_t kMaxSlabs>
class SlabSpine {
 public:
  static constexpr uint32_t kSlabSize = 1u << kSlabBits;
  static constexpr uint32_t kCapacity = kSlabSize * kMaxSlabs;

  /// Element `i`; its slab must have been added.
  T& at(uint32_t i) const {
    return slabs_[i >> kSlabBits][i & (kSlabSize - 1)];
  }

  /// True when index `i` is the first of a slab, which AddSlab must add
  /// before `i` is written.
  static bool OpensSlab(uint32_t i) { return (i & (kSlabSize - 1)) == 0; }

  /// Allocates the slab that index `i` opens. Its elements are
  /// default-initialised (their constructors run; nothing is zeroed first).
  void AddSlab(uint32_t i) {
    slabs_[i >> kSlabBits] = std::make_unique_for_overwrite<T[]>(kSlabSize);
  }

 private:
  const std::unique_ptr<std::unique_ptr<T[]>[]> slabs_ =
      std::make_unique<std::unique_ptr<T[]>[]>(kMaxSlabs);
};

/// Append-only interning table: each distinct entry is stored once in a
/// SlabSpine and named by a dense u32 id, assigned in first-insert order.
/// A user supplies the 64-bit hash and the equality of each lookup;
/// `HashOf` (a stateless functor over `const Entry&`) rehashes stored
/// entries when the index grows, and must agree with the lookup hashes.
/// Entries are immortal, so ids and entry references stay valid for the
/// dictionary's lifetime. Like the rest of the engine, it runs on the
/// simulator's one thread.
///
/// The index is open addressing over slots packing
/// `(hash >> 32) << 32 | (id + 1)`, 0 = empty. At 70% load it doubles and
/// the old table is freed.
template <typename Entry, typename HashOf, uint32_t kSlabBits,
          uint32_t kMaxSlabs>
class Dictionary {
 public:
  /// `what` names the dictionary in its capacity check.
  explicit Dictionary(const char* what) : what_(what) {}

  uint32_t size() const { return size_; }

  /// Entry `id`. The reference is stable for the dictionary's lifetime.
  const Entry& at(uint32_t id) const {
    RJOIN_DCHECK(id < size());
    return entries_.at(id);
  }

  /// Id of the entry that hashes to `hash` and satisfies `eq(entry)`, or
  /// kNotInterned.
  template <typename Eq>
  uint32_t Find(uint64_t hash, const Eq& eq) const {
    const uint32_t tag = static_cast<uint32_t>(hash >> 32);
    const size_t mask = slots_.size() - 1;
    for (size_t i = hash & mask;; i = (i + 1) & mask) {
      const uint64_t slot = slots_[i];
      if (slot == 0) return kNotInterned;
      if (static_cast<uint32_t>(slot >> 32) == tag) {
        const uint32_t id = static_cast<uint32_t>(slot) - 1;
        if (eq(entries_.at(id))) return id;
      }
    }
  }

  /// Appends the entry that `fill(Entry&)` writes and returns its new id.
  /// Call it only when Find() missed the entry. Allocations (slabs, index
  /// growth) charge the caller's plane.
  template <typename Fill>
  uint32_t Insert(uint64_t hash, const Fill& fill) {
    const uint32_t n = size_;
    RJOIN_CHECK(n < Spine::kCapacity)
        << what_ << " dictionary full (" << n
        << " entries): entries are immortal, so the workload's domain is "
           "too large for it (docs/keys.md)";
    if (Spine::OpensSlab(n)) entries_.AddSlab(n);
    fill(entries_.at(n));
    size_ = n + 1;
    Publish(hash, n);
    if (uint64_t{size_} * 10 >= slots_.size() * 7) {
      slots_.assign(slots_.size() * 2, 0);
      for (uint32_t id = 0; id < size_; ++id) {
        Publish(HashOf{}(entries_.at(id)), id);
      }
    }
    return n;
  }

 private:
  using Spine = SlabSpine<Entry, kSlabBits, kMaxSlabs>;
  static constexpr size_t kInitialSlots = 1024;

  void Publish(uint64_t hash, uint32_t id) {
    const size_t mask = slots_.size() - 1;
    size_t i = hash & mask;
    while (slots_[i] != 0) i = (i + 1) & mask;
    slots_[i] = (hash >> 32 << 32) | (uint64_t{id} + 1);
  }

  Spine entries_;
  uint32_t size_ = 0;
  std::vector<uint64_t> slots_ = std::vector<uint64_t>(kInitialSlots);
  const char* const what_;
};

}  // namespace rjoin::core

#endif  // RJOIN_CORE_DICTIONARY_H_
