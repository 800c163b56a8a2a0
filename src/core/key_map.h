#ifndef RJOIN_CORE_KEY_MAP_H_
#define RJOIN_CORE_KEY_MAP_H_

#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/key.h"
#include "stats/alloc_tracker.h"
#include "util/logging.h"

namespace rjoin::core {

/// Flat open-addressing map keyed by interned KeyIds. The node-state
/// buckets, rate trackers, candidate tables, and frozen RIC snapshots all
/// key by KeyId, and none of them ever erases an individual key — so the
/// map supports insert/lookup/iterate/clear only, which keeps probing
/// tombstone-free and lookups one multiply + a short linear scan (vs. the
/// string hash + chased bucket of the unordered_map<string, ...> it
/// replaces).
///
/// A slot is normally the key beside its value (KeyIdSlot). A value type
/// that carries its own `KeyId key` field, defaulting to kInvalidKeyId, can
/// be its own slot instead (KeyIdMap<V, V>): the key is then stored once and
/// the slot loses the padding after a separate key — the candidate table's
/// RicEntry slots are 24 bytes, not 32.
template <typename V>
struct KeyIdSlot {
  KeyId key = kInvalidKeyId;
  V value{};
};

template <typename V, typename Slot = KeyIdSlot<V>>
class KeyIdMap {
 public:
  /// Bytes per table slot: what each entry (and each empty slot) costs.
  static constexpr size_t kSlotBytes = sizeof(Slot);

  KeyIdMap() = default;

  /// Value stored under `key`, or nullptr.
  V* Find(KeyId key) {
    if (size_ == 0) return nullptr;
    size_t i = Probe(key);
    for (; slots_[i].key != kInvalidKeyId; i = Next(i)) {
      if (slots_[i].key == key) return &ValueOf(slots_[i]);
    }
    return nullptr;
  }
  const V* Find(KeyId key) const {
    return const_cast<KeyIdMap*>(this)->Find(key);
  }

  /// Value under `key`, default-constructing it on first sight.
  V& operator[](KeyId key) {
    RJOIN_DCHECK(key != kInvalidKeyId);
    if (slots_.empty() || (size_ + 1) * 10 >= slots_.size() * 7) Grow();
    size_t i = Probe(key);
    for (; slots_[i].key != kInvalidKeyId; i = Next(i)) {
      if (slots_[i].key == key) return ValueOf(slots_[i]);
    }
    slots_[i].key = key;
    ++size_;
    return ValueOf(slots_[i]);
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Drops every entry but keeps the table storage (the frozen RIC
  /// snapshots clear and refill once per epoch).
  void clear() {
    for (Slot& s : slots_) {
      if (s.key != kInvalidKeyId) {
        ValueOf(s) = V{};
        s.key = kInvalidKeyId;
      }
    }
    size_ = 0;
  }

  /// Applies f(KeyId, V&) to every entry, in unspecified order. Callers
  /// must not insert or erase during the walk (mutating V is fine).
  template <typename F>
  void ForEach(F&& f) {
    for (Slot& s : slots_) {
      if (s.key != kInvalidKeyId) f(s.key, ValueOf(s));
    }
  }
  template <typename F>
  void ForEach(F&& f) const {
    for (const Slot& s : slots_) {
      if (s.key != kInvalidKeyId) f(s.key, ValueOf(s));
    }
  }

 private:
  /// The value inside slot `s` (const follows the slot).
  template <typename S>
  static auto& ValueOf(S& s) {
    if constexpr (std::is_same_v<Slot, V>) {
      return s;
    } else {
      return s.value;
    }
  }

  size_t Probe(KeyId key) const {
    // Fibonacci scramble: interned ids are dense small integers.
    return (static_cast<uint64_t>(key) * 0x9e3779b97f4a7c15ull) &
           (slots_.size() - 1);
  }
  size_t Next(size_t i) const { return (i + 1) & (slots_.size() - 1); }

  void Grow() {
    stats::AllocScope plane(stats::AllocPlane::kPoolCapacity);
    std::vector<Slot> old = std::move(slots_);
    // Value-initialized, not copied from one default slot: V may be move-only
    // (replica stores hold whole key slices).
    slots_ = std::vector<Slot>(old.empty() ? 16 : old.size() * 2);
    size_ = 0;
    for (Slot& s : old) {
      if (s.key != kInvalidKeyId) (*this)[s.key] = std::move(ValueOf(s));
    }
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
};

}  // namespace rjoin::core

#endif  // RJOIN_CORE_KEY_MAP_H_
