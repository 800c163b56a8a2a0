#ifndef RJOIN_CORE_RIC_H_
#define RJOIN_CORE_RIC_H_

#include <cstdint>
#include <vector>

#include "core/key.h"
#include "core/key_map.h"
#include "dht/chord_node.h"

namespace rjoin::core {

/// Rate-of-Incoming-tuples-Counting (RIC) information for one index key
/// (Section 6): how many tuples reached the responsible node under that key
/// during the last observation window, plus where that node is (its "IP").
/// Keys are interned ids, so an entry is 24 bytes and piggy-backing a
/// candidate table excerpt on a rewrite copies no strings. The candidate
/// table stores each entry as its own hash slot, `key` included.
struct RicEntry {
  KeyId key = kInvalidKeyId;
  dht::NodeIndex node = dht::kInvalidNode;  ///< responsible node's address
  uint64_t rate = 0;
  uint64_t timestamp = 0;  ///< when the rate was learned (T_r)
};

/// Section 7's freshness rule for a candidate-table lookup: true iff
/// `found` (a CandidateTable::Find result, possibly null) was learned
/// within `validity` of `now`.
inline bool IsFresh(const RicEntry* found, uint64_t now, uint64_t validity) {
  return found != nullptr && now - found->timestamp <= validity;
}

/// Fixed-capacity RIC piggyback (Section 7): the candidate-table excerpt a
/// QueryIndex/Rewrite message carries. Inline — a rewrite message with
/// piggyback is a flat POD, no heap vector per hop. Capacity covers one
/// entry per indexing candidate of the widest supported query
/// (kMaxQueryRels, plus slack); overflow drops deterministically
/// (TryPush keeps the first kCap in construction order, which is identical
/// across shard counts), costing at most a cache-warming hint.
struct RicVec {
  static constexpr int kCap = 12;

  uint16_t count = 0;
  RicEntry entries[kCap];

  bool TryPush(const RicEntry& e) {
    if (count >= kCap) return false;
    entries[count++] = e;
    return true;
  }
  const RicEntry* begin() const { return entries; }
  const RicEntry* end() const { return entries + count; }
  size_t size() const { return count; }
  bool empty() const { return count == 0; }
};

/// One key's arrival counts: the unit RIC state moves in (churn handoff,
/// crash promotion, replica mirrors). Empty when both epochs counted
/// nothing.
struct RateBucket {
  uint64_t epoch = 0;
  uint64_t current = 0;
  uint64_t previous = 0;

  bool empty() const { return current == 0 && previous == 0; }
};

/// Per-node tuple-arrival counter. Tracks, for every index key the node is
/// responsible for, the number of tuples received in the current and the
/// previous observation epoch; the predicted rate is their sum — i.e. "we
/// observe what has happened during the last time window and assume a
/// similar behavior for the future" (Section 6).
class RateTracker {
 public:
  explicit RateTracker(uint64_t epoch_length) : epoch_len_(epoch_length) {}

  /// Records one tuple arrival under `key` at time `now`.
  void Record(KeyId key, uint64_t now);

  /// Predicted arrivals over one observation window.
  uint64_t Rate(KeyId key, uint64_t now) const;

  /// Writes Rate(key, now) for every tracked key with a non-zero rate into
  /// `out` (missing keys read as 0). The sharded runtime freezes these
  /// snapshots at epoch barriers so worker threads can answer remote RIC
  /// lookups without reading live cross-shard state.
  void SnapshotInto(uint64_t now, KeyIdMap<uint64_t>* out) const;

  // ---- churn migration (docs/churn.md: rates migrate and merge) --------

  /// Appends every key with a live (non-zero) bucket to `out`, in the
  /// tracker's unspecified iteration order — callers sort (the handoff
  /// path sorts by ring id).
  void AppendTrackedKeys(std::vector<KeyId>* out) const;

  /// Moves `key`'s bucket out (zeroing it here). Returns an empty bucket
  /// when the key is untracked or empty. The result feeds MergeSlice at
  /// the new owner.
  RateBucket ExtractKey(KeyId key);

  /// Folds a migrated bucket into this tracker: both sides roll forward to
  /// the newer epoch (observations age across the handoff exactly as they
  /// would have in place), then counts add.
  void MergeSlice(KeyId key, RateBucket incoming);

  /// Read-only copy of `key`'s raw bucket (no roll, no zeroing); empty when
  /// the key is untracked or empty. The replication mirror path peeks the
  /// owner's bucket without disturbing it; the promoted owner MergeSlices
  /// the copy later.
  RateBucket PeekKey(KeyId key) const;

 private:
  void Roll(RateBucket& b, uint64_t epoch) const;
  uint64_t EpochOf(uint64_t now) const {
    return epoch_len_ == 0 ? 0 : now / epoch_len_;
  }

  uint64_t epoch_len_;
  KeyIdMap<RateBucket> counts_;
};

/// The candidate table (CT) of Section 7: RIC info cached per key so that
/// future indexing decisions can skip the O(log N) candidate lookup. Keeps
/// the most recent entry per key.
class CandidateTable {
 public:
  /// Inserts or refreshes; keeps the entry with the newer timestamp.
  void Merge(const RicEntry& entry);

  /// Entry for `key`, or nullptr.
  const RicEntry* Find(KeyId key) const;

 private:
  /// Self-keyed: a slot is the entry (key, node, rate, timestamp).
  using Entries = KeyIdMap<RicEntry, RicEntry>;
  // Every node keeps one slot per key it has learned RIC info for
  // (docs/keys.md, docs/perf.md).
  static_assert(Entries::kSlotBytes == 24, "candidate-table slot size changed");
  Entries entries_;
};

}  // namespace rjoin::core

#endif  // RJOIN_CORE_RIC_H_
