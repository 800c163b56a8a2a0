#ifndef RJOIN_CORE_HANDOFF_H_
#define RJOIN_CORE_HANDOFF_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/interner.h"
#include "core/key.h"
#include "core/key_map.h"
#include "core/node_state.h"
#include "core/residual.h"
#include "core/ric.h"
#include "core/tuple_ref.h"
#include "dht/id.h"

namespace rjoin::core {

// ---------------------------------------------------------------------------
// Moving a key's state. Everything a responsible node keeps under one index
// key — stored queries, value-level tuples, ALTT entries and the RIC rate
// bucket — is the key's slice. Slices move when ring responsibility changes
// (a join or leave hands them to the new owner, a crash promotes the
// survivor's replica copies) and are copied to successors (replica
// snapshots); all of these use one KeySlice format, built by one extractor
// (RJoinEngine::SliceOf) and installed by one loop
// (RJoinEngine::OnStateHandoff). See docs/churn.md and docs/failures.md.
// ---------------------------------------------------------------------------

/// One key's slice, as flat records: residuals (no DISTINCT projection
/// memory — see HandoffBatch::projections), value-tuple handles in arrival
/// order, ALTT entries with their original absolute expiry (so the
/// Section 4 Delta bound spans a move), and the key's rate bucket (rates
/// migrate and merge; candidate tables do not move — docs/churn.md).
/// Move-only: copying a slice is a deliberate SliceOf call.
struct KeySlice {
  std::vector<Residual> queries;
  std::vector<TupleRef> tuples;
  std::vector<AlttEntry> altt;
  RateBucket rate;
  KeyId key = kInvalidKeyId;  // last: ReplicaSlice packs into its padding

  KeySlice() = default;
  explicit KeySlice(KeyId k) : key(k) {}
  KeySlice(KeySlice&&) noexcept = default;
  KeySlice& operator=(KeySlice&&) noexcept = default;
  KeySlice(const KeySlice&) = delete;
  KeySlice& operator=(const KeySlice&) = delete;

  /// Records the slice holds; a non-empty rate bucket counts as one.
  uint64_t records() const {
    return queries.size() + tuples.size() + altt.size() +
           (rate.empty() ? 0 : 1);
  }
  bool empty() const { return records() == 0; }

  /// Approximate wire size, for the handoff-bytes and replica-bytes
  /// ledgers: fixed per-record overheads plus 8 bytes per tuple value.
  uint64_t Bytes() const {
    uint64_t bytes = queries.size() * kQueryBytes;
    for (const TupleRef& t : tuples) bytes += TupleBytes(t);
    for (const AlttEntry& e : altt) bytes += AlttBytes(e.tuple);
    return bytes + (rate.empty() ? 0 : kRateBytes);
  }
  static constexpr uint64_t kQueryBytes = 64;
  static constexpr uint64_t kRateBytes = 32;
  static uint64_t TupleBytes(const TupleRef& t) {
    return 32 + 8 * (t ? t->arity : 0);
  }
  static uint64_t AlttBytes(const TupleRef& t) {
    return 40 + 8 * (t ? t->arity : 0);
  }
};

/// Everything one responsibility transfer moves: whole key slices in ring
/// order, travelling as one StateHandoff message through the normal
/// message plane (and therefore through the sharded runtime's mailboxes).
struct HandoffBatch {
  uint64_t emitted_at = 0;  ///< virtual emission time (recovery metric)
  /// True when this handoff is a replica promotion after a crash: the
  /// receiver installs its own surviving replica slices as the new owner
  /// (same install passes as a graceful handoff) and samples recovery
  /// rounds separately.
  bool promoted = false;
  std::vector<KeySlice> slices;
  /// Graceful handoffs only: each moved residual's DISTINCT projection
  /// memory (FlatU64Set), in slice then residual order. Empty for
  /// promotions — replicas do not mirror it; DISTINCT suppression after a
  /// promotion rests on the owner-side answer-row fingerprints and the
  /// target-side stored-residual fingerprints.
  std::vector<FlatU64Set> projections;

  uint64_t records() const {
    uint64_t n = 0;
    for (const KeySlice& s : slices) n += s.records();
    return n;
  }

  static constexpr uint64_t kHeaderBytes = 64;  ///< modeled message header
  uint64_t ApproxBytes() const {
    uint64_t bytes = kHeaderBytes;
    for (const KeySlice& s : slices) bytes += s.Bytes();
    return bytes;
  }
};

/// Sorts interned keys into ring order: (ring id, level, id). Two distinct
/// keys share a ring id only when the same text is interned at both levels
/// (level breaks the tie) or on a SHA-1 collision (id breaks it); id values
/// never decide between keys of different text in practice, so the order is
/// reproducible across processes.
inline void SortKeysByRingId(std::vector<KeyId>* keys,
                             const KeyInterner& interner) {
  std::sort(keys->begin(), keys->end(), [&](KeyId a, KeyId b) {
    const dht::NodeId& ra = interner.ring_id(a);
    const dht::NodeId& rb = interner.ring_id(b);
    if (ra != rb) return ra < rb;
    if (interner.level(a) != interner.level(b)) {
      return interner.level(a) < interner.level(b);
    }
    return a < b;
  });
}

/// Keys of `map` whose interned ring identifier falls inside the ring
/// interval (low, high], sorted by (ring id, level, id) — i.e. ring order,
/// NOT KeyIdMap iteration order, which is unspecified (see docs/keys.md).
/// Slice moves emit in this order, so a batch's layout is a pure function
/// of its key set regardless of insertion history.
template <typename V>
std::vector<KeyId> KeysInRangeSorted(const KeyIdMap<V>& map,
                                     const KeyInterner& interner,
                                     const dht::NodeId& low,
                                     const dht::NodeId& high) {
  std::vector<KeyId> keys;
  map.ForEach([&](KeyId key, const V&) {
    if (dht::InIntervalOpenClosed(interner.ring_id(key), low, high)) {
      keys.push_back(key);
    }
  });
  SortKeysByRingId(&keys, interner);
  return keys;
}

/// Every key `st` keeps slice state under — stored queries, value tuples,
/// ALTT entries or a live rate bucket (buckets emptied since count too) —
/// for which keep(key) holds, once each, in ring order.
template <typename Keep>
std::vector<KeyId> SliceKeys(const NodeState& st, const KeyInterner& interner,
                             Keep&& keep) {
  std::vector<KeyId> keys;
  auto add = [&](KeyId key, const auto&) { keys.push_back(key); };
  st.queries.ForEach(add);
  st.tuples.ForEach(add);
  st.altt.ForEach(add);
  st.rates.AppendTrackedKeys(&keys);
  std::erase_if(keys, [&](KeyId key) { return !keep(key); });
  SortKeysByRingId(&keys, interner);
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

}  // namespace rjoin::core

#endif  // RJOIN_CORE_HANDOFF_H_
