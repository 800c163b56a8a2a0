#ifndef RJOIN_CORE_HANDOFF_H_
#define RJOIN_CORE_HANDOFF_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/interner.h"
#include "core/key.h"
#include "core/key_map.h"
#include "core/node_state.h"
#include "dht/id.h"
#include "sql/tuple.h"

namespace rjoin::core {

// ---------------------------------------------------------------------------
// State handoff on topology churn. When ring responsibility for a key range
// moves (a node joins in front of its successor, or a node leaves toward its
// successor), the old owner extracts every piece of per-key NodeState in the
// range — stored queries, value-level tuples, ALTT entries, and rate-tracker
// counters — into one HandoffBatch that travels as a StateHandoff message
// through the normal message plane (and therefore through the sharded
// runtime's per-(src, dst, round) mailbox chains). See docs/churn.md.
// ---------------------------------------------------------------------------

/// A stored (input or rewritten) query changing owners. The ProjectionSet
/// inside StoredQuery moves along, so the DISTINCT projection rule keeps its
/// memory across the handoff.
struct HandoffQuery {
  KeyId key = kInvalidKeyId;
  StoredQuery sq;
};

/// A value-level stored tuple changing owners (arrival order per key is
/// preserved by the batch's emission order). Moves a 4-byte pooled-record
/// handle, not a shared_ptr graph.
struct HandoffTuple {
  KeyId key = kInvalidKeyId;
  TupleRef tuple;
};

/// An ALTT entry changing owners. `expires` is the entry's original absolute
/// expiry, so the Section 4 Delta bound is honored across the handoff: the
/// new owner keeps the tuple exactly as long as the old owner would have.
struct HandoffAltt {
  KeyId key = kInvalidKeyId;
  AlttEntry entry;
};

/// One key's RateTracker bucket changing owners (the RIC migration policy:
/// rate observations migrate and merge; candidate-table entries do not —
/// they age out and self-heal through forwarding; see docs/churn.md).
struct RateSlice {
  KeyId key = kInvalidKeyId;
  uint64_t epoch = 0;
  uint64_t current = 0;
  uint64_t previous = 0;
};

/// Everything one responsibility transfer moves, in ring-id order.
struct HandoffBatch {
  dht::NodeIndex from = dht::kInvalidNode;  ///< the old owner
  dht::NodeId range_low;   ///< moved responsibility: ring interval
  dht::NodeId range_high;  ///< (range_low, range_high]
  uint64_t emitted_at = 0;  ///< virtual emission time (recovery metric)
  std::vector<HandoffQuery> queries;
  std::vector<HandoffTuple> tuples;
  std::vector<HandoffAltt> altt;
  std::vector<RateSlice> rates;

  /// True when this handoff is a replica promotion after a crash: the
  /// receiver installs its own surviving replica slices as the new owner
  /// (same install passes as a graceful handoff) and samples recovery
  /// rounds separately.
  bool promoted = false;

  bool empty() const {
    return queries.empty() && tuples.empty() && altt.empty() && rates.empty();
  }
  uint64_t records() const {
    return queries.size() + tuples.size() + altt.size() + rates.size();
  }

  /// Approximate wire size of the batch, for the bench's handoff-bytes
  /// series: fixed per-record overheads plus 8 bytes per tuple value. The
  /// replication ledger charges mirrors with the same per-record sizes.
  static constexpr uint64_t kHeaderBytes = 64;  // from + range + emission
  static constexpr uint64_t kQueryBytes = 64;
  static constexpr uint64_t kRateBytes = 32;
  static uint64_t TupleBytes(const TupleRef& t) {
    return 32 + 8 * (t ? t->arity : 0);
  }
  static uint64_t AlttBytes(const TupleRef& t) {
    return 40 + 8 * (t ? t->arity : 0);
  }
  uint64_t ApproxBytes() const {
    uint64_t bytes = kHeaderBytes + queries.size() * kQueryBytes;
    for (const HandoffTuple& t : tuples) bytes += TupleBytes(t.tuple);
    for (const HandoffAltt& a : altt) bytes += AlttBytes(a.entry.tuple);
    return bytes + rates.size() * kRateBytes;
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
/// This is the one definition of handoff emission order: every structure a
/// handoff extracts walks its keys through this helper, so the batch layout
/// is a pure function of the key set regardless of insertion history.
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

}  // namespace rjoin::core

#endif  // RJOIN_CORE_HANDOFF_H_
