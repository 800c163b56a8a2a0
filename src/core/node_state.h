#ifndef RJOIN_CORE_NODE_STATE_H_
#define RJOIN_CORE_NODE_STATE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/key.h"
#include "core/key_map.h"
#include "core/residual.h"
#include "core/ric.h"
#include "core/slab_pool.h"
#include "core/tuple_ref.h"
#include "sql/tuple.h"
#include "stats/alloc_tracker.h"

namespace rjoin::core {

/// Set of 64-bit values: the DISTINCT bookkeeping of the flat plane.
///  * The DISTINCT rule of Section 4 (a tuple triggers a stored query only
///    if its projection over the referenced attributes is new): one set of
///    projection fingerprints per stored DISTINCT query, pooled in its
///    node's projection_pool.
///  * Per-node fingerprints of stored DISTINCT residuals (key + content),
///    so identical rewritten queries are stored once; churn handoff erases
///    a migrated residual's print.
///  * The answer log's (query, row id) pairs.
///
/// Most stored queries see a handful of distinct projections, so the first
/// kInline values live inline; the fourth spills them into an
/// open-addressing table (home slot = the value's low bits, so values
/// should be well mixed) that doubles at 70% load. Erase swaps the last
/// inline value into the hole before the spill, and shifts the probe chain
/// back after it, so probing stays tombstone-free.
///
/// 0 marks empty table slots and is stored as an alias that cannot be told
/// apart from it. Fingerprint users accept a further trade: two different
/// payloads can collide in 64 bits (probability ~n^2/2^64), and the later
/// one is suppressed — tests/interner_test.cc documents both.
class FlatU64Set {
 public:
  FlatU64Set() = default;
  FlatU64Set(FlatU64Set&&) noexcept = default;
  FlatU64Set& operator=(FlatU64Set&&) noexcept = default;

  /// Inserts `v`; returns false if it was already present.
  bool Insert(uint64_t v) {
    v = Alias(v);
    if (!table_) {
      if (InlineIndex(v) < size_) return false;
      if (size_ < kInline) {
        inline_[size_++] = v;
        return true;
      }
      Grow();  // the spill
    }
    if ((size_ + 1) * 10 >= cap_ * 7) Grow();
    size_t i = Home(v);
    for (; table_[i] != 0; i = Next(i)) {
      if (table_[i] == v) return false;
    }
    table_[i] = v;
    ++size_;
    return true;
  }

  /// True if `v` was inserted (or collides with a value that was).
  bool Contains(uint64_t v) const {
    v = Alias(v);
    if (!table_) return InlineIndex(v) < size_;
    for (size_t i = Home(v); table_[i] != 0; i = Next(i)) {
      if (table_[i] == v) return true;
    }
    return false;
  }

  /// Removes `v`; returns false if it was absent.
  bool Erase(uint64_t v) {
    v = Alias(v);
    if (!table_) {
      const uint64_t k = InlineIndex(v);
      if (k == size_) return false;
      inline_[k] = inline_[--size_];
      return true;
    }
    size_t i = Home(v);
    for (; table_[i] != v; i = Next(i)) {
      if (table_[i] == 0) return false;
    }
    size_t j = i;
    for (;;) {
      j = Next(j);
      const uint64_t x = table_[j];
      if (x == 0) break;
      const size_t h = Home(x);
      // x may shift back into the hole unless its home lies in (i, j].
      const bool home_between =
          i <= j ? (i < h && h <= j) : (i < h || h <= j);
      if (!home_between) {
        table_[i] = x;
        i = j;
      }
    }
    table_[i] = 0;
    --size_;
    return true;
  }

  /// Distinct values held.
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

 private:
  static constexpr uint64_t kInline = 3;
  static constexpr uint64_t kZeroAlias = 0x9e3779b97f4a7c15ull;

  static uint64_t Alias(uint64_t v) { return v == 0 ? kZeroAlias : v; }
  size_t Home(uint64_t v) const { return v & (cap_ - 1); }
  size_t Next(size_t i) const { return (i + 1) & (cap_ - 1); }

  /// Inline slot holding `v`, else size_ (before the spill only).
  uint64_t InlineIndex(uint64_t v) const {
    uint64_t k = 0;
    while (k < size_ && inline_[k] != v) ++k;
    return k;
  }

  /// Spills the inline values into a 16-slot table, or doubles the table.
  void Grow() {
    stats::AllocScope plane(stats::AllocPlane::kPoolCapacity);
    const uint64_t cap = table_ ? cap_ * 2 : 16;
    auto bigger = std::make_unique<uint64_t[]>(cap);  // zeroed: all empty
    auto place = [&](uint64_t v) {
      size_t j = v & (cap - 1);
      while (bigger[j] != 0) j = (j + 1) & (cap - 1);
      bigger[j] = v;
    };
    if (table_) {
      for (size_t i = 0; i < cap_; ++i) {
        if (table_[i] != 0) place(table_[i]);
      }
    } else {
      for (uint64_t k = 0; k < size_; ++k) place(inline_[k]);
    }
    table_ = std::move(bigger);
    cap_ = cap;
  }

  uint64_t inline_[kInline] = {};  // the values while table_ is null
  std::unique_ptr<uint64_t[]> table_;
  uint64_t cap_ = 0;   // table slots
  uint64_t size_ = 0;  // distinct values, inline or in the table
};
// One per stored DISTINCT query (NodeState::projection_pool).
static_assert(sizeof(FlatU64Set) == 48, "FlatU64Set grew");
static_assert(sizeof(SlabPool<FlatU64Set>::Node) == 56,
              "projection-pool slab node size changed");

/// A query (input or rewritten) stored at a node, bucketed under the
/// interned index key it was stored with. A stored query of a DISTINCT
/// query also owns one FlatU64Set in its node's projection_pool; no
/// generated workload query is DISTINCT, so the set lives beside the
/// record instead of inline, and a non-DISTINCT record carries only the
/// unused handle.
struct StoredQuery {
  /// May overlap: `projections` then sits in the residual's tail padding,
  /// so a stored query is no larger than its residual.
  [[no_unique_address]] Residual residual;
  /// Index of the DISTINCT projection memory in the node's
  /// projection_pool; kNil for non-DISTINCT queries.
  uint32_t projections = SlabPool<FlatU64Set>::kNil;
};
static_assert(sizeof(StoredQuery) == sizeof(Residual),
              "StoredQuery::projections no longer packs into the residual");
// Every stored residual of every node is one of these (docs/perf.md).
static_assert(sizeof(SlabPool<StoredQuery>::Node) == 80,
              "stored-query slab node size changed");

/// Entry of the attribute-level tuple table (ALTT, Section 4): a tuple kept
/// for Delta time units so that an input query delayed in transit still
/// meets it.
struct AlttEntry {
  TupleRef tuple;
  uint64_t expires = 0;
};

/// An intrusive singly-linked FIFO of pooled records: buckets keep
/// head/tail indices into the owning NodeState's SlabPool and records chain
/// through their node's `next`. Append at tail preserves arrival order
/// (what the seed's vector/deque buckets iterated in).
struct BucketList {
  uint32_t head = SlabPool<StoredQuery>::kNil;
  uint32_t tail = SlabPool<StoredQuery>::kNil;
};

/// Appends a fresh pool node to `bucket`'s tail; returns its index. The
/// one definition of the head/tail/next append invariant. `Bucket` is any
/// struct with u32 head/tail (BucketList, TupleBucket).
template <typename T, typename Bucket>
uint32_t BucketAppend(SlabPool<T>& pool, Bucket& bucket) {
  const uint32_t idx = pool.Allocate();
  if (bucket.tail == SlabPool<T>::kNil) {
    bucket.head = idx;
  } else {
    pool.at(bucket.tail).next = idx;
  }
  bucket.tail = idx;
  return idx;
}

/// A chunk of the value-level tuple store: TupleRefs pack kCap to a pooled
/// record, and a bucket is a chain of chunks through the pool's `next`
/// links. Compared to one heap vector per bucket, bucket birth and growth
/// draw from the node's chunk pool (geometric slabs), so the windowless
/// store path — which keeps minting fresh (relation, attribute, value)
/// buckets for the Zipf tail of the stream — stays allocation-free in
/// steady state. Chunks are never empty: append fills the tail before
/// chaining a new chunk, and the sweep rebuilds compactly.
struct TupleChunk {
  static constexpr uint32_t kCap = 8;
  TupleRef refs[kCap];
  uint32_t count = 0;
};

/// A chunked tuple bucket: chunk-chain bounds plus the stored-ref count.
struct TupleBucket {
  uint32_t head = SlabPool<TupleChunk>::kNil;
  uint32_t tail = SlabPool<TupleChunk>::kNil;
  uint32_t size = 0;
};

/// A contiguous run of stored tuple handles — one chunk, or a gathered
/// ALTT chain — that the batched probe kernel evaluates in a tight loop.
struct TupleSpan {
  const TupleRef* data;
  uint32_t count;
};

/// Appends `ref` to `bucket`'s tail chunk, chaining a fresh chunk from
/// `pool` when the tail is full (or the bucket is empty).
inline void TupleBucketAppend(SlabPool<TupleChunk>& pool, TupleBucket& bucket,
                              TupleRef ref) {
  if (bucket.tail == SlabPool<TupleChunk>::kNil ||
      pool.at(bucket.tail).value.count == TupleChunk::kCap) {
    BucketAppend(pool, bucket);
  }
  TupleChunk& chunk = pool.at(bucket.tail).value;
  chunk.refs[chunk.count++] = std::move(ref);
  ++bucket.size;
}

/// Calls `fn(TupleRef&)` for every stored ref in arrival order.
template <typename Fn>
void TupleBucketForEach(SlabPool<TupleChunk>& pool, const TupleBucket& bucket,
                        Fn&& fn) {
  for (uint32_t cur = bucket.head; cur != SlabPool<TupleChunk>::kNil;
       cur = pool.at(cur).next) {
    TupleChunk& chunk = pool.at(cur).value;
    for (uint32_t i = 0; i < chunk.count; ++i) fn(chunk.refs[i]);
  }
}

/// Recycles every chunk (dropping the refs) and resets the bucket.
inline void TupleBucketClear(SlabPool<TupleChunk>& pool, TupleBucket& bucket) {
  uint32_t cur = bucket.head;
  while (cur != SlabPool<TupleChunk>::kNil) {
    const uint32_t next = pool.at(cur).next;
    pool.Free(cur);
    cur = next;
  }
  bucket = TupleBucket{};
}

/// Unlinks node `idx` (whose predecessor is `prev_idx`, kNil when idx is
/// the head) from `bucket` and recycles it. The one definition of the
/// unlink invariant.
template <typename T>
void BucketUnlink(SlabPool<T>& pool, BucketList& bucket, uint32_t prev_idx,
                  uint32_t idx) {
  const uint32_t next = pool.at(idx).next;
  if (prev_idx == SlabPool<T>::kNil) {
    bucket.head = next;
  } else {
    pool.at(prev_idx).next = next;
  }
  if (bucket.tail == idx) bucket.tail = prev_idx;
  pool.Free(idx);
}

struct ReplicaStore;  // core/replication.h

/// All RJoin state of one network node. Buckets are keyed by interned
/// KeyId; a node only ever receives keys it is the successor of. Stored
/// queries, ALTT entries, and value-level tuple chunks all live in
/// per-node slab pools (zero steady-state heap traffic for store/drop
/// cycles; pool capacity itself grows in geometric slabs).
class NodeState {
 public:
  // Out-of-line: `replicas` points at an incomplete type, so anything that
  // may destroy it (the dtor, the ctor's unwind path) needs the definition.
  explicit NodeState(uint64_t ric_epoch);
  ~NodeState();

  /// Input and rewritten queries stored locally, by index key.
  KeyIdMap<BucketList> queries;
  SlabPool<StoredQuery> query_pool;
  /// DISTINCT projection memory of the stored DISTINCT queries (each holds
  /// one node through StoredQuery::projections; other queries hold none).
  SlabPool<FlatU64Set> projection_pool;
  /// The DISTINCT projection memory of `sq`, which must hold a handle.
  FlatU64Set& ProjectionsOf(const StoredQuery& sq) {
    return projection_pool.at(sq.projections).value;
  }

  /// Value-level tuple store (Procedure 2 stores every value-level tuple):
  /// chunked buckets over the node's pooled chunk arena.
  KeyIdMap<TupleBucket> tuples;
  SlabPool<TupleChunk> tuple_chunks;

  /// Attribute-level tuple table with Delta-expiry (entries append in
  /// arrival order, so expired entries cluster at the head).
  KeyIdMap<BucketList> altt;
  SlabPool<AlttEntry> altt_pool;

  /// Fingerprints of stored residuals of DISTINCT queries (key + content),
  /// so identical rewritten queries are stored once (set semantics); churn
  /// handoff erases a migrated residual's print.
  FlatU64Set distinct_fingerprints;

  /// Tuple-arrival rates per key (the RIC source, Section 6).
  RateTracker rates;

  /// Cached RIC info (the candidate table, Section 7).
  CandidateTable ct;

  /// Successor-list replication state: replica slices held for ring
  /// predecessors plus this node's own mirror sequencing, created on first
  /// use. ReplicaStore stays an incomplete type here (core/replication.h)
  /// so the replication surface is out of every NodeState user; null
  /// whenever replication is off — the feature's whole cost when disabled.
  std::unique_ptr<ReplicaStore> replicas;
};

}  // namespace rjoin::core

#endif  // RJOIN_CORE_NODE_STATE_H_
