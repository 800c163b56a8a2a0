#ifndef RJOIN_CORE_TUPLE_REF_H_
#define RJOIN_CORE_TUPLE_REF_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/dictionary.h"
#include "sql/tuple.h"
#include "sql/value.h"

namespace rjoin::core {

/// Dense interned identifier of an attribute value (see ValueInterner).
/// The flat tuple plane stores tuples as arrays of these; predicate
/// evaluation (join equality, selection equality) is u32 comparison.
using ValueId = uint32_t;

inline constexpr ValueId kInvalidValueId = static_cast<ValueId>(-1);

/// Append-only dictionary sql::Value -> dense u32 ValueId, the value-plane
/// sibling of KeyInterner. Interning is injective (distinct values get
/// distinct ids; int and string domains never collide), so vid equality
/// *is* value equality — the whole point: the rewrite hot path compares
/// u32s instead of std::variant<int64_t, std::string>.
///
/// Concurrency contract (core::Dictionary's, as for KeyInterner):
///  * value(), size(), Find() are lock-free, safe concurrently with
///    inserts; returned references are stable forever (entries immortal).
///  * Intern() takes a mutex only on first sight. All inserts happen in
///    the driver phase (tuple publication, query Create), which is
///    sequential — so ids are canonical across shard counts and vid-based
///    fingerprints are bit-identical at S=1/4/7 (docs/keys.md argument).
class ValueInterner {
 public:
  /// Process-wide interner the engine uses by default.
  static ValueInterner& Global();

  /// Id of `v`, interning on first sight (driver phase only).
  ValueId Intern(const sql::Value& v);

  /// Id of `v` if already interned, else kInvalidValueId. Lock-free.
  ValueId Find(const sql::Value& v) const;

  /// The interned value. Reference stable for the interner's lifetime.
  const sql::Value& value(ValueId id) const { return values_.at(id); }

  uint32_t size() const { return values_.size(); }

  /// Hard cap on distinct values: ids fit in 22 bits, which compiled
  /// queries and key codes rely on.
  static constexpr uint32_t kCapacity = 1u << 22;

 private:
  struct ValueHash {
    uint64_t operator()(const sql::Value& v) const;
  };

  // 1,024-value slabs.
  Dictionary<sql::Value, ValueHash, 10, (kCapacity >> 10)> values_{"value"};
};

class TupleRef;

/// Pool of flat, intrusively-refcounted tuple records — the replacement
/// for `std::shared_ptr<const sql::Tuple>` on the steady-state path.
/// A record is a fixed-size slab slot: header + inline ValueId columns
/// (arity <= kInlineArity, which covers the paper's 10-attribute
/// relations), with a per-slot reusable overflow array for wider tuples.
/// Publish, ALTT append, handoff, and GC move 4-byte handles (TupleRef);
/// copying a handle is one atomic increment, no control blocks.
///
/// Concurrency contract:
///  * Allocate() is driver-phase only (tuple publication is sequential),
///    under a mutex that also drains the lock-free remote-free list.
///  * Release (refcount -> 0) may happen on any worker (windowed GC,
///    Δ-expiry, handoff): the record is pushed onto a Treiber stack of
///    u32 indices; the next Allocate() reclaims in bulk. Same discipline
///    as MessagePool's remote-return path.
///  * Dereference is lock-free: slabs live on an atomic spine and are
///    never freed while the pool lives, so TupleRef handles stay valid
///    for the pool's whole lifetime.
class TuplePool {
 public:
  /// Covers the paper's workload (10 attributes per relation) with slack.
  static constexpr uint16_t kInlineArity = 12;
  static constexpr uint32_t kNil = UINT32_MAX;

  /// The flat record. Field names match sql::Tuple so call sites written
  /// against `t->seq_no` / `t->pub_time` compile against either plane.
  struct Rec {
    uint64_t pub_time = 0;
    uint64_t seq_no = 0;
    uint64_t tuple_id = 0;
    uint32_t relation = 0;  ///< dense relation id (TuplePool dictionary)
    uint16_t arity = 0;
    std::atomic<uint32_t> refs{0};
    uint32_t next = kNil;  ///< freelist / remote-stack link (refs == 0)
    ValueId vals[kInlineArity] = {};
    /// Wide-tuple fallback: allocated once per slot, then reused across
    /// recycles, so steady state stays allocation-free even past
    /// kInlineArity.
    std::unique_ptr<ValueId[]> overflow;
    uint16_t overflow_cap = 0;

    const ValueId* columns() const {
      return arity <= kInlineArity ? vals : overflow.get();
    }
  };

  /// Process-wide pool the engine uses by default.
  static TuplePool& Global();

  /// Builds a record from materialized values (driver phase). Interns the
  /// relation name and every value, returns a handle holding one ref.
  TupleRef Make(std::string_view relation, const std::vector<sql::Value>& values,
                uint64_t pub_time, uint64_t seq_no, uint64_t tuple_id);

  /// Dense id of a relation name, interning on first sight (driver phase).
  uint32_t InternRelation(std::string_view name);

  /// Hard cap on relation names: ids fit in 12 bits.
  static constexpr uint32_t kMaxRelations = 1u << 12;

  /// Name of an interned relation id. Lock-free; reference stable.
  const std::string& relation_name(uint32_t rel_id) const {
    return relations_.at(rel_id);
  }

  /// Record `idx`. Lock-free.
  const Rec& at(uint32_t idx) const { return records_.at(idx); }
  Rec& at(uint32_t idx) { return records_.at(idx); }

  /// Pool-balance accounting (mirrors MessagePool::Stats).
  struct Stats {
    uint64_t slabs_allocated = 0;
    uint64_t records_allocated = 0;  ///< slab growth (high-water mark)
    uint64_t acquired = 0;           ///< records handed out
    uint64_t recycled = 0;           ///< acquisitions served by freelists
    uint64_t released = 0;           ///< refcounts that reached zero
    uint64_t outstanding() const { return acquired - released; }
  };
  Stats stats() const;

 private:
  friend class TupleRef;

  /// Pops a clean record (refs == 1) off the freelist or grows a slab.
  uint32_t Allocate();

  void IncRef(uint32_t idx) {
    at(idx).refs.fetch_add(1, std::memory_order_relaxed);
  }
  void DecRef(uint32_t idx) {
    if (at(idx).refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      ReleaseRecord(idx);
    }
  }

  /// refs hit zero: push onto the any-thread remote stack.
  void ReleaseRecord(uint32_t idx);

  struct NameHash {
    uint64_t operator()(const std::string& name) const;
  };

  // 4,096-record slabs, 16M records hard cap.
  using RecordSpine = SlabSpine<Rec, 12, 1u << 12>;
  RecordSpine records_;
  std::mutex mutex_;                  // guards allocation
  uint32_t allocated_ = 0;            // slab high-water mark
  uint32_t free_ = kNil;              // owner freelist (under mutex_)
  std::atomic<uint32_t> remote_free_{kNil};

  // Relation names, interned driver-phase and read lock-free by workers
  // materializing answers and building key text: 1,024-name slabs.
  Dictionary<std::string, NameHash, 10, (kMaxRelations >> 10)> relations_{
      "relation"};

  std::atomic<uint64_t> slabs_allocated_{0};
  std::atomic<uint64_t> acquired_{0};
  std::atomic<uint64_t> recycled_{0};
  std::atomic<uint64_t> released_{0};
};

/// RAII handle to a pooled tuple record: 4 bytes, copy = one atomic
/// increment, destroy = one atomic decrement. This is what messages,
/// node-state buckets, residual bindings, and handoff batches move around
/// instead of shared_ptr<const Tuple>.
class TupleRef {
 public:
  TupleRef() = default;
  TupleRef(const TupleRef& o) : idx_(o.idx_) {
    if (idx_ != TuplePool::kNil) TuplePool::Global().IncRef(idx_);
  }
  TupleRef(TupleRef&& o) noexcept : idx_(o.idx_) {
    o.idx_ = TuplePool::kNil;
  }
  TupleRef& operator=(const TupleRef& o) {
    if (this != &o) {
      TupleRef tmp(o);
      std::swap(idx_, tmp.idx_);
    }
    return *this;
  }
  TupleRef& operator=(TupleRef&& o) noexcept {
    if (this != &o) {
      reset();
      idx_ = o.idx_;
      o.idx_ = TuplePool::kNil;
    }
    return *this;
  }
  ~TupleRef() { reset(); }

  void reset() {
    if (idx_ != TuplePool::kNil) {
      TuplePool::Global().DecRef(idx_);
      idx_ = TuplePool::kNil;
    }
  }

  explicit operator bool() const { return idx_ != TuplePool::kNil; }
  bool operator==(const TupleRef& o) const { return idx_ == o.idx_; }
  bool operator!=(const TupleRef& o) const { return idx_ != o.idx_; }

  /// Header access: t->pub_time, t->seq_no, t->tuple_id, t->relation
  /// (dense id), t->arity.
  const TuplePool::Rec* operator->() const {
    return &TuplePool::Global().at(idx_);
  }
  const TuplePool::Rec& rec() const { return TuplePool::Global().at(idx_); }

  uint32_t index() const { return idx_; }

  /// Interned value id of column `i`.
  ValueId value_id(int i) const { return rec().columns()[i]; }

  std::string_view relation_name() const {
    return TuplePool::Global().relation_name(rec().relation);
  }

  /// Cold-boundary copy back into the shared_ptr plane (history, oracle
  /// comparison, display). Allocates; never on the steady-state path.
  sql::TuplePtr Materialize() const;

  /// Adopts a raw index that already holds one reference (pool internal /
  /// deserialization boundary).
  static TupleRef AdoptRaw(uint32_t idx) {
    TupleRef t;
    t.idx_ = idx;
    return t;
  }

 private:
  uint32_t idx_ = TuplePool::kNil;
};

}  // namespace rjoin::core

#endif  // RJOIN_CORE_TUPLE_REF_H_
