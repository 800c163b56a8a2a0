#ifndef RJOIN_CORE_RESIDUAL_H_
#define RJOIN_CORE_RESIDUAL_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/key.h"
#include "core/tuple_ref.h"
#include "dht/chord_node.h"
#include "sql/query.h"
#include "sql/schema.h"
#include "sql/tuple.h"
#include "util/status.h"

namespace rjoin::core {

/// Upper bound on FROM-list width. The flat residual stores one TupleRef
/// slot per FROM relation inline (no heap), so the bound is a hard
/// capacity; Create() rejects wider queries with Unimplemented. The
/// paper's workloads top out at 10-way joins.
inline constexpr int kMaxQueryRels = 10;

/// Upper bound on SELECT-list width, sized for the flat AnswerDeliver
/// payload (the workload generator emits exactly 2 items).
inline constexpr int kMaxSelectItems = 12;

/// A submitted continuous query, compiled once: attribute names are resolved
/// to (relation index, attribute index) pairs — and, for the flat tuple
/// plane, relation names to dense TuplePool ids and predicate constants to
/// interned ValueIds — so that triggering and rewriting are integer
/// operations. Immutable and shared by every residual derived from it.
class InputQuery {
 public:
  struct ResolvedJoin {
    int left_rel;
    int left_attr;
    int right_rel;
    int right_attr;
  };
  struct ResolvedSelection {
    int rel;
    int attr;
    sql::Value value;
    ValueId value_id = kInvalidValueId;  ///< interned `value`
  };
  struct ResolvedSelectItem {
    bool is_const = false;
    int rel = -1;
    int attr = -1;
    sql::Value constant;
    ValueId constant_id = kInvalidValueId;  ///< interned `constant`
  };

  /// Validates and compiles `spec`. Fails on unknown relations/attributes,
  /// duplicate relations in FROM (self-joins are future work, as in the
  /// paper), and multi-relation queries where some relation appears in no
  /// predicate (pure cartesian products are not indexable by RJoin).
  ///
  /// `one_time` marks a snapshot query: it is evaluated over the tuples
  /// already published at submission time (pubT <= insT) and is never
  /// stored for future triggers — Section 4's "Delta can be infinity"
  /// framework for one-time queries.
  static StatusOr<std::shared_ptr<const InputQuery>> Create(
      uint64_t query_id, dht::NodeIndex owner, uint64_t ins_time,
      sql::Query spec, const sql::Catalog* catalog, bool one_time = false);

  uint64_t query_id() const { return query_id_; }
  dht::NodeIndex owner() const { return owner_; }
  uint64_t ins_time() const { return ins_time_; }
  bool one_time() const { return one_time_; }
  const sql::Query& spec() const { return spec_; }

  size_t num_relations() const { return spec_.relations.size(); }
  const std::string& relation_name(int rel) const {
    return spec_.relations[static_cast<size_t>(rel)];
  }
  /// Index of `relation` in the FROM list, or -1.
  int RelIndex(const std::string& relation) const;

  /// Index of the FROM relation with dense pool id `rel_id`, or -1. The
  /// trigger hot path resolves an arriving tuple's relation with this
  /// integer scan instead of string comparison.
  int RelIndexOf(uint32_t rel_id) const {
    for (size_t i = 0; i < spec_.relations.size(); ++i) {
      if (rel_ids_[i] == rel_id) return static_cast<int>(i);
    }
    return -1;
  }

  const std::vector<ResolvedJoin>& joins() const { return joins_; }
  const std::vector<ResolvedSelection>& selections() const {
    return selections_;
  }
  const std::vector<ResolvedSelectItem>& select_items() const {
    return select_items_;
  }

  /// Attribute indices of relation `rel` referenced anywhere in the select
  /// list or WHERE clause, sorted; used for the DISTINCT projection rule of
  /// Section 4.
  const std::vector<int>& projection_attrs(int rel) const {
    return proj_attrs_[static_cast<size_t>(rel)];
  }

  /// The attribute names of relation `rel`, via the catalog schema.
  const sql::Schema& schema(int rel) const { return *schemas_[static_cast<size_t>(rel)]; }

 private:
  InputQuery() = default;

  uint64_t query_id_ = 0;
  dht::NodeIndex owner_ = dht::kInvalidNode;
  uint64_t ins_time_ = 0;
  bool one_time_ = false;
  sql::Query spec_;
  std::array<uint32_t, kMaxQueryRels> rel_ids_ = {};
  std::vector<ResolvedJoin> joins_;
  std::vector<ResolvedSelection> selections_;
  std::vector<ResolvedSelectItem> select_items_;
  std::vector<std::vector<int>> proj_attrs_;
  std::vector<const sql::Schema*> schemas_;
};

using InputQueryPtr = std::shared_ptr<const InputQuery>;

/// DISTINCT projection fingerprint of Section 4: tuple `t` (of FROM
/// relation `rel`) projected onto the attributes of `rel` that `q`
/// references, hashed over interned value ids. Vid equality is value
/// equality (injective interner) and vids are canonical across shard
/// counts, so the fingerprint is deterministic and needs no string
/// rendering. The single-tuple trigger and the batched probe kernel both
/// hash with this one definition.
uint64_t ProjectionFingerprint(const InputQuery& q, int rel,
                               const TupleRef& t);

/// A (possibly partially evaluated) query travelling through the network.
/// Instead of materializing rewritten SQL text, a residual references its
/// immutable input query plus the tuples bound so far — semantically
/// identical to the paper's rewritten queries (sql::Rewriter is the
/// reference implementation; property tests check agreement).
///
/// Flat representation: bound tuples live in a fixed inline array of
/// TupleRef handles indexed by FROM position, so Bind() is allocation-free
/// and copying a residual (every rewrite hop stores one) is a handful of
/// refcount increments — no heap traffic on the steady-state path.
///
/// The origin is a plain pointer, not a shared_ptr: the engine's query
/// table owns every submitted InputQuery for the engine's lifetime, so a
/// copy costs no atomic refcount pair for the query. Whoever builds a
/// residual keeps its origin alive at least as long as the residual; a
/// residual that outlives its engine (an envelope still queued at
/// teardown) may be destroyed but not read.
class Residual {
 public:
  Residual() = default;
  explicit Residual(const InputQuery* origin) : origin_(origin) {}

  const InputQuery* origin() const { return origin_; }
  int num_bound() const { return num_bound_; }
  bool IsInputQuery() const { return num_bound_ == 0; }
  bool IsComplete() const {
    return static_cast<size_t>(num_bound_) == origin_->num_relations();
  }

  /// The tuple bound at FROM-relation index `rel`, or nullptr.
  const TupleRef* FindBound(int rel) const {
    return IsBound(rel) ? &bound_[static_cast<size_t>(rel)] : nullptr;
  }
  bool IsBound(int rel) const {
    return (bound_mask_ >> static_cast<unsigned>(rel)) & 1u;
  }

  /// Window positions (pub_time or seq_no, per the window unit) of the
  /// earliest and latest bound tuples. Meaningful once num_bound > 0.
  /// window_min is the paper's start(q) parameter (Section 5).
  uint64_t window_min() const { return window_min_; }
  uint64_t window_max() const { return window_max_; }

  /// True iff tuple `t` (of FROM-relation index `rel`) satisfies every
  /// constraint the residual currently places on that relation: original
  /// selections on the relation, and join predicates whose other side is
  /// already bound. Join predicates between two unbound relations impose
  /// nothing yet. Temporal checks are separate (see WindowAdmits).
  ///
  /// The TupleRef form is the hot path: every predicate is one u32
  /// ValueId comparison (interning is injective, so vid equality is value
  /// equality). The sql::Tuple form is the cold/test boundary.
  bool Matches(int rel, const TupleRef& t) const;
  bool Matches(int rel, const sql::Tuple& t) const;

  /// Window validity test of Section 5 for binding `t`: the resulting
  /// combination must fit in one window. Always true without windows.
  bool WindowAdmits(int rel, const TupleRef& t) const;
  bool WindowAdmits(int rel, const sql::Tuple& t) const;

  /// Section 5's per-trigger validity rule: an arriving tuple `t` newer
  /// than the window allows proves the window has closed, so the stored
  /// residual is deleted. Owners and their replicas apply the same rule.
  bool WindowClosedBy(const TupleRef& t) const;

  /// Returns a new residual with `t` bound at `rel`. Caller must have
  /// verified Matches and WindowAdmits. This is the engine's rewrite step —
  /// allocation-free: a fixed-size copy plus refcount increments.
  Residual Bind(int rel, TupleRef t) const;

  /// Cold-boundary form (tests): pools a flat record for `t` first.
  Residual Bind(int rel, const sql::TuplePtr& t) const;

  /// Answer row of a complete residual (materialized; owner-side only).
  std::vector<sql::Value> ExtractAnswer() const;

  /// Flat answer row of a complete residual: writes the interned ValueIds
  /// of the select list into `out` (capacity >= kMaxSelectItems) and
  /// returns the item count. Allocation-free.
  int ExtractAnswerIds(ValueId* out) const;

  /// Fingerprint of the residual's *rewritten content*: origin query plus,
  /// for every bound relation, the projection of its tuple over the
  /// attributes the query references. Two residuals with equal fingerprints
  /// are the same rewritten query (used for DISTINCT set semantics).
  std::string ContentFingerprint() const;

  /// 64-bit fingerprint over interned ValueIds — the hot-path form, no
  /// string rendering. Vids are canonical across shard counts (driver-phase
  /// interning), so this is bit-identical at S=1/4/7.
  uint64_t ContentFingerprint64() const;

  /// Value of attribute (rel, attr) if that relation is bound. The
  /// reference is stable (ValueInterner entries are immortal).
  const sql::Value* BoundValue(int rel, int attr) const;

  /// Interned id of attribute (rel, attr), or kInvalidValueId if unbound.
  ValueId BoundValueId(int rel, int attr) const {
    if (!IsBound(rel)) return kInvalidValueId;
    return bound_[static_cast<size_t>(rel)].value_id(attr);
  }

  /// The equivalent textual rewritten query (reference form, for tracing
  /// and tests against sql::Rewriter).
  sql::Query ToRewrittenQuery() const;

 private:
  // The small fields come last, so the residual ends in 5 bytes of tail
  // padding that an enclosing record may reuse (StoredQuery packs its
  // projection handle there).
  const InputQuery* origin_ = nullptr;
  uint64_t window_min_ = UINT64_MAX;
  uint64_t window_max_ = 0;
  std::array<TupleRef, kMaxQueryRels> bound_;  ///< dense by FROM index
  uint16_t bound_mask_ = 0;
  uint8_t num_bound_ = 0;
};
// Copied into every rewrite message and stored by every node that keeps a
// residual (docs/messaging.md records the sizes).
static_assert(sizeof(Residual) == 72, "Residual size changed");

}  // namespace rjoin::core

#endif  // RJOIN_CORE_RESIDUAL_H_
