#ifndef RJOIN_CORE_RESIDUAL_H_
#define RJOIN_CORE_RESIDUAL_H_

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <type_traits>

#include "core/key.h"
#include "core/tuple_ref.h"
#include "dht/chord_node.h"
#include "sql/query.h"
#include "sql/schema.h"
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

/// Capacities of the compiled record's inline arrays, checked by Create()
/// (Unimplemented beyond them). A term is one join predicate, selection
/// predicate or select item; a 10-way chain with 12 select items uses 21.
/// Referenced attribute indices stay below kMaxQueryAttrs (the paper's
/// relations have 10 attributes), so a column packs into 10 bits.
inline constexpr int kMaxQueryTerms = 32;
inline constexpr int kMaxProjectionAttrs = 32;
inline constexpr int kMaxQueryAttrs = 64;

/// A submitted continuous query, compiled once to integers only: relation
/// names become dense TuplePool ids, attribute names (FROM index,
/// attribute index) columns, and constants interned ValueIds, so that
/// triggering, rewriting and key resolution are integer operations. The
/// SQL text is not kept; spec() rebuilds it for cold callers from the
/// catalog and the dictionaries. The record is trivially copyable and
/// owns no heap: the engine stores records by query id in immortal slabs,
/// and every residual derived from one points at it.
class InputQuery {
 public:
  struct Join {
    int left_rel;
    int left_attr;
    int right_rel;
    int right_attr;
  };
  struct Selection {
    int rel;
    int attr;
    ValueId value_id;
  };
  struct SelectItem {
    bool is_const;
    int rel;              ///< attribute items only
    int attr;             ///< attribute items only
    ValueId constant_id;  ///< constant items only
  };

  /// An empty record (the engine's slabs hold records in place).
  InputQuery() = default;

  /// Validates and compiles `spec`. Fails on unknown relations/attributes,
  /// duplicate relations in FROM (self-joins are future work, as in the
  /// paper), multi-relation queries where some relation appears in no
  /// predicate (pure cartesian products are not indexable by RJoin), and
  /// queries beyond the record's capacities. `catalog` must outlive the
  /// record (spec() and key resolution read names through it).
  ///
  /// `one_time` marks a snapshot query: it is evaluated over the tuples
  /// already published at submission time (pubT <= insT) and is never
  /// stored for future triggers — Section 4's "Delta can be infinity"
  /// framework for one-time queries.
  static StatusOr<InputQuery> Create(uint64_t query_id, dht::NodeIndex owner,
                                     uint64_t ins_time, const sql::Query& spec,
                                     const sql::Catalog* catalog,
                                     bool one_time = false);

  uint64_t query_id() const { return query_id_; }
  dht::NodeIndex owner() const { return owner_; }
  uint64_t ins_time() const { return ins_time_; }
  bool one_time() const { return one_time_; }
  bool distinct() const { return distinct_; }
  const sql::WindowSpec& window() const { return window_; }
  const sql::Catalog& catalog() const { return *catalog_; }

  /// The submitted query, rebuilt from the record. Allocates; for oracle
  /// passes, tests and ToRewrittenQuery, never the steady-state path.
  sql::Query spec() const;

  size_t num_relations() const { return num_rels_; }
  /// Dense TuplePool id of FROM relation `rel`.
  uint32_t rel_id(int rel) const { return rel_ids_[static_cast<size_t>(rel)]; }
  /// Index of the FROM relation named `relation`, or -1 (cold: compares
  /// names).
  int RelIndex(const std::string& relation) const;

  /// Index of the FROM relation with dense pool id `rel_id`, or -1. The
  /// trigger hot path resolves an arriving tuple's relation with this
  /// integer scan instead of string comparison.
  int RelIndexOf(uint32_t rel_id) const {
    for (int i = 0; i < num_rels_; ++i) {
      if (rel_ids_[static_cast<size_t>(i)] == rel_id) return i;
    }
    return -1;
  }

  /// The WHERE clause and select list, in clause order, decoded from the
  /// packed terms.
  int num_joins() const { return num_joins_; }
  Join join(int i) const {
    const uint32_t t = terms_[static_cast<size_t>(i)];
    return {ColRel(t >> kColBits), ColAttr(t >> kColBits), ColRel(t),
            ColAttr(t)};
  }
  int num_selections() const { return num_selections_; }
  Selection selection(int i) const {
    const uint32_t t = terms_[static_cast<size_t>(num_joins_ + i)];
    return {ColRel(t >> kValueBits), ColAttr(t >> kValueBits),
            t & kValueMask};
  }
  int num_select_items() const { return num_items_; }
  SelectItem select_item(int i) const {
    const uint32_t t =
        terms_[static_cast<size_t>(num_joins_ + num_selections_ + i)];
    const int rel = ColRel(t >> kValueBits);
    if (rel == kConstRel) return {true, -1, -1, t & kValueMask};
    return {false, rel, ColAttr(t >> kValueBits), kInvalidValueId};
  }

  /// Attribute indices of relation `rel` referenced anywhere in the select
  /// list or WHERE clause, ascending; used for the DISTINCT projection rule
  /// of Section 4.
  std::span<const uint8_t> projection_attrs(int rel) const {
    const size_t r = static_cast<size_t>(rel);
    return {proj_.data() + proj_begin_[r],
            static_cast<size_t>(proj_begin_[r + 1] - proj_begin_[r])};
  }

 private:
  // Term encoding. A column (FROM index, attribute index) packs into
  // kColBits. A join is its left column above its right one; a selection or
  // select item is a column above a 22-bit value id. A constant select item
  // has FROM index kConstRel, which no FROM relation uses.
  static constexpr int kRelBits = 4;
  static constexpr int kAttrBits = 6;
  static constexpr int kColBits = kRelBits + kAttrBits;
  static constexpr int kValueBits = 22;
  static constexpr uint32_t kValueMask = (1u << kValueBits) - 1;
  static constexpr int kConstRel = (1 << kRelBits) - 1;
  static_assert(kMaxQueryRels <= kConstRel);
  static_assert(kMaxQueryAttrs == 1 << kAttrBits);
  static_assert(ValueInterner::kCapacity == 1u << kValueBits);
  static_assert(kColBits + kValueBits == 32);

  static uint32_t Col(int rel, int attr) {
    return static_cast<uint32_t>(rel) << kAttrBits |
           static_cast<uint32_t>(attr);
  }
  static int ColRel(uint32_t bits) {
    return static_cast<int>(bits >> kAttrBits & ((1u << kRelBits) - 1));
  }
  static int ColAttr(uint32_t bits) {
    return static_cast<int>(bits & ((1u << kAttrBits) - 1));
  }

  uint64_t query_id_ = 0;
  uint64_t ins_time_ = 0;
  const sql::Catalog* catalog_ = nullptr;
  sql::WindowSpec window_;
  dht::NodeIndex owner_ = dht::kInvalidNode;
  bool one_time_ = false;
  bool distinct_ = false;
  uint8_t num_rels_ = 0;
  uint8_t num_joins_ = 0;
  uint8_t num_selections_ = 0;
  uint8_t num_items_ = 0;
  std::array<uint16_t, kMaxQueryRels> rel_ids_ = {};
  /// Relation r's projection attributes are proj_[proj_begin_[r],
  /// proj_begin_[r + 1]).
  std::array<uint8_t, kMaxQueryRels + 1> proj_begin_ = {};
  std::array<uint8_t, kMaxProjectionAttrs> proj_ = {};
  /// Joins, then selections, then select items.
  std::array<uint32_t, kMaxQueryTerms> terms_ = {};
};
// One per submitted query, the whole of its compiled state (docs/perf.md
// records the census).
static_assert(sizeof(InputQuery) == 256, "InputQuery size changed");
static_assert(std::is_trivially_copyable_v<InputQuery>);

/// DISTINCT projection fingerprint of Section 4: tuple `t` (of FROM
/// relation `rel`) projected onto the attributes of `rel` that `q`
/// references, hashed over interned value ids. Vid equality is value
/// equality (injective interner) and vids are canonical (driver-phase
/// interning), so the fingerprint is deterministic and needs no string
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
/// The origin is a plain pointer: the engine's query table keeps every
/// submitted InputQuery in place for the engine's lifetime, so a copy
/// costs no refcount for the query. Whoever builds a residual keeps its
/// origin alive at least as long as the residual; a residual that outlives
/// its engine (an envelope still queued at teardown) may be destroyed but
/// not read.
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
  /// nothing yet. Temporal checks are separate (see WindowAdmits). Every
  /// predicate is one u32 ValueId comparison (interning is injective, so
  /// vid equality is value equality).
  bool Matches(int rel, const TupleRef& t) const;

  /// Window validity test of Section 5 for binding `t`: the resulting
  /// combination must fit in one window. Always true without windows.
  bool WindowAdmits(int rel, const TupleRef& t) const;

  /// Section 5's per-trigger validity rule: an arriving tuple `t` newer
  /// than the window allows proves the window has closed, so the stored
  /// residual is deleted. Owners and their replicas apply the same rule.
  bool WindowClosedBy(const TupleRef& t) const;

  /// Returns a new residual with `t` bound at `rel`. Caller must have
  /// verified Matches and WindowAdmits. This is the engine's rewrite step —
  /// allocation-free: a fixed-size copy plus refcount increments.
  Residual Bind(int rel, TupleRef t) const;

  /// Flat answer row of a complete residual: writes the interned ValueIds
  /// of the select list into `out` (capacity >= kMaxSelectItems) and
  /// returns the item count. Allocation-free.
  int ExtractAnswerIds(ValueId* out) const;

  /// Fingerprint of the residual's *rewritten content*: origin query plus,
  /// for every bound relation, the projection of its tuple over the
  /// attributes the query references, hashed over interned ValueIds. Two
  /// residuals with equal fingerprints are the same rewritten query (used
  /// for DISTINCT set semantics). Vids are canonical (driver-phase
  /// interning), so this is bit-identical from run to run.
  uint64_t ContentFingerprint64() const;

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
