#ifndef RJOIN_SQL_QUERY_H_
#define RJOIN_SQL_QUERY_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sql/predicate.h"
#include "sql/schema.h"
#include "sql/tuple.h"
#include "sql/value.h"

namespace rjoin::sql {

/// One item of a select list: either an attribute reference or (after
/// rewriting) a constant, e.g. "select 5, S.B ..." in the paper's example.
struct SelectItem {
  static SelectItem Attr(AttrRef a) {
    SelectItem s;
    s.attr = std::move(a);
    return s;
  }
  static SelectItem Const(Value v) {
    SelectItem s;
    s.constant = std::move(v);
    return s;
  }

  bool is_constant() const { return constant.has_value(); }
  std::string ToString() const {
    return is_constant() ? constant->ToDisplayString() : attr.ToString();
  }

  AttrRef attr;
  std::optional<Value> constant;
};

/// Sliding/tumbling window specification (Section 5). `size` is measured in
/// ticks (time-based) or in arriving tuples of the triggering relation
/// (tuple-based), following the CQL definitions [1] the paper references.
struct WindowSpec {
  enum class Unit { kTime, kTuples };
  enum class Kind { kSliding, kTumbling };

  bool use_windows = false;
  Unit unit = Unit::kTime;
  Kind kind = Kind::kSliding;
  uint64_t size = 0;

  std::string ToString() const;

  friend bool operator==(const WindowSpec&, const WindowSpec&) = default;
};

/// A continuous multi-way equi-join query:
///   SELECT [DISTINCT] items FROM R1, ..., Rm WHERE conj. of predicates
///   [WINDOW n TUPLES|TIME [TUMBLING]]
///
/// `selections` may contain constants introduced by the user or by
/// rewriting. A query whose `relations` list is empty has a WHERE clause
/// equivalent to "true": all predicates have been satisfied and the select
/// list is all-constant — it denotes an answer.
struct Query {
  bool distinct = false;
  std::vector<SelectItem> select_list;
  std::vector<std::string> relations;
  std::vector<JoinPredicate> joins;
  std::vector<SelectionPredicate> selections;
  WindowSpec window;

  /// True iff the where clause is equivalent to "true" (no relations left).
  bool IsComplete() const { return relations.empty(); }

  /// True if `relation` appears in the FROM list.
  bool References(const std::string& relation) const;

  /// SQL text form (parseable back by Parser).
  std::string ToString() const;
};

}  // namespace rjoin::sql

#endif  // RJOIN_SQL_QUERY_H_
