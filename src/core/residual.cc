#include "core/residual.h"

#include <algorithm>
#include <set>

#include "util/hash.h"
#include "util/logging.h"

namespace rjoin::core {

StatusOr<InputQueryPtr> InputQuery::Create(uint64_t query_id,
                                           dht::NodeIndex owner,
                                           uint64_t ins_time, sql::Query spec,
                                           const sql::Catalog* catalog,
                                           bool one_time) {
  auto q = std::shared_ptr<InputQuery>(new InputQuery());
  q->query_id_ = query_id;
  q->owner_ = owner;
  q->ins_time_ = ins_time;
  q->one_time_ = one_time;
  q->spec_ = std::move(spec);
  const sql::Query& s = q->spec_;

  if (s.relations.empty()) {
    return Status::InvalidArgument("query has no FROM relations");
  }
  if (s.relations.size() > static_cast<size_t>(kMaxQueryRels)) {
    return Status::Unimplemented(
        "FROM list wider than the flat residual capacity (kMaxQueryRels)");
  }
  if (s.select_list.size() > static_cast<size_t>(kMaxSelectItems)) {
    return Status::Unimplemented(
        "select list wider than the flat answer capacity (kMaxSelectItems)");
  }
  // Resolve relations: schema plus the dense TuplePool id the flat tuple
  // plane tags records with (driver-phase intern, canonical across runs).
  for (size_t i = 0; i < s.relations.size(); ++i) {
    for (size_t j = i + 1; j < s.relations.size(); ++j) {
      if (s.relations[i] == s.relations[j]) {
        return Status::Unimplemented(
            "self-joins (duplicate FROM relation) are not supported");
      }
    }
    const sql::Schema* schema = catalog->Find(s.relations[i]);
    if (schema == nullptr) {
      return Status::NotFound("unknown relation " + s.relations[i]);
    }
    q->schemas_.push_back(schema);
    q->rel_ids_[i] = TuplePool::Global().InternRelation(s.relations[i]);
  }

  auto resolve = [&](const sql::AttrRef& a, int& rel,
                     int& attr) -> Status {
    rel = q->RelIndex(a.relation);
    if (rel < 0) {
      return Status::InvalidArgument("attribute " + a.ToString() +
                                     " references relation not in FROM");
    }
    attr = q->schemas_[static_cast<size_t>(rel)]->AttrIndex(a.attribute);
    if (attr < 0) {
      return Status::InvalidArgument("unknown attribute " + a.ToString());
    }
    return Status::Ok();
  };

  for (const auto& j : s.joins) {
    ResolvedJoin rj{};
    if (auto st = resolve(j.left, rj.left_rel, rj.left_attr); !st.ok()) {
      return st;
    }
    if (auto st = resolve(j.right, rj.right_rel, rj.right_attr); !st.ok()) {
      return st;
    }
    if (rj.left_rel == rj.right_rel) {
      return Status::Unimplemented(
          "join predicate within a single relation is not supported");
    }
    q->joins_.push_back(rj);
  }
  for (const auto& sel : s.selections) {
    ResolvedSelection rs{};
    if (auto st = resolve(sel.attr, rs.rel, rs.attr); !st.ok()) return st;
    rs.value = sel.value;
    rs.value_id = ValueInterner::Global().Intern(rs.value);
    q->selections_.push_back(rs);
  }
  for (const auto& item : s.select_list) {
    ResolvedSelectItem ri;
    if (item.is_constant()) {
      ri.is_const = true;
      ri.constant = *item.constant;
      ri.constant_id = ValueInterner::Global().Intern(ri.constant);
    } else {
      if (auto st = resolve(item.attr, ri.rel, ri.attr); !st.ok()) return st;
    }
    q->select_items_.push_back(std::move(ri));
  }

  // Every relation of a multi-way query must occur in at least one
  // predicate, otherwise some residual would have no index key (pure
  // cartesian products are not expressible in RJoin's indexing scheme).
  if (s.relations.size() > 1) {
    std::vector<bool> covered(s.relations.size(), false);
    for (const auto& j : q->joins_) {
      covered[static_cast<size_t>(j.left_rel)] = true;
      covered[static_cast<size_t>(j.right_rel)] = true;
    }
    for (const auto& sel : q->selections_) {
      covered[static_cast<size_t>(sel.rel)] = true;
    }
    for (size_t i = 0; i < covered.size(); ++i) {
      if (!covered[i]) {
        return Status::InvalidArgument(
            "relation " + s.relations[i] +
            " appears in no predicate (cartesian product not supported)");
      }
    }
  }

  // Projection attribute sets for the DISTINCT rule.
  q->proj_attrs_.resize(s.relations.size());
  for (size_t rel = 0; rel < s.relations.size(); ++rel) {
    std::set<int> attrs;
    for (const auto& j : q->joins_) {
      if (j.left_rel == static_cast<int>(rel)) attrs.insert(j.left_attr);
      if (j.right_rel == static_cast<int>(rel)) attrs.insert(j.right_attr);
    }
    for (const auto& sel : q->selections_) {
      if (sel.rel == static_cast<int>(rel)) attrs.insert(sel.attr);
    }
    for (const auto& item : q->select_items_) {
      if (!item.is_const && item.rel == static_cast<int>(rel)) {
        attrs.insert(item.attr);
      }
    }
    q->proj_attrs_[rel].assign(attrs.begin(), attrs.end());
  }

  return InputQueryPtr(q);
}

int InputQuery::RelIndex(const std::string& relation) const {
  for (size_t i = 0; i < spec_.relations.size(); ++i) {
    if (spec_.relations[i] == relation) return static_cast<int>(i);
  }
  return -1;
}

uint64_t ProjectionFingerprint(const InputQuery& q, int rel,
                               const TupleRef& t) {
  uint64_t h = 1469598103934665603ull;
  const ValueId* cols = t.rec().columns();
  for (int attr : q.projection_attrs(rel)) {
    h ^= static_cast<uint64_t>(cols[attr]) + 1;
    h *= 1099511628211ull;
  }
  return h;
}

const sql::Value* Residual::BoundValue(int rel, int attr) const {
  const ValueId id = BoundValueId(rel, attr);
  if (id == kInvalidValueId) return nullptr;
  return &ValueInterner::Global().value(id);
}

bool Residual::Matches(int rel, const TupleRef& t) const {
  const ValueId* cols = t.rec().columns();
  // Original selection predicates on this relation: one u32 compare each.
  for (const auto& sel : origin_->selections()) {
    if (sel.rel != rel) continue;
    if (cols[sel.attr] != sel.value_id) return false;
  }
  // Join predicates whose other side is already bound act as implied
  // selections (the rewriting of Section 3).
  for (const auto& j : origin_->joins()) {
    int my_attr, other_rel, other_attr;
    if (j.left_rel == rel) {
      my_attr = j.left_attr;
      other_rel = j.right_rel;
      other_attr = j.right_attr;
    } else if (j.right_rel == rel) {
      my_attr = j.right_attr;
      other_rel = j.left_rel;
      other_attr = j.left_attr;
    } else {
      continue;
    }
    const ValueId other = BoundValueId(other_rel, other_attr);
    if (other == kInvalidValueId) continue;  // Both sides still unbound.
    if (cols[my_attr] != other) return false;
  }
  return true;
}

bool Residual::Matches(int rel, const sql::Tuple& t) const {
  for (const auto& sel : origin_->selections()) {
    if (sel.rel != rel) continue;
    if (t.values[static_cast<size_t>(sel.attr)] != sel.value) return false;
  }
  for (const auto& j : origin_->joins()) {
    int my_attr, other_rel, other_attr;
    if (j.left_rel == rel) {
      my_attr = j.left_attr;
      other_rel = j.right_rel;
      other_attr = j.right_attr;
    } else if (j.right_rel == rel) {
      my_attr = j.right_attr;
      other_rel = j.left_rel;
      other_attr = j.left_attr;
    } else {
      continue;
    }
    const sql::Value* other = BoundValue(other_rel, other_attr);
    if (other == nullptr) continue;  // Both sides still unbound.
    if (t.values[static_cast<size_t>(my_attr)] != *other) return false;
  }
  return true;
}

namespace {
uint64_t WindowPositionOf(const sql::WindowSpec& w, const sql::Tuple& t) {
  return w.unit == sql::WindowSpec::Unit::kTime ? t.pub_time : t.seq_no;
}
uint64_t WindowPositionOf(const sql::WindowSpec& w, const TupleRef& t) {
  return w.unit == sql::WindowSpec::Unit::kTime ? t->pub_time : t->seq_no;
}

bool WindowAdmitsAt(const sql::WindowSpec& w, int num_bound,
                    uint64_t window_min, uint64_t window_max, uint64_t p) {
  if (!w.use_windows) return true;
  if (num_bound == 0) return true;  // First binding opens the window.
  const uint64_t lo = std::min(window_min, p);
  const uint64_t hi = std::max(window_max, p);
  if (w.kind == sql::WindowSpec::Kind::kSliding) {
    // The paper's rule: |start(q) - pubT(t)| + 1 <= window. We track the
    // true extremes of the partial combination, which makes the test exact
    // for out-of-order arrivals as well.
    return hi - lo + 1 <= w.size;
  }
  if (w.size == 0) return false;
  return lo / w.size == hi / w.size;  // Tumbling: same epoch.
}
}  // namespace

bool Residual::WindowAdmits(int rel, const TupleRef& t) const {
  (void)rel;
  const sql::WindowSpec& w = origin_->spec().window;
  if (!w.use_windows) return true;
  return WindowAdmitsAt(w, num_bound_, window_min_, window_max_,
                        WindowPositionOf(w, t));
}

bool Residual::WindowAdmits(int rel, const sql::Tuple& t) const {
  (void)rel;
  const sql::WindowSpec& w = origin_->spec().window;
  if (!w.use_windows) return true;
  return WindowAdmitsAt(w, num_bound_, window_min_, window_max_,
                        WindowPositionOf(w, t));
}

bool Residual::WindowClosedBy(const TupleRef& t) const {
  if (IsInputQuery()) return false;
  const sql::WindowSpec& w = origin_->spec().window;
  if (!w.use_windows || w.size == 0) return false;
  const uint64_t pos = WindowPositionOf(w, t);
  if (pos <= window_min_) return false;  // Older tuple: window still open.
  if (w.kind == sql::WindowSpec::Kind::kSliding) {
    return pos - window_min_ + 1 > w.size;
  }
  return pos / w.size > window_min_ / w.size;
}

Residual Residual::Bind(int rel, TupleRef t) const {
  RJOIN_CHECK(!IsBound(rel)) << "relation already bound";
  Residual out = *this;
  const sql::WindowSpec& w = origin_->spec().window;
  const uint64_t p = WindowPositionOf(w, t);
  out.window_min_ = std::min(out.window_min_, p);
  out.window_max_ = std::max(out.window_max_, p);
  out.bound_[static_cast<size_t>(rel)] = std::move(t);
  out.bound_mask_ |= static_cast<uint16_t>(1u << static_cast<unsigned>(rel));
  ++out.num_bound_;
  return out;
}

Residual Residual::Bind(int rel, const sql::TuplePtr& t) const {
  return Bind(rel, TuplePool::Global().Make(t->relation, t->values,
                                            t->pub_time, t->seq_no,
                                            t->tuple_id));
}

std::vector<sql::Value> Residual::ExtractAnswer() const {
  RJOIN_CHECK(IsComplete());
  std::vector<sql::Value> row;
  row.reserve(origin_->select_items().size());
  for (const auto& item : origin_->select_items()) {
    if (item.is_const) {
      row.push_back(item.constant);
    } else {
      const sql::Value* v = BoundValue(item.rel, item.attr);
      RJOIN_CHECK(v != nullptr) << "answer from incomplete residual";
      row.push_back(*v);
    }
  }
  return row;
}

int Residual::ExtractAnswerIds(ValueId* out) const {
  RJOIN_CHECK(IsComplete());
  int n = 0;
  for (const auto& item : origin_->select_items()) {
    if (item.is_const) {
      out[n++] = item.constant_id;
    } else {
      const ValueId v = BoundValueId(item.rel, item.attr);
      RJOIN_CHECK(v != kInvalidValueId) << "answer from incomplete residual";
      out[n++] = v;
    }
  }
  return n;
}

std::string Residual::ContentFingerprint() const {
  std::string fp = std::to_string(origin_->query_id());
  for (size_t rel = 0; rel < origin_->num_relations(); ++rel) {
    fp += '#';
    const TupleRef* t = FindBound(static_cast<int>(rel));
    if (t == nullptr) continue;
    for (int attr : origin_->projection_attrs(static_cast<int>(rel))) {
      fp += t->value(attr).ToKeyString();
      fp += '|';
    }
  }
  return fp;
}

uint64_t Residual::ContentFingerprint64() const {
  // FNV-style chain over the query id and the bound projections' interned
  // value ids — the same identity ContentFingerprint() renders as text
  // (vids are injective), without touching a string.
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t x) {
    h ^= x;
    h *= 1099511628211ull;
  };
  mix(origin_->query_id());
  for (size_t rel = 0; rel < origin_->num_relations(); ++rel) {
    mix(0x2323232323232323ull);  // per-relation separator ('#')
    if (!IsBound(static_cast<int>(rel))) continue;
    const TupleRef& t = bound_[rel];
    for (int attr : origin_->projection_attrs(static_cast<int>(rel))) {
      mix(t.value_id(attr) + 1ull);
    }
  }
  return h;
}

sql::Query Residual::ToRewrittenQuery() const {
  // Fold the bound tuples into the original spec with the reference
  // rewriting rules (mirrors sql::Rewriter; kept independent so tests can
  // compare the two).
  sql::Query out;
  const sql::Query& spec = origin_->spec();
  out.distinct = spec.distinct;
  out.window = spec.window;
  for (size_t i = 0; i < origin_->select_items().size(); ++i) {
    const auto& item = origin_->select_items()[i];
    if (item.is_const) {
      out.select_list.push_back(sql::SelectItem::Const(item.constant));
    } else if (const sql::Value* v = BoundValue(item.rel, item.attr)) {
      out.select_list.push_back(sql::SelectItem::Const(*v));
    } else {
      out.select_list.push_back(spec.select_list[i]);
    }
  }
  for (size_t rel = 0; rel < origin_->num_relations(); ++rel) {
    if (!IsBound(static_cast<int>(rel))) {
      out.relations.push_back(spec.relations[rel]);
    }
  }
  for (const auto& j : origin_->joins()) {
    const sql::Value* l = BoundValue(j.left_rel, j.left_attr);
    const sql::Value* r = BoundValue(j.right_rel, j.right_attr);
    if (l != nullptr && r != nullptr) continue;  // Fully satisfied.
    const sql::JoinPredicate& orig =
        spec.joins[static_cast<size_t>(&j - origin_->joins().data())];
    if (l == nullptr && r == nullptr) {
      out.joins.push_back(orig);
    } else if (l != nullptr) {
      out.selections.push_back({orig.right, *l});
    } else {
      out.selections.push_back({orig.left, *r});
    }
  }
  for (size_t i = 0; i < origin_->selections().size(); ++i) {
    const auto& sel = origin_->selections()[i];
    if (IsBound(sel.rel)) continue;  // Verified at bind time.
    out.selections.push_back(spec.selections[i]);
  }
  return out;
}

}  // namespace rjoin::core
