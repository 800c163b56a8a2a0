#include "core/residual.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "util/hash.h"
#include "util/logging.h"

namespace rjoin::core {

StatusOr<InputQuery> InputQuery::Create(uint64_t query_id,
                                        dht::NodeIndex owner,
                                        uint64_t ins_time,
                                        const sql::Query& s,
                                        const sql::Catalog* catalog,
                                        bool one_time) {
  InputQuery q;
  q.query_id_ = query_id;
  q.owner_ = owner;
  q.ins_time_ = ins_time;
  q.one_time_ = one_time;
  q.distinct_ = s.distinct;
  q.window_ = s.window;
  q.catalog_ = catalog;

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
  if (s.joins.size() + s.selections.size() + s.select_list.size() >
      static_cast<size_t>(kMaxQueryTerms)) {
    return Status::Unimplemented(
        "more predicates and select items than the compiled record holds "
        "(kMaxQueryTerms)");
  }
  // Resolve relations: schema plus the dense TuplePool id the flat tuple
  // plane tags records with (driver-phase intern, canonical across runs).
  const sql::Schema* schemas[kMaxQueryRels] = {};
  q.num_rels_ = static_cast<uint8_t>(s.relations.size());
  for (size_t i = 0; i < s.relations.size(); ++i) {
    for (size_t j = i + 1; j < s.relations.size(); ++j) {
      if (s.relations[i] == s.relations[j]) {
        return Status::Unimplemented(
            "self-joins (duplicate FROM relation) are not supported");
      }
    }
    schemas[i] = catalog->Find(s.relations[i]);
    if (schemas[i] == nullptr) {
      return Status::NotFound("unknown relation " + s.relations[i]);
    }
    q.rel_ids_[i] = static_cast<uint16_t>(
        TuplePool::Global().InternRelation(s.relations[i]));
  }

  auto resolve = [&](const sql::AttrRef& a, int& rel, int& attr) -> Status {
    rel = -1;
    for (size_t i = 0; i < s.relations.size() && rel < 0; ++i) {
      if (s.relations[i] == a.relation) rel = static_cast<int>(i);
    }
    if (rel < 0) {
      return Status::InvalidArgument("attribute " + a.ToString() +
                                     " references relation not in FROM");
    }
    attr = schemas[rel]->AttrIndex(a.attribute);
    if (attr < 0) {
      return Status::InvalidArgument("unknown attribute " + a.ToString());
    }
    if (attr >= kMaxQueryAttrs) {
      return Status::Unimplemented("attribute " + a.ToString() +
                                   " beyond the compiled record's column "
                                   "range (kMaxQueryAttrs)");
    }
    return Status::Ok();
  };

  size_t n = 0;
  std::vector<std::pair<int, int>> cols;  // every referenced column
  for (const auto& j : s.joins) {
    Join rj{};
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
    q.terms_[n++] = Col(rj.left_rel, rj.left_attr) << kColBits |
                    Col(rj.right_rel, rj.right_attr);
    cols.emplace_back(rj.left_rel, rj.left_attr);
    cols.emplace_back(rj.right_rel, rj.right_attr);
  }
  q.num_joins_ = static_cast<uint8_t>(s.joins.size());
  for (const auto& sel : s.selections) {
    int rel, attr;
    if (auto st = resolve(sel.attr, rel, attr); !st.ok()) return st;
    const ValueId vid = ValueInterner::Global().Intern(sel.value);
    q.terms_[n++] = Col(rel, attr) << kValueBits | vid;
    cols.emplace_back(rel, attr);
  }
  q.num_selections_ = static_cast<uint8_t>(s.selections.size());
  for (const auto& item : s.select_list) {
    if (item.is_constant()) {
      const ValueId vid = ValueInterner::Global().Intern(*item.constant);
      q.terms_[n++] = Col(kConstRel, 0) << kValueBits | vid;
    } else {
      int rel, attr;
      if (auto st = resolve(item.attr, rel, attr); !st.ok()) return st;
      q.terms_[n++] = Col(rel, attr) << kValueBits;
      cols.emplace_back(rel, attr);
    }
  }
  q.num_items_ = static_cast<uint8_t>(s.select_list.size());

  // Every relation of a multi-way query must occur in at least one
  // predicate, otherwise some residual would have no index key (pure
  // cartesian products are not expressible in RJoin's indexing scheme).
  if (s.relations.size() > 1) {
    bool covered[kMaxQueryRels] = {};
    for (int i = 0; i < q.num_joins(); ++i) {
      covered[q.join(i).left_rel] = true;
      covered[q.join(i).right_rel] = true;
    }
    for (int i = 0; i < q.num_selections(); ++i) {
      covered[q.selection(i).rel] = true;
    }
    for (size_t i = 0; i < s.relations.size(); ++i) {
      if (!covered[i]) {
        return Status::InvalidArgument(
            "relation " + s.relations[i] +
            " appears in no predicate (cartesian product not supported)");
      }
    }
  }

  // Projection attribute lists for the DISTINCT rule: each relation's
  // referenced columns, ascending and distinct.
  std::sort(cols.begin(), cols.end());
  cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
  if (cols.size() > static_cast<size_t>(kMaxProjectionAttrs)) {
    return Status::Unimplemented(
        "more referenced columns than the compiled record holds "
        "(kMaxProjectionAttrs)");
  }
  size_t next = 0;
  for (size_t rel = 0; rel < s.relations.size(); ++rel) {
    q.proj_begin_[rel] = static_cast<uint8_t>(next);
    while (next < cols.size() && cols[next].first == static_cast<int>(rel)) {
      q.proj_[next] = static_cast<uint8_t>(cols[next].second);
      ++next;
    }
  }
  q.proj_begin_[s.relations.size()] = static_cast<uint8_t>(next);
  return q;
}

sql::Query InputQuery::spec() const {
  const TuplePool& pool = TuplePool::Global();
  const ValueInterner& values = ValueInterner::Global();
  auto attr_ref = [&](int rel, int attr) {
    const std::string& relation = pool.relation_name(rel_id(rel));
    return sql::AttrRef{
        relation,
        catalog_->Find(relation)->attributes()[static_cast<size_t>(attr)]};
  };
  sql::Query out;
  out.distinct = distinct_;
  out.window = window_;
  for (int i = 0; i < num_select_items(); ++i) {
    const SelectItem item = select_item(i);
    out.select_list.push_back(
        item.is_const ? sql::SelectItem::Const(values.value(item.constant_id))
                      : sql::SelectItem::Attr(attr_ref(item.rel, item.attr)));
  }
  for (int rel = 0; rel < num_rels_; ++rel) {
    out.relations.push_back(pool.relation_name(rel_id(rel)));
  }
  for (int i = 0; i < num_joins(); ++i) {
    const Join j = join(i);
    out.joins.push_back({attr_ref(j.left_rel, j.left_attr),
                         attr_ref(j.right_rel, j.right_attr)});
  }
  for (int i = 0; i < num_selections(); ++i) {
    const Selection sel = selection(i);
    out.selections.push_back(
        {attr_ref(sel.rel, sel.attr), values.value(sel.value_id)});
  }
  return out;
}

int InputQuery::RelIndex(const std::string& relation) const {
  for (int i = 0; i < num_rels_; ++i) {
    if (TuplePool::Global().relation_name(rel_id(i)) == relation) return i;
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

bool Residual::Matches(int rel, const TupleRef& t) const {
  const InputQuery& q = *origin_;
  const ValueId* cols = t.rec().columns();
  // Original selection predicates on this relation: one u32 compare each.
  for (int i = 0; i < q.num_selections(); ++i) {
    const InputQuery::Selection sel = q.selection(i);
    if (sel.rel != rel) continue;
    if (cols[sel.attr] != sel.value_id) return false;
  }
  // Join predicates whose other side is already bound act as implied
  // selections (the rewriting of Section 3).
  for (int i = 0; i < q.num_joins(); ++i) {
    const InputQuery::Join j = q.join(i);
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

namespace {
uint64_t WindowPositionOf(const sql::WindowSpec& w, const TupleRef& t) {
  return w.unit == sql::WindowSpec::Unit::kTime ? t->pub_time : t->seq_no;
}
}  // namespace

bool Residual::WindowAdmits(int rel, const TupleRef& t) const {
  (void)rel;
  const sql::WindowSpec& w = origin_->window();
  if (!w.use_windows) return true;
  if (num_bound_ == 0) return true;  // First binding opens the window.
  const uint64_t p = WindowPositionOf(w, t);
  const uint64_t lo = std::min(window_min_, p);
  const uint64_t hi = std::max(window_max_, p);
  if (w.kind == sql::WindowSpec::Kind::kSliding) {
    // The paper's rule: |start(q) - pubT(t)| + 1 <= window. We track the
    // true extremes of the partial combination, which makes the test exact
    // for out-of-order arrivals as well.
    return hi - lo + 1 <= w.size;
  }
  if (w.size == 0) return false;
  return lo / w.size == hi / w.size;  // Tumbling: same epoch.
}

bool Residual::WindowClosedBy(const TupleRef& t) const {
  if (IsInputQuery()) return false;
  const sql::WindowSpec& w = origin_->window();
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
  const uint64_t p = WindowPositionOf(origin_->window(), t);
  out.window_min_ = std::min(out.window_min_, p);
  out.window_max_ = std::max(out.window_max_, p);
  out.bound_[static_cast<size_t>(rel)] = std::move(t);
  out.bound_mask_ |= static_cast<uint16_t>(1u << static_cast<unsigned>(rel));
  ++out.num_bound_;
  return out;
}

int Residual::ExtractAnswerIds(ValueId* out) const {
  RJOIN_CHECK(IsComplete());
  const InputQuery& q = *origin_;
  for (int i = 0; i < q.num_select_items(); ++i) {
    const InputQuery::SelectItem item = q.select_item(i);
    if (item.is_const) {
      out[i] = item.constant_id;
    } else {
      out[i] = BoundValueId(item.rel, item.attr);
      RJOIN_CHECK(out[i] != kInvalidValueId)
          << "answer from incomplete residual";
    }
  }
  return q.num_select_items();
}

uint64_t Residual::ContentFingerprint64() const {
  // FNV-style chain over the query id and the bound projections' interned
  // value ids (vids are injective), without touching a string.
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
  const InputQuery& q = *origin_;
  const sql::Query spec = q.spec();
  const ValueInterner& values = ValueInterner::Global();
  sql::Query out;
  out.distinct = spec.distinct;
  out.window = spec.window;
  for (int i = 0; i < q.num_select_items(); ++i) {
    const InputQuery::SelectItem item = q.select_item(i);
    const ValueId v =
        item.is_const ? item.constant_id : BoundValueId(item.rel, item.attr);
    out.select_list.push_back(
        v != kInvalidValueId ? sql::SelectItem::Const(values.value(v))
                             : spec.select_list[static_cast<size_t>(i)]);
  }
  for (size_t rel = 0; rel < q.num_relations(); ++rel) {
    if (!IsBound(static_cast<int>(rel))) {
      out.relations.push_back(spec.relations[rel]);
    }
  }
  for (int i = 0; i < q.num_joins(); ++i) {
    const InputQuery::Join j = q.join(i);
    const ValueId l = BoundValueId(j.left_rel, j.left_attr);
    const ValueId r = BoundValueId(j.right_rel, j.right_attr);
    if (l != kInvalidValueId && r != kInvalidValueId) continue;  // Satisfied.
    const sql::JoinPredicate& orig = spec.joins[static_cast<size_t>(i)];
    if (l == kInvalidValueId && r == kInvalidValueId) {
      out.joins.push_back(orig);
    } else if (l != kInvalidValueId) {
      out.selections.push_back({orig.right, values.value(l)});
    } else {
      out.selections.push_back({orig.left, values.value(r)});
    }
  }
  for (int i = 0; i < q.num_selections(); ++i) {
    if (IsBound(q.selection(i).rel)) continue;  // Verified at bind time.
    out.selections.push_back(spec.selections[static_cast<size_t>(i)]);
  }
  return out;
}

}  // namespace rjoin::core
