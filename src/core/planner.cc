#include "core/planner.h"

#include <algorithm>

namespace rjoin::core {

const char* PlannerPolicyName(PlannerPolicy policy) {
  switch (policy) {
    case PlannerPolicy::kFirstInClause:
      return "FirstInClause";
    case PlannerPolicy::kRandom:
      return "Random";
    case PlannerPolicy::kWorst:
      return "Worst";
    case PlannerPolicy::kRic:
      return "RJoin(RIC)";
  }
  return "Unknown";
}

namespace {
void PushUnique(std::vector<KeyId>& out, KeyId key) {
  if (std::find(out.begin(), out.end(), key) == out.end()) {
    out.push_back(key);
  }
}
}  // namespace

std::vector<KeyId> IndexingCandidates(const Residual& residual,
                                      RewriteIndexLevels levels,
                                      KeyInterner& interner) {
  std::vector<KeyId> out;
  IndexingCandidates(residual, levels, interner, &out);
  return out;
}

void IndexingCandidates(const Residual& residual, RewriteIndexLevels levels,
                        KeyInterner& interner, std::vector<KeyId>* out_ptr) {
  const InputQuery& q = *residual.origin();
  // Keys resolve from ids; the interner reads names only on a key's first
  // sight.
  auto attribute_key = [&](int rel, int attr) {
    return interner.ResolveAttribute(q.catalog(), q.rel_id(rel), attr);
  };
  auto value_key = [&](int rel, int attr, ValueId value) {
    return interner.ResolveValue(q.catalog(), q.rel_id(rel), attr, value);
  };
  std::vector<KeyId>& out = *out_ptr;
  out.clear();

  if (residual.IsInputQuery()) {
    // Input queries: attribute-level keys from WHERE-clause expressions, in
    // clause order (join sides first, then selections).
    for (int i = 0; i < q.num_joins(); ++i) {
      const InputQuery::Join j = q.join(i);
      PushUnique(out, attribute_key(j.left_rel, j.left_attr));
      PushUnique(out, attribute_key(j.right_rel, j.right_attr));
    }
    for (int i = 0; i < q.num_selections(); ++i) {
      const InputQuery::Selection s = q.selection(i);
      PushUnique(out, attribute_key(s.rel, s.attr));
    }
    if (out.empty() && q.num_relations() == 1) {
      // Single-relation query with no predicates: fall back to the first
      // attribute of the relation so every tuple of it reaches the query.
      out.push_back(attribute_key(0, 0));
    }
    return;
  }

  // Rewritten queries — value-level candidates first.
  // (c) implied triples: join predicates with exactly one side bound.
  for (int i = 0; i < q.num_joins(); ++i) {
    const InputQuery::Join j = q.join(i);
    const ValueId l = residual.BoundValueId(j.left_rel, j.left_attr);
    const ValueId r = residual.BoundValueId(j.right_rel, j.right_attr);
    if (l != kInvalidValueId && r == kInvalidValueId) {
      PushUnique(out, value_key(j.right_rel, j.right_attr, l));
    } else if (l == kInvalidValueId && r != kInvalidValueId) {
      PushUnique(out, value_key(j.left_rel, j.left_attr, r));
    }
  }
  // (b) explicit selection triples on unbound relations.
  for (int i = 0; i < q.num_selections(); ++i) {
    const InputQuery::Selection s = q.selection(i);
    if (residual.IsBound(s.rel)) continue;
    PushUnique(out, value_key(s.rel, s.attr, s.value_id));
  }
  // (a) attribute-level pairs from join conditions still fully open. Under
  // kValuePreferred these are a fallback for residuals with no value-level
  // option (see RewriteIndexLevels for the completeness rationale).
  if (levels == RewriteIndexLevels::kValuePreferred && !out.empty()) {
    return;
  }
  for (int i = 0; i < q.num_joins(); ++i) {
    const InputQuery::Join j = q.join(i);
    if (residual.IsBound(j.left_rel) || residual.IsBound(j.right_rel)) {
      continue;
    }
    PushUnique(out, attribute_key(j.left_rel, j.left_attr));
    PushUnique(out, attribute_key(j.right_rel, j.right_attr));
  }
}

}  // namespace rjoin::core
