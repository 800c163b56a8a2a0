#ifndef RJOIN_CORE_PLANNER_H_
#define RJOIN_CORE_PLANNER_H_

#include <vector>

#include "core/interner.h"
#include "core/key.h"
#include "core/residual.h"

namespace rjoin::core {

/// Strategy for choosing where to index a query (Section 6, and the
/// comparison baselines of the Fig. 2 experiment).
enum class PlannerPolicy {
  /// Index under the first candidate in WHERE-clause order — the
  /// "simplified" behaviour described in Section 3.
  kFirstInClause,
  /// Uniformly random candidate (the "Random" baseline of Fig. 2).
  kRandom,
  /// Adversarial oracle: the candidate with the *highest* tuple rate (the
  /// "Worst" baseline of Fig. 2). No RIC traffic is charged: this simulates
  /// always making the worst choice.
  kWorst,
  /// RJoin proper: request RIC information and pick the candidate with the
  /// *lowest* predicted rate (minimum intermediate results / traffic).
  kRic,
};

const char* PlannerPolicyName(PlannerPolicy policy);

/// Which indexing levels rewritten queries may use.
enum class RewriteIndexLevels {
  /// Section 3's default: a rewritten query is indexed with a
  /// relation-attribute-value triple; attribute-level pairs are offered
  /// only when no value-level candidate exists (e.g. a residual whose
  /// remaining predicates are all open joins). Value-level nodes keep their
  /// tuple stores indefinitely, so this mode preserves eventual
  /// completeness with a finite ALTT Delta.
  kValuePreferred,
  /// Section 6's generalization: attribute-level pairs of open join
  /// conditions are always candidates too. Note (and the tests
  /// demonstrate) that completeness then requires an infinite ALTT Delta —
  /// an attribute-level node only remembers tuples for Delta, so a
  /// rewritten query arriving later than Delta after a matching tuple
  /// would miss it. The paper's "Delta can be infinity" remark covers this.
  kIncludeAttribute,
};

/// The indexing possibilities of Section 6 for a residual:
///  (a) relation-attribute pairs appearing in a (still open) join condition;
///  (b) relation-attribute-value triples appearing as explicit selection
///      conditions on unbound relations;
///  (c) relation-attribute-value triples implied by the WHERE clause — a
///      join predicate one side of which is already bound.
///
/// Input queries (nothing bound) are indexed at attribute level only, as in
/// Section 3. For rewritten queries, value-level candidates are listed
/// first (they give better load distribution and are the paper's default),
/// in WHERE-clause order, followed by attribute-level pairs per `levels`.
///
/// Candidates come back as interned KeyIds, resolved from the compiled
/// query's ids (KeyInterner::ResolveAttribute / ResolveValue): one code
/// lookup in steady state, key text only on a key's first sight. The
/// planner/engine compare, route, and store by u32 id from here on.
///
/// The out-parameter form clears and fills a caller-owned buffer — the
/// engine passes a reusable vector, so the per-rewrite candidate
/// enumeration is allocation-free once warm.
void IndexingCandidates(const Residual& residual, RewriteIndexLevels levels,
                        KeyInterner& interner, std::vector<KeyId>* out);

std::vector<KeyId> IndexingCandidates(
    const Residual& residual,
    RewriteIndexLevels levels = RewriteIndexLevels::kValuePreferred,
    KeyInterner& interner = KeyInterner::Global());

}  // namespace rjoin::core

#endif  // RJOIN_CORE_PLANNER_H_
