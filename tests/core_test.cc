#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/interner.h"
#include "core/key.h"
#include "core/planner.h"
#include "core/residual.h"
#include "core/ric.h"
#include "sql/parser.h"
#include "sql/rewriter.h"

namespace rjoin::core {
namespace {

// ------------------------------------------------------------------ Keys --

TEST(KeyTest, AttributeAndValueLevels) {
  const IndexKey a = AttributeKey("R", "A");
  EXPECT_EQ(a.level, Level::kAttribute);
  const IndexKey v = ValueKey("R", "A", sql::Value::Int(5));
  EXPECT_EQ(v.level, Level::kValue);
  EXPECT_NE(a.text, v.text);
}

TEST(KeyTest, SeparatorPreventsConcatenationCollisions) {
  // "RA"+"B" must differ from "R"+"AB".
  EXPECT_NE(AttributeKey("RA", "B").text, AttributeKey("R", "AB").text);
  EXPECT_NE(ValueKey("R", "A", sql::Value::Int(12)).text,
            ValueKey("R", "A1", sql::Value::Int(2)).text);
}

TEST(KeyTest, KeyRingIdIsDeterministic) {
  EXPECT_EQ(KeyRingId(AttributeKey("R", "A")),
            KeyRingId(AttributeKey("R", "A")));
  EXPECT_NE(KeyRingId(AttributeKey("R", "A")),
            KeyRingId(AttributeKey("R", "B")));
}

TEST(KeyTest, StringValuesSupported) {
  const IndexKey k = ValueKey("R", "A", sql::Value::Str("hello"));
  EXPECT_EQ(k.level, Level::kValue);
  EXPECT_NE(KeyRingId(k),
            KeyRingId(ValueKey("R", "A", sql::Value::Str("world"))));
}

// ----------------------------------------------------------- RateTracker --
// Keys are interned ids; the tracker never sees text, so tests use small
// literal ids.

constexpr KeyId kKey = 1;
constexpr KeyId kOtherKey = 2;

TEST(RateTrackerTest, CountsWithinEpoch) {
  RateTracker rt(100);
  rt.Record(kKey, 10);
  rt.Record(kKey, 20);
  rt.Record(kKey, 99);
  EXPECT_EQ(rt.Rate(kKey, 99), 3u);
  EXPECT_EQ(rt.Rate(kOtherKey, 99), 0u);
}

TEST(RateTrackerTest, PreviousEpochCarriesOver) {
  RateTracker rt(100);
  rt.Record(kKey, 50);
  rt.Record(kKey, 60);
  rt.Record(kKey, 150);  // Next epoch.
  EXPECT_EQ(rt.Rate(kKey, 150), 3u);  // current(1) + previous(2)
}

TEST(RateTrackerTest, OldEpochsForgotten) {
  RateTracker rt(100);
  rt.Record(kKey, 50);
  EXPECT_EQ(rt.Rate(kKey, 350), 0u);  // Two epochs later: stale.
}

TEST(RateTrackerTest, RateIsConstQuery) {
  RateTracker rt(100);
  rt.Record(kKey, 10);
  const RateTracker& c = rt;
  EXPECT_EQ(c.Rate(kKey, 10), 1u);
  EXPECT_EQ(c.Rate(kKey, 10), 1u);  // Idempotent.
}

// -------------------------------------------------------- CandidateTable --

TEST(CandidateTableTest, MergeKeepsNewest) {
  CandidateTable ct;
  ct.Merge({.key = kKey, .node = 1, .rate = 5, .timestamp = 100});
  ct.Merge({.key = kKey, .node = 2, .rate = 9, .timestamp = 50});  // Older.
  ASSERT_NE(ct.Find(kKey), nullptr);
  EXPECT_EQ(ct.Find(kKey)->rate, 5u);
  // Newer: replaces.
  ct.Merge({.key = kKey, .node = 3, .rate = 7, .timestamp = 200});
  EXPECT_EQ(ct.Find(kKey)->rate, 7u);
  EXPECT_EQ(ct.Find(kKey)->node, 3u);
  // The slot is the entry: its key is the one it was found under.
  EXPECT_EQ(ct.Find(kKey)->key, kKey);
}

TEST(CandidateTableTest, Freshness) {
  CandidateTable ct;
  ct.Merge({.key = kKey, .node = 1, .rate = 5, .timestamp = 100});
  EXPECT_TRUE(IsFresh(ct.Find(kKey), 150, 60));
  EXPECT_FALSE(IsFresh(ct.Find(kKey), 200, 60));
  EXPECT_FALSE(IsFresh(ct.Find(kOtherKey), 100, 60));
}

// ------------------------------------------------- InputQuery / Residual --

class ResidualTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(catalog_.AddRelation(sql::Schema("R", {"A", "B"})).ok());
    ASSERT_TRUE(catalog_.AddRelation(sql::Schema("S", {"A", "B"})).ok());
    ASSERT_TRUE(catalog_.AddRelation(sql::Schema("P", {"B", "C"})).ok());
  }

  std::unique_ptr<InputQuery> Compile(const std::string& text,
                                      uint64_t ins_time = 0) {
    auto spec = sql::Parser::Parse(text);
    EXPECT_TRUE(spec.ok()) << spec.status().ToString();
    auto q = InputQuery::Create(1, 0, ins_time, *spec, &catalog_);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    return q.ok() ? std::make_unique<InputQuery>(*q) : nullptr;
  }

  /// A pooled tuple record, the form the engine binds.
  static TupleRef Tuple(const std::string& relation, int64_t a, int64_t b,
                        uint64_t pub_time, uint64_t seq_no,
                        uint64_t tuple_id) {
    return TuplePool::Global().Make(
        relation, {sql::Value::Int(a), sql::Value::Int(b)}, pub_time, seq_no,
        tuple_id);
  }

  /// The answer row of a complete residual, materialized from its ids.
  static std::vector<sql::Value> AnswerRow(const Residual& r) {
    ValueId ids[kMaxSelectItems];
    std::vector<sql::Value> row;
    for (int i = 0, n = r.ExtractAnswerIds(ids); i < n; ++i) {
      row.push_back(ValueInterner::Global().value(ids[i]));
    }
    return row;
  }

  sql::Catalog catalog_;
};

TEST_F(ResidualTest, CreateRejectsUnknownRelation) {
  auto spec = sql::Parser::Parse("select X.A from X,R where X.A=R.A");
  ASSERT_TRUE(spec.ok());
  EXPECT_FALSE(InputQuery::Create(1, 0, 0, *spec, &catalog_).ok());
}

TEST_F(ResidualTest, CreateRejectsSelfJoin) {
  auto spec = sql::Parser::Parse("select R.A from R,R where R.A=R.B");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(InputQuery::Create(1, 0, 0, *spec, &catalog_).status().code(),
            StatusCode::kUnimplemented);
}

TEST_F(ResidualTest, CreateRejectsCartesianProduct) {
  auto spec = sql::Parser::Parse("select R.A, S.A from R,S");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(InputQuery::Create(1, 0, 0, *spec, &catalog_).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ResidualTest, CreateRejectsUncoveredRelation) {
  auto spec = sql::Parser::Parse("select R.A from R,S,P where R.A=S.A");
  ASSERT_TRUE(spec.ok());
  EXPECT_FALSE(InputQuery::Create(1, 0, 0, *spec, &catalog_).ok());
}

TEST_F(ResidualTest, BindChainCompletes) {
  auto q = Compile("select R.B, S.B from R,S,P where R.A=S.A and S.B=P.B");
  Residual r0(q.get());
  EXPECT_TRUE(r0.IsInputQuery());
  EXPECT_FALSE(r0.IsComplete());

  const TupleRef tr = Tuple("R", 3, 5, 1, 1, 1);
  ASSERT_TRUE(r0.Matches(0, tr));
  Residual r1 = r0.Bind(0, tr);
  EXPECT_EQ(r1.num_bound(), 1);

  // S tuple must now satisfy S.A = 3 (implied selection from R).
  const TupleRef bad_s = Tuple("S", 4, 7, 2, 2, 2);
  EXPECT_FALSE(r1.Matches(1, bad_s));
  const TupleRef ts = Tuple("S", 3, 7, 2, 2, 2);
  ASSERT_TRUE(r1.Matches(1, ts));
  Residual r2 = r1.Bind(1, ts);

  const TupleRef tp = Tuple("P", 7, 9, 3, 3, 3);
  ASSERT_TRUE(r2.Matches(2, tp));
  Residual r3 = r2.Bind(2, tp);
  ASSERT_TRUE(r3.IsComplete());
  auto row = AnswerRow(r3);
  ASSERT_EQ(row.size(), 2u);
  EXPECT_EQ(row[0], sql::Value::Int(5));
  EXPECT_EQ(row[1], sql::Value::Int(7));
}

TEST_F(ResidualTest, ToRewrittenQueryAgreesWithReferenceRewriter) {
  auto q = Compile("select R.B, S.B from R,S,P where R.A=S.A and S.B=P.B");
  sql::Rewriter reference(&catalog_);

  // The reference rewriter takes the materialized sql::Tuple.
  const TupleRef tr = Tuple("R", 3, 5, 1, 1, 1);
  Residual r1 = Residual(q.get()).Bind(0, tr);
  auto ref1 = reference.Rewrite(q->spec(), *tr.Materialize());
  ASSERT_TRUE(ref1.ok());
  // Same relations, same select constants, same implied selections.
  EXPECT_EQ(r1.ToRewrittenQuery().relations, ref1->relations);
  EXPECT_EQ(r1.ToRewrittenQuery().joins.size(), ref1->joins.size());
  EXPECT_EQ(r1.ToRewrittenQuery().selections.size(),
            ref1->selections.size());

  const TupleRef ts = Tuple("S", 3, 7, 2, 2, 2);
  Residual r2 = r1.Bind(1, ts);
  auto ref2 = reference.Rewrite(*ref1, *ts.Materialize());
  ASSERT_TRUE(ref2.ok());
  EXPECT_EQ(r2.ToRewrittenQuery().relations, ref2->relations);
  EXPECT_EQ(r2.ToRewrittenQuery().selections.size(),
            ref2->selections.size());
}

TEST_F(ResidualTest, WindowAdmitsSliding) {
  auto q = Compile(
      "select R.B from R,S where R.A=S.A WINDOW 10 TIME");
  Residual r0(q.get());
  const TupleRef t1 = Tuple("R", 1, 2, /*pub=*/100, 1, 1);
  ASSERT_TRUE(r0.WindowAdmits(0, t1));  // First binding always admitted.
  Residual r1 = r0.Bind(0, t1);
  const TupleRef in_window = Tuple("S", 1, 3, /*pub=*/109, 2, 2);
  const TupleRef out_of_window = Tuple("S", 1, 3, /*pub=*/110, 3, 3);
  EXPECT_TRUE(r1.WindowAdmits(1, in_window));    // 109-100+1 = 10 <= 10
  EXPECT_FALSE(r1.WindowAdmits(1, out_of_window));  // 110-100+1 = 11 > 10
}

TEST_F(ResidualTest, WindowAdmitsOutOfOrderArrival) {
  auto q = Compile("select R.B from R,S where R.A=S.A WINDOW 10 TIME");
  const TupleRef late = Tuple("R", 1, 2, /*pub=*/100, 1, 1);
  Residual r1 = Residual(q.get()).Bind(0, late);
  // An older stored tuple: window is measured between the extremes.
  const TupleRef older = Tuple("S", 1, 3, /*pub=*/95, 2, 2);
  EXPECT_TRUE(r1.WindowAdmits(1, older));
  const TupleRef too_old = Tuple("S", 1, 3, /*pub=*/89, 3, 3);
  EXPECT_FALSE(r1.WindowAdmits(1, too_old));
}

TEST_F(ResidualTest, ContentFingerprintIdentifiesEquivalentRewrites) {
  auto q = Compile("select R.B from R,S where R.A=S.A");
  // Two R tuples that agree on every referenced attribute (A and B).
  const TupleRef t1 = Tuple("R", 1, 2, 1, 1, 1);
  const TupleRef t2 = Tuple("R", 1, 2, 5, 5, 2);
  EXPECT_EQ(Residual(q.get()).Bind(0, t1).ContentFingerprint64(),
            Residual(q.get()).Bind(0, t2).ContentFingerprint64());
  const TupleRef t3 = Tuple("R", 1, 9, 1, 1, 3);
  EXPECT_NE(Residual(q.get()).Bind(0, t1).ContentFingerprint64(),
            Residual(q.get()).Bind(0, t3).ContentFingerprint64());
}

// --------------------------------------------------------------- Planner --
// Candidates come back as interned ids; level/text resolve through the
// interner the candidates were interned into.

class PlannerTest : public ResidualTest {
 protected:
  KeyInterner& in_ = KeyInterner::Global();
};

TEST_F(PlannerTest, InputQueryCandidatesAreAttributeLevel) {
  auto q = Compile("select R.B from R,S,P where R.A=S.A and S.B=P.B");
  auto cands = IndexingCandidates(Residual(q.get()));
  ASSERT_EQ(cands.size(), 4u);  // R.A, S.A, S.B, P.B
  for (KeyId c : cands) EXPECT_EQ(in_.level(c), Level::kAttribute);
  EXPECT_EQ(in_.text(cands[0]), AttributeKey("R", "A").text);
  EXPECT_EQ(in_.text(cands[1]), AttributeKey("S", "A").text);
}

TEST_F(PlannerTest, RewrittenCandidatesValuePreferredByDefault) {
  auto q = Compile("select R.B from R,S,P where R.A=S.A and S.B=P.B");
  const TupleRef tr = Tuple("R", 3, 5, 1, 1, 1);
  auto cands = IndexingCandidates(Residual(q.get()).Bind(0, tr));
  // Section 3 default: only the implied value triple S.A=3 — attribute
  // pairs stay out when a value-level option exists.
  ASSERT_EQ(cands.size(), 1u);
  EXPECT_EQ(in_.level(cands[0]), Level::kValue);
  EXPECT_EQ(in_.text(cands[0]), ValueKey("S", "A", sql::Value::Int(3)).text);
}

TEST_F(PlannerTest, RewrittenCandidatesSection6IncludesAttributePairs) {
  auto q = Compile("select R.B from R,S,P where R.A=S.A and S.B=P.B");
  const TupleRef tr = Tuple("R", 3, 5, 1, 1, 1);
  auto cands = IndexingCandidates(Residual(q.get()).Bind(0, tr),
                                  RewriteIndexLevels::kIncludeAttribute);
  // Implied triple S.A=3 first, then open-join attribute pairs S.B / P.B.
  ASSERT_EQ(cands.size(), 3u);
  EXPECT_EQ(in_.level(cands[0]), Level::kValue);
  EXPECT_EQ(in_.text(cands[0]), ValueKey("S", "A", sql::Value::Int(3)).text);
  EXPECT_EQ(in_.level(cands[1]), Level::kAttribute);
  EXPECT_EQ(in_.level(cands[2]), Level::kAttribute);
}

TEST_F(PlannerTest, AttributeFallbackWhenNoValueCandidate) {
  // Binding P leaves join R.A=S.A fully open: no value triples exist, so
  // attribute pairs must be offered even under kValuePreferred.
  auto q = Compile("select R.B from R,S,P where R.A=S.A and S.B=P.B");
  const TupleRef tp = Tuple("P", 6, 9, 1, 1, 1);
  auto cands = IndexingCandidates(Residual(q.get()).Bind(2, tp));
  // Implied triple S.B=6 (from S.B=P.B) plus... S has a value candidate,
  // so value-preferred stops there.
  ASSERT_EQ(cands.size(), 1u);
  EXPECT_EQ(in_.text(cands[0]), ValueKey("S", "B", sql::Value::Int(6)).text);

  // A residual where the only unbound relations are joined to each other:
  // R,S unbound with R.A=S.A and no implied selections. Construct via a
  // query whose third relation connects by selection only.
  auto q2 = Compile("select R.B from R,S,P where R.A=S.A and P.B=7");
  const TupleRef tp2 = Tuple("P", 1, 7, 1, 1, 1);
  Residual r2 = Residual(q2.get()).Bind(2, tp2);
  auto cands2 = IndexingCandidates(r2);
  ASSERT_EQ(cands2.size(), 2u);  // Attribute pairs R.A and S.A.
  EXPECT_EQ(in_.level(cands2[0]), Level::kAttribute);
  EXPECT_EQ(in_.level(cands2[1]), Level::kAttribute);
}

TEST_F(PlannerTest, ExplicitSelectionBecomesValueCandidate) {
  auto q = Compile("select R.B from R,S where R.A=S.A and S.B=42");
  const TupleRef tr = Tuple("R", 3, 5, 1, 1, 1);
  auto cands = IndexingCandidates(Residual(q.get()).Bind(0, tr));
  // Both the implied S.A=3 and the explicit S.B=42 triples.
  ASSERT_EQ(cands.size(), 2u);
  EXPECT_EQ(in_.text(cands[0]), ValueKey("S", "A", sql::Value::Int(3)).text);
  EXPECT_EQ(in_.text(cands[1]), ValueKey("S", "B", sql::Value::Int(42)).text);
}

TEST_F(PlannerTest, SingleRelationNoPredicatesFallsBack) {
  auto q = Compile("select R.A from R");
  auto cands = IndexingCandidates(Residual(q.get()));
  ASSERT_EQ(cands.size(), 1u);
  EXPECT_EQ(in_.text(cands[0]), AttributeKey("R", "A").text);
}

TEST_F(PlannerTest, PolicyNamesAreDistinct) {
  EXPECT_STRNE(PlannerPolicyName(PlannerPolicy::kRic),
               PlannerPolicyName(PlannerPolicy::kWorst));
  EXPECT_STRNE(PlannerPolicyName(PlannerPolicy::kRandom),
               PlannerPolicyName(PlannerPolicy::kFirstInClause));
}

}  // namespace
}  // namespace rjoin::core
