#include <gtest/gtest.h>

#include "sql/evaluator.h"
#include "sql/parser.h"
#include "sql/query.h"
#include "sql/rewriter.h"
#include "sql/schema.h"
#include "sql/tuple.h"
#include "sql/value.h"

namespace rjoin::sql {
namespace {

// ----------------------------------------------------------------- Value --

TEST(ValueTest, IntBasics) {
  const Value v = Value::Int(42);
  EXPECT_TRUE(v.is_int());
  EXPECT_EQ(v.AsInt(), 42);
  EXPECT_EQ(v.ToKeyString(), "42");
  EXPECT_EQ(v.ToDisplayString(), "42");
}

TEST(ValueTest, StringBasics) {
  const Value v = Value::Str("hello");
  EXPECT_TRUE(v.is_string());
  EXPECT_EQ(v.AsString(), "hello");
  EXPECT_EQ(v.ToDisplayString(), "'hello'");
}

TEST(ValueTest, EqualityAcrossKinds) {
  EXPECT_EQ(Value::Int(1), Value::Int(1));
  EXPECT_NE(Value::Int(1), Value::Int(2));
  EXPECT_NE(Value::Int(1), Value::Str("1"));
  EXPECT_EQ(Value::Str("a"), Value::Str("a"));
}

TEST(ValueTest, HasherDistinguishes) {
  Value::Hasher h;
  EXPECT_NE(h(Value::Int(1)), h(Value::Int(2)));
}

// ---------------------------------------------------------------- Schema --

TEST(SchemaTest, AttrIndex) {
  Schema s("R", {"A", "B", "C"});
  EXPECT_EQ(s.AttrIndex("A"), 0);
  EXPECT_EQ(s.AttrIndex("C"), 2);
  EXPECT_EQ(s.AttrIndex("Z"), -1);
  EXPECT_EQ(s.arity(), 3u);
}

TEST(CatalogTest, AddAndFind) {
  Catalog c;
  EXPECT_TRUE(c.AddRelation(Schema("R", {"A"})).ok());
  EXPECT_EQ(c.AddRelation(Schema("R", {"B"})).code(),
            StatusCode::kAlreadyExists);
  EXPECT_NE(c.Find("R"), nullptr);
  EXPECT_EQ(c.Find("S"), nullptr);
  EXPECT_EQ(c.size(), 1u);
}

// ---------------------------------------------------------------- Parser --

TEST(ParserTest, PaperExampleQuery) {
  auto q = Parser::Parse(
      "select R.B, S.B from R,S,P where R.A=S.A and S.B=P.B");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_FALSE(q->distinct);
  ASSERT_EQ(q->select_list.size(), 2u);
  EXPECT_EQ(q->select_list[0].attr.ToString(), "R.B");
  ASSERT_EQ(q->relations.size(), 3u);
  ASSERT_EQ(q->joins.size(), 2u);
  EXPECT_EQ(q->joins[0].ToString(), "R.A=S.A");
  EXPECT_EQ(q->joins[1].ToString(), "S.B=P.B");
  EXPECT_TRUE(q->selections.empty());
}

TEST(ParserTest, RewrittenFormWithConstants) {
  // The paper's q2: "select 5, S.B from S,P where 3=S.A and S.B=P.B".
  auto q = Parser::Parse("select 5, S.B from S,P where 3=S.A and S.B=P.B");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q->select_list.size(), 2u);
  EXPECT_TRUE(q->select_list[0].is_constant());
  EXPECT_EQ(*q->select_list[0].constant, Value::Int(5));
  ASSERT_EQ(q->selections.size(), 1u);
  EXPECT_EQ(q->selections[0].attr.ToString(), "S.A");
  EXPECT_EQ(q->selections[0].value, Value::Int(3));
  ASSERT_EQ(q->joins.size(), 1u);
}

TEST(ParserTest, DistinctKeyword) {
  auto q = Parser::Parse("SELECT DISTINCT R.A FROM R,S WHERE R.A = S.B");
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE(q->distinct);
}

TEST(ParserTest, CaseInsensitiveKeywordsCaseSensitiveIdents) {
  auto q = Parser::Parse("sElEcT r.a FrOm r, s WhErE r.a = s.b");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->relations[0], "r");  // identifiers keep their case
}

TEST(ParserTest, StringLiterals) {
  auto q = Parser::Parse("SELECT R.A FROM R WHERE R.B = 'abc def'");
  ASSERT_TRUE(q.ok());
  ASSERT_EQ(q->selections.size(), 1u);
  EXPECT_EQ(q->selections[0].value, Value::Str("abc def"));
}

TEST(ParserTest, NegativeIntegers) {
  auto q = Parser::Parse("SELECT R.A FROM R WHERE R.B = -17");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->selections[0].value, Value::Int(-17));
}

TEST(ParserTest, WindowClauseTuples) {
  auto q = Parser::Parse(
      "SELECT R.A FROM R,S WHERE R.A=S.A WINDOW 100 TUPLES");
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE(q->window.use_windows);
  EXPECT_EQ(q->window.size, 100u);
  EXPECT_EQ(q->window.unit, WindowSpec::Unit::kTuples);
  EXPECT_EQ(q->window.kind, WindowSpec::Kind::kSliding);
}

TEST(ParserTest, WindowClauseTimeTumbling) {
  auto q = Parser::Parse(
      "SELECT R.A FROM R,S WHERE R.A=S.A WINDOW 500 TIME TUMBLING");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->window.unit, WindowSpec::Unit::kTime);
  EXPECT_EQ(q->window.kind, WindowSpec::Kind::kTumbling);
}

TEST(ParserTest, RoundTripThroughToString) {
  const char* kQueries[] = {
      "SELECT R.B, S.B FROM R, S, P WHERE R.A=S.A AND S.B=P.B",
      "SELECT DISTINCT R.A FROM R, S WHERE R.A=S.B AND R.C=5",
      "SELECT 5, S.B FROM S, P WHERE S.A=3 AND S.B=P.B",
      "SELECT R.A FROM R, S WHERE R.A=S.A WINDOW 42 TUPLES",
  };
  for (const char* text : kQueries) {
    auto q1 = Parser::Parse(text);
    ASSERT_TRUE(q1.ok()) << text;
    auto q2 = Parser::Parse(q1->ToString());
    ASSERT_TRUE(q2.ok()) << q1->ToString();
    EXPECT_EQ(q1->ToString(), q2->ToString());
  }
}

TEST(ParserTest, Errors) {
  EXPECT_FALSE(Parser::Parse("").ok());
  EXPECT_FALSE(Parser::Parse("SELECT").ok());
  EXPECT_FALSE(Parser::Parse("SELECT R.A").ok());               // no FROM
  EXPECT_FALSE(Parser::Parse("SELECT R.A FROM R WHERE").ok());  // empty where
  EXPECT_FALSE(Parser::Parse("SELECT R.A FROM R WHERE R.A").ok());
  EXPECT_FALSE(Parser::Parse("SELECT R.A FROM R WHERE 1=2").ok());
  EXPECT_FALSE(Parser::Parse("SELECT R.A FROM R extra garbage = 1").ok());
  EXPECT_FALSE(Parser::Parse("SELECT R.A FROM R WHERE R.A = 'oops").ok());
  EXPECT_FALSE(
      Parser::Parse("SELECT R.A FROM R,S WHERE R.A=S.A WINDOW 10").ok());
}

// -------------------------------------------------------------- Rewriter --

class RewriterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(catalog_.AddRelation(Schema("R", {"A", "B"})).ok());
    ASSERT_TRUE(catalog_.AddRelation(Schema("S", {"A", "B"})).ok());
    ASSERT_TRUE(catalog_.AddRelation(Schema("P", {"B", "C"})).ok());
  }
  Catalog catalog_;
};

TEST_F(RewriterTest, PaperSection3Example) {
  // q1: select R.B, S.B from R,S,P where R.A=S.A and S.B=P.B
  // incoming R tuple (3,5) =>
  // q2: select 5, S.B from S,P where 3=S.A and S.B=P.B
  auto q1 = Parser::Parse(
      "select R.B, S.B from R,S,P where R.A=S.A and S.B=P.B");
  ASSERT_TRUE(q1.ok());
  Rewriter rewriter(&catalog_);
  auto t = MakeTuple("R", {Value::Int(3), Value::Int(5)}, 1, 1, 1);
  ASSERT_TRUE(rewriter.Triggers(*q1, *t));
  auto q2 = rewriter.Rewrite(*q1, *t);
  ASSERT_TRUE(q2.ok()) << q2.status().ToString();
  EXPECT_EQ(q2->ToString(), "SELECT 5, S.B FROM S, P WHERE S.B=P.B AND S.A=3");
  EXPECT_FALSE(q2->IsComplete());
}

TEST_F(RewriterTest, FullChainToCompletion) {
  auto q = Parser::Parse(
      "select R.B, S.B from R,S,P where R.A=S.A and S.B=P.B");
  ASSERT_TRUE(q.ok());
  Rewriter rewriter(&catalog_);
  auto r = MakeTuple("R", {Value::Int(3), Value::Int(5)}, 1, 1, 1);
  auto s = MakeTuple("S", {Value::Int(3), Value::Int(7)}, 2, 2, 2);
  auto p = MakeTuple("P", {Value::Int(7), Value::Int(9)}, 3, 3, 3);

  auto q1 = rewriter.Rewrite(*q, *r);
  ASSERT_TRUE(q1.ok());
  ASSERT_TRUE(rewriter.Triggers(*q1, *s));
  auto q2 = rewriter.Rewrite(*q1, *s);
  ASSERT_TRUE(q2.ok());
  ASSERT_TRUE(rewriter.Triggers(*q2, *p));
  auto q3 = rewriter.Rewrite(*q2, *p);
  ASSERT_TRUE(q3.ok());
  EXPECT_TRUE(q3->IsComplete());
  auto row = Rewriter::ExtractAnswer(*q3);
  ASSERT_EQ(row.size(), 2u);
  EXPECT_EQ(row[0], Value::Int(5));
  EXPECT_EQ(row[1], Value::Int(7));
}

TEST_F(RewriterTest, NonMatchingSelectionDoesNotTrigger) {
  auto q = Parser::Parse("select S.B from S where S.A = 10");
  ASSERT_TRUE(q.ok());
  Rewriter rewriter(&catalog_);
  auto bad = MakeTuple("S", {Value::Int(9), Value::Int(1)}, 1, 1, 1);
  auto good = MakeTuple("S", {Value::Int(10), Value::Int(1)}, 1, 1, 2);
  EXPECT_FALSE(rewriter.Triggers(*q, *bad));
  EXPECT_TRUE(rewriter.Triggers(*q, *good));
  EXPECT_FALSE(rewriter.Rewrite(*q, *bad).ok());
}

TEST_F(RewriterTest, UnrelatedRelationDoesNotTrigger) {
  auto q = Parser::Parse("select R.B from R,S where R.A=S.A");
  ASSERT_TRUE(q.ok());
  Rewriter rewriter(&catalog_);
  auto t = MakeTuple("P", {Value::Int(1), Value::Int(2)}, 1, 1, 1);
  EXPECT_FALSE(rewriter.Triggers(*q, *t));
}

TEST_F(RewriterTest, ArityMismatchRejected) {
  auto q = Parser::Parse("select R.B from R,S where R.A=S.A");
  ASSERT_TRUE(q.ok());
  Rewriter rewriter(&catalog_);
  auto t = MakeTuple("R", {Value::Int(1)}, 1, 1, 1);  // R has arity 2
  EXPECT_FALSE(rewriter.Rewrite(*q, *t).ok());
}

// ------------------------------------------------------------- Evaluator --

class EvaluatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(catalog_.AddRelation(Schema("R", {"A", "B"})).ok());
    ASSERT_TRUE(catalog_.AddRelation(Schema("S", {"A", "B"})).ok());
  }
  Catalog catalog_;
};

TEST_F(EvaluatorTest, BasicEquiJoin) {
  auto q = Parser::Parse("select R.B, S.B from R,S where R.A=S.A");
  ASSERT_TRUE(q.ok());
  std::vector<TuplePtr> tuples = {
      MakeTuple("R", {Value::Int(1), Value::Int(10)}, 1, 1, 1),
      MakeTuple("S", {Value::Int(1), Value::Int(20)}, 2, 2, 2),
      MakeTuple("S", {Value::Int(2), Value::Int(30)}, 3, 3, 3),
  };
  CentralizedEvaluator eval(&catalog_);
  auto rows = eval.Evaluate(*q, 0, tuples);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], Value::Int(10));
  EXPECT_EQ(rows[0][1], Value::Int(20));
}

TEST_F(EvaluatorTest, BagSemanticsKeepsDuplicates) {
  // The paper's Example 2: (1,b) is produced twice.
  auto q = Parser::Parse("select R.A, S.A from R,S where R.B=S.B");
  ASSERT_TRUE(q.ok());
  std::vector<TuplePtr> tuples = {
      MakeTuple("R", {Value::Int(1), Value::Int(2)}, 1, 1, 1),
      MakeTuple("S", {Value::Str("b"), Value::Int(2)}, 2, 2, 2),
      MakeTuple("S", {Value::Str("b"), Value::Int(2)}, 3, 3, 3),
  };
  // Note: S.B here is S's second attribute; adjust to schema (A, B).
  CentralizedEvaluator eval(&catalog_);
  auto rows = eval.Evaluate(*q, 0, tuples);
  EXPECT_EQ(rows.size(), 2u);
}

TEST_F(EvaluatorTest, DistinctCollapsesDuplicates) {
  auto q = Parser::Parse("select DISTINCT R.A, S.A from R,S where R.B=S.B");
  ASSERT_TRUE(q.ok());
  std::vector<TuplePtr> tuples = {
      MakeTuple("R", {Value::Int(1), Value::Int(2)}, 1, 1, 1),
      MakeTuple("S", {Value::Str("b"), Value::Int(2)}, 2, 2, 2),
      MakeTuple("S", {Value::Str("b"), Value::Int(2)}, 3, 3, 3),
  };
  CentralizedEvaluator eval(&catalog_);
  auto rows = eval.Evaluate(*q, 0, tuples);
  EXPECT_EQ(rows.size(), 1u);
}

TEST_F(EvaluatorTest, InsertionTimeExcludesOlderTuples) {
  auto q = Parser::Parse("select R.B, S.B from R,S where R.A=S.A");
  ASSERT_TRUE(q.ok());
  std::vector<TuplePtr> tuples = {
      MakeTuple("R", {Value::Int(1), Value::Int(10)}, /*pub=*/5, 1, 1),
      MakeTuple("S", {Value::Int(1), Value::Int(20)}, /*pub=*/15, 2, 2),
  };
  CentralizedEvaluator eval(&catalog_);
  EXPECT_EQ(eval.Evaluate(*q, 0, tuples).size(), 1u);
  EXPECT_EQ(eval.Evaluate(*q, 10, tuples).size(), 0u);  // R tuple too old
}

TEST_F(EvaluatorTest, SlidingWindowBoundsCombinations) {
  auto q = Parser::Parse(
      "select R.B, S.B from R,S where R.A=S.A WINDOW 10 TIME");
  ASSERT_TRUE(q.ok());
  std::vector<TuplePtr> tuples = {
      MakeTuple("R", {Value::Int(1), Value::Int(10)}, /*pub=*/100, 1, 1),
      MakeTuple("S", {Value::Int(1), Value::Int(20)}, /*pub=*/105, 2, 2),
      MakeTuple("S", {Value::Int(1), Value::Int(30)}, /*pub=*/120, 3, 3),
  };
  CentralizedEvaluator eval(&catalog_);
  auto rows = eval.Evaluate(*q, 0, tuples);
  ASSERT_EQ(rows.size(), 1u);  // Only the (100,105) pair fits in W=10.
  EXPECT_EQ(rows[0][1], Value::Int(20));
}

TEST_F(EvaluatorTest, TumblingWindowUsesEpochs) {
  auto q = Parser::Parse(
      "select R.B, S.B from R,S where R.A=S.A WINDOW 10 TIME TUMBLING");
  ASSERT_TRUE(q.ok());
  std::vector<TuplePtr> tuples = {
      MakeTuple("R", {Value::Int(1), Value::Int(10)}, /*pub=*/8, 1, 1),
      MakeTuple("S", {Value::Int(1), Value::Int(20)}, /*pub=*/9, 2, 2),
      MakeTuple("S", {Value::Int(1), Value::Int(30)}, /*pub=*/11, 3, 3),
  };
  // pub 8 and 9 share epoch [0,10); pub 11 is in [10,20).
  CentralizedEvaluator eval(&catalog_);
  auto rows = eval.Evaluate(*q, 0, tuples);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][1], Value::Int(20));
}

TEST_F(EvaluatorTest, TupleWindowUsesSequenceNumbers) {
  auto q = Parser::Parse(
      "select R.B, S.B from R,S where R.A=S.A WINDOW 2 TUPLES");
  ASSERT_TRUE(q.ok());
  std::vector<TuplePtr> tuples = {
      MakeTuple("R", {Value::Int(1), Value::Int(10)}, 1, /*seq=*/1, 1),
      MakeTuple("S", {Value::Int(1), Value::Int(20)}, 2, /*seq=*/2, 2),
      MakeTuple("S", {Value::Int(1), Value::Int(30)}, 3, /*seq=*/5, 3),
  };
  CentralizedEvaluator eval(&catalog_);
  auto rows = eval.Evaluate(*q, 0, tuples);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][1], Value::Int(20));
}

TEST_F(EvaluatorTest, AnswerRowKeyDistinguishesRows) {
  EXPECT_NE(AnswerRowKey({Value::Int(1), Value::Int(2)}),
            AnswerRowKey({Value::Int(12)}));
  EXPECT_EQ(AnswerRowKey({Value::Int(1)}), AnswerRowKey({Value::Int(1)}));
}

}  // namespace
}  // namespace rjoin::sql
