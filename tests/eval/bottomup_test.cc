#include "eval/bottomup.h"

#include <gtest/gtest.h>

#include <string>

#include "parser/parser.h"
#include "util/strings.h"

namespace hornsafe {
namespace {

struct Setup {
  Program program;
  BuiltinRegistry registry;
};

std::unique_ptr<Setup> Make(const char* text) {
  auto parsed = ParseProgram(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  auto s = std::make_unique<Setup>();
  s->program = std::move(parsed).value();
  Status st = RegisterStandardBuiltins(&s->program, &s->registry);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return s;
}

TEST(BottomUpTest, TransitiveClosure) {
  auto s = Make(R"(
    edge(1,2). edge(2,3). edge(3,4).
    path(X,Y) :- edge(X,Y).
    path(X,Y) :- path(X,Z), edge(Z,Y).
  )");
  BottomUpEvaluator eval(&s->program, &s->registry);
  ASSERT_TRUE(eval.Run().ok());
  PredicateId path = s->program.FindPredicate("path", 2);
  EXPECT_EQ(eval.RelationFor(path).size(), 6u);  // 3+2+1 pairs
  EXPECT_TRUE(eval.RelationFor(path).Contains(
      {s->program.Int(1), s->program.Int(4)}));
}

TEST(BottomUpTest, AncestorWithGenerationCount) {
  // Example 1 of the paper: the successor builtin numbers the levels.
  auto s = Make(R"(
    .infinite successor/2.
    parent(cain, adam).
    parent(abel, adam).
    parent(cain, eve).
    parent(abel, eve).
    parent(sem, abel).
    ancestor(X,Y,J) :- ancestor(X,Z,I), parent(Z,Y), successor(I,J).
    ancestor(X,Y,1) :- parent(X,Y).
  )");
  BottomUpEvaluator eval(&s->program, &s->registry);
  ASSERT_TRUE(eval.Run().ok());
  PredicateId anc = s->program.FindPredicate("ancestor", 3);
  const Relation& rel = eval.RelationFor(anc);
  // 5 direct parents + sem's 2 grandparents (adam, eve).
  EXPECT_EQ(rel.size(), 7u);
  EXPECT_TRUE(rel.Contains({s->program.Atom("sem"), s->program.Atom("adam"),
                            s->program.Int(2)}));
  EXPECT_TRUE(rel.Contains({s->program.Atom("sem"), s->program.Atom("abel"),
                            s->program.Int(1)}));
}

TEST(BottomUpTest, SemiNaiveMatchesNaive) {
  const char* text = R"(
    edge(1,2). edge(2,3). edge(3,1). edge(3,5). edge(5,6).
    path(X,Y) :- edge(X,Y).
    path(X,Y) :- path(X,Z), path(Z,Y).
  )";
  auto s1 = Make(text);
  BottomUpOptions semi;
  semi.semi_naive = true;
  BottomUpEvaluator e1(&s1->program, &s1->registry, semi);
  ASSERT_TRUE(e1.Run().ok());

  auto s2 = Make(text);
  BottomUpOptions naive;
  naive.semi_naive = false;
  BottomUpEvaluator e2(&s2->program, &s2->registry, naive);
  ASSERT_TRUE(e2.Run().ok());

  PredicateId p1 = s1->program.FindPredicate("path", 2);
  PredicateId p2 = s2->program.FindPredicate("path", 2);
  EXPECT_EQ(e1.RelationFor(p1).size(), e2.RelationFor(p2).size());
  // Semi-naive does strictly less rule work on this recursive program.
  EXPECT_LT(e1.stats().rule_firings, e2.stats().rule_firings);
}

TEST(BottomUpTest, SipOrderingMovesGuardBeforeArithmetic) {
  // The rule is written with the infinite literal first; the planner
  // must reorder so plus/3 sees two bound arguments.
  auto s = Make(R"(
    .infinite plus/3.
    val(1). val(2).
    sum(Z) :- plus(X,Y,Z), val(X), val(Y).
  )");
  BottomUpEvaluator eval(&s->program, &s->registry);
  ASSERT_TRUE(eval.Run().ok());
  PredicateId sum = s->program.FindPredicate("sum", 1);
  const Relation& rel = eval.RelationFor(sum);
  EXPECT_EQ(rel.size(), 3u);  // 2, 3, 4
  EXPECT_TRUE(rel.Contains({s->program.Int(4)}));
}

TEST(BottomUpTest, UnorderableRuleFails) {
  auto s = Make(R"(
    .infinite successor/2.
    r(X,Y) :- successor(X,Y).
  )");
  BottomUpEvaluator eval(&s->program, &s->registry);
  Status st = eval.Run();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kUnsafeQuery);
  EXPECT_NE(st.message().find("binding pattern"), std::string::npos);
}

TEST(BottomUpTest, RangeUnrestrictedHeadFails) {
  auto s = Make("r(X,Y) :- b(X). b(1).");
  BottomUpEvaluator eval(&s->program, &s->registry);
  Status st = eval.Run();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kUnsafeQuery);
  EXPECT_NE(st.message().find("non-ground head"), std::string::npos);
}

TEST(BottomUpTest, TupleBudgetStopsRunawayRecursion) {
  // Counting upward forever: the paper's unsafe generation pattern.
  auto s = Make(R"(
    .infinite successor/2.
    count(1).
    count(J) :- count(I), successor(I,J).
  )");
  BottomUpOptions opts;
  opts.max_tuples = 100;
  BottomUpEvaluator eval(&s->program, &s->registry, opts);
  Status st = eval.Run();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kBudgetExhausted);
}

TEST(BottomUpTest, QueryFiltersComputedRelation) {
  auto s = Make(R"(
    edge(1,2). edge(2,3).
    path(X,Y) :- edge(X,Y).
    path(X,Y) :- path(X,Z), edge(Z,Y).
  )");
  BottomUpEvaluator eval(&s->program, &s->registry);
  ASSERT_TRUE(eval.Run().ok());
  Literal q = s->program.MakeLiteral("path",
                                     {s->program.Int(1), s->program.Var("Y")});
  auto result = eval.Query(q);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 2u);  // (1,2), (1,3)
}

TEST(BottomUpTest, QueryAgainstBuiltinWithBoundArgs) {
  auto s = Make("b(1).");
  BottomUpEvaluator eval(&s->program, &s->registry);
  ASSERT_TRUE(eval.Run().ok());
  Literal q = s->program.MakeLiteral(
      "plus", {s->program.Int(2), s->program.Int(3), s->program.Var("Z")});
  auto result = eval.Query(q);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->size(), 1u);
  EXPECT_EQ((*result)[0][2], s->program.Int(5));
  // All-free builtin query refused.
  Literal bad = s->program.MakeLiteral(
      "plus", {s->program.Var("X"), s->program.Var("Y"), s->program.Var("Z")});
  EXPECT_EQ(eval.Query(bad).status().code(), StatusCode::kUnsafeQuery);
}

TEST(BottomUpTest, FunctionTermsJoinViaUnification) {
  auto s = Make(R"(
    holds(box(1), room(a)).
    holds(box(2), room(a)).
    in_room(X) :- holds(box(X), room(a)).
  )");
  BottomUpEvaluator eval(&s->program, &s->registry);
  ASSERT_TRUE(eval.Run().ok());
  PredicateId p = s->program.FindPredicate("in_room", 1);
  EXPECT_EQ(eval.RelationFor(p).size(), 2u);
  EXPECT_TRUE(eval.RelationFor(p).Contains({s->program.Int(1)}));
}

TEST(BottomUpTest, MutualRecursion) {
  auto s = Make(R"(
    num(0).
    even(0).
    even(X) :- odd(Y), step(Y,X).
    odd(X) :- even(Y), step(Y,X).
    step(0,1). step(1,2). step(2,3). step(3,4).
  )");
  BottomUpEvaluator eval(&s->program, &s->registry);
  ASSERT_TRUE(eval.Run().ok());
  PredicateId even = s->program.FindPredicate("even", 1);
  PredicateId odd = s->program.FindPredicate("odd", 1);
  EXPECT_TRUE(eval.RelationFor(even).Contains({s->program.Int(4)}));
  EXPECT_TRUE(eval.RelationFor(odd).Contains({s->program.Int(3)}));
  EXPECT_FALSE(eval.RelationFor(even).Contains({s->program.Int(3)}));
}

TEST(BottomUpTest, LargeTransitiveClosureOnACycle) {
  // A 120-node cycle: every node reaches every node, one new path
  // length per iteration, and one round timing per iteration plus the
  // initial round.
  constexpr int kNodes = 120;
  std::string text;
  for (int i = 0; i < kNodes; ++i) {
    text += StrCat("edge(", i, ",", (i + 1) % kNodes, ").\n");
  }
  text +=
      "path(X,Y) :- edge(X,Y).\n"
      "path(X,Y) :- path(X,Z), edge(Z,Y).\n";
  auto s = Make(text.c_str());
  BottomUpEvaluator eval(&s->program, &s->registry);
  ASSERT_TRUE(eval.Run().ok());
  PredicateId path = s->program.FindPredicate("path", 2);
  const Relation& rel = eval.RelationFor(path);
  EXPECT_EQ(rel.size(), static_cast<size_t>(kNodes * kNodes));
  for (int i = 0; i < kNodes; i += 17) {
    EXPECT_TRUE(rel.Contains({s->program.Int(i), s->program.Int(i)}));
    EXPECT_TRUE(rel.Contains(
        {s->program.Int(i), s->program.Int((i + kNodes - 1) % kNodes)}));
  }
  EXPECT_EQ(eval.stats().tuples_derived,
            static_cast<uint64_t>(kNodes * kNodes));
  EXPECT_EQ(eval.stats().iterations, static_cast<uint64_t>(kNodes + 1));
  EXPECT_EQ(eval.stats().round_seconds.size(),
            eval.stats().iterations + 1);
}

TEST(BottomUpTest, WideRulePlansAndEvaluates) {
  // Regression for the O(n^2) PlanRule variable scan: a 33-literal
  // chain join must plan quickly and produce exactly one derivation.
  constexpr int kWidth = 33;
  std::string text;
  std::string body;
  for (int i = 0; i < kWidth; ++i) {
    text += StrCat("b", i, "(", i, ",", i + 1, ").\n");
    body += StrCat(i > 0 ? ", " : "", "b", i, "(X", i, ",X", i + 1, ")");
  }
  text += StrCat("r(X0,X", kWidth, ") :- ", body, ".\n");
  auto s = Make(text.c_str());
  BottomUpEvaluator eval(&s->program, &s->registry);
  ASSERT_TRUE(eval.Run().ok());
  PredicateId r = s->program.FindPredicate("r", 2);
  ASSERT_NE(r, kInvalidPredicate);
  EXPECT_EQ(eval.RelationFor(r).size(), 1u);
  EXPECT_TRUE(eval.RelationFor(r).Contains(
      {s->program.Int(0), s->program.Int(kWidth)}));
}

}  // namespace
}  // namespace hornsafe
