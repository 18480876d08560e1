#include "optimizer/project_pushdown.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "ast/parser.h"
#include "engine/query_eval.h"
#include "ldl/ldl.h"
#include "testing/workloads.h"

namespace ldl {
namespace {

Program P(const char* text) {
  auto r = ParseProgram(text);
  EXPECT_TRUE(r.ok()) << r.status();
  return *r;
}

Literal L(const char* text) {
  auto r = ParseLiteral(text);
  EXPECT_TRUE(r.ok()) << r.status();
  return *r;
}

std::vector<Tuple> Sorted(const Relation& r) { return CanonicalAnswers(r); }

TEST(ProjectPushdownTest, DropsDeadRecursiveArgument) {
  // reachable(X) only cares about anc's first argument; the second is dead
  // through the whole recursion.
  Program p = P(R"(
    anc(X, Y) <- par(X, Y).
    anc(X, Y) <- par(X, Z), anc(Z, Y).
    reachable(X) <- anc(X, Y).
  )");
  auto projected = PushProjections(p, L("reachable(X)"));
  ASSERT_TRUE(projected.ok()) << projected.status();
  EXPECT_EQ(projected->positions_dropped, 1u);
  ASSERT_EQ(projected->kept_positions.count({"anc", 2}), 1u);
  EXPECT_EQ(projected->kept_positions.at({"anc", 2}),
            (std::vector<size_t>{0}));
  // The rewritten program uses anc.pp/1.
  bool uses_reduced = false;
  for (const Rule& rule : projected->rewritten.rules()) {
    if (rule.head().predicate().ToString() == "anc.pp/1") uses_reduced = true;
  }
  EXPECT_TRUE(uses_reduced);
}

TEST(ProjectPushdownTest, KeepsJoinVariables) {
  Program p = P(R"(
    a(X, Y) <- r(X, Y).
    q(X) <- a(X, Y), s(Y).
  )");
  auto projected = PushProjections(p, L("q(X)"));
  ASSERT_TRUE(projected.ok());
  // Y is a join variable with s: both positions of a stay.
  EXPECT_EQ(projected->positions_dropped, 0u);
}

TEST(ProjectPushdownTest, KeepsConstantsAndPatterns) {
  Program p = P(R"(
    a(X, Y) <- r(X, Y).
    q(X) <- a(X, 7).
    w(X) <- a(X, f(Z)).
  )");
  auto q_result = PushProjections(p, L("q(X)"));
  ASSERT_TRUE(q_result.ok());
  // The constant 7 selects on a's second position: must stay.
  EXPECT_EQ(q_result->kept_positions.count({"a", 2}), 0u);
}

TEST(ProjectPushdownTest, KeepsBuiltinAndNegationVariables) {
  Program p = P(R"(
    a(X, Y) <- r(X, Y).
    q(X) <- a(X, Y), Y > 3.
    w(X) <- a(X, Y), not s(Y).
  )");
  for (const char* goal : {"q(X)", "w(X)"}) {
    auto projected = PushProjections(p, L(goal));
    ASSERT_TRUE(projected.ok());
    EXPECT_EQ(projected->kept_positions.count({"a", 2}), 0u) << goal;
  }
}

TEST(ProjectPushdownTest, QueryPredicateKeepsAllPositions) {
  Program p = P("a(X, Y) <- r(X, Y).");
  auto projected = PushProjections(p, L("a(X, Y)"));
  ASSERT_TRUE(projected.ok());
  EXPECT_EQ(projected->positions_dropped, 0u);
  EXPECT_EQ(projected->rewritten.rules()[0].head().predicate().ToString(),
            "a/2");
}

TEST(ProjectPushdownTest, CascadesThroughLayers) {
  // The dead position of `top` makes `mid`'s second position dead, which
  // makes `bot`'s second position dead.
  Program p = P(R"(
    bot(X, Y) <- r(X, Y).
    mid(X, Y) <- bot(X, Y).
    top(X) <- mid(X, Y).
  )");
  auto projected = PushProjections(p, L("top(X)"));
  ASSERT_TRUE(projected.ok());
  EXPECT_EQ(projected->positions_dropped, 2u);
  EXPECT_EQ(projected->kept_positions.at({"mid", 2}),
            (std::vector<size_t>{0}));
  EXPECT_EQ(projected->kept_positions.at({"bot", 2}),
            (std::vector<size_t>{0}));
}

TEST(ProjectPushdownTest, AnswersUnchangedOnRealData) {
  Program p = P(R"(
    anc(X, Y) <- par(X, Y).
    anc(X, Y) <- par(X, Z), anc(Z, Y).
    has_ancestor(X) <- anc(X, Y).
  )");
  Database db;
  testing::MakeTreeParentData(3, 5, &db);
  Literal goal = L("has_ancestor(X)");

  auto projected = PushProjections(p, goal);
  ASSERT_TRUE(projected.ok());
  ASSERT_GT(projected->positions_dropped, 0u);

  auto original =
      EvaluateQuery(p, &db, goal, RecursionMethod::kSemiNaive, {});
  auto reduced = EvaluateQuery(projected->rewritten, &db, goal,
                               RecursionMethod::kSemiNaive, {});
  ASSERT_TRUE(original.ok() && reduced.ok());
  EXPECT_EQ(Sorted(original->answers), Sorted(reduced->answers));
  // And it saves work: the reduced anc.pp carries half the columns and
  // far fewer distinct tuples.
  EXPECT_LT(reduced->stats.counters.derivations,
            original->stats.counters.derivations);
}

TEST(ProjectPushdownTest, FacadeUsesItTransparently) {
  LdlSystem sys;  // push_projections defaults on
  ASSERT_TRUE(sys.LoadProgram(R"(
    anc(X, Y) <- par(X, Y).
    anc(X, Y) <- par(X, Z), anc(Z, Y).
    has_ancestor(X) <- anc(X, Y).
  )")
                  .ok());
  testing::MakeTreeParentData(2, 4, sys.database());
  sys.RefreshStatistics();
  auto answer = sys.Query("has_ancestor(X)");
  ASSERT_TRUE(answer.ok()) << answer.status();
  // Every non-root node has an ancestor: 2^1+...+2^4 = 30.
  EXPECT_EQ(answer->answers.size(), 30u);

  OptimizerOptions no_pp;
  no_pp.push_projections = false;
  LdlSystem sys2(no_pp);
  ASSERT_TRUE(sys2.LoadProgram(R"(
    anc(X, Y) <- par(X, Y).
    anc(X, Y) <- par(X, Z), anc(Z, Y).
    has_ancestor(X) <- anc(X, Y).
  )")
                  .ok());
  testing::MakeTreeParentData(2, 4, sys2.database());
  sys2.RefreshStatistics();
  auto answer2 = sys2.Query("has_ancestor(X)");
  ASSERT_TRUE(answer2.ok());
  EXPECT_EQ(Sorted(answer->answers), Sorted(answer2->answers));
  EXPECT_LE(answer->exec_stats.counters.derivations,
            answer2->exec_stats.counters.derivations);
}

TEST(ProjectPushdownTest, ZeroArityReduction) {
  // Pure existence check: all of a's positions are dead.
  Program p = P(R"(
    a(X, Y) <- r(X, Y).
    nonempty <- a(X, Y).
  )");
  auto projected = PushProjections(p, L("nonempty"));
  ASSERT_TRUE(projected.ok());
  EXPECT_EQ(projected->positions_dropped, 2u);
  EXPECT_EQ(projected->kept_positions.at({"a", 2}), (std::vector<size_t>{}));
  // Execute: a.pp/0 holds the single empty tuple iff r is nonempty.
  Database db;
  (void)db.AddFact(L("r(1, 2)"));
  auto result = EvaluateQuery(projected->rewritten, &db, L("nonempty"),
                              RecursionMethod::kSemiNaive, {});
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->answers.size(), 1u);
}

}  // namespace
}  // namespace ldl
