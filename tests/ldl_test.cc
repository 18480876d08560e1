#include "ldl/ldl.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "engine/query_eval.h"
#include "testing/workloads.h"

namespace ldl {
namespace {

std::vector<Tuple> Sorted(const Relation& r) { return CanonicalAnswers(r); }

TEST(LdlSystemTest, QuickstartAncestor) {
  LdlSystem sys;
  ASSERT_TRUE(sys.LoadProgram(R"(
    par(bart, homer).
    par(lisa, homer).
    par(homer, abe).
    anc(X, Y) <- par(X, Y).
    anc(X, Y) <- par(X, Z), anc(Z, Y).
  )")
                  .ok());
  auto answer = sys.Query("anc(bart, Y)");
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_EQ(answer->answers.size(), 2u);  // homer, abe
  EXPECT_TRUE(answer->plan.safe);
}

TEST(LdlSystemTest, OptimizedMatchesUnoptimizedAnswers) {
  LdlSystem sys;
  ASSERT_TRUE(sys.LoadProgram(R"(
    sg(X, Y) <- flat(X, Y).
    sg(X, Y) <- up(X, X1), sg(X1, Y1), dn(Y1, Y).
  )")
                  .ok());
  testing::MakeSameGenerationData(3, 4, sys.database());
  sys.RefreshStatistics();

  auto goal = ParseLiteral("sg(50, Y)");
  ASSERT_TRUE(goal.ok());
  auto optimized = sys.Query(*goal);
  ASSERT_TRUE(optimized.ok()) << optimized.status();
  auto baseline = sys.EvaluateUnoptimized(*goal, RecursionMethod::kSemiNaive);
  ASSERT_TRUE(baseline.ok()) << baseline.status();
  EXPECT_EQ(Sorted(optimized->answers), Sorted(baseline->answers));
  // The optimizer must not do more execution work than the full fixpoint.
  EXPECT_LE(optimized->exec_stats.counters.tuples_examined,
            baseline->stats.counters.tuples_examined);
}

TEST(LdlSystemTest, BoundQueryGetsFocusedMethodAndDoesLessWork) {
  LdlSystem sys;
  ASSERT_TRUE(sys.LoadProgram(R"(
    anc(X, Y) <- par(X, Y).
    anc(X, Y) <- par(X, Z), anc(Z, Y).
  )")
                  .ok());
  testing::MakeTreeParentData(3, 7, sys.database());
  sys.RefreshStatistics();

  auto goal = ParseLiteral("anc(7, Y)");
  ASSERT_TRUE(goal.ok());
  auto answer = sys.Query(*goal);
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_TRUE(answer->plan.top_method == RecursionMethod::kMagic ||
              answer->plan.top_method == RecursionMethod::kCounting);
  auto full = sys.EvaluateUnoptimized(*goal, RecursionMethod::kSemiNaive);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(Sorted(answer->answers), Sorted(full->answers));
  EXPECT_LT(answer->exec_stats.counters.tuples_examined,
            full->stats.counters.tuples_examined / 10);
}

TEST(LdlSystemTest, UnsafeQueryRejectedWithDiagnostic) {
  LdlSystem sys;
  ASSERT_TRUE(sys.LoadProgram("bigger(X, Y) <- X > Y.").ok());
  auto answer = sys.Query("bigger(X, 3)");
  ASSERT_FALSE(answer.ok());
  EXPECT_EQ(answer.status().code(), StatusCode::kUnsafe);
  EXPECT_NE(answer.status().message().find("bigger"), std::string::npos);
  // Fully bound form is fine.
  auto bound = sys.Query("bigger(5, 3)");
  ASSERT_TRUE(bound.ok()) << bound.status();
  EXPECT_EQ(bound->answers.size(), 1u);
}

TEST(LdlSystemTest, ArithmeticAndComparisonQueries) {
  LdlSystem sys;
  ASSERT_TRUE(sys.LoadProgram(R"(
    item(widget, 5).
    item(gadget, 50).
    item(doodad, 500).
    pricey(X) <- item(X, P), P > 40.
    taxed(X, T) <- item(X, P), T = P * 2.
  )")
                  .ok());
  auto pricey = sys.Query("pricey(X)");
  ASSERT_TRUE(pricey.ok()) << pricey.status();
  EXPECT_EQ(pricey->answers.size(), 2u);
  auto taxed = sys.Query("taxed(widget, T)");
  ASSERT_TRUE(taxed.ok()) << taxed.status();
  ASSERT_EQ(taxed->answers.size(), 1u);
  EXPECT_EQ(taxed->answers.tuples()[0][1].int_value(), 10);
}

TEST(LdlSystemTest, TextualOrderUnsafeButSystemReorders) {
  // The declarative promise: this rule is unusable under Prolog's textual
  // order but the optimizer finds the safe order silently.
  LdlSystem sys;
  ASSERT_TRUE(sys.LoadProgram(R"(
    price(widget, 5).
    doubled(X, Y) <- Y = P * 2, price(X, P).
  )")
                  .ok());
  auto answer = sys.Query("doubled(widget, Y)");
  ASSERT_TRUE(answer.ok()) << answer.status();
  ASSERT_EQ(answer->answers.size(), 1u);
  EXPECT_EQ(answer->answers.tuples()[0][1].int_value(), 10);
}

TEST(LdlSystemTest, NegationQueries) {
  LdlSystem sys;
  ASSERT_TRUE(sys.LoadProgram(R"(
    person(homer). person(ned).
    married(homer).
    bachelor(X) <- person(X), not married(X).
  )")
                  .ok());
  auto answer = sys.Query("bachelor(X)");
  ASSERT_TRUE(answer.ok()) << answer.status();
  ASSERT_EQ(answer->answers.size(), 1u);
  EXPECT_EQ(answer->answers.tuples()[0][0].text(), "ned");
}

TEST(LdlSystemTest, ExplainShowsPlan) {
  LdlSystem sys;
  ASSERT_TRUE(sys.LoadProgram(R"(
    anc(X, Y) <- par(X, Y).
    anc(X, Y) <- par(X, Z), anc(Z, Y).
  )")
                  .ok());
  testing::MakeTreeParentData(2, 4, sys.database());
  auto text = sys.Explain("anc(3, Y)");
  ASSERT_TRUE(text.ok()) << text.status();
  EXPECT_NE(text->find("QUERY"), std::string::npos);
  EXPECT_NE(text->find("METHOD"), std::string::npos);
}

TEST(LdlSystemTest, CheckSafetyReportsProblems) {
  LdlSystem sys;
  ASSERT_TRUE(sys.LoadProgram(R"(
    nat(0).
    nat(Y) <- nat(X), Y = X + 1.
  )")
                  .ok());
  SafetyReport report = sys.CheckSafety("nat(N)");
  EXPECT_FALSE(report.safe);
  EXPECT_FALSE(report.problems.empty());
}

TEST(LdlSystemTest, BaseRelationQuery) {
  LdlSystem sys;
  ASSERT_TRUE(sys.LoadProgram("edge(1, 2). edge(1, 3).").ok());
  auto answer = sys.Query("edge(1, Y)");
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_EQ(answer->answers.size(), 2u);
  EXPECT_FALSE(sys.Query("nosuch(X)").ok());
}

TEST(LdlSystemTest, PendingQueriesFromProgramText) {
  LdlSystem sys;
  ASSERT_TRUE(sys.LoadProgram(R"(
    p(1). p(2).
    q(X) <- p(X).
    q(X)?
  )")
                  .ok());
  ASSERT_EQ(sys.pending_queries().size(), 1u);
  auto answer = sys.Query(sys.pending_queries()[0].goal);
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->answers.size(), 2u);
}

TEST(LdlSystemTest, ComplexTermsEndToEnd) {
  LdlSystem sys;
  ASSERT_TRUE(sys.LoadProgram(R"(
    employee(person("alice", 30), dept(eng)).
    employee(person("bob", 40), dept(sales)).
    engineer(N) <- employee(person(N, A), dept(eng)).
  )")
                  .ok());
  auto answer = sys.Query("engineer(N)");
  ASSERT_TRUE(answer.ok()) << answer.status();
  ASSERT_EQ(answer->answers.size(), 1u);
  EXPECT_EQ(answer->answers.tuples()[0][0].text(), "alice");
}

TEST(LdlSystemTest, MultipleCliquesAndStrata) {
  LdlSystem sys;
  ASSERT_TRUE(sys.LoadProgram(R"(
    reach(X, Y) <- edge(X, Y).
    reach(X, Y) <- edge(X, Z), reach(Z, Y).
    same_scc(X, Y) <- reach(X, Y), reach(Y, X).
  )")
                  .ok());
  Relation* edge = sys.database()->GetOrCreate({"edge", 2});
  edge->Insert({Term::MakeInt(1), Term::MakeInt(2)});
  edge->Insert({Term::MakeInt(2), Term::MakeInt(1)});
  edge->Insert({Term::MakeInt(2), Term::MakeInt(3)});
  sys.RefreshStatistics();
  auto answer = sys.Query("same_scc(1, Y)");
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_EQ(answer->answers.size(), 2u);  // 1 and 2
}

}  // namespace
}  // namespace ldl
