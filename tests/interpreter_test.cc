#include "plan/interpreter.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "ast/parser.h"
#include "engine/query_eval.h"
#include "plan/transform.h"
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

TEST(InterpreterTest, NonRecursiveJoin) {
  Program p = P("gp(X, Z) <- par(X, Y), par(Y, Z).");
  Database db;
  testing::MakeTreeParentData(2, 3, &db);
  auto tree = BuildProcessingTree(p, L("gp(X, Z)"));
  ASSERT_TRUE(tree.ok());
  TreeInterpreter interp(p, &db);
  auto result = interp.Execute(**tree, L("gp(X, Z)"));
  ASSERT_TRUE(result.ok()) << result.status();
  // Nodes at depth >= 2 have a grandparent: 4 + 8 = 12 in a binary tree of
  // depth 3.
  EXPECT_EQ(result->size(), 12u);
}

TEST(InterpreterTest, BoundInstanceSelects) {
  Program p = P("gp(X, Z) <- par(X, Y), par(Y, Z).");
  Database db;
  testing::MakeTreeParentData(2, 3, &db);
  auto tree = BuildProcessingTree(p, L("gp(X, Z)"));
  ASSERT_TRUE(tree.ok());
  TreeInterpreter interp(p, &db);
  auto result = interp.Execute(**tree, L("gp(7, Z)"));
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->size(), 1u);
  EXPECT_EQ(result->tuples()[0][0].int_value(), 7);
}

TEST(InterpreterTest, UnionOfRules) {
  Program p = P(R"(
    rel(X, Y) <- likes(X, Y).
    rel(X, Y) <- knows(X, Y).
  )");
  Database db;
  (void)db.AddFact(L("likes(1, 2)"));
  (void)db.AddFact(L("knows(1, 3)"));
  (void)db.AddFact(L("knows(1, 2)"));  // overlap: set semantics
  auto tree = BuildProcessingTree(p, L("rel(1, Y)"));
  ASSERT_TRUE(tree.ok());
  TreeInterpreter interp(p, &db);
  auto result = interp.Execute(**tree, L("rel(1, Y)"));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 2u);
}

TEST(InterpreterTest, CcNodeComputesFixpoint) {
  Program p = P(R"(
    anc(X, Y) <- par(X, Y).
    anc(X, Y) <- par(X, Z), anc(Z, Y).
  )");
  Database db;
  testing::MakeTreeParentData(2, 4, &db);
  auto tree = BuildProcessingTree(p, L("anc(X, Y)"));
  ASSERT_TRUE(tree.ok());
  ASSERT_EQ((*tree)->kind, PlanNodeKind::kCc);

  TreeInterpreter interp(p, &db);
  auto result = interp.Execute(**tree, L("anc(X, Y)"));
  ASSERT_TRUE(result.ok()) << result.status();
  auto reference =
      EvaluateQuery(p, &db, L("anc(X, Y)"), RecursionMethod::kSemiNaive, {});
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(Sorted(*result), Sorted(reference->answers));
}

TEST(InterpreterTest, CcMethodLabelsAllAgree) {
  Program p = P(R"(
    anc(X, Y) <- par(X, Y).
    anc(X, Y) <- par(X, Z), anc(Z, Y).
  )");
  Database db;
  testing::MakeTreeParentData(3, 4, &db);
  auto tree = BuildProcessingTree(p, L("anc(10, Y)"));
  ASSERT_TRUE(tree.ok());

  std::vector<Tuple> reference;
  for (const char* method : {"naive", "seminaive", "magic", "counting"}) {
    auto labeled = (*tree)->Clone();
    ASSERT_TRUE(TransformEl(labeled.get(), method).ok());
    TreeInterpreter interp(p, &db);
    auto result = interp.Execute(*labeled, L("anc(10, Y)"));
    ASSERT_TRUE(result.ok()) << method << ": " << result.status();
    if (reference.empty()) {
      reference = Sorted(*result);
      ASSERT_FALSE(reference.empty());
    } else {
      EXPECT_EQ(Sorted(*result), reference) << method;
    }
  }
}

TEST(InterpreterTest, MaterializedVsPipelinedSameAnswers) {
  // q joins a selective base relation with a derived subquery; pipelined
  // execution of the subquery must give the same answers as materialized.
  Program p = P(R"(
    expensive(X, Y) <- big(X, Z), big(Z, Y).
    q(X, Y) <- sel(X), expensive(X, Y).
  )");
  Database db;
  testing::MakeRandomRelation("big", 2, 300, 40, 5, &db);
  db.GetOrCreate({"sel", 1})->Insert({Term::MakeInt(7)});

  auto tree = BuildProcessingTree(p, L("q(X, Y)"));
  ASSERT_TRUE(tree.ok());
  PlanNode* and_node = (*tree)->children[0].get();
  ASSERT_EQ(and_node->children[1]->goal.predicate_name(), "expensive");

  // Materialized run.
  TreeInterpreter mat_interp(p, &db);
  auto mat = mat_interp.Execute(**tree, L("q(X, Y)"));
  ASSERT_TRUE(mat.ok()) << mat.status();

  // Pipelined run: flip the subquery to a triangle node.
  auto piped_tree = (*tree)->Clone();
  ASSERT_TRUE(TransformMp(piped_tree->children[0]->children[1].get()).ok());
  TreeInterpreter pipe_interp(p, &db);
  auto pipe = pipe_interp.Execute(*piped_tree, L("q(X, Y)"));
  ASSERT_TRUE(pipe.ok()) << pipe.status();

  EXPECT_EQ(Sorted(*mat), Sorted(*pipe));
  // Pipelining computes expensive() only for the bindings sel() produces:
  // strictly less work than materializing it in full.
  EXPECT_LT(pipe_interp.counters().tuples_examined,
            mat_interp.counters().tuples_examined);
}

TEST(InterpreterTest, PipelinedTablingReusesBindings) {
  // Two references to the same pipelined subquery with the same binding:
  // the memo must serve the second.
  Program p = P(R"(
    d(X, Y) <- e(X, Y).
    q(A) <- s(A), d(A, B), d(A, C).
  )");
  Database db;
  (void)db.AddFact(L("s(1)"));
  (void)db.AddFact(L("e(1, 2)"));
  auto tree = BuildProcessingTree(p, L("q(A)"));
  ASSERT_TRUE(tree.ok());
  PlanNode* and_node = (*tree)->children[0].get();
  ASSERT_TRUE(TransformMp(and_node->children[1].get()).ok());
  ASSERT_TRUE(TransformMp(and_node->children[2].get()).ok());
  TreeInterpreter interp(p, &db);
  auto result = interp.Execute(**tree, L("q(A)"));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 1u);
}

TEST(InterpreterTest, BuiltinsInsideAnd) {
  Program p = P("q(X, Y) <- r(X), Y = X * 2, Y < 10.");
  Database db;
  for (int64_t i = 1; i <= 10; ++i) {
    (void)db.AddFact(Literal::Make("r", {Term::MakeInt(i)}));
  }
  auto tree = BuildProcessingTree(p, L("q(X, Y)"));
  ASSERT_TRUE(tree.ok());
  TreeInterpreter interp(p, &db);
  auto result = interp.Execute(**tree, L("q(X, Y)"));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->size(), 4u);  // 2,4,6,8
}

TEST(InterpreterTest, AgreesWithEngineOnSgAllForms) {
  Program p = P(R"(
    sg(X, Y) <- flat(X, Y).
    sg(X, Y) <- up(X, X1), sg(X1, Y1), dn(Y1, Y).
  )");
  Database db;
  size_t nodes = testing::MakeSameGenerationData(2, 4, &db);
  auto tree = BuildProcessingTree(p, L("sg(X, Y)"));
  ASSERT_TRUE(tree.ok());

  for (const Literal& goal :
       {L("sg(X, Y)"),
        Literal::Make("sg", {Term::MakeInt(static_cast<int64_t>(nodes - 1)),
                             Term::MakeVariable("Y")})}) {
    TreeInterpreter interp(p, &db);
    auto via_tree = interp.Execute(**tree, goal);
    auto via_engine =
        EvaluateQuery(p, &db, goal, RecursionMethod::kSemiNaive, {});
    ASSERT_TRUE(via_tree.ok()) << via_tree.status();
    ASSERT_TRUE(via_engine.ok());
    EXPECT_EQ(Sorted(*via_tree), Sorted(via_engine->answers))
        << goal.ToString();
  }
}

TEST(InterpreterTest, HashJoinLabelMatchesNestedLoop) {
  Program p = P("q(X, Z) <- a(X, Y), b(Y, Z), c(Z, W).");
  Database db;
  testing::MakeRandomRelation("a", 2, 200, 25, 21, &db);
  testing::MakeRandomRelation("b", 2, 150, 25, 22, &db);
  testing::MakeRandomRelation("c", 2, 100, 25, 23, &db);

  auto tree = BuildProcessingTree(p, L("q(X, Z)"));
  ASSERT_TRUE(tree.ok());
  TreeInterpreter nl_interp(p, &db);
  auto nl = nl_interp.Execute(**tree, L("q(X, Z)"));
  ASSERT_TRUE(nl.ok());

  auto hash_tree = (*tree)->Clone();
  ASSERT_TRUE(TransformEl(hash_tree->children[0].get(), "hash-join").ok());
  TreeInterpreter hj_interp(p, &db);
  auto hj = hj_interp.Execute(*hash_tree, L("q(X, Z)"));
  ASSERT_TRUE(hj.ok()) << hj.status();

  EXPECT_EQ(Sorted(*nl), Sorted(*hj));
}

TEST(InterpreterTest, HashJoinLabelWithConstantsAndRepeatedVars) {
  Program p = P("q(Y) <- a(1, Y), b(Y, Y).");
  Database db;
  (void)db.AddFact(L("a(1, 5)"));
  (void)db.AddFact(L("a(1, 6)"));
  (void)db.AddFact(L("a(2, 5)"));
  (void)db.AddFact(L("b(5, 5)"));
  (void)db.AddFact(L("b(6, 7)"));
  auto tree = BuildProcessingTree(p, L("q(Y)"));
  ASSERT_TRUE(tree.ok());
  auto hash_tree = (*tree)->Clone();
  ASSERT_TRUE(TransformEl(hash_tree->children[0].get(), "hash-join").ok());
  TreeInterpreter interp(p, &db);
  auto result = interp.Execute(*hash_tree, L("q(Y)"));
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->size(), 1u);
  EXPECT_EQ(result->tuples()[0][0].int_value(), 5);
}

TEST(InterpreterTest, HashJoinLabelFallsBackOnBuiltins) {
  Program p = P("q(X) <- a(X, Y), Y > 3.");
  Database db;
  (void)db.AddFact(L("a(1, 5)"));
  (void)db.AddFact(L("a(2, 2)"));
  auto tree = BuildProcessingTree(p, L("q(X)"));
  ASSERT_TRUE(tree.ok());
  auto hash_tree = (*tree)->Clone();
  ASSERT_TRUE(TransformEl(hash_tree->children[0].get(), "hash-join").ok());
  TreeInterpreter interp(p, &db);
  auto result = interp.Execute(*hash_tree, L("q(X)"));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->size(), 1u);  // falls back, still correct
}

}  // namespace
}  // namespace ldl
