#include "engine/fixpoint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "ast/parser.h"
#include "base/strings.h"
#include "engine/query_eval.h"
#include "engine/rule_eval.h"
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

constexpr const char* kAncestorRules = R"(
  anc(X, Y) <- par(X, Y).
  anc(X, Y) <- par(X, Z), anc(Z, Y).
)";

constexpr const char* kSgRules = R"(
  sg(X, Y) <- flat(X, Y).
  sg(X, Y) <- up(X, X1), sg(X1, Y1), dn(Y1, Y).
)";

std::vector<Tuple> Sorted(const Relation& r) { return CanonicalAnswers(r); }

TEST(FixpointTest, TransitiveClosureOnChain) {
  Program p = P(kAncestorRules);
  Database db;
  Relation* par = db.GetOrCreate({"par", 2});
  for (int64_t i = 0; i < 5; ++i) {
    par->Insert({Term::MakeInt(i), Term::MakeInt(i + 1)});
  }
  Database scratch;
  FixpointStats stats;
  ASSERT_TRUE(EvaluateProgram(p, RecursionMethod::kSemiNaive, &db, &scratch,
                              &stats, {})
                  .ok());
  // Chain of 6 nodes: 5+4+3+2+1 = 15 ancestor pairs.
  EXPECT_EQ(scratch.Find({"anc", 2})->size(), 15u);
  EXPECT_GT(stats.iterations, 1u);
}

TEST(FixpointTest, NaiveAndSemiNaiveAgree) {
  Program p = P(kAncestorRules);
  Database db;
  testing::MakeTreeParentData(2, 5, &db);
  Database s1, s2;
  FixpointStats st1, st2;
  ASSERT_TRUE(EvaluateProgram(p, RecursionMethod::kNaive, &db, &s1, &st1, {})
                  .ok());
  ASSERT_TRUE(
      EvaluateProgram(p, RecursionMethod::kSemiNaive, &db, &s2, &st2, {})
          .ok());
  EXPECT_EQ(Sorted(*s1.Find({"anc", 2})), Sorted(*s2.Find({"anc", 2})));
  // Semi-naive must do strictly less join work on a multi-level recursion.
  EXPECT_LT(st2.counters.tuples_examined, st1.counters.tuples_examined);
}

TEST(FixpointTest, MutualRecursionEvenOdd) {
  Program p = P(R"(
    even(X) <- zero(X).
    even(X) <- succ(Y, X), odd(Y).
    odd(X)  <- succ(Y, X), even(Y).
  )");
  Database db;
  db.GetOrCreate({"zero", 1})->Insert({Term::MakeInt(0)});
  Relation* succ = db.GetOrCreate({"succ", 2});
  for (int64_t i = 0; i < 10; ++i) {
    succ->Insert({Term::MakeInt(i), Term::MakeInt(i + 1)});
  }
  Database scratch;
  FixpointStats stats;
  ASSERT_TRUE(EvaluateProgram(p, RecursionMethod::kSemiNaive, &db, &scratch,
                              &stats, {})
                  .ok());
  EXPECT_EQ(scratch.Find({"even", 1})->size(), 6u);  // 0,2,4,6,8,10
  EXPECT_EQ(scratch.Find({"odd", 1})->size(), 5u);   // 1,3,5,7,9
}

TEST(FixpointTest, StratifiedNegation) {
  Program p = P(R"(
    reach(X) <- source(X).
    reach(Y) <- reach(X), edge(X, Y).
    node(X) <- edge(X, Y).
    node(Y) <- edge(X, Y).
    unreachable(X) <- node(X), not reach(X).
  )");
  Database db;
  Relation* edge = db.GetOrCreate({"edge", 2});
  edge->Insert({Term::MakeInt(1), Term::MakeInt(2)});
  edge->Insert({Term::MakeInt(2), Term::MakeInt(3)});
  edge->Insert({Term::MakeInt(4), Term::MakeInt(5)});
  db.GetOrCreate({"source", 1})->Insert({Term::MakeInt(1)});
  Database scratch;
  FixpointStats stats;
  ASSERT_TRUE(EvaluateProgram(p, RecursionMethod::kSemiNaive, &db, &scratch,
                              &stats, {})
                  .ok());
  EXPECT_EQ(scratch.Find({"reach", 1})->size(), 3u);        // 1,2,3
  EXPECT_EQ(scratch.Find({"unreachable", 1})->size(), 2u);  // 4,5
}

TEST(FixpointTest, NonStratifiedRejected) {
  Program p = P("win(X) <- move(X, Y), not win(Y).");
  Database db, scratch;
  FixpointStats stats;
  Status st =
      EvaluateProgram(p, RecursionMethod::kSemiNaive, &db, &scratch, &stats, {});
  EXPECT_FALSE(st.ok());
}

TEST(FixpointTest, IterationGuardTripsOnUnsafeArithmetic) {
  // nat(X+1) <- nat(X): infinite — the guard must stop it.
  Program p = P(R"(
    nat(0).
    nat(Y) <- nat(X), Y = X + 1.
  )");
  // Move the inline fact into the database.
  Database db, scratch;
  Program rules;
  for (const Rule& r : p.rules()) rules.AddRule(r);
  for (const Literal& f : p.facts()) ASSERT_TRUE(db.AddFact(f).ok());
  // nat must count as derived; re-add the fact as a bodiless rule.
  rules.AddRule(Rule(L("nat(0)"), {}));
  FixpointOptions options;
  options.max_iterations = 50;
  FixpointStats stats;
  Status st = EvaluateProgram(rules, RecursionMethod::kSemiNaive, &db,
                              &scratch, &stats, options);
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted) << st;
}

TEST(FixpointTest, DerivationCapAbortsEvaluation) {
  // max_derivations caps the cumulative derivations of one EvaluateProgram
  // call, summed over every rule firing and round.
  Program p = P(kSgRules);
  Database db;
  testing::MakeSameGenerationData(3, 4, &db);
  Database scratch;
  FixpointStats uncapped;
  ASSERT_TRUE(EvaluateProgram(p, RecursionMethod::kSemiNaive, &db, &scratch,
                              &uncapped, {})
                  .ok());
  ASSERT_GT(uncapped.counters.derivations, 25u);

  Database capped_scratch;
  FixpointOptions options;
  options.max_derivations = 25;
  FixpointStats stats;
  Status st = EvaluateProgram(p, RecursionMethod::kSemiNaive, &db,
                              &capped_scratch, &stats, options);
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted) << st;
}

TEST(FixpointTest, ComplexTermsFlowThroughRecursion) {
  // Build lists by recursion over a bounded set: path accumulation.
  Program p = P(R"(
    path(X, Y, [X, Y]) <- edge(X, Y).
    path(X, Z, [X | P]) <- edge(X, Y), path(Y, Z, P).
  )");
  Database db;
  Relation* edge = db.GetOrCreate({"edge", 2});
  edge->Insert({Term::MakeInt(1), Term::MakeInt(2)});
  edge->Insert({Term::MakeInt(2), Term::MakeInt(3)});
  Database scratch;
  FixpointStats stats;
  ASSERT_TRUE(EvaluateProgram(p, RecursionMethod::kSemiNaive, &db, &scratch,
                              &stats, {})
                  .ok());
  Relation* path = scratch.Find({"path", 3});
  ASSERT_NE(path, nullptr);
  EXPECT_EQ(path->size(), 3u);
  bool found = false;
  for (TupleView t : path->tuples()) {
    if (t[2].ToString() == "[1, 2, 3]") found = true;
  }
  EXPECT_TRUE(found);
}

TEST(FixpointTest, RuleOrderOverrideChangesWorkNotAnswers) {
  Program p = P("q(X, Z) <- a(X, Y), b(Y, Z), c(Z).");
  Database db;
  testing::MakeRandomRelation("a", 2, 200, 50, 1, &db);
  testing::MakeRandomRelation("b", 2, 200, 50, 2, &db);
  testing::MakeRandomRelation("c", 1, 10, 50, 3, &db);

  Database s1, s2;
  FixpointStats st1, st2;
  ASSERT_TRUE(
      EvaluateProgram(p, RecursionMethod::kSemiNaive, &db, &s1, &st1, {})
          .ok());
  FixpointOptions options;
  options.rule_orders[0] = {2, 1, 0};  // start from the selective c
  ASSERT_TRUE(EvaluateProgram(p, RecursionMethod::kSemiNaive, &db, &s2, &st2,
                              options)
                  .ok());
  EXPECT_EQ(Sorted(*s1.Find({"q", 2})), Sorted(*s2.Find({"q", 2})));
  EXPECT_NE(st1.counters.tuples_examined, st2.counters.tuples_examined);
}

class SgMethodsTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {};

// Property: all four methods give identical answers on bound sg queries,
// across a sweep of tree shapes.
TEST_P(SgMethodsTest, AllMethodsAgreeOnBoundQuery) {
  auto [fanout, depth] = GetParam();
  Program p = P(kSgRules);
  Database db;
  size_t nodes = testing::MakeSameGenerationData(fanout, depth, &db);
  ASSERT_GT(nodes, 0u);
  // Query: same generation of the first leaf-level node (bound, free).
  // Node ids: the last level starts after all previous levels.
  int64_t probe = static_cast<int64_t>(nodes - 1);
  Literal goal = Literal::Make(
      "sg", {Term::MakeInt(probe), Term::MakeVariable("Y")});

  QueryEvalOptions options;
  options.counting_fallback = false;
  auto naive = EvaluateQuery(p, &db, goal, RecursionMethod::kNaive, options);
  auto semi = EvaluateQuery(p, &db, goal, RecursionMethod::kSemiNaive, options);
  auto magic = EvaluateQuery(p, &db, goal, RecursionMethod::kMagic, options);
  auto counting =
      EvaluateQuery(p, &db, goal, RecursionMethod::kCounting, options);
  ASSERT_TRUE(naive.ok()) << naive.status();
  ASSERT_TRUE(semi.ok()) << semi.status();
  ASSERT_TRUE(magic.ok()) << magic.status();
  ASSERT_TRUE(counting.ok()) << counting.status();

  EXPECT_EQ(Sorted(naive->answers), Sorted(semi->answers));
  EXPECT_EQ(Sorted(semi->answers), Sorted(magic->answers));
  EXPECT_EQ(Sorted(magic->answers), Sorted(counting->answers));
  EXPECT_FALSE(magic->answers.empty());

  // The focused methods must examine fewer tuples than full evaluation.
  EXPECT_LE(magic->stats.counters.tuples_examined,
            semi->stats.counters.tuples_examined);
}

INSTANTIATE_TEST_SUITE_P(
    TreeShapes, SgMethodsTest,
    ::testing::Values(std::make_tuple(2, 3), std::make_tuple(2, 5),
                      std::make_tuple(3, 3), std::make_tuple(3, 4),
                      std::make_tuple(4, 3), std::make_tuple(5, 2)));

TEST(MagicTest, TransitiveClosureBoundQueryTouchesLess) {
  Program p = P(kAncestorRules);
  Database db;
  testing::MakeTreeParentData(3, 6, &db);
  Literal goal = L("anc(5, Y)");

  auto semi = EvaluateQuery(p, &db, goal, RecursionMethod::kSemiNaive, {});
  auto magic = EvaluateQuery(p, &db, goal, RecursionMethod::kMagic, {});
  ASSERT_TRUE(semi.ok()) << semi.status();
  ASSERT_TRUE(magic.ok()) << magic.status();
  EXPECT_EQ(Sorted(semi->answers), Sorted(magic->answers));
  EXPECT_LT(magic->stats.counters.tuples_examined,
            semi->stats.counters.tuples_examined / 2);
}

TEST(CountingTest, FallsBackOnCyclicData) {
  Program p = P(R"(
    tc(X, Y) <- edge(X, Y).
    tc(X, Y) <- edge(X, Z), tc(Z, Y).
  )");
  Database db;
  testing::MakeCycle(10, &db);
  QueryEvalOptions options;
  options.fixpoint.max_iterations = 500;
  auto result =
      EvaluateQuery(p, &db, L("tc(0, Y)"), RecursionMethod::kCounting, options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->method_used, RecursionMethod::kMagic);
  EXPECT_FALSE(result->note.empty());
  EXPECT_EQ(result->answers.size(), 10u);
}

TEST(CountingTest, InapplicableNonLinearFallsBack) {
  Program p = P(R"(
    tc(X, Y) <- edge(X, Y).
    tc(X, Y) <- tc(X, Z), tc(Z, Y).
  )");
  Database db;
  testing::MakeRandomDag(30, 2, 7, &db);
  auto result =
      EvaluateQuery(p, &db, L("tc(0, Y)"), RecursionMethod::kCounting, {});
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->method_used, RecursionMethod::kMagic);
}

TEST(QueryEvalTest, BaseRelationQueryNeedsNoRules) {
  Program p;
  Database db;
  testing::MakeTreeParentData(2, 3, &db);
  auto result =
      EvaluateQuery(p, &db, L("par(1, Y)"), RecursionMethod::kSemiNaive, {});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->answers.size(), 1u);
}

/// Golden-value test for the per-iteration fixpoint telemetry: a 4-node
/// cycle (1→2→3→4→1) closed transitively, evaluated under all four
/// recursion methods with record_iterations on. The data is tiny and fully
/// deterministic, so the exact round-by-round delta trajectory is part of
/// the contract: both disciplines record their final empty round, naive
/// additionally re-derives everything each round, and the rewrite-based
/// methods
/// report their rewritten cliques under the rewrite's method label
/// (counting falls back to magic on cyclic data, so its rounds are
/// magic's).
TEST(QueryEvalTest, IterationTelemetryGoldenValuesOnCycle) {
  Program p = P(R"(
    tc(X, Y) <- edge(X, Y).
    tc(X, Y) <- edge(X, Z), tc(Z, Y).
  )");
  Database db;
  Relation* edge = db.GetOrCreate({"edge", 2});
  for (int64_t i = 1; i <= 4; ++i) {
    edge->Insert({Term::MakeInt(i), Term::MakeInt(i % 4 + 1)});
  }
  QueryEvalOptions options;
  options.fixpoint.record_iterations = true;

  auto run = [&](RecursionMethod method) {
    auto result = EvaluateQuery(p, &db, L("tc(1, Y)"), method, options);
    EXPECT_TRUE(result.ok()) << result.status();
    return *result;
  };
  auto trajectory = [](const QueryResult& r) {
    // (clique, method, iteration, delta) rows; wall_ms is unpinnable.
    std::vector<std::string> rows;
    for (const FixpointIteration& it : r.stats.per_iteration) {
      rows.push_back(StrCat(it.clique, " ", it.method, " #", it.iteration,
                            " +", it.delta_tuples));
    }
    return rows;
  };

  // Naive: every round recomputes everything; deltas 4,4,4,4 then the
  // empty fixpoint-detection round is recorded too. All answers: 16 pairs.
  QueryResult naive = run(RecursionMethod::kNaive);
  EXPECT_EQ(naive.answers.size(), 4u);
  EXPECT_EQ(trajectory(naive),
            (std::vector<std::string>{
                "tc/2 naive #1 +4", "tc/2 naive #2 +4", "tc/2 naive #3 +4",
                "tc/2 naive #4 +4", "tc/2 naive #5 +0"}));

  // Semi-naive: the exit-rule seeding is not a recorded round, so the
  // rounds are the three delta joins (path lengths 2..4) plus the empty
  // round that detects convergence.
  QueryResult seminaive = run(RecursionMethod::kSemiNaive);
  EXPECT_EQ(seminaive.answers.size(), 4u);
  EXPECT_EQ(trajectory(seminaive),
            (std::vector<std::string>{
                "tc/2 seminaive #1 +4", "tc/2 seminaive #2 +4",
                "tc/2 seminaive #3 +4", "tc/2 seminaive #4 +0"}));

  // Magic: the rewritten program's cliques carry the magic label. With the
  // query bound to node 1, the magic set floods the whole cycle.
  QueryResult magic = run(RecursionMethod::kMagic);
  EXPECT_EQ(magic.answers.size(), 4u);
  ASSERT_FALSE(magic.stats.per_iteration.empty());
  for (const FixpointIteration& it : magic.stats.per_iteration) {
    EXPECT_EQ(it.method, "magic");
  }
  const std::vector<std::string> magic_rows = trajectory(magic);

  // Counting: cyclic data trips the ascent guard, so evaluation falls back
  // to magic — identical answers AND an identical round trajectory, every
  // row labeled magic (the rounds belong to the fallback evaluation).
  QueryResult counting = run(RecursionMethod::kCounting);
  EXPECT_EQ(counting.method_used, RecursionMethod::kMagic);
  EXPECT_EQ(counting.answers.size(), 4u);
  EXPECT_EQ(trajectory(counting), magic_rows);
}

TEST(QueryEvalTest, ReachableSubprogramPrunesUnrelatedRules) {
  Program p = P(R"(
    a(X) <- base1(X).
    b(X) <- base2(X).
    c(X) <- a(X).
  )");
  Program sub = ReachableSubprogram(p, L("c(X)"));
  EXPECT_EQ(sub.rules().size(), 2u);
  EXPECT_TRUE(sub.IsDerived({"c", 1}));
  EXPECT_TRUE(sub.IsDerived({"a", 1}));
  EXPECT_FALSE(sub.IsDerived({"b", 1}));
}

constexpr const char* kTcRules = R"(
  tc(X, Y) <- edge(X, Y).
  tc(X, Y) <- edge(X, Z), tc(Z, Y).
)";

// A cycle 0 -> 1 -> 2 -> 0 with a tail 2 -> 3 -> 4.
void AddCycleWithTail(Database* db) {
  Relation* edge = db->GetOrCreate({"edge", 2});
  for (auto [a, b] : {std::pair<int64_t, int64_t>{0, 1}, {1, 2}, {2, 0},
                      {2, 3}, {3, 4}}) {
    edge->Insert({Term::MakeInt(a), Term::MakeInt(b)});
  }
}

// The full methods hand an all-free goal the scratch relation itself. Under
// a byte budget that relation was charged to the query's accountant; the
// answers must leave it detached, so the accountant drops back to zero and
// the answers can outlive it (under ASan a relation still attached would
// touch the freed accountant when it grows or dies).
TEST(QueryEvalTest, MeteredAllFreeAnswersOutliveTheAccountant) {
  Program p = P(kTcRules);
  Database db;
  AddCycleWithTail(&db);
  for (RecursionMethod method :
       {RecursionMethod::kNaive, RecursionMethod::kSemiNaive}) {
    auto accountant = std::make_unique<ResourceAccountant>();
    ResourceBudget budget;
    budget.max_bytes = uint64_t{1} << 26;
    accountant->set_budget(budget);
    QueryEvalOptions options;
    options.fixpoint.trace.accountant = accountant.get();
    auto result = EvaluateQuery(p, &db, L("tc(X, Y)"), method, options);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_GT(accountant->peak_bytes(), 0u);
    EXPECT_EQ(accountant->current_bytes(), 0u);
    Relation answers = std::move(result->answers);
    EXPECT_EQ(answers.accountant(), nullptr);
    EXPECT_EQ(answers.charged_bytes(), 0u);
    accountant.reset();

    // 0, 1 and 2 reach all five nodes, 3 reaches 4.
    EXPECT_EQ(answers.size(), 16u);
    EXPECT_EQ(answers.Lookup({0}, {Term::MakeInt(3)}).size(), 1u);
    EXPECT_TRUE(answers.Insert({Term::MakeInt(4), Term::MakeInt(0)}));
  }
}

// Only a goal of pairwise distinct variables takes the whole relation. A
// repeated variable or a constant still selects, and every goal's answers
// equal the selection over the full fixpoint.
TEST(QueryEvalTest, GoalsThatRestrictStillSelect) {
  Program p = P(kTcRules);
  Database db;
  AddCycleWithTail(&db);
  auto all = EvaluateQuery(p, &db, L("tc(X, Y)"), RecursionMethod::kSemiNaive);
  ASSERT_TRUE(all.ok()) << all.status();
  for (const char* goal : {"tc(X, X)", "tc(2, Y)", "tc(X, 4)", "tc(1, 0)",
                           "tc(X, Y)"}) {
    const Relation expected = SelectMatching(&all->answers, L(goal));
    for (RecursionMethod method :
         {RecursionMethod::kNaive, RecursionMethod::kSemiNaive}) {
      auto result = EvaluateQuery(p, &db, L(goal), method);
      ASSERT_TRUE(result.ok()) << goal << ": " << result.status();
      EXPECT_EQ(Sorted(result->answers), Sorted(expected)) << goal;
      EXPECT_EQ(result->answers.name(),
                std::string(goal) == "tc(X, Y)" ? "tc" : "answers")
          << goal;
    }
  }
  EXPECT_EQ(SelectMatching(&all->answers, L("tc(X, X)")).size(), 3u);
}

// A rule whose sink is also a relation it reads (direct recursion through
// EvaluateRule): two nested probes of p on the same key, with inserts into
// p in between, must see snapshot copies of the posting list. Reading the
// list in place would follow it through reallocation.
TEST(RuleEvalTest, SinkReadByItsOwnRuleIsProbedFromCopies) {
  Program program = P("p(X, Y) <- X = 1, p(X, Z), p(X, W), e(W, Y).");
  ASSERT_EQ(program.rules().size(), 1u);
  const Rule& rule = program.rules()[0];
  Database db;
  Relation* p = db.GetOrCreate({"p", 2});
  Relation* e = db.GetOrCreate({"e", 2});
  for (int64_t w = 1; w <= 4; ++w) {
    p->Insert({Term::MakeInt(1), Term::MakeInt(w)});
    e->Insert({Term::MakeInt(w), Term::MakeInt(w + 10)});
  }
  e->Insert({Term::MakeInt(11), Term::MakeInt(21)});
  EvalCounters counters;
  auto added = EvaluateRule(rule, DatabaseResolver(&db), p, &counters);
  ASSERT_TRUE(added.ok()) << added.status();
  // The outer probe iterates the 4 original tuples; each inner probe sees
  // every tuple inserted so far, so 1-11 reaches 1-21 on the second pass.
  EXPECT_EQ(*added, 5u);
  std::vector<Tuple> expected;
  for (int64_t y : {1, 2, 3, 4, 11, 12, 13, 14, 21}) {
    expected.push_back({Term::MakeInt(1), Term::MakeInt(y)});
  }
  EXPECT_EQ(Sorted(*p), expected);
  EXPECT_EQ(counters.inserts, 5u);
}

}  // namespace
}  // namespace ldl
