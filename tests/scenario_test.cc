// End-to-end scenario tests: realistic knowledge-base applications driven
// through the full stack (parser -> safety -> optimizer -> rewrites ->
// engine), checking answers, not internals.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <thread>

#include "base/strings.h"
#include "ldl/ldl.h"
#include "testing/workloads.h"

namespace ldl {
namespace {

std::set<std::string> AnswerSet(const Relation& r) {
  std::set<std::string> out;
  for (TupleView t : r.tuples()) out.insert(TupleToString(t));
  return out;
}

/// Every scenario runs with plan verification on: the processing tree of
/// each optimized query is checked against the §4/§5 structural invariants
/// (src/analysis/plan_verifier.h) before execution.
OptimizerOptions Verifying() {
  OptimizerOptions options;
  options.verify_plans = true;
  return options;
}

TEST(ScenarioTest, FlightRoutesWithCosts) {
  LdlSystem sys(Verifying());
  ASSERT_TRUE(sys.LoadProgram(R"(
    flight(sfo, lax, 99).
    flight(lax, jfk, 300).
    flight(sfo, jfk, 450).
    flight(jfk, lhr, 600).
    flight(lax, sfo, 99).

    % reachability: a pure Datalog clique (safe for any data)
    route(A, B) <- flight(A, B, C).
    route(A, B) <- flight(A, M, C), route(M, B).

    % cost arithmetic stays nonrecursive (unbounded accumulation over the
    % sfo <-> lax cycle would be genuinely unsafe, and the analyzer says so)
    onestop(A, B, C) <- flight(A, M, C1), flight(M, B, C2), C = C1 + C2.
    affordable(A, B) <- flight(A, B, C), C < 500.
    affordable(A, B) <- onestop(A, B, C), C < 500.
  )")
                  .ok());
  auto answer = sys.Query("affordable(sfo, B)");
  ASSERT_TRUE(answer.ok()) << answer.status();
  std::set<std::string> cities;
  for (TupleView t : answer->answers.tuples()) {
    cities.insert(t[1].ToString());
  }
  // lax (99 direct), jfk (399 one-stop / 450 direct), sfo (198 round trip).
  EXPECT_EQ(cities, (std::set<std::string>{"lax", "jfk", "sfo"}));

  auto reach = sys.Query("route(sfo, B)");
  ASSERT_TRUE(reach.ok()) << reach.status();
  EXPECT_EQ(reach->answers.size(), 4u);  // lax, jfk, lhr, sfo

  // The unbounded accumulating variant is rejected as unsafe.
  ASSERT_TRUE(sys.LoadProgram(R"(
    cost(A, B, C) <- flight(A, B, C).
    cost(A, B, C) <- flight(A, M, C1), cost(M, B, C2), C = C1 + C2.
  )")
                  .ok());
  auto unsafe = sys.Query("cost(sfo, jfk, C)");
  ASSERT_FALSE(unsafe.ok());
  EXPECT_EQ(unsafe.status().code(), StatusCode::kUnsafe);
}

TEST(ScenarioTest, RouteAccumulationTerminatesViaGuard) {
  // Cyclic flights with an unguarded cost accumulator would diverge; the
  // C < 500 guard inside the recursion bounds it.
  LdlSystem sys(Verifying());
  ASSERT_TRUE(sys.LoadProgram(R"(
    hop(a, b). hop(b, c). hop(c, a).
    walk(X, Y, 1) <- hop(X, Y).
    walk(X, Y, N) <- hop(X, M), walk(M, Y, N1), N = N1 + 1, N < 10.
  )")
                  .ok());
  auto answer = sys.Query("walk(a, c, N)");
  ASSERT_TRUE(answer.ok()) << answer.status();
  // Lengths 2, 5, 8 reach c from a on the 3-cycle.
  std::set<int64_t> lengths;
  for (TupleView t : answer->answers.tuples()) {
    lengths.insert(t[2].int_value());
  }
  EXPECT_EQ(lengths, (std::set<int64_t>{2, 5, 8}));
}

TEST(ScenarioTest, GenealogyWithListsAndNegation) {
  LdlSystem sys(Verifying());
  ASSERT_TRUE(sys.LoadProgram(R"(
    par(bart, homer). par(homer, abe). par(abe, orville).

    % lineage paths as lists
    lineage(X, Y, [X, Y]) <- par(X, Y).
    lineage(X, Z, [X | P]) <- par(X, Y), lineage(Y, Z, P).

    person(X) <- par(X, Y).
    person(Y) <- par(X, Y).
    has_child(Y) <- par(X, Y).
    leaf(X) <- person(X), not has_child(X).
  )")
                  .ok());
  // lineage builds lists bottom-up: safe on acyclic `par` data but only
  // data-dependently so — the conservative compile-time analysis rejects
  // it, and we drive the engine directly instead (the paper's section 8.1:
  // sufficient conditions "do not necessarily detect all safe executions").
  auto goal = ParseLiteral("lineage(bart, orville, P)");
  ASSERT_TRUE(goal.ok());
  EXPECT_FALSE(sys.Query(*goal).ok());  // conservative rejection
  auto lineage = sys.EvaluateUnoptimized(*goal, RecursionMethod::kSemiNaive);
  ASSERT_TRUE(lineage.ok()) << lineage.status();
  ASSERT_EQ(lineage->answers.size(), 1u);
  EXPECT_EQ(lineage->answers.tuples()[0][2].ToString(),
            "[bart, homer, abe, orville]");

  auto leaves = sys.Query("leaf(X)");
  ASSERT_TRUE(leaves.ok()) << leaves.status();
  EXPECT_EQ(AnswerSet(leaves->answers), (std::set<std::string>{"(bart)"}));
}

TEST(ScenarioTest, ThreeStrataProgram) {
  LdlSystem sys(Verifying());
  ASSERT_TRUE(sys.LoadProgram(R"(
    edge(1, 2). edge(2, 3). edge(4, 5).
    node(X) <- edge(X, Y).
    node(Y) <- edge(X, Y).
    reach(X, Y) <- edge(X, Y).
    reach(X, Y) <- edge(X, Z), reach(Z, Y).
    % stratum 1: negation over reach
    separated(X, Y) <- node(X), node(Y), not reach(X, Y), X != Y.
    % stratum 2: negation over separated
    connected_all(X) <- node(X), not isolated(X).
    isolated(X) <- node(X), separated(X, Y), separated(Y, X).
  )")
                  .ok());
  auto answer = sys.Query("separated(1, Y)");
  ASSERT_TRUE(answer.ok()) << answer.status();
  // From 1 you can reach 2 and 3; 4 and 5 are separated.
  EXPECT_EQ(answer->answers.size(), 2u);
}

TEST(ScenarioTest, BillOfMaterialsCostRollup) {
  LdlSystem sys(Verifying());
  ASSERT_TRUE(sys.LoadProgram(R"(
    assembly(bike, wheel, 2).
    assembly(bike, frame, 1).
    assembly(wheel, spoke, 32).
    assembly(wheel, rim, 1).
    base_cost(spoke, 1).
    base_cost(rim, 20).
    base_cost(frame, 100).

    % every (possibly nested) part needed for a product
    needs(P, S) <- assembly(P, S, N).
    needs(P, S) <- assembly(P, M, N), needs(M, S).
  )")
                  .ok());
  auto parts = sys.Query("needs(bike, S)");
  ASSERT_TRUE(parts.ok()) << parts.status();
  EXPECT_EQ(parts->answers.size(), 4u);  // wheel, frame, spoke, rim
  EXPECT_TRUE(parts->plan.top_method == RecursionMethod::kMagic ||
              parts->plan.top_method == RecursionMethod::kCounting);
}

TEST(ScenarioTest, SameGenerationCousins) {
  LdlSystem sys(Verifying());
  ASSERT_TRUE(sys.LoadProgram(R"(
    sg(X, Y) <- flat(X, Y).
    sg(X, Y) <- up(X, X1), sg(X1, Y1), dn(Y1, Y).
  )")
                  .ok());
  size_t nodes = testing::MakeSameGenerationData(2, 5, sys.database());
  sys.RefreshStatistics();
  // Symmetry check: sg(a, b) answers match sg read in the other direction
  // through its mirrored data.
  Literal g1 = Literal::Make(
      "sg", {Term::MakeInt(static_cast<int64_t>(nodes - 1)),
             Term::MakeVariable("Y")});
  auto a1 = sys.Query(g1);
  ASSERT_TRUE(a1.ok());
  EXPECT_FALSE(a1->answers.empty());
  // Every answer is at the same depth: verify by checking membership of the
  // probe itself (ring flat links make sg reflexive-ish via cycles of ups
  // and downs only at matched depth).
  for (TupleView t : a1->answers.tuples()) {
    EXPECT_EQ(t[0].int_value(), static_cast<int64_t>(nodes - 1));
  }
}

TEST(ScenarioTest, QueryAfterIncrementalLoad) {
  LdlSystem sys(Verifying());
  ASSERT_TRUE(sys.LoadProgram("anc(X, Y) <- par(X, Y).").ok());
  ASSERT_TRUE(sys.AddClause("anc(X, Y) <- par(X, Z), anc(Z, Y).").ok());
  ASSERT_TRUE(sys.AddClause("par(a, b).").ok());
  ASSERT_TRUE(sys.AddClause("par(b, c).").ok());
  auto answer = sys.Query("anc(a, Y)");
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_EQ(answer->answers.size(), 2u);
  // Add more facts: statistics refresh and answers update.
  ASSERT_TRUE(sys.AddClause("par(c, d).").ok());
  auto again = sys.Query("anc(a, Y)");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->answers.size(), 3u);
}

TEST(ScenarioTest, StringAndRealValues) {
  LdlSystem sys(Verifying());
  ASSERT_TRUE(sys.LoadProgram(R"(
    product("anvil", 49.99).
    product("rocket skates", 999.5).
    cheap(N) <- product(N, P), P < 100.0.
  )")
                  .ok());
  auto answer = sys.Query("cheap(N)");
  ASSERT_TRUE(answer.ok()) << answer.status();
  ASSERT_EQ(answer->answers.size(), 1u);
  EXPECT_EQ(answer->answers.tuples()[0][0].text(), "anvil");
}

// Two fully independent LdlSystem instances queried from two OS threads —
// the TSan pin for the reentrancy contract in engine/builtins.h: no mutable
// static state anywhere on the parse/optimize/evaluate path. Each thread's
// answers must equal a quiet run of the same workload afterwards.
TEST(ScenarioTest, ConcurrentIndependentSystems) {
  auto run = [](size_t fanout, int repeats, std::set<std::string>* rows,
                bool* ok) {
    LdlSystem sys;
    *ok = sys.LoadProgram(R"(
      sg(X, Y) <- flat(X, Y).
      sg(X, Y) <- up(X, X1), sg(X1, Y1), dn(Y1, Y).
    )")
              .ok();
    if (!*ok) return;
    testing::MakeSameGenerationData(fanout, 3, sys.database());
    sys.RefreshStatistics();
    for (int i = 0; i < repeats; ++i) {
      auto answer = sys.Query("sg(X, Y)");
      if (!answer.ok() || answer->answers.empty()) {
        *ok = false;
        return;
      }
      *rows = AnswerSet(answer->answers);
    }
  };
  std::set<std::string> rows_a, rows_b;
  bool ok_a = false;
  bool ok_b = false;
  std::thread ta(run, 2, 8, &rows_a, &ok_a);
  std::thread tb(run, 3, 8, &rows_b, &ok_b);
  ta.join();
  tb.join();
  ASSERT_TRUE(ok_a);
  ASSERT_TRUE(ok_b);

  for (auto [fanout, rows] : {std::pair{size_t{2}, &rows_a},
                              std::pair{size_t{3}, &rows_b}}) {
    std::set<std::string> quiet;
    bool ok = false;
    run(fanout, 1, &quiet, &ok);
    ASSERT_TRUE(ok);
    EXPECT_EQ(*rows, quiet) << "fanout " << fanout;
  }
}

// Interned text is the one piece of process-wide mutable state (the
// reentrancy contract in engine/builtins.h). Four systems on four threads
// load programs whose symbols are partly shared and partly private to the
// thread, and query them; every answer must be right, and a text interned
// on one thread must be the same value on every other.
TEST(ScenarioTest, ConcurrentSystemsShareInternedText) {
  constexpr int kThreads = 4;
  constexpr int kCities = 40;
  struct Outcome {
    bool ok = false;
    std::set<std::string> rows;
    std::vector<Term> values;  // every answer value, as the thread made it
  };
  auto run = [](int id, Outcome* out) {
    for (int round = 0; round < 3; ++round) {
      LdlSystem sys;
      std::string text =
          "reach(X, Y) <- road(X, Y).\n"
          "reach(X, Y) <- road(X, Z), reach(Z, Y).\n";
      for (int k = 0; k < kCities; ++k) {
        StrAppend(&text, "road(city_", k, ", city_", k + 1, ").\n");
        StrAppend(&text, "road(city_", k, ", \"own_", id, "_", k, "\").\n");
      }
      if (!sys.LoadProgram(text).ok()) return;
      sys.RefreshStatistics();
      auto answer = sys.Query("reach(city_0, Y)");
      if (!answer.ok()) return;
      out->rows = AnswerSet(answer->answers);
      out->values.clear();
      for (TupleView t : answer->answers.tuples()) {
        out->values.push_back(t[1]);
      }
    }
    out->ok = true;
  };
  std::vector<Outcome> outcomes(kThreads);
  std::vector<std::thread> threads;
  for (int id = 0; id < kThreads; ++id) {
    threads.emplace_back(run, id, &outcomes[id]);
  }
  for (std::thread& t : threads) t.join();

  std::set<std::string> shared_rows;
  for (int k = 1; k <= kCities; ++k) {
    shared_rows.insert(StrCat("(city_0, city_", k, ")"));
  }
  for (int id = 0; id < kThreads; ++id) {
    const Outcome& out = outcomes[id];
    ASSERT_TRUE(out.ok) << "thread " << id;
    std::set<std::string> expected = shared_rows;
    for (int k = 0; k < kCities; ++k) {
      expected.insert(StrCat("(city_0, \"own_", id, "_", k, "\")"));
    }
    EXPECT_EQ(out.rows, expected) << "thread " << id;
    ASSERT_EQ(out.values.size(), expected.size());
    for (const Term& v : out.values) {
      const Term here = v.kind() == TermKind::kSymbol
                            ? Term::MakeSymbol(v.text())
                            : Term::MakeString(v.text());
      EXPECT_EQ(v, here) << v;
      EXPECT_EQ(v.atom(), here.atom()) << v;
    }
  }
  // The shared cities are one atom each across all four threads.
  for (int id = 1; id < kThreads; ++id) {
    std::set<const Atom*> a;
    std::set<const Atom*> b;
    for (const Term& v : outcomes[0].values) {
      if (v.kind() == TermKind::kSymbol) a.insert(v.atom());
    }
    for (const Term& v : outcomes[id].values) {
      if (v.kind() == TermKind::kSymbol) b.insert(v.atom());
    }
    EXPECT_EQ(a.size(), static_cast<size_t>(kCities));
    EXPECT_EQ(a, b) << "thread " << id;
  }
}

}  // namespace
}  // namespace ldl
