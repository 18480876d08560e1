// Golden fixpoint work: every recursion method is run over a fixed corpus
// of programs, and for each query the answer fingerprint, the work counters
// (tuples examined, derivations, rule firings, fixpoint iterations) and the
// delta size of every recorded round are pinned in
// tests/golden/fixpoint_work.golden.txt.
//
// The corpus is seeded program_gen programs over every EDB shape (their
// cliques are linear, nonlinear, mutual and same-generation), plus
// hand-written nonlinear transitive closure, a mutually recursive clique
// whose rules read two clique members at once, and linear ancestor and
// same-generation over acyclic data, where counting applies. Those are the
// cases where a change to how a rule firing reads the relations it is growing
// (the full relation, the previous round's delta, the round-start state of
// a naive round) would move a count or a round. Each program is queried
// with its generated goal and with the all-free goal over the same
// predicate.
//
// `inserts` is deliberately not pinned: it counts rows new to the relation
// a firing writes into, which depends on where firings store their rows.
//
// On a mismatch the rendering is written to fixpoint_work.actual.txt in the
// test's working directory, for diffing against the golden.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "ast/parser.h"
#include "base/rng.h"
#include "engine/query_eval.h"
#include "testing/program_gen.h"

#ifndef LDLOPT_SOURCE_DIR
#error "tests/CMakeLists.txt must define LDLOPT_SOURCE_DIR"
#endif

namespace ldl {
namespace {

struct Case {
  std::string name;
  Program program;
  Database db;
  std::vector<Literal> goals;
};

/// `goal`'s predicate with a distinct variable in every argument.
Literal AllFree(const Literal& goal) {
  std::vector<Term> args;
  for (size_t i = 0; i < goal.arity(); ++i) {
    args.push_back(Term::MakeVariable("A" + std::to_string(i)));
  }
  return Literal::Make(goal.predicate().name, std::move(args));
}

void AddProgramGenCases(std::vector<Case>* cases) {
  using testing::EdbShape;
  for (EdbShape shape : {EdbShape::kChain, EdbShape::kTree, EdbShape::kCycle,
                         EdbShape::kRandom, EdbShape::kMixed}) {
    for (uint64_t seed : {1, 7, 19, 42, 314, 2718}) {
      Rng rng(seed * 16 + static_cast<uint64_t>(shape));
      testing::ProgramGenOptions options;
      options.shape = shape;
      testing::GeneratedProgram gen = testing::GenerateProgram(&rng, options);
      Case c;
      c.name = "program_gen " + std::string(EdbShapeToString(shape)) +
               " seed " + std::to_string(seed) + " (" + gen.summary + ")";
      auto program = gen.BuildProgram();
      ASSERT_TRUE(program.ok()) << c.name << ": " << program.status();
      c.program = *std::move(program);
      ASSERT_TRUE(gen.BuildDatabase(&c.db).ok()) << c.name;
      c.goals = {gen.query, AllFree(gen.query)};
      cases->push_back(std::move(c));
    }
  }
}

void AddHandCase(const std::string& name, const char* rules,
                 const char* facts, const std::vector<const char*>& goals,
                 std::vector<Case>* cases) {
  Case c;
  c.name = name;
  auto program = ParseProgram(rules);
  ASSERT_TRUE(program.ok()) << name << ": " << program.status();
  c.program = *std::move(program);
  auto edb = ParseProgram(facts);
  ASSERT_TRUE(edb.ok()) << name << ": " << edb.status();
  for (const Literal& fact : edb->facts()) {
    ASSERT_TRUE(c.db.AddFact(fact).ok()) << fact.ToString();
  }
  for (const char* g : goals) {
    auto goal = ParseLiteral(g);
    ASSERT_TRUE(goal.ok()) << g << ": " << goal.status();
    c.goals.push_back(*goal);
  }
  cases->push_back(std::move(c));
}

// A chain 0 -> .. -> 9 with a back edge 9 -> 3, a shortcut 2 -> 7 and a
// separate edge 10 -> 11; f links a few nodes across.
constexpr const char* kGraphFacts = R"(
  e(0, 1). e(1, 2). e(2, 3). e(3, 4). e(4, 5). e(5, 6). e(6, 7). e(7, 8).
  e(8, 9). e(9, 3). e(2, 7). e(10, 11).
  f(1, 10). f(4, 0). f(8, 2). f(11, 5).
)";

void AddHandCases(std::vector<Case>* cases) {
  AddHandCase("nonlinear tc",
              R"(
                tc(X, Y) <- e(X, Y).
                tc(X, Y) <- tc(X, Z), tc(Z, Y).
              )",
              kGraphFacts, {"tc(X, Y)", "tc(1, Y)", "tc(X, 3)", "tc(X, X)"},
              cases);
  AddHandCase("mutual clique",
              R"(
                a(X, Y) <- e(X, Y).
                a(X, Y) <- b(X, Z), e(Z, Y).
                b(X, Y) <- a(X, Z), f(Z, Y).
                b(X, Y) <- b(X, Z), a(Z, Y).
                top(X, Y) <- a(X, Y), b(Y, X).
              )",
              kGraphFacts,
              {"a(X, Y)", "b(X, Y)", "b(2, Y)", "a(X, X)", "top(X, Y)"},
              cases);
  // Acyclic data, so counting applies rather than falling back to magic.
  AddHandCase("linear anc and sg",
              R"(
                anc(X, Y) <- par(X, Y).
                anc(X, Y) <- par(X, Z), anc(Z, Y).
                sg(X, Y) <- flat(X, Y).
                sg(X, Y) <- up(X, X1), sg(X1, Y1), dn(Y1, Y).
              )",
              R"(
                par(0, 1). par(0, 2). par(1, 3). par(1, 4). par(2, 5).
                par(3, 6). par(4, 7). par(5, 8). par(6, 9).
                up(1, 0). up(2, 0). up(3, 1). up(4, 1). up(5, 2). up(6, 3).
                flat(0, 0). flat(1, 2). flat(3, 5).
                dn(0, 1). dn(0, 2). dn(1, 3). dn(1, 4). dn(2, 5). dn(5, 8).
              )",
              {"anc(0, Y)", "anc(X, Y)", "anc(X, 9)", "sg(3, Y)", "sg(X, Y)"},
              cases);
}

std::string Render(std::vector<Case>& cases) {
  std::ostringstream os;
  for (Case& c : cases) {
    os << "case " << c.name << "\n";
    for (const Literal& goal : c.goals) {
      for (RecursionMethod method :
           {RecursionMethod::kNaive, RecursionMethod::kSemiNaive,
            RecursionMethod::kMagic, RecursionMethod::kCounting}) {
        QueryEvalOptions options;
        options.fixpoint.record_iterations = true;
        os << "  " << goal.ToString() << " " << RecursionMethodToString(method)
           << ":";
        auto r = EvaluateQuery(c.program, &c.db, goal, method, options);
        if (!r.ok()) {
          os << " error " << r.status() << "\n";
          continue;
        }
        const EvalCounters& w = r->stats.counters;
        os << " used " << RecursionMethodToString(r->method_used)
           << " answers " << AnswerFingerprint(r->answers) << " examined "
           << w.tuples_examined << " derived " << w.derivations
           << " firings " << w.rule_firings << " iterations "
           << r->stats.iterations << "\n    deltas";
        for (const FixpointIteration& it : r->stats.per_iteration) {
          os << " " << it.clique << "#" << it.iteration << "="
             << it.delta_tuples;
        }
        os << "\n";
      }
    }
  }
  return os.str();
}

TEST(FixpointWorkGoldenTest, EveryMethodMatchesTheGolden) {
  std::vector<Case> cases;
  AddProgramGenCases(&cases);
  AddHandCases(&cases);
  const std::string actual = Render(cases);

  const std::string path = std::string(LDLOPT_SOURCE_DIR) +
                           "/tests/golden/fixpoint_work.golden.txt";
  std::ifstream in(path);
  std::ostringstream golden;
  golden << in.rdbuf();
  if (actual != golden.str()) {
    std::ofstream("fixpoint_work.actual.txt") << actual;
    FAIL() << "answers, work counters or rounds differ from " << path
           << "; the rendering was written to fixpoint_work.actual.txt";
  }
}

}  // namespace
}  // namespace ldl
