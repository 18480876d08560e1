// Golden join orders: every search strategy is run over a fixed corpus of
// conjuncts, and its chosen order, cost and output cardinality (as exact
// hex floats) and its cost-evaluation count are pinned in
// tests/golden/cost_orders.golden.txt. The cost model is a pure function of
// the conjunct, so any change to the costing path that moves a single bit
// of a cost, a tie-break or the number of evaluations shows up here.
//
// The corpus covers the cases where a compiled cost model could diverge
// from a literal reading of the section 7.1 formulas: program_gen rule
// bodies, 7-9 literal chain/star/cycle conjuncts, an `=` chain that binds
// only through repeated propagation, negation, function terms and
// arithmetic, a repeated variable r(V, V), head-bound variables, and a
// conjunct of more than 64 distinct variables.
//
// On a mismatch the rendering is written to cost_orders.actual.txt in the
// test's working directory, for diffing against the golden.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "ast/parser.h"
#include "optimizer/join_order.h"
#include "storage/database.h"
#include "testing/program_gen.h"
#include "testing/query_gen.h"

#ifndef LDLOPT_SOURCE_DIR
#error "tests/CMakeLists.txt must define LDLOPT_SOURCE_DIR"
#endif

namespace ldl {
namespace {

using ::ldl::testing::MakeRandomConjunct;
using ::ldl::testing::QueryShape;

Literal L(const std::string& text) {
  auto r = ParseLiteral(text);
  EXPECT_TRUE(r.ok()) << text << ": " << r.status();
  return r.ok() ? *r : Literal();
}

/// A derived item whose estimate is a fixed function of the adornment and
/// the outer cardinality: unsafe when every argument is free and
/// `unsafe_free` is set, cheaper and smaller the more arguments are bound.
ConjunctItem DerivedItem(const Literal& lit, double size, bool unsafe_free) {
  ConjunctItem item;
  item.literal = lit;
  item.base_cardinality = size;
  item.distinct.assign(lit.arity(), size / 4 + 1);
  item.estimate = [size, unsafe_free](const Adornment& adn,
                                      double outer_card) {
    if (unsafe_free && adn.BoundCount() == 0) return PlanEstimate::Unsafe();
    const double bound = static_cast<double>(adn.BoundCount());
    PlanEstimate est;
    est.setup = 0.5 * size / (1 + bound);
    est.per_binding = size / (1 + 3 * bound) + 0.01 * outer_card;
    est.card = size / (1 + 7 * bound);
    return est;
  };
  return item;
}

struct Case {
  std::string name;
  std::vector<ConjunctItem> items;
  BoundVars initial;
};

/// Items for `body`: builtins bare, predicates named in `derived` through
/// DerivedItem, everything else from `stats`.
std::vector<ConjunctItem> ItemsFor(const std::vector<Literal>& body,
                                   const Statistics& stats,
                                   const std::set<std::string>& derived) {
  std::vector<ConjunctItem> items;
  for (const Literal& lit : body) {
    if (lit.IsBuiltin()) {
      ConjunctItem item;
      item.literal = lit;
      items.push_back(item);
    } else if (derived.count(lit.predicate().name) > 0) {
      items.push_back(DerivedItem(lit, 40.0 + 7.0 * lit.arity(),
                                  lit.predicate().name.size() % 2 == 0));
    } else {
      items.push_back(MakeBaseItem(lit, stats, CostModelOptions{}));
    }
  }
  return items;
}

std::vector<Literal> Body(const std::vector<std::string>& texts) {
  std::vector<Literal> body;
  for (const std::string& t : texts) body.push_back(L(t));
  return body;
}

void AddProgramGenCases(std::vector<Case>* cases) {
  for (uint64_t seed : {3, 11, 29, 47, 101, 4242}) {
    Rng rng(seed);
    testing::ProgramGenOptions options;
    options.dead_rule_probability = 0.3;
    testing::GeneratedProgram prog = testing::GenerateProgram(&rng, options);
    Database db;
    ASSERT_TRUE(prog.BuildDatabase(&db).ok());
    Statistics stats = Statistics::Collect(db);
    std::set<std::string> derived;
    for (const Rule& r : prog.rules) derived.insert(r.head().predicate().name);
    for (size_t ri = 0; ri < prog.rules.size(); ++ri) {
      const Rule& rule = prog.rules[ri];
      for (size_t bound_args : {0, 1}) {
        Case c;
        c.name = "program_gen seed " + std::to_string(seed) + " rule " +
                 std::to_string(ri) + " head-bound " +
                 std::to_string(bound_args);
        c.items = ItemsFor(rule.body(), stats, derived);
        for (size_t i = 0; i < bound_args && i < rule.head().arity(); ++i) {
          c.initial.BindTerm(rule.head().args()[i]);
        }
        cases->push_back(std::move(c));
      }
    }
  }
}

void AddShapeCases(std::vector<Case>* cases) {
  for (QueryShape shape :
       {QueryShape::kChain, QueryShape::kStar, QueryShape::kCycle}) {
    for (size_t n : {7, 8, 9}) {
      Rng rng(n * 131 + static_cast<size_t>(shape));
      auto q = MakeRandomConjunct(shape, n, &rng);
      Case c;
      c.name = std::string(testing::QueryShapeToString(shape)) + " n=" +
               std::to_string(n);
      c.items = q.items;
      cases->push_back(std::move(c));
    }
  }
}

Statistics HandStats() {
  Statistics stats;
  stats.Set({"p", 2}, {200.0, {20.0, 50.0}});
  stats.Set({"q", 2}, {1000.0, {100.0, 10.0}});
  stats.Set({"q", 1}, {30.0, {30.0}});
  stats.Set({"r", 2}, {50.0, {50.0, 5.0}});
  stats.Set({"s", 2}, {80.0, {8.0, 80.0}});
  stats.Set({"t", 2}, {5000.0, {700.0, 900.0}});
  stats.Set({"e", 2}, {120.0, {12.0, 0.5}});  // a distinct count below 1
  stats.Set({"u", 3}, {400.0, {40.0, 4.0}});  // fewer distincts than columns
  return stats;
}

void AddHandCases(std::vector<Case>* cases) {
  const Statistics stats = HandStats();
  const std::set<std::string> derived = {"dv", "dvw"};
  auto add = [&](const std::string& name,
                 const std::vector<std::string>& body,
                 const std::vector<std::string>& head_bound = {}) {
    Case c;
    c.name = name;
    c.items = ItemsFor(Body(body), stats, derived);
    for (const std::string& v : head_bound) c.initial.Bind(v);
    cases->push_back(std::move(c));
  };
  // Each `=` binds its left side only once its right side is bound, and
  // the chain is listed against its binding direction.
  add("eq chain", {"A = B", "B = C", "C = D", "D = E", "r(E, F)", "s(A, G)",
                   "t(G, F)"});
  add("eq chain head-bound", {"A = B", "B = C", "C = D", "t(D, F)", "s(A, G)"},
      {"F"});
  add("negation", {"p(X, Y)", "not q(X, Z)", "r(Y, Z)", "not s(Z, X)",
                   "q(Z, W)"});
  add("negated derived", {"p(X, Y)", "not dv(X, Y)", "dvw(Y, Z)", "r(Z, X)"});
  add("function terms",
      {"p(f(X, Y), Z)", "q(X, g(W))", "r(Y, g(Z, W))", "V = X + 1",
       "U + 2 = V", "X < Y", "s(h(V), U)"});
  add("repeated variable", {"r(V, V)", "p(V, W)", "t(W, W)", "q(W, Z)",
                            "s(Z, V)"});
  add("head-bound", {"t(X, Y)", "p(Y, Z)", "q(Z, X)", "dv(X, W)", "e(W, K)",
                     "X != K"},
      {"X", "NotInBody"});
  add("derived both bindings", {"dv(A, B)", "dvw(B, C)", "p(C, A)",
                                "u(A, B, C)", "A <= C"});
  add("unsafe everywhere", {"p(X, Y)", "Z > W"});
  add("constants and short stats", {"u(X, 3, Y)", "e(Y, c)", "q(X)",
                                    "p(X, Y)", "r(Y, 7)"});
  {
    // Items built by hand: a catalog item with fewer distinct counts than
    // columns and a cardinality below 1, and a derived item likewise.
    Case c;
    c.name = "short distinct vectors";
    c.items = ItemsFor(Body({"u(X, Y, Z)", "dv(Z, W, X)", "p(W, Y)",
                             "q(Z, V)"}),
                       stats, derived);
    c.items[0].distinct.resize(1);
    c.items[0].base_cardinality = 0.25;
    c.items[1].distinct.resize(1);
    c.items[1].base_cardinality = 0.5;
    cases->push_back(std::move(c));
  }

  // More than 64 distinct variables: six twelve-column relations sharing a
  // chain of join variables, plus builtins over the highest ids.
  Statistics wide;
  std::vector<std::string> body;
  for (int k = 0; k < 6; ++k) {
    std::string pred = "w" + std::to_string(k);
    std::vector<double> distinct;
    std::string lit = pred + "(S" + std::to_string(k) + ", S" +
                      std::to_string(k + 1);
    distinct.push_back(10.0 + 3 * k);
    distinct.push_back(20.0 + 5 * k);
    for (int j = 0; j < 10; ++j) {
      lit += ", V" + std::to_string(k) + "_" + std::to_string(j);
      distinct.push_back(2.0 + j + k);
    }
    lit += ")";
    wide.Set({pred, 12}, {100.0 * (k + 1), distinct});
    body.push_back(lit);
  }
  body.push_back("Z = V5_9");
  body.push_back("V0_0 < V5_8");
  Case c;
  c.name = "more than 64 variables";
  c.items = ItemsFor(Body(body), wide, {});
  cases->push_back(c);
  c.name = "more than 64 variables head-bound";
  c.initial.Bind("V5_7");
  c.initial.Bind("S6");
  cases->push_back(std::move(c));
}

std::string Hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

std::string Render(const std::vector<Case>& cases) {
  std::ostringstream os;
  CostModel model;
  for (const Case& c : cases) {
    os << "case " << c.name << " (" << c.items.size() << " items)\n";
    for (SearchStrategy strategy :
         {SearchStrategy::kExhaustive, SearchStrategy::kDynamicProgramming,
          SearchStrategy::kKbz, SearchStrategy::kAnnealing,
          SearchStrategy::kLexicographic}) {
      OrderResult r = MakeStrategy(strategy, StrategyOptions{})
                          ->FindOrder(c.items, c.initial, model);
      os << "  " << SearchStrategyToString(strategy) << ": order";
      for (size_t i : r.order) os << " " << i;
      os << " cost " << Hex(r.cost) << " out_card " << Hex(r.out_card)
         << " safe " << r.safe << " evals " << r.cost_evaluations << "\n";
    }
  }
  return os.str();
}

TEST(CostOrdersGoldenTest, EveryStrategyMatchesTheGolden) {
  std::vector<Case> cases;
  AddProgramGenCases(&cases);
  AddShapeCases(&cases);
  AddHandCases(&cases);
  const std::string actual = Render(cases);

  const std::string path = std::string(LDLOPT_SOURCE_DIR) +
                           "/tests/golden/cost_orders.golden.txt";
  std::ifstream in(path);
  std::ostringstream golden;
  golden << in.rdbuf();
  if (actual != golden.str()) {
    std::ofstream("cost_orders.actual.txt") << actual;
    FAIL() << "join orders, costs or evaluation counts differ from " << path
           << "; the rendering was written to cost_orders.actual.txt";
  }
}

}  // namespace
}  // namespace ldl
