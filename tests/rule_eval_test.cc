// Semantics of one rule evaluation (engine/rule_eval.h): how body columns
// match stored values, how builtins and negation see bindings, when kUnsafe
// is raised, and the exact work counters. These pin behaviour, not
// mechanism, so any evaluator implementation must pass them unchanged.

#include "engine/rule_eval.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "ast/parser.h"
#include "engine/query_eval.h"

namespace ldl {
namespace {

Rule R(const char* text) {
  auto r = ParseProgram(text);
  EXPECT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->rules().size(), 1u);
  return r->rules()[0];
}

Term T(const char* text) {
  auto t = ParseTerm(text);
  EXPECT_TRUE(t.ok()) << t.status();
  return *t;
}

/// Adds one tuple, written as LDL terms, to `pred` in `db`.
void Fact(Database* db, const char* pred, std::vector<const char*> args) {
  Tuple t;
  for (const char* a : args) t.push_back(T(a));
  db->GetOrCreate({pred, t.size()})->Insert(std::move(t));
}

/// One rule evaluation: its status, result rows rendered and sorted (e.g.
/// {"(1, a)"}), and work counters.
struct Outcome {
  Status status;
  size_t added = 0;
  std::vector<std::string> rows;
  EvalCounters counters;
};

/// Evaluates `rule` over `db` into a fresh relation.
Outcome Eval(const Rule& rule, Database* db,
             const RuleEvalOptions& options = {}) {
  Outcome run;
  Relation out(rule.head().predicate_name(), rule.head().arity());
  auto added =
      EvaluateRule(rule, DatabaseResolver(db), &out, &run.counters, options);
  run.status = added.status();
  if (added.ok()) run.added = *added;
  for (TupleView t : out.tuples()) run.rows.push_back(TupleToString(t));
  std::sort(run.rows.begin(), run.rows.end());
  return run;
}

using Rows = std::vector<std::string>;

TEST(RuleEvalSemanticsTest, RepeatedVariableInOneLiteralUnifiesNumerically) {
  Database db;
  Fact(&db, "p", {"1", "1.0"});
  Fact(&db, "p", {"2", "3"});
  Fact(&db, "p", {"a", "a"});
  Fact(&db, "p", {"f(1)", "f(1.0)"});
  // The first column binds X; the second compares with Unify, which
  // equates 1 and 1.0 by value. The binding keeps the first column's value.
  Outcome run = Eval(R("q(X) <- p(X, X)."), &db);
  ASSERT_TRUE(run.status.ok()) << run.status;
  EXPECT_EQ(run.rows, (Rows{"(1)", "(a)", "(f(1))"}));
}

TEST(RuleEvalSemanticsTest, BoundColumnLookupUsesExactEquality) {
  Database db;
  Fact(&db, "r", {"1"});
  Fact(&db, "p", {"1.0", "a"});
  Fact(&db, "p", {"1", "b"});
  // X is bound when p is reached, so column 0 is an index key compared with
  // Term::operator==: 1 never finds 1.0.
  Outcome run = Eval(R("q(Y) <- r(X), p(X, Y)."), &db);
  ASSERT_TRUE(run.status.ok()) << run.status;
  EXPECT_EQ(run.rows, (Rows{"(b)"}));
}

TEST(RuleEvalSemanticsTest, BoundVariableInsideAPatternUnifiesNumerically) {
  Database db;
  Fact(&db, "r", {"1"});
  Fact(&db, "s", {"f(1.0, c)"});
  Fact(&db, "s", {"f(2, d)"});
  // f(X, Y) is not ground when s is reached, so it is matched structurally,
  // and the bound X compares with Unify: 1 equals 1.0.
  Outcome run = Eval(R("q(Y) <- r(X), s(f(X, Y))."), &db);
  ASSERT_TRUE(run.status.ok()) << run.status;
  EXPECT_EQ(run.rows, (Rows{"(c)"}));
}

TEST(RuleEvalSemanticsTest, BodyAndHeadConstants) {
  Database db;
  Fact(&db, "p", {"1", "2"});
  Fact(&db, "p", {"3", "4"});
  Fact(&db, "p", {"5", "2"});
  Fact(&db, "p", {"6", "2.0"});
  Outcome run = Eval(R("q(X, k, \"s\") <- p(X, 2)."), &db);
  ASSERT_TRUE(run.status.ok()) << run.status;
  EXPECT_EQ(run.rows, (Rows{"(1, k, \"s\")", "(5, k, \"s\")"}));
}

TEST(RuleEvalSemanticsTest, HeadArithmeticIsFolded) {
  Database db;
  Fact(&db, "p", {"1"});
  Fact(&db, "p", {"2"});
  Fact(&db, "p", {"0"});
  Outcome run = Eval(R("q(X + 1, f(X * 2)) <- p(X)."), &db);
  ASSERT_TRUE(run.status.ok()) << run.status;
  EXPECT_EQ(run.rows, (Rows{"(1, f(0))", "(2, f(2))", "(3, f(4))"}));

  // An arithmetic error drops the derivation; it is still counted.
  Outcome div = Eval(R("q(10 / X) <- p(X)."), &db);
  ASSERT_TRUE(div.status.ok()) << div.status;
  EXPECT_EQ(div.rows, (Rows{"(10)", "(5)"}));
  EXPECT_EQ(div.counters.derivations, 3u);
  EXPECT_EQ(div.counters.inserts, 2u);
}

TEST(RuleEvalSemanticsTest, BodyArithmeticIsAConstructor) {
  Database db;
  Fact(&db, "p", {"1"});
  Fact(&db, "p", {"3"});
  Fact(&db, "even", {"2"});
  Fact(&db, "even", {"4"});
  // even(X + 1) looks up the term +(X, 1), not its value: no int matches.
  Outcome pos = Eval(R("q(X) <- p(X), even(X + 1)."), &db);
  ASSERT_TRUE(pos.status.ok()) << pos.status;
  EXPECT_TRUE(pos.rows.empty());
  // ...and so its negation always holds.
  Outcome neg = Eval(R("q(X) <- p(X), not even(X + 1)."), &db);
  ASSERT_TRUE(neg.status.ok()) << neg.status;
  EXPECT_EQ(neg.rows, (Rows{"(1)", "(3)"}));
  // A stored constructor term is what matches.
  db.GetOrCreate({"even", 1})
      ->Insert({Term::MakeFunction("+", {Term::MakeInt(3), Term::MakeInt(1)})});
  Outcome stored = Eval(R("q(X) <- p(X), even(X + 1)."), &db);
  ASSERT_TRUE(stored.status.ok()) << stored.status;
  EXPECT_EQ(stored.rows, (Rows{"(3)"}));
}

TEST(RuleEvalSemanticsTest, FunctionTermWithPartlyBoundSubterms) {
  Database db;
  Fact(&db, "r", {"1"});
  Fact(&db, "s", {"f(1, g(a))", "z1"});
  Fact(&db, "s", {"f(2, g(b))", "z2"});
  Fact(&db, "s", {"f(1, h(c))", "z3"});
  Fact(&db, "s", {"f(1, g(d, e))", "z4"});
  Fact(&db, "s", {"f(1)", "z5"});
  Fact(&db, "s", {"k", "z6"});
  Outcome run = Eval(R("q(Y, Z) <- r(X), s(f(X, g(Y)), Z)."), &db);
  ASSERT_TRUE(run.status.ok()) << run.status;
  EXPECT_EQ(run.rows, (Rows{"(a, z1)"}));
}

TEST(RuleEvalSemanticsTest, ListPatternsWithABoundHead) {
  Database db;
  Fact(&db, "r", {"1"});
  Fact(&db, "l", {"[1, 2, 3]"});
  Fact(&db, "l", {"[2, 3]"});
  Fact(&db, "l", {"[1]"});
  Fact(&db, "l", {"[]"});
  Outcome run = Eval(R("q(H, T) <- r(H), l([H | T])."), &db);
  ASSERT_TRUE(run.status.ok()) << run.status;
  EXPECT_EQ(run.rows, (Rows{"(1, [2, 3])", "(1, [])"}));

  // A variable repeated across a pattern and a later column of the same
  // literal: the pattern binds it, the column compares.
  Fact(&db, "m", {"[4, 5]", "4"});
  Fact(&db, "m", {"[4, 5]", "5"});
  Outcome rep = Eval(R("q(H, T) <- m([H | T], H)."), &db);
  ASSERT_TRUE(rep.status.ok()) << rep.status;
  EXPECT_EQ(rep.rows, (Rows{"(4, [5])"}));
}

TEST(RuleEvalSemanticsTest, EqBindsThroughAConstructorPattern) {
  Database db;
  Fact(&db, "p", {"f(1, 2)"});
  Fact(&db, "p", {"g(3)"});
  Fact(&db, "p", {"f(a, b)"});
  Fact(&db, "p", {"f(c, c)"});
  Outcome run = Eval(R("q(A, B) <- p(W), f(A, B) = W."), &db);
  ASSERT_TRUE(run.status.ok()) << run.status;
  EXPECT_EQ(run.rows, (Rows{"(1, 2)", "(a, b)", "(c, c)"}));

  // A repeated variable in the pattern compares the two halves.
  Outcome diag = Eval(R("q(A) <- p(W), W = f(A, A)."), &db);
  ASSERT_TRUE(diag.status.ok()) << diag.status;
  EXPECT_EQ(diag.rows, (Rows{"(c)"}));

  // The ground side is folded before matching: Y binds to the value.
  Fact(&db, "n", {"4"});
  Outcome fold =
      Eval(R("q(Y, Z) <- n(X), Y = X * 2, f(Z) = f(Y - 1)."), &db);
  ASSERT_TRUE(fold.status.ok()) << fold.status;
  EXPECT_EQ(fold.rows, (Rows{"(8, 7)"}));

  // Both sides ground: compared by value, so 2 = 2.0 holds.
  Outcome ground = Eval(R("q(X) <- n(X), X / 2 = 2.0."), &db);
  ASSERT_TRUE(ground.status.ok()) << ground.status;
  EXPECT_EQ(ground.rows, (Rows{"(4)"}));
}

TEST(RuleEvalSemanticsTest, ComparisonsAreNumericOrByTermOrder) {
  Database db;
  Fact(&db, "p", {"1", "1.5"});
  Fact(&db, "p", {"2", "2.0"});
  Fact(&db, "p", {"a", "b"});
  Fact(&db, "p", {"3", "2"});
  Outcome lt = Eval(R("q(X) <- p(X, Y), X < Y."), &db);
  ASSERT_TRUE(lt.status.ok()) << lt.status;
  EXPECT_EQ(lt.rows, (Rows{"(1)", "(a)"}));
  Outcome ne = Eval(R("q(X) <- p(X, Y), X != Y."), &db);
  ASSERT_TRUE(ne.status.ok()) << ne.status;
  EXPECT_EQ(ne.rows, (Rows{"(1)", "(3)", "(a)"}));
}

TEST(RuleEvalSemanticsTest, UnsafeIsRaisedOnlyWhenReached) {
  Database db;
  db.GetOrCreate({"p", 1});  // empty
  db.GetOrCreate({"r", 2});
  const char* const rules[] = {
      "q(X) <- p(X), X < Y.",         // uncomputable builtin
      "q(X, Y) <- p(X).",             // non-ground head
      "q(X) <- p(X), not r(X, Y).",   // unbound negated variable
      "q(X) <- p(X), Y = Z + 1.",     // = with both sides unbound
      "q(X) <- p(X), f(Y + 1) = X.",  // = needing equation solving
  };
  // The first literal is empty, so evaluation never reaches the problem.
  for (const char* text : rules) {
    Outcome run = Eval(R(text), &db);
    EXPECT_TRUE(run.status.ok()) << text << ": " << run.status;
    EXPECT_EQ(run.added, 0u) << text;
  }
  Fact(&db, "p", {"1"});
  for (const char* text : rules) {
    Outcome run = Eval(R(text), &db);
    EXPECT_EQ(run.status.code(), StatusCode::kUnsafe) << text;
  }
}

TEST(RuleEvalSemanticsTest, UnsafeMessagesNameTheLiteralAndRule) {
  Database db;
  Fact(&db, "p", {"1"});
  Outcome cmp = Eval(R("q(X) <- p(X), X < Y."), &db);
  EXPECT_EQ(cmp.status.message(),
            "builtin 1 < Y is not computable at this point of rule "
            "q(X) <- p(X), X < Y. (unsafe literal order)");
  Outcome head = Eval(R("q(X, f(Y)) <- p(X)."), &db);
  EXPECT_EQ(head.status.message(),
            "non-ground head value f(Y) in rule q(X, f(Y)) <- p(X). (rule is "
            "not range-restricted under this order)");
  Outcome neg = Eval(R("q(X) <- p(X), not r(X, Y)."), &db);
  EXPECT_EQ(neg.status.message(),
            "negated literal not r(1, Y) has unbound variables in rule "
            "q(X) <- p(X), not r(X, Y).");
}

TEST(RuleEvalSemanticsTest, ExactCountersOnASmallJoin) {
  Database db;
  Fact(&db, "a", {"1", "2"});
  Fact(&db, "a", {"1", "3"});
  Fact(&db, "a", {"2", "3"});
  Fact(&db, "a", {"4", "9"});
  Fact(&db, "b", {"2", "5"});
  Fact(&db, "b", {"3", "6"});
  Fact(&db, "b", {"3", "7"});
  Fact(&db, "c", {"2"});
  // a: 4 examined. b probed on Y: Y=2 -> 1, Y=3 -> 2, Y=3 -> 2, Y=9 -> 0.
  // The 5 (X, Z) pairs pass Z > 4; the negation probes c once each
  // (5 examined) and drops X = 2 twice. Heads: (1), (1), (1) -> 1 insert.
  Outcome run = Eval(R("q(X) <- a(X, Y), b(Y, Z), Z > 4, not c(X)."), &db);
  ASSERT_TRUE(run.status.ok()) << run.status;
  EXPECT_EQ(run.rows, (Rows{"(1)"}));
  EXPECT_EQ(run.counters.tuples_examined, 4u + 5u + 5u);
  EXPECT_EQ(run.counters.derivations, 3u);
  EXPECT_EQ(run.counters.inserts, 1u);
  EXPECT_EQ(run.counters.rule_firings, 1u);
  EXPECT_EQ(run.added, 1u);

  // The same rule under another body order: c cannot go first (X unbound),
  // but b can, probing a on its second column.
  RuleEvalOptions reordered;
  reordered.order = {1, 0, 2, 3};
  Outcome other = Eval(R("q(X) <- a(X, Y), b(Y, Z), Z > 4, not c(X)."), &db,
                   reordered);
  ASSERT_TRUE(other.status.ok()) << other.status;
  EXPECT_EQ(other.rows, (Rows{"(1)"}));
  // b: 3 examined; a on Y: Y=2 -> 1, Y=3 -> 2, Y=3 -> 2; negation: 5.
  EXPECT_EQ(other.counters.tuples_examined, 3u + 5u + 5u);
  EXPECT_EQ(other.counters.derivations, 3u);
}

TEST(RuleEvalSemanticsTest, OrderOfTheWrongSizeIsAnError) {
  Database db;
  RuleEvalOptions options;
  options.order = {0};
  Outcome run = Eval(R("q(X) <- a(X, Y), b(Y, X)."), &db, options);
  EXPECT_EQ(run.status.code(), StatusCode::kInternal);
}

TEST(RuleEvalSemanticsTest, DerivationCapIsCumulative) {
  Database db;
  for (const char* v : {"1", "2", "3"}) Fact(&db, "p", {v});
  RuleEvalOptions options;
  options.max_derivations = 4;
  Relation out("q", 1);
  EvalCounters counters;
  counters.derivations = 2;  // earlier firings of the same program
  auto added = EvaluateRule(R("q(X) <- p(X)."), DatabaseResolver(&db), &out,
                            &counters, options);
  EXPECT_EQ(added.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(out.size(), 2u);
}

TEST(RuleEvalSemanticsTest, PatternResolverSeesUnboundPositionsAsVariables) {
  Database db;
  Fact(&db, "r", {"1"});
  Fact(&db, "r", {"2"});
  Fact(&db, "s", {"1", "y", "f(1, z)"});
  std::vector<std::string> seen;
  RuleEvalOptions options;
  options.pattern_resolver = [&seen](const Literal& lit, size_t pos,
                                     const std::vector<Term>& patterns)
      -> Relation* {
    std::string row = lit.predicate_name() + "@" + std::to_string(pos) + ":";
    for (const Term& t : patterns) row += " " + t.ToString();
    seen.push_back(row);
    return nullptr;  // fall back to the plain resolver
  };
  Outcome run = Eval(R("q(X, Y, Z) <- r(X), s(X, Y, f(X, Z))."), &db, options);
  ASSERT_TRUE(run.status.ok()) << run.status;
  EXPECT_EQ(run.rows, (Rows{"(1, y, z)"}));
  EXPECT_EQ(seen, (std::vector<std::string>{"r@0: X", "s@1: 1 Y f(1, Z)",
                                            "s@1: 2 Y f(2, Z)"}));
}

TEST(RuleEvalSemanticsTest, PatternResolverRelationIsRead) {
  Database db;
  Fact(&db, "r", {"1"});
  Fact(&db, "r", {"2"});
  Relation tabled("s", 2);
  tabled.Insert({Term::MakeInt(2), Term::MakeSymbol("t")});
  RuleEvalOptions options;
  options.pattern_resolver = [&tabled](const Literal& lit, size_t,
                                       const std::vector<Term>&) {
    return lit.predicate_name() == "s" ? &tabled : nullptr;
  };
  Outcome run = Eval(R("q(X, Y) <- r(X), s(X, Y)."), &db, options);
  ASSERT_TRUE(run.status.ok()) << run.status;
  EXPECT_EQ(run.rows, (Rows{"(2, t)"}));
}

TEST(RuleEvalSemanticsTest, MissingRelationIsEmpty) {
  Database db;
  Fact(&db, "p", {"1"});
  Outcome run = Eval(R("q(X) <- p(X), absent(X)."), &db);
  ASSERT_TRUE(run.status.ok()) << run.status;
  EXPECT_TRUE(run.rows.empty());
  EXPECT_EQ(run.counters.tuples_examined, 1u);
  Outcome neg = Eval(R("q(X) <- p(X), not absent(X)."), &db);
  ASSERT_TRUE(neg.status.ok()) << neg.status;
  EXPECT_EQ(neg.rows, (Rows{"(1)"}));
  EXPECT_EQ(neg.counters.tuples_examined, 2u);
}


Literal L(const char* text) {
  auto r = ParseLiteral(text);
  EXPECT_TRUE(r.ok()) << r.status();
  return *r;
}

std::vector<std::string> Rendered(const Relation& rel) {
  std::vector<std::string> rows;
  for (TupleView t : rel.tuples()) rows.push_back(TupleToString(t));
  return rows;
}

/// A relation holding every kind of column value: ints, reals, strings,
/// symbols, function terms and lists.
Relation MixedRelation() {
  Relation rel("m", 3);
  const char* const rows[][3] = {
      {"1", "a", "f(1, g(b))"},      {"1", "b", "[1, 2]"},
      {"2.5", "\"s\"", "f(2.5, g(\"s\"))"}, {"1", "a", "f(1, h(b))"},
      {"-3", "a", "[]"},             {"1", "1", "f(1, g(1))"},
  };
  for (const auto& row : rows) {
    rel.Insert({T(row[0]), T(row[1]), T(row[2])});
  }
  return rel;
}

TEST(SelectMatchingTest, ConstantsRepeatedVariablesAndFunctionGoals) {
  Relation rel = MixedRelation();
  EXPECT_EQ(Rendered(SelectMatching(&rel, L("m(1, a, Z)"))),
            (Rows{"(1, a, f(1, g(b)))", "(1, a, f(1, h(b)))"}));
  EXPECT_EQ(Rendered(SelectMatching(&rel, L("m(X, Y, f(X, g(Y)))"))),
            (Rows{"(2.5, \"s\", f(2.5, g(\"s\")))", "(1, 1, f(1, g(1)))"}));
  EXPECT_EQ(Rendered(SelectMatching(&rel, L("m(X, X, Z)"))),
            (Rows{"(1, 1, f(1, g(1)))"}));
  EXPECT_EQ(Rendered(SelectMatching(&rel, L("m(X, Y, [H | T])"))),
            (Rows{"(1, b, [1, 2])"}));
  EXPECT_EQ(Rendered(SelectMatching(&rel, L("m(1.0, a, Z)"))), Rows{});
  EXPECT_EQ(SelectMatching(&rel, L("m(X, Y, Z)")).size(), rel.size());
  EXPECT_EQ(SelectMatching(nullptr, L("m(X, Y, Z)")).size(), 0u);
}

TEST(SelectMatchingTest, ResultIsASetThatContainsFinds) {
  Relation rel = MixedRelation();
  Relation picked = SelectMatching(&rel, L("m(1, Y, Z)"));
  ASSERT_EQ(picked.size(), 4u);
  for (TupleView t : picked.tuples()) EXPECT_TRUE(picked.Contains(t));
  EXPECT_FALSE(picked.Contains(rel.tuple(2)));
  EXPECT_FALSE(picked.Insert(rel.tuple(0)));
  EXPECT_TRUE(picked.Insert(rel.tuple(2)));
}

// A directly recursive rule evaluated into one of its own body relations:
// the sink gains rows while the rule still reads them. With the edges
// scanned first, in ascending order, each keyed probe of the sink sees the
// paths this call derived for the previous edge, so one call derives the
// whole closure and the sink's arena is reallocated many times inside it.
// With the sink scanned first, each call extends paths by one edge.
// Either way, repeating the call until it adds nothing must reach the
// transitive closure.
TEST(RuleEvalSemanticsTest, RuleReadingItsOwnGrowingSink) {
  constexpr int64_t kNodes = 150;
  const Rule rule = R("reach(X, Z) <- reach(X, Y), edge(Y, Z).");
  for (const std::vector<size_t>& order :
       {std::vector<size_t>{1, 0}, std::vector<size_t>{0, 1}}) {
    Database db;
    Relation* edge = db.GetOrCreate({"edge", 2});
    Relation* reach = db.GetOrCreate({"reach", 2});
    for (int64_t i = 0; i + 1 < kNodes; ++i) {
      edge->Insert({Term::MakeInt(i), Term::MakeInt(i + 1)});
      reach->Insert({Term::MakeInt(i), Term::MakeInt(i + 1)});
    }
    RuleEvalOptions options;
    options.order = order;
    EvalCounters counters;
    std::vector<size_t> added_per_call;
    while (added_per_call.empty() || added_per_call.back() != 0) {
      auto added = EvaluateRule(rule, DatabaseResolver(&db), reach,
                                &counters, options);
      ASSERT_TRUE(added.ok()) << added.status();
      added_per_call.push_back(*added);
    }
    const size_t closure = kNodes * (kNodes - 1) / 2;
    EXPECT_EQ(reach->size(), closure) << "order " << order[0];
    for (int64_t i = 0; i < kNodes; ++i) {
      for (int64_t j = i + 1; j < kNodes; ++j) {
        ASSERT_TRUE(reach->Contains({Term::MakeInt(i), Term::MakeInt(j)}))
            << i << " -> " << j;
      }
    }
    if (order[0] == 1) {
      // Keyed probes of the sink see the rows this very call inserted.
      EXPECT_EQ(added_per_call,
                (std::vector<size_t>{closure - (kNodes - 1), 0}));
    } else {
      EXPECT_EQ(added_per_call.size(), static_cast<size_t>(kNodes - 1));
    }
  }
}

TEST(AnswerFingerprintTest, MixedKindRelationIsStable) {
  // Recorded fingerprints (query logs, perfbench work digests) depend on
  // this exact value, so it must not move when storage hashing changes.
  EXPECT_EQ(AnswerFingerprint(MixedRelation()), "6:86db53cd00883b69");
}

}  // namespace
}  // namespace ldl
