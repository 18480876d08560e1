#include <gtest/gtest.h>

#include <algorithm>

#include "ast/parser.h"
#include "engine/counting.h"
#include "engine/magic.h"
#include "engine/query_eval.h"
#include "graph/adornment.h"
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

constexpr const char* kAncestor = R"(
  anc(X, Y) <- par(X, Y).
  anc(X, Y) <- par(X, Z), anc(Z, Y).
)";

TEST(MagicRewriteTest, StructureForBoundTransitiveClosure) {
  Program p = P(kAncestor);
  auto adorned = AdornProgramForQuery(p, L("anc(1, Y)"), SipStrategy());
  ASSERT_TRUE(adorned.ok());
  auto magic = MagicRewrite(*adorned);
  ASSERT_TRUE(magic.ok()) << magic.status();

  // Seed: magic.anc.bf(1).
  EXPECT_EQ(magic->seed.predicate_name(), "magic.anc.bf");
  ASSERT_EQ(magic->seed.arity(), 1u);
  EXPECT_EQ(magic->seed.args()[0].int_value(), 1);
  EXPECT_EQ(magic->answer_pred.ToString(), "anc.bf/2");

  // Rewritten rules: 2 guarded rules + 1 magic rule (from the recursive
  // occurrence).
  ASSERT_EQ(magic->rewritten.rules().size(), 3u);
  size_t guarded = 0, magic_rules = 0;
  for (const Rule& rule : magic->rewritten.rules()) {
    if (rule.head().predicate_name() == "anc.bf") {
      ++guarded;
      // Guard literal first.
      ASSERT_FALSE(rule.body().empty());
      EXPECT_EQ(rule.body()[0].predicate_name(), "magic.anc.bf");
    } else if (rule.head().predicate_name() == "magic.anc.bf") {
      ++magic_rules;
      // magic.anc.bf(Z) <- magic.anc.bf(X), par(X, Z).
      ASSERT_EQ(rule.body().size(), 2u);
      EXPECT_EQ(rule.body()[0].predicate_name(), "magic.anc.bf");
      EXPECT_EQ(rule.body()[1].predicate_name(), "par");
    }
  }
  EXPECT_EQ(guarded, 2u);
  EXPECT_EQ(magic_rules, 1u);
}

TEST(MagicRewriteTest, MagicSetEqualsReachableSet) {
  // The magic set for anc(c, Y)? is exactly the set of nodes reachable
  // from c via par — evaluate and check.
  Program p = P(kAncestor);
  Database db;
  testing::MakeTreeParentData(2, 5, &db);
  auto adorned = AdornProgramForQuery(p, L("anc(10, Y)"), SipStrategy());
  ASSERT_TRUE(adorned.ok());
  auto magic = MagicRewrite(*adorned);
  ASSERT_TRUE(magic.ok());
  Program rewritten = magic->rewritten;
  rewritten.AddRule(Rule(magic->seed, {}));
  Database scratch;
  FixpointStats stats;
  ASSERT_TRUE(EvaluateProgram(rewritten, RecursionMethod::kSemiNaive, &db,
                              &scratch, &stats, {})
                  .ok());
  Relation* magic_rel = scratch.Find({"magic.anc.bf", 1});
  ASSERT_NE(magic_rel, nullptr);
  // The magic set is exactly node 10 plus every ancestor of 10.
  Relation query_answers =
      SelectMatching(scratch.Find({"anc.bf", 2}), L("anc(10, Y)"));
  EXPECT_EQ(magic_rel->size(), query_answers.size() + 1);
  // And it is restricted: far smaller than the full node set (63 nodes).
  EXPECT_LT(magic_rel->size(), 10u);
}

TEST(MagicRewriteTest, NonRecursiveSelectionPushing) {
  // Magic on a non-recursive program implements selection pushing: only
  // the matching group is computed.
  Program p = P(R"(
    dept_total(D, T) <- dept(D), member_of(E, D), salary(E, S), T = S + S.
  )");
  Database db;
  for (int64_t d = 0; d < 50; ++d) {
    (void)db.AddFact(Literal::Make("dept", {Term::MakeInt(d)}));
    (void)db.AddFact(Literal::Make(
        "member_of", {Term::MakeInt(1000 + d), Term::MakeInt(d)}));
    (void)db.AddFact(Literal::Make(
        "salary", {Term::MakeInt(1000 + d), Term::MakeInt(10 * d)}));
  }
  auto bound = EvaluateQuery(p, &db, L("dept_total(7, T)"),
                             RecursionMethod::kMagic, {});
  auto full = EvaluateQuery(p, &db, L("dept_total(7, T)"),
                            RecursionMethod::kSemiNaive, {});
  ASSERT_TRUE(bound.ok()) << bound.status();
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(bound->answers.size(), 1u);
  EXPECT_EQ(bound->answers.tuples()[0][1].int_value(), 140);
  EXPECT_LT(bound->stats.counters.tuples_examined,
            full->stats.counters.tuples_examined);
}

TEST(MagicRewriteTest, ZeroArityMagicForFreeSubquery) {
  // A derived predicate reached with no bound arguments gets a 0-ary magic
  // "demand flag".
  Program p = P(R"(
    all_pairs(X, Y) <- r(X), s(Y).
    q(X, Y) <- all_pairs(X, Y), t(X).
  )");
  SipStrategy sips;
  auto adorned = AdornProgramForQuery(p, L("q(X, Y)"), sips);
  ASSERT_TRUE(adorned.ok());
  auto magic = MagicRewrite(*adorned);
  ASSERT_TRUE(magic.ok()) << magic.status();
  bool found_zero_ary = false;
  for (const Rule& rule : magic->rewritten.rules()) {
    if (rule.head().predicate_name() == "magic.all_pairs.ff") {
      EXPECT_EQ(rule.head().arity(), 0u);
      found_zero_ary = true;
    }
  }
  EXPECT_TRUE(found_zero_ary);
}

TEST(CountingRewriteTest, StructureForAncestor) {
  Program p = P(kAncestor);
  auto counting = CountingRewrite(p, L("anc(1, Y)"));
  ASSERT_TRUE(counting.ok()) << counting.status();
  EXPECT_EQ(counting->seed.predicate_name(), "cnt.anc");
  EXPECT_EQ(counting->seed.args()[0].int_value(), 0);  // level 0
  EXPECT_EQ(counting->answer_pred.ToString(), "ans.anc/2");
  // Rules: ascent + 1 exit + descent = 3.
  EXPECT_EQ(counting->rewritten.rules().size(), 3u);
}

TEST(CountingRewriteTest, SgSeparability) {
  Program p = P(R"(
    sg(X, Y) <- flat(X, Y).
    sg(X, Y) <- up(X, X1), sg(X1, Y1), dn(Y1, Y).
  )");
  auto counting = CountingRewrite(p, L("sg(1, Y)"));
  ASSERT_TRUE(counting.ok()) << counting.status();
  // up goes to the ascent; dn to the descent.
  bool ascent_has_up = false, descent_has_dn = false;
  for (const Rule& rule : counting->rewritten.rules()) {
    for (const Literal& lit : rule.body()) {
      if (rule.head().predicate_name() == "cnt.sg" &&
          lit.predicate_name() == "up") {
        ascent_has_up = true;
      }
      if (rule.head().predicate_name() == "ans.sg" &&
          lit.predicate_name() == "dn") {
        descent_has_dn = true;
      }
    }
  }
  EXPECT_TRUE(ascent_has_up);
  EXPECT_TRUE(descent_has_dn);
}

TEST(CountingRewriteTest, RejectsNonSeparableBody) {
  // The filter g(X, Y) couples the up variable X with the down variable Y:
  // counting would need to remember X per level.
  Program p = P(R"(
    sg(X, Y) <- flat(X, Y).
    sg(X, Y) <- up(X, X1), sg(X1, Y1), dn(Y1, Y), g(X, Y).
  )");
  auto counting = CountingRewrite(p, L("sg(1, Y)"));
  ASSERT_FALSE(counting.ok());
  // g(X, Y) pulls the descent variables into the up closure, so either the
  // separability or the stable-adornment test fires; both mean "counting
  // would have to remember per-level bindings" and are Unsupported.
  EXPECT_EQ(counting.status().code(), StatusCode::kUnsupported);
}

TEST(CountingRewriteTest, RejectsFreeQuery) {
  Program p = P(kAncestor);
  EXPECT_EQ(CountingRewrite(p, L("anc(X, Y)")).status().code(),
            StatusCode::kUnsupported);
}

TEST(CountingRewriteTest, RejectsMutualRecursion) {
  Program p = P(R"(
    e(X) <- zero(X).
    e(X) <- s(Y, X), o(Y).
    o(X) <- s(Y, X), e(Y).
  )");
  EXPECT_EQ(CountingRewrite(p, L("e(4)")).status().code(),
            StatusCode::kUnsupported);
}

TEST(CountingRewriteTest, BothArgumentsBound) {
  Program p = P(kAncestor);
  Database db;
  testing::MakeTreeParentData(2, 6, &db);
  // Node 5's parent chain passes through node 2 then 0.
  auto result = EvaluateQuery(p, &db, L("anc(5, 0)"),
                              RecursionMethod::kCounting,
                              {});
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->answers.size(), 1u);
}

TEST(CountingRewriteTest, DagDataCountsLevelsCorrectly) {
  // On a DAG a node can be reachable at several levels; counting must not
  // lose or duplicate answers relative to magic.
  Program p = P(R"(
    tc(X, Y) <- edge(X, Y).
    tc(X, Y) <- edge(X, Z), tc(Z, Y).
  )");
  Database db;
  testing::MakeRandomDag(40, 3, 99, &db);
  QueryEvalOptions options;
  options.counting_fallback = false;
  auto counting =
      EvaluateQuery(p, &db, L("tc(0, Y)"), RecursionMethod::kCounting,
                    options);
  auto magic =
      EvaluateQuery(p, &db, L("tc(0, Y)"), RecursionMethod::kMagic, options);
  ASSERT_TRUE(counting.ok()) << counting.status();
  ASSERT_TRUE(magic.ok());
  auto sorted = [](const Relation& r) {
    return CanonicalAnswers(r);
  };
  EXPECT_EQ(sorted(counting->answers), sorted(magic->answers));
}

TEST(AdornmentSipTest, PerAdornmentOrderOverridesGlobal) {
  SipStrategy sips;
  sips.SetOrder(3, {2, 1, 0});
  auto bf = Adornment::FromString("bf");
  ASSERT_TRUE(bf.ok());
  sips.SetOrderForAdornment(3, *bf, {0, 2, 1});
  EXPECT_EQ(sips.OrderFor(3, 3, *bf), (std::vector<size_t>{0, 2, 1}));
  EXPECT_EQ(sips.OrderFor(3, 3, Adornment::AllFree(2)),
            (std::vector<size_t>{2, 1, 0}));
  EXPECT_EQ(sips.OrderFor(4, 2, *bf), (std::vector<size_t>{0, 1}));
}

TEST(MagicRewriteTest, NegatedDerivedLiteralSeesCompleteRelation) {
  // Regression: a magic-restricted `reach` under negation must still be
  // computed in full (0-ary demand flag), or absence tests go vacuously
  // true.
  Program p = P(R"(
    reach(X, Y) <- edge(X, Y).
    reach(X, Y) <- edge(X, Z), reach(Z, Y).
    node(X) <- edge(X, Y).
    node(Y) <- edge(X, Y).
    separated(X, Y) <- node(X), node(Y), not reach(X, Y), X != Y.
  )");
  Database db;
  (void)db.AddFact(L("edge(1, 2)"));
  (void)db.AddFact(L("edge(2, 3)"));
  (void)db.AddFact(L("edge(4, 5)"));
  auto magic = EvaluateQuery(p, &db, L("separated(1, Y)"),
                             RecursionMethod::kMagic, {});
  auto semi = EvaluateQuery(p, &db, L("separated(1, Y)"),
                            RecursionMethod::kSemiNaive, {});
  ASSERT_TRUE(magic.ok()) << magic.status();
  ASSERT_TRUE(semi.ok());
  auto sorted = [](const Relation& r) {
    return CanonicalAnswers(r);
  };
  EXPECT_EQ(sorted(magic->answers), sorted(semi->answers));
  EXPECT_EQ(magic->answers.size(), 2u);  // 4 and 5
}

TEST(MagicRewriteTest, AdornmentUsesAllFreeUnderNegation) {
  Program p = P(R"(
    d(X, Y) <- r(X, Y).
    q(X) <- s(X), not d(X, X).
  )");
  auto adorned = AdornProgramForQuery(p, L("q(1)"), SipStrategy());
  ASSERT_TRUE(adorned.ok());
  bool found = false;
  for (const AdornedPredicate& ap : adorned->predicates) {
    if (ap.pred.name == "d") {
      EXPECT_TRUE(ap.adornment.AllArgsFree()) << ap.ToString();
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace ldl
