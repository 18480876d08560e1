// Cost-model calibration (src/obs/calibration.h): q-error pairing of
// estimates with measured actuals, the measured-statistics overlay, plan
// pinning, plan regret, and the memoization row-counting guard.

#include "obs/calibration.h"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>

#include "ast/parser.h"
#include "ldl/ldl.h"
#include "obs/feedback.h"
#include "plan/interpreter.h"
#include "plan/processing_tree.h"
#include "storage/statistics.h"
#include "testing/workloads.h"

namespace ldl {
namespace {

TEST(QErrorTest, PerfectEstimateIsOne) {
  EXPECT_DOUBLE_EQ(QError(5, 5), 1.0);
  EXPECT_DOUBLE_EQ(QError(1, 1), 1.0);
}

TEST(QErrorTest, SymmetricOverAndUnderEstimation) {
  EXPECT_DOUBLE_EQ(QError(10, 2), 5.0);
  EXPECT_DOUBLE_EQ(QError(2, 10), 5.0);
}

TEST(QErrorTest, SubRowCardinalitiesClampToOne) {
  // An estimate of a quarter row against an empty actual is "right", not
  // infinitely wrong (both sides floor at one row).
  EXPECT_DOUBLE_EQ(QError(0.25, 0), 1.0);
  EXPECT_DOUBLE_EQ(QError(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(QError(0.5, 4), 4.0);
}

TEST(MeasuredStatisticsTest, SetFindRoundTrip) {
  MeasuredStatistics m;
  EXPECT_TRUE(m.empty());
  PredicateId r = ParseLiteral("r(X, Y)")->predicate();
  m.Set(r, Adornment::AllFree(2), 60);
  ASSERT_NE(m.Find(r, Adornment::AllFree(2)), nullptr);
  EXPECT_DOUBLE_EQ(*m.Find(r, Adornment::AllFree(2)), 60);
  EXPECT_EQ(m.Find(r, Adornment::AllBound(2)), nullptr);
  EXPECT_EQ(m.size(), 1u);
}

TEST(MeasuredStatisticsTest, AdjustBaseItemInjectsMeasuredTruth) {
  Literal lit = *ParseLiteral("r(X, Y)");
  Statistics stats;
  stats.Set(lit.predicate(), RelationStats{100, {100, 100}});
  ConjunctItem item = MakeBaseItem(lit, stats, CostModelOptions{});
  ASSERT_DOUBLE_EQ(item.base_cardinality, 100);

  MeasuredStatistics m;
  m.Set(lit.predicate(), Adornment::AllFree(2), 10);
  m.AdjustBaseItem(&item);
  EXPECT_DOUBLE_EQ(item.base_cardinality, 10);
  // distinct <= cardinality must keep holding under the override.
  for (double d : item.distinct) EXPECT_LE(d, 10);
  PlanEstimate est = item.estimate(Adornment::AllFree(2), 1.0);
  EXPECT_DOUBLE_EQ(est.card, 10);
}

// ---------------------------------------------------------------------------
// End-to-end: exact statistics. Estimates from a freshly collected catalog
// over an equi-join on tree-shaped data are exact, so every node's q-error
// is 1 and re-optimizing under the measured truth changes nothing.

TEST(CalibrationTest, ExactStatisticsGiveUnitQErrorAndZeroRegret) {
  auto program = ParseProgram("gp(X, Z) <- par(X, Y), par(Y, Z).");
  ASSERT_TRUE(program.ok());
  Database db;
  size_t nodes = testing::MakeTreeParentData(3, 4, &db);
  Statistics stats = Statistics::Collect(db);
  Literal goal = *ParseLiteral("gp(" + std::to_string(nodes - 1) + ", Z)");

  OptimizerOptions options;
  Optimizer optimizer(*program, stats, options);
  auto plan = optimizer.Optimize(goal);
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(plan->safe) << plan->unsafe_reason;
  auto tree = BuildProcessingTree(*program, goal);
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE(optimizer.AnnotateTree(tree->get()).ok());

  TreeInterpreter interpreter(*program, &db);
  auto answers = interpreter.Execute(**tree, (*tree)->goal);
  ASSERT_TRUE(answers.ok());

  CalibrationReport report = CalibrationReport::Build(
      **tree, interpreter.profile(), goal.ToString());
  ASSERT_GT(report.sample_count(), 0u);
  EXPECT_NEAR(report.median_q_error(), 1.0, 1e-9);
  EXPECT_NEAR(report.p95_q_error(), 1.0, 1e-9);
  EXPECT_NEAR(report.max_q_error(), 1.0, 1e-9);
  for (const NodeCalibration& nc : report.nodes()) {
    EXPECT_NEAR(nc.q_error, 1.0, 1e-9) << nc.label;
  }

  MeasuredStatistics measured =
      HarvestMeasuredStatistics(**tree, interpreter.profile());
  EXPECT_FALSE(measured.empty());
  RegretAnalysis regret =
      ComputePlanRegret(*program, stats, options, goal, *plan, measured);
  ASSERT_TRUE(regret.computed) << regret.note;
  EXPECT_DOUBLE_EQ(regret.regret(), 0.0);
  EXPECT_DOUBLE_EQ(regret.ratio(), 1.0);
  EXPECT_TRUE(regret.changes.empty());
}

// ---------------------------------------------------------------------------
// End-to-end: a lying catalog. r is claimed tiny (2 rows, it has 60), so
// the optimizer joins r first; the q-error exposes the lie and the regret
// analysis shows hindsight would have started from s.

struct SkewedFixture {
  Result<Program> program = ParseProgram("t(A, C) <- r(A, B), s(B, C).");
  Database db;
  Statistics stats;
  Literal goal = *ParseLiteral("t(A, C)");

  SkewedFixture() {
    for (int i = 0; i < 60; ++i) {
      db.AddFact(Literal::Make(
          "r", {Term::MakeInt(i), Term::MakeInt(i % 3)}));
    }
    for (int j = 0; j < 3; ++j) {
      db.AddFact(Literal::Make("s", {Term::MakeInt(j), Term::MakeInt(j)}));
    }
    stats.Set(ParseLiteral("r(X, Y)")->predicate(), RelationStats{2, {2, 2}});
    stats.Set(ParseLiteral("s(X, Y)")->predicate(), RelationStats{3, {3, 3}});
  }
};

TEST(CalibrationTest, MisestimationYieldsQErrorAboveOneAndPositiveRegret) {
  SkewedFixture fx;
  ASSERT_TRUE(fx.program.ok());

  OptimizerOptions options;
  Optimizer optimizer(*fx.program, fx.stats, options);
  auto plan = optimizer.Optimize(fx.goal);
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(plan->safe);
  // The lie makes r look free to scan: it goes first.
  ASSERT_EQ(plan->rule_orders.at(0), (std::vector<size_t>{0, 1}));

  auto tree = BuildProcessingTree(*fx.program, fx.goal);
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE(optimizer.AnnotateTree(tree->get()).ok());
  TreeInterpreter interpreter(*fx.program, &fx.db);
  auto answers = interpreter.Execute(**tree, (*tree)->goal);
  ASSERT_TRUE(answers.ok());
  EXPECT_EQ(answers->size(), 60u);

  CalibrationReport report = CalibrationReport::Build(
      **tree, interpreter.profile(), fx.goal.ToString());
  // The r scan was estimated at 2 rows and produced 60: q-error 30.
  EXPECT_GT(report.max_q_error(), 5.0);

  MeasuredStatistics measured =
      HarvestMeasuredStatistics(**tree, interpreter.profile());
  const double* r_ff = measured.Find(ParseLiteral("r(X, Y)")->predicate(),
                                     Adornment::AllFree(2));
  ASSERT_NE(r_ff, nullptr);
  EXPECT_DOUBLE_EQ(*r_ff, 60);

  RegretAnalysis regret = ComputePlanRegret(*fx.program, fx.stats, options,
                                            fx.goal, *plan, measured);
  ASSERT_TRUE(regret.computed) << regret.note;
  EXPECT_GT(regret.regret(), 0.0);
  EXPECT_GT(regret.ratio(), 1.0);
  EXPECT_FALSE(regret.changes.empty());
  EXPECT_GE(regret.measured_cost_chosen, regret.measured_cost_hindsight);
}

TEST(CalibrationTest, PinnedConstraintsForceTheGivenOrder) {
  SkewedFixture fx;
  ASSERT_TRUE(fx.program.ok());
  OptimizerOptions options;
  Optimizer optimizer(*fx.program, fx.stats, options);
  auto plan = optimizer.Optimize(fx.goal);
  ASSERT_TRUE(plan.ok());

  PlanConstraints pins;
  pins.rule_orders[0] = {1, 0};  // the order the search rejected
  OptimizerOptions pinned_options;
  pinned_options.pinned = &pins;
  Optimizer pinned_opt(*fx.program, fx.stats, pinned_options);
  auto pinned = pinned_opt.Optimize(fx.goal);
  ASSERT_TRUE(pinned.ok());
  ASSERT_TRUE(pinned->safe);
  EXPECT_EQ(pinned->rule_orders.at(0), (std::vector<size_t>{1, 0}));
  // Costing a pinned plan never beats the search over all orders.
  EXPECT_GE(pinned->TotalCost(), plan->TotalCost());
}

// ---------------------------------------------------------------------------
// The memoization guard (NodeActuals::out_rows): a memo hit replays an
// already-counted result, so re-running a memoized subtree must bump
// memo_hits without re-adding rows.

TEST(CalibrationTest, MemoHitsDoNotDoubleCountMeasuredRows) {
  auto program = ParseProgram("t(X, Y) <- r(X, Y).");
  ASSERT_TRUE(program.ok());
  Database db;
  for (int i = 0; i < 7; ++i) {
    db.AddFact(Literal::Make("r", {Term::MakeInt(i), Term::MakeInt(i + 1)}));
  }
  Statistics stats = Statistics::Collect(db);
  Literal goal = *ParseLiteral("t(X, Y)");
  auto tree = BuildProcessingTree(*program, goal);
  ASSERT_TRUE(tree.ok());
  OptimizerOptions options;
  Optimizer optimizer(*program, stats, options);
  ASSERT_TRUE(optimizer.AnnotateTree(tree->get()).ok());

  TreeInterpreter interpreter(*program, &db);
  auto first = interpreter.Execute(**tree, (*tree)->goal);
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first->size(), 7u);
  // Same node, same goal instance: served from the memo.
  auto second = interpreter.Execute(**tree, (*tree)->goal);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->size(), 7u);

  const NodeActuals* actuals = interpreter.profile().Find(tree->get());
  ASSERT_NE(actuals, nullptr);
  EXPECT_EQ(actuals->executions, 1u);
  EXPECT_EQ(actuals->memo_hits, 1u);
  EXPECT_EQ(actuals->out_rows, 7u);  // NOT 14: the hit must not re-add
  EXPECT_DOUBLE_EQ(actuals->RowsPerExecution(), 7.0);

  // The q-error pairing depends on per-execution rows, so the guard keeps
  // calibration honest under memoization too.
  CalibrationReport report = CalibrationReport::Build(
      **tree, interpreter.profile(), goal.ToString());
  for (const NodeCalibration& nc : report.nodes()) {
    if (nc.memo_hits > 0) EXPECT_NEAR(nc.act_rows, 7.0, 1e-9) << nc.label;
  }
}

// ---------------------------------------------------------------------------
// Export shapes.

TEST(CalibrationTest, JsonAndTextExportsCarryAllSections) {
  SkewedFixture fx;
  ASSERT_TRUE(fx.program.ok());
  OptimizerOptions options;
  Optimizer optimizer(*fx.program, fx.stats, options);
  auto plan = optimizer.Optimize(fx.goal);
  ASSERT_TRUE(plan.ok());
  auto tree = BuildProcessingTree(*fx.program, fx.goal);
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE(optimizer.AnnotateTree(tree->get()).ok());
  TreeInterpreter interpreter(*fx.program, &fx.db);
  ASSERT_TRUE(interpreter.Execute(**tree, (*tree)->goal).ok());

  CalibrationReport report = CalibrationReport::Build(
      **tree, interpreter.profile(), fx.goal.ToString());
  report.set_regret(ComputePlanRegret(
      *fx.program, fx.stats, options, fx.goal, *plan,
      HarvestMeasuredStatistics(**tree, interpreter.profile())));

  JsonWriter json;
  report.WriteJson(json);
  const std::string j = json.str();
  for (const char* key :
       {"\"query\"", "\"nodes\"", "\"label\"", "\"kind\"", "\"est_rows\"",
        "\"act_rows\"", "\"q_error\"", "\"aggregate\"", "\"median_q_error\"",
        "\"p95_q_error\"", "\"by_kind\"", "\"by_method\"", "\"regret\"",
        "\"measured_cost_chosen\"", "\"measured_cost_hindsight\"",
        "\"ratio\"", "\"changes\""}) {
    EXPECT_NE(j.find(key), std::string::npos) << "missing " << key;
  }

  const std::string text = report.ToString();
  EXPECT_NE(text.find("CALIBRATION"), std::string::npos);
  EXPECT_NE(text.find("Q-ERR"), std::string::npos);
  EXPECT_NE(text.find("REGRET"), std::string::npos);
  EXPECT_NE(text.find("aggregate:"), std::string::npos);
}

TEST(CalibrationTest, MetricsExportPopulatesRegistry) {
  SkewedFixture fx;
  ASSERT_TRUE(fx.program.ok());
  OptimizerOptions options;
  Optimizer optimizer(*fx.program, fx.stats, options);
  auto tree = BuildProcessingTree(*fx.program, fx.goal);
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE(optimizer.AnnotateTree(tree->get()).ok());
  TreeInterpreter interpreter(*fx.program, &fx.db);
  ASSERT_TRUE(interpreter.Execute(**tree, (*tree)->goal).ok());
  CalibrationReport report = CalibrationReport::Build(
      **tree, interpreter.profile(), fx.goal.ToString());

  MetricsRegistry metrics;
  report.ExportTo(&metrics);
  EXPECT_EQ(metrics.counter_value("calibration.nodes"),
            report.sample_count());
  const Histogram* h = metrics.find_histogram("calibration.q_error");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), report.sample_count());
  report.ExportTo(nullptr);  // must be a no-op, not a crash
}

// ---------------------------------------------------------------------------
// Facade: EXPLAIN ANALYZE carries the new sections and rejects unsafe plans
// before execution.

TEST(CalibrationTest, ExplainAnalyzeIncludesCalibrationAndRegret) {
  LdlSystem sys;
  ASSERT_TRUE(sys.LoadProgram(R"(
    anc(X, Y) <- par(X, Y).
    anc(X, Y) <- par(X, Z), anc(Z, Y).
    par(bart, homer).  par(homer, abe).  par(lisa, homer).
  )").ok());
  auto analyzed = sys.AnalyzeCalibrated("anc(bart, Y)");
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  EXPECT_NE(analyzed->text.find("CALIBRATION"), std::string::npos);
  EXPECT_NE(analyzed->text.find("REGRET"), std::string::npos);
  EXPECT_GT(analyzed->report.sample_count(), 0u);
  ASSERT_TRUE(analyzed->report.regret().computed)
      << analyzed->report.regret().note;

  auto text = sys.ExplainAnalyze("anc(bart, Y)");
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text->find("CALIBRATION"), std::string::npos);
}

TEST(CalibrationTest, ExplainAnalyzeRejectsUnsafePlansBeforeExecution) {
  LdlSystem sys;
  // A comparison with both sides free is not effectively computable under
  // any body order, so the free query form has no safe plan.
  ASSERT_TRUE(sys.LoadProgram("bigger(X, Y) <- X > Y.").ok());
  auto analyzed = sys.ExplainAnalyze("bigger(X, Y)");
  ASSERT_FALSE(analyzed.ok());
  EXPECT_EQ(analyzed.status().code(), StatusCode::kUnsafe);
}

// ---------------------------------------------------------------------------
// The feedback loop closing: planning under the catalog's blended overlay
// must shrink the estimate/actual gap that stale statistics opened.

TEST(CalibrationTest, FeedbackModeReducesMedianQErrorUnderStaleStatistics) {
  LdlSystem sys;
  ASSERT_TRUE(sys.LoadProgram(R"(
    t(A, C) <- r(A, B), s(B, C).
    r(100, 0). r(101, 1).
    s(0, 0). s(1, 1). s(2, 2).
  )").ok());
  // Collect statistics while r is tiny (2 rows)...
  EXPECT_EQ(sys.statistics().Get(
                ParseLiteral("r(X, Y)")->predicate()).cardinality, 2);
  // ...then grow r 30x behind the statistics' back (bulk loads through
  // database() deliberately do not refresh).
  for (int i = 0; i < 58; ++i) {
    sys.database()->AddFact(
        Literal::Make("r", {Term::MakeInt(i), Term::MakeInt(i % 3)}));
  }

  // Catalog without a drift detector: the epoch must NOT bump, or the
  // second run would re-collect statistics and fix the estimates for the
  // non-feedback side too, leaving nothing to compare.
  StatisticsCatalog catalog;
  sys.set_feedback(&catalog, nullptr);

  auto stale = sys.AnalyzeCalibrated("t(A, C)");
  ASSERT_TRUE(stale.ok()) << stale.status().ToString();
  const double median_stale = stale->report.median_q_error();
  // r estimated at 2 rows, measured 60: the gap is real.
  EXPECT_GT(stale->report.max_q_error(), 5.0);
  EXPECT_FALSE(catalog.empty());

  OptimizerOptions options = sys.options();
  options.feedback = true;
  sys.set_options(options);
  auto fed = sys.AnalyzeCalibrated("t(A, C)");
  ASSERT_TRUE(fed.ok()) << fed.status().ToString();
  EXPECT_LT(fed->report.median_q_error(), median_stale);
  EXPECT_LT(fed->report.max_q_error(), stale->report.max_q_error());
  sys.set_feedback(nullptr, nullptr);
}

}  // namespace
}  // namespace ldl
