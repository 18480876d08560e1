// Tests for the feedback loop (src/obs/feedback.h): the decayed-mean merge
// math of the StatisticsCatalog, the blend ramp of the planning overlay,
// the schema-stable JSON export (byte-identical round trip, pinned against
// tests/golden/stats_catalog.golden.json), import validation, the drift
// gate's trip/bump/dedup behavior, and the end-to-end LdlSystem wiring
// (harvest on Query, answers unchanged under feedback planning).

#include "obs/feedback.h"

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <sstream>
#include <string>

#include "ast/parser.h"
#include "ldl/ldl.h"
#include "obs/metrics.h"
#include "storage/statistics.h"

#ifndef LDLOPT_SOURCE_DIR
#error "tests/CMakeLists.txt must define LDLOPT_SOURCE_DIR"
#endif

namespace ldl {
namespace {

PredicateId Pred(const std::string& literal) {
  return ParseLiteral(literal)->predicate();
}

TEST(StatisticsCatalogTest, ObserveAndLookup) {
  StatisticsCatalog catalog;
  EXPECT_TRUE(catalog.empty());
  catalog.Observe(Pred("par(X, Y)"), Adornment::AllFree(2), 8, 1);

  CatalogEntry entry;
  ASSERT_TRUE(catalog.Lookup(Pred("par(X, Y)"), Adornment::AllFree(2),
                             &entry));
  EXPECT_DOUBLE_EQ(entry.card, 8);
  EXPECT_DOUBLE_EQ(entry.weight, 1);
  EXPECT_EQ(entry.observations, 1u);
  EXPECT_EQ(entry.first_epoch, 1u);
  EXPECT_EQ(entry.last_epoch, 1u);
  EXPECT_EQ(catalog.size(), 1u);
  EXPECT_EQ(catalog.total_observations(), 1u);
  EXPECT_FALSE(catalog.Lookup(Pred("par(X, Y)"), Adornment::AllBound(2),
                              &entry));
  EXPECT_FALSE(catalog.Lookup(Pred("anc(X, Y)"), Adornment::AllFree(2),
                              &entry));
}

TEST(StatisticsCatalogTest, DecayedRunningMean) {
  StatisticsCatalog catalog;  // decay = 0.9
  const PredicateId p = Pred("p(X)");
  catalog.Observe(p, Adornment::AllFree(1), 10, 1);
  catalog.Observe(p, Adornment::AllFree(1), 20, 2);

  CatalogEntry entry;
  ASSERT_TRUE(catalog.Lookup(p, Adornment::AllFree(1), &entry));
  // aged = 0.9 * 1; card = (0.9 * 10 + 20) / 1.9; weight = 1.9.
  EXPECT_DOUBLE_EQ(entry.weight, 1.9);
  EXPECT_DOUBLE_EQ(entry.card, 29.0 / 1.9);
  EXPECT_EQ(entry.observations, 2u);
  EXPECT_EQ(entry.first_epoch, 1u);
  EXPECT_EQ(entry.last_epoch, 2u);

  // Weight converges toward 1 / (1 - decay) = 10, never past it.
  for (int i = 0; i < 200; ++i) {
    catalog.Observe(p, Adornment::AllFree(1), 20, 3);
  }
  ASSERT_TRUE(catalog.Lookup(p, Adornment::AllFree(1), &entry));
  EXPECT_LT(entry.weight, 10.0);
  EXPECT_GT(entry.weight, 9.9);
  // The stale 10 has decayed to irrelevance; the mean sits at 20.
  EXPECT_NEAR(entry.card, 20.0, 1e-6);
}

TEST(StatisticsCatalogTest, RejectsNonFiniteAndNegativeObservations) {
  StatisticsCatalog catalog;
  const PredicateId p = Pred("p(X)");
  catalog.Observe(p, Adornment::AllFree(1), -1, 1);
  catalog.Observe(p, Adornment::AllFree(1),
                  std::numeric_limits<double>::quiet_NaN(), 1);
  catalog.Observe(p, Adornment::AllFree(1),
                  std::numeric_limits<double>::infinity(), 1);
  EXPECT_TRUE(catalog.empty());
  catalog.Observe(p, Adornment::AllFree(1), 0, 1);  // zero rows is real data
  EXPECT_EQ(catalog.size(), 1u);
}

TEST(StatisticsCatalogTest, MaxEntriesCapDropsNewKeysOnly) {
  FeedbackOptions options;
  options.max_entries = 1;
  StatisticsCatalog catalog(options);
  catalog.Observe(Pred("a(X)"), Adornment::AllFree(1), 1, 1);
  catalog.Observe(Pred("b(X)"), Adornment::AllFree(1), 2, 1);  // dropped
  catalog.Observe(Pred("a(X)"), Adornment::AllFree(1), 3, 1);  // merged
  EXPECT_EQ(catalog.size(), 1u);
  EXPECT_EQ(catalog.dropped_observations(), 1u);
  EXPECT_EQ(catalog.total_observations(), 2u);

  CatalogEntry entry;
  ASSERT_TRUE(catalog.Lookup(Pred("a(X)"), Adornment::AllFree(1), &entry));
  EXPECT_EQ(entry.observations, 2u);
}

TEST(StatisticsCatalogTest, BlendedOverlayRampsTowardMeasured) {
  Statistics stats;
  stats.Set(Pred("base(X, Y)"), RelationStats{100, {100, 100}});

  StatisticsCatalog catalog;  // blend_weight = 2
  catalog.Observe(Pred("base(X, Y)"), Adornment::AllFree(2), 10, 1);

  MeasuredStatistics overlay = catalog.BlendedOverlay(stats);
  const double* blended =
      overlay.Find(Pred("base(X, Y)"), Adornment::AllFree(2));
  ASSERT_NE(blended, nullptr);
  // One observation: blend = 1 / (1 + 2) = 1/3 measured, 2/3 estimate.
  EXPECT_NEAR(*blended, (1.0 / 3) * 10 + (2.0 / 3) * 100, 1e-9);

  // More observations shift the blend toward the measurement.
  for (int i = 0; i < 50; ++i) {
    catalog.Observe(Pred("base(X, Y)"), Adornment::AllFree(2), 10, 1);
  }
  overlay = catalog.BlendedOverlay(stats);
  blended = overlay.Find(Pred("base(X, Y)"), Adornment::AllFree(2));
  ASSERT_NE(blended, nullptr);
  EXPECT_LT(*blended, 30);
  EXPECT_GT(*blended, 10);
}

TEST(StatisticsCatalogTest, BlendedOverlayMeasuredOnlyForDerivedAndAdorned) {
  Statistics stats;
  stats.Set(Pred("base(X, Y)"), RelationStats{100, {100, 100}});

  StatisticsCatalog catalog;
  // Derived predicate: stats has no row count, so no estimate to blend.
  catalog.Observe(Pred("anc(X, Y)"), Adornment::AllFree(2), 42, 1);
  // Adorned binding of a known base predicate: also measured-only.
  Adornment bf(2);
  bf.SetBound(0, true);
  catalog.Observe(Pred("base(X, Y)"), bf, 7, 1);

  MeasuredStatistics overlay = catalog.BlendedOverlay(stats);
  const double* anc = overlay.Find(Pred("anc(X, Y)"), Adornment::AllFree(2));
  ASSERT_NE(anc, nullptr);
  EXPECT_DOUBLE_EQ(*anc, 42);
  const double* bound = overlay.Find(Pred("base(X, Y)"), bf);
  ASSERT_NE(bound, nullptr);
  EXPECT_DOUBLE_EQ(*bound, 7);
  // Never-observed predicates are absent: the cost model falls back to its
  // estimate.
  EXPECT_EQ(overlay.Find(Pred("other(X)"), Adornment::AllFree(1)), nullptr);
}

TEST(StatisticsCatalogTest, BlendedOverlaySkipsEntriesBelowMinWeight) {
  FeedbackOptions options;
  options.min_weight = 5.0;  // unreachable with one observation
  StatisticsCatalog catalog(options);
  Statistics stats;
  catalog.Observe(Pred("anc(X, Y)"), Adornment::AllFree(2), 42, 1);
  MeasuredStatistics overlay = catalog.BlendedOverlay(stats);
  EXPECT_EQ(overlay.Find(Pred("anc(X, Y)"), Adornment::AllFree(2)), nullptr);
}

void FillGoldenCatalog(StatisticsCatalog* catalog) {
  catalog->Observe(Pred("par(X, Y)"), Adornment::AllFree(2), 8, 1);
  catalog->Observe(Pred("par(X, Y)"), Adornment::AllFree(2), 10, 2);
  Adornment bf(2);
  bf.SetBound(0, true);
  catalog->Observe(Pred("anc(X, Y)"), bf, 3, 2);
  catalog->Observe(Pred("anc(X, Y)"), Adornment::AllFree(2), 12.5, 2);
}

TEST(StatisticsCatalogTest, JsonExportMatchesGolden) {
  const std::string path =
      std::string(LDLOPT_SOURCE_DIR) + "/tests/golden/stats_catalog.golden.json";
  std::ifstream in(path);
  ASSERT_TRUE(in) << "missing golden " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::string golden = buffer.str();
  // Tolerate a trailing newline in the checked-in file.
  while (!golden.empty() && golden.back() == '\n') golden.pop_back();

  StatisticsCatalog catalog;
  FillGoldenCatalog(&catalog);
  EXPECT_EQ(catalog.ToJson(), golden)
      << "catalog export schema drifted; update the golden deliberately";
}

TEST(StatisticsCatalogTest, JsonRoundTripIsByteIdentical) {
  StatisticsCatalog original;
  FillGoldenCatalog(&original);
  const std::string exported = original.ToJson();
  StatisticsCatalog imported;
  ASSERT_TRUE(imported.MergeJson(exported).ok());
  EXPECT_EQ(imported.ToJson(), exported);
  // Counts survive the trip.
  EXPECT_EQ(imported.size(), original.size());
  EXPECT_EQ(imported.total_observations(), original.total_observations());
}

TEST(StatisticsCatalogTest, MergeJsonDecayMergesIntoExistingEntries) {
  StatisticsCatalog catalog;  // decay = 0.9
  const PredicateId p = Pred("p(X)");
  catalog.Observe(p, Adornment::AllFree(1), 10, 1);

  StatisticsCatalog other;
  other.Observe(p, Adornment::AllFree(1), 30, 4);
  ASSERT_TRUE(catalog.MergeJson(other.ToJson()).ok());

  CatalogEntry entry;
  ASSERT_TRUE(catalog.Lookup(p, Adornment::AllFree(1), &entry));
  // total = 0.9 * 1 + 1 = 1.9; card = (0.9 * 10 + 1 * 30) / 1.9.
  EXPECT_DOUBLE_EQ(entry.weight, 1.9);
  EXPECT_DOUBLE_EQ(entry.card, 39.0 / 1.9);
  EXPECT_EQ(entry.observations, 2u);
  EXPECT_EQ(entry.first_epoch, 1u);
  EXPECT_EQ(entry.last_epoch, 4u);
}

TEST(StatisticsCatalogTest, MergeJsonRejectsBadInputsWithoutMutating) {
  StatisticsCatalog catalog;
  catalog.Observe(Pred("keep(X)"), Adornment::AllFree(1), 1, 1);
  const std::string before = catalog.ToJson();

  // Future schema version.
  EXPECT_FALSE(catalog.MergeJson("{\"version\":2,\"entries\":[]}").ok());
  // Adornment length disagrees with arity.
  EXPECT_FALSE(
      catalog
          .MergeJson("{\"version\":1,\"entries\":[{\"predicate\":\"p\","
                     "\"arity\":2,\"adornment\":\"f\",\"card\":1,"
                     "\"weight\":1,\"observations\":1}]}")
          .ok());
  // Non-finite cardinality.
  EXPECT_FALSE(
      catalog
          .MergeJson("{\"version\":1,\"entries\":[{\"predicate\":\"p\","
                     "\"arity\":1,\"adornment\":\"f\",\"card\":nan,"
                     "\"weight\":1,\"observations\":1}]}")
          .ok());
  // Not JSON at all.
  EXPECT_FALSE(catalog.MergeJson("plainly not json").ok());
  // A bad document must not partially apply.
  EXPECT_FALSE(
      catalog
          .MergeJson("{\"version\":1,\"entries\":[{\"predicate\":\"ok\","
                     "\"arity\":1,\"adornment\":\"f\",\"card\":1,"
                     "\"weight\":1,\"observations\":1},{\"predicate\":\"\","
                     "\"arity\":1,\"adornment\":\"f\",\"card\":1,"
                     "\"weight\":1,\"observations\":1}]}")
          .ok());
  EXPECT_EQ(catalog.ToJson(), before);

  // Unknown keys are ignored (forward compatibility).
  EXPECT_TRUE(
      catalog
          .MergeJson("{\"version\":1,\"future\":true,\"entries\":["
                     "{\"predicate\":\"q\",\"arity\":1,\"adornment\":\"f\","
                     "\"card\":2,\"weight\":1,\"observations\":1,"
                     "\"novel_field\":\"x\"}]}")
          .ok());
  CatalogEntry entry;
  EXPECT_TRUE(catalog.Lookup(Pred("q(X)"), Adornment::AllFree(1), &entry));
}

// Malformed scalars used to be read as a prefix ("2x" as 2) or as zero;
// valid escapes and unknown nested values used to be rejected.
TEST(StatisticsCatalogTest, MergeJsonReadsFieldsStrictly) {
  auto doc = [](const std::string& entry_fields) {
    return "{\"version\":1,\"entries\":[{\"predicate\":\"p\","
           "\"adornment\":\"f\",\"weight\":1,\"observations\":1," +
           entry_fields + "}]}";
  };
  StatisticsCatalog catalog;
  EXPECT_FALSE(catalog.MergeJson(doc("\"arity\":2x,\"card\":1")).ok());
  EXPECT_FALSE(catalog.MergeJson(doc("\"arity\":1,\"card\":7e")).ok());
  EXPECT_FALSE(catalog.MergeJson(doc("\"arity\":-1,\"card\":1")).ok());
  EXPECT_FALSE(catalog.MergeJson(doc("\"arity\":1,\"card\":\"1\"")).ok());
  EXPECT_FALSE(catalog.MergeJson("{\"version\":abc,\"entries\":[]}").ok());
  EXPECT_FALSE(catalog.MergeJson("{\"version\":1.5,\"entries\":[]}").ok());
  EXPECT_TRUE(catalog.empty());

  ASSERT_TRUE(catalog
                  .MergeJson("{\"version\":1,\"future\":{\"nested\":[1,{}]},"
                             "\"entries\":[{\"predicate\":\"\\u0070\","
                             "\"arity\":1,\"adornment\":\"f\",\"card\":7e0,"
                             "\"weight\":1,\"observations\":1,"
                             "\"novel\":{\"deep\":[true,null]}}]}")
                  .ok());
  CatalogEntry entry;
  ASSERT_TRUE(catalog.Lookup(Pred("p(X)"), Adornment::AllFree(1), &entry));
  EXPECT_EQ(entry.card, 7);
}

TEST(StatisticsCatalogTest, ExportToSetsGauges) {
  MetricsRegistry metrics;
  StatisticsCatalog catalog;
  catalog.Observe(Pred("p(X)"), Adornment::AllFree(1), 5, 1);
  catalog.ExportTo(&metrics);
  EXPECT_DOUBLE_EQ(metrics.gauge("feedback.catalog_entries")->value(), 1);
  EXPECT_DOUBLE_EQ(metrics.gauge("feedback.observations")->value(), 1);
  EXPECT_DOUBLE_EQ(metrics.gauge("feedback.dropped_observations")->value(), 0);
  catalog.ExportTo(nullptr);  // must be a no-op, not a crash
}

TEST(DriftDetectorTest, TripsBumpsEpochOnceAndDedupsPerEpoch) {
  Statistics stats;
  stats.Set(Pred("par(X, Y)"), RelationStats{10, {10, 10}});
  stats.Set(Pred("emp(X, Y)"), RelationStats{20, {20, 20}});
  stats.set_epoch(1);

  StatisticsCatalog catalog;
  // Two keys diverge past the default threshold 4.
  catalog.Observe(Pred("par(X, Y)"), Adornment::AllFree(2), 1000, 1);
  catalog.Observe(Pred("emp(X, Y)"), Adornment::AllFree(2), 400, 1);

  MetricsRegistry metrics;
  DriftDetector detector;
  EXPECT_EQ(detector.Check(catalog, &stats, &metrics), 2u);
  // One epoch bump no matter how many keys tripped.
  EXPECT_EQ(stats.epoch(), 2u);
  EXPECT_EQ(detector.drift_events(), 2u);
  EXPECT_DOUBLE_EQ(detector.last_max_q_error(), 100.0);
  EXPECT_EQ(metrics.counter("feedback.drift_events")->value(), 2u);

  // Same epoch, same divergence: deduplicated, no second bump.
  EXPECT_EQ(detector.Check(catalog, &stats, &metrics), 0u);
  EXPECT_EQ(stats.epoch(), 2u);

  // Statistics refreshed to the measured truth: the gate stays quiet.
  stats.Set(Pred("par(X, Y)"), RelationStats{1000, {1000, 1000}});
  stats.Set(Pred("emp(X, Y)"), RelationStats{400, {400, 400}});
  stats.set_epoch(3);
  EXPECT_EQ(detector.Check(catalog, &stats, &metrics), 0u);
  EXPECT_EQ(stats.epoch(), 3u);

  // A fresh divergence at the new epoch trips again.
  stats.Set(Pred("par(X, Y)"), RelationStats{2, {2, 2}});
  EXPECT_EQ(detector.Check(catalog, &stats, &metrics), 1u);
  EXPECT_EQ(stats.epoch(), 4u);
  EXPECT_EQ(detector.drift_events(), 3u);

  const std::vector<DriftEvent> history = detector.history();
  ASSERT_EQ(history.size(), 3u);
  EXPECT_EQ(history.back().old_epoch, 3u);
  EXPECT_EQ(history.back().new_epoch, 4u);
  EXPECT_DOUBLE_EQ(history.back().measured, 1000);
  EXPECT_DOUBLE_EQ(history.back().estimated, 2);
}

TEST(DriftDetectorTest, IgnoresColdAdornedAndStatlessEntries) {
  Statistics stats;
  stats.Set(Pred("base(X, Y)"), RelationStats{10, {10, 10}});
  stats.set_epoch(1);

  FeedbackOptions options;
  options.hot_observations = 2;
  StatisticsCatalog catalog(options);
  DriftDetector detector(options);

  // Cold: only one observation against hot_observations = 2.
  catalog.Observe(Pred("base(X, Y)"), Adornment::AllFree(2), 1000, 1);
  // Adorned: divergence under a binding is not a statistics defect.
  Adornment bf(2);
  bf.SetBound(0, true);
  catalog.Observe(Pred("base(X, Y)"), bf, 1000, 1);
  catalog.Observe(Pred("base(X, Y)"), bf, 1000, 1);
  // Derived predicate: stats has no row for it (default-stats placeholder).
  catalog.Observe(Pred("anc(X, Y)"), Adornment::AllFree(2), 1000, 1);
  catalog.Observe(Pred("anc(X, Y)"), Adornment::AllFree(2), 1000, 1);

  EXPECT_EQ(detector.Check(catalog, &stats, nullptr), 0u);
  EXPECT_EQ(stats.epoch(), 1u);

  // The second observation makes the all-free entry hot: now it trips.
  catalog.Observe(Pred("base(X, Y)"), Adornment::AllFree(2), 1000, 1);
  EXPECT_EQ(detector.Check(catalog, &stats, nullptr), 1u);
  EXPECT_EQ(stats.epoch(), 2u);
}

TEST(RenderStatsJsonTest, RendersCatalogDriftAndCoverage) {
  Statistics stats;
  stats.Set(Pred("par(X, Y)"), RelationStats{10, {10, 10}});
  stats.Set(Pred("unseen(X)"), RelationStats{5, {5}});
  stats.set_epoch(1);

  StatisticsCatalog catalog;
  catalog.Observe(Pred("par(X, Y)"), Adornment::AllFree(2), 1000, 1);
  DriftDetector detector;
  detector.Check(catalog, &stats, nullptr);

  const std::string json = RenderStatsJson(&catalog, &detector, &stats);
  EXPECT_NE(json.find("\"stats_epoch\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"drift_events\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"predicate\":\"par\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"q_error\":100"), std::string::npos) << json;
  EXPECT_NE(json.find("\"unobserved\":[{\"predicate\":\"unseen\""),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"drift_history\":["), std::string::npos) << json;

  // Null pointers degrade gracefully to an empty-ish document.
  const std::string empty = RenderStatsJson(nullptr, nullptr, nullptr);
  EXPECT_EQ(empty.front(), '{');
  EXPECT_EQ(empty.back(), '}');
}

// End-to-end: a query under an attached catalog harvests the goal's answer
// count and (for full bottom-up evaluation) derived fixpoint sizes, and
// feedback-mode planning returns the same answers.
TEST(FeedbackIntegrationTest, QueryHarvestsAndFeedbackPreservesAnswers) {
  const std::string program =
      "par(a, b). par(b, c). par(c, d).\n"
      "anc(X, Y) <- par(X, Y).\n"
      "anc(X, Y) <- par(X, Z), anc(Z, Y).\n";

  OptimizerOptions options;
  LdlSystem sys(options);
  ASSERT_TRUE(sys.LoadProgram(program).ok());

  StatisticsCatalog catalog;
  DriftDetector detector;
  sys.set_feedback(&catalog, &detector);

  auto baseline = sys.Query("anc(X, Y)");
  ASSERT_TRUE(baseline.ok());
  EXPECT_EQ(baseline->answers.size(), 6u);
  EXPECT_FALSE(catalog.empty());
  CatalogEntry entry;
  EXPECT_TRUE(catalog.Lookup(Pred("anc(X, Y)"), Adornment::AllFree(2),
                             &entry));

  options.feedback = true;
  options.verify_plans = true;
  sys.set_options(options);
  auto fed = sys.Query("anc(X, Y)");
  ASSERT_TRUE(fed.ok());
  EXPECT_EQ(fed->answers.size(), baseline->answers.size());
  sys.set_feedback(nullptr, nullptr);
}

}  // namespace
}  // namespace ldl
