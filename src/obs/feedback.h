#ifndef LDLOPT_OBS_FEEDBACK_H_
#define LDLOPT_OBS_FEEDBACK_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "base/status.h"
#include "graph/binding.h"
#include "obs/metrics.h"
#include "optimizer/cost_model.h"
#include "storage/statistics.h"

namespace ldl {

/// The feedback loop that closes observation back into planning.
///
/// Every executed query measures real cardinalities — the goal's answer
/// count under its binding, the fixpoint sizes of derived predicates, the
/// per-(predicate, adornment) actuals an EXPLAIN ANALYZE harvests
/// (obs/calibration.h). Until now those measurements were reported and then
/// discarded. The **StatisticsCatalog** accumulates them across queries
/// under exponential decay; the **DriftDetector** compares the accumulated
/// truth against the optimizer's current `Statistics` and, when the two
/// disagree past a q-error threshold on a hot predicate, bumps the
/// statistics epoch — the invalidation signal a plan cache keyed by
/// (signature, adornment, epoch) consumes (ROADMAP item 3). With
/// `OptimizerOptions::feedback` set, planning itself consults the catalog
/// as a blended measured-over-estimated overlay.

/// Tuning knobs of the catalog and the drift gate.
struct FeedbackOptions {
  /// Per-merge exponential decay: an entry's weight is multiplied by this
  /// before each new observation folds in, so a stale measurement's
  /// influence halves roughly every log(0.5)/log(decay) ~ 6.6 observations
  /// at the default.
  double decay = 0.9;
  /// Confidence ramp of the blend: a catalog entry with accumulated weight
  /// w contributes w / (w + blend_weight) of the blended cardinality, the
  /// estimate the rest. One observation -> 1/3 measured; weight -> inf
  /// converges to measured-only.
  double blend_weight = 2.0;
  /// Adorned (per-binding) entries override the estimate outright instead
  /// of blending (there is no catalog estimate to blend against); they must
  /// have at least this much accumulated weight first.
  double min_weight = 0.5;
  /// Drift gate: an all-free entry for a predicate with real statistics
  /// whose q-error (max(est/act, act/est)) crosses this trips the detector.
  double drift_q_threshold = 4.0;
  /// An entry is "hot" (eligible for the drift gate) once it has this many
  /// observations. 1 by default so a single analyzed pass — or an imported
  /// catalog — is already actionable.
  uint64_t hot_observations = 1;
  /// Hard cap on distinct (predicate, adornment) keys; observations for new
  /// keys past the cap are dropped (counted in dropped_observations).
  size_t max_entries = 4096;
};

/// One accumulated measurement stream.
struct CatalogEntry {
  double card = 0;       ///< decayed mean of the observed cardinalities
  double weight = 0;     ///< sum of decayed observation weights (<= 1/(1-decay))
  uint64_t observations = 0;
  uint64_t first_epoch = 0;  ///< stats epoch of the first observation
  uint64_t last_epoch = 0;   ///< stats epoch of the latest observation
};

/// Accumulates measured per-(predicate, adornment) cardinalities across
/// queries. Thread-safe: the serving thread renders /stats while the query
/// thread observes. Cardinalities follow MeasuredStatistics semantics —
/// per binding instance, so the all-free entry is the predicate's total
/// size.
class StatisticsCatalog {
 public:
  explicit StatisticsCatalog(FeedbackOptions options = {})
      : options_(options) {}

  /// Folds one measured cardinality into the entry for (pred, adn):
  ///   card   <- (decay * weight * card + observed) / (decay * weight + 1)
  ///   weight <- decay * weight + 1
  /// i.e. an exponentially-decayed running mean; `epoch` stamps the
  /// observation's statistics generation.
  void Observe(const PredicateId& pred, const Adornment& adn, double card,
               uint64_t epoch);

  /// Folds every entry of a harvested overlay (HarvestMeasuredStatistics).
  void ObserveMeasured(const MeasuredStatistics& measured, uint64_t epoch);

  /// Copies the entry for (pred, adn) into *out; false when never observed.
  bool Lookup(const PredicateId& pred, const Adornment& adn,
              CatalogEntry* out) const;

  size_t size() const;
  bool empty() const { return size() == 0; }
  uint64_t total_observations() const;
  uint64_t dropped_observations() const;

  /// Sorted snapshot of every (key, entry) pair.
  std::vector<std::pair<AdornedPredicate, CatalogEntry>> Entries() const;

  /// The planning overlay: for all-free entries of predicates `stats`
  /// really knows, the blended cardinality
  ///   blend * measured + (1 - blend) * estimate,  blend = w / (w + k);
  /// everything else (adorned bindings, derived predicates) is measured-only
  /// once past min_weight. Predicates the catalog never observed are simply
  /// absent — MeasuredStatistics::Find returns nullptr and the cost model
  /// keeps its estimate, which is the required fallback behavior.
  MeasuredStatistics BlendedOverlay(const Statistics& stats) const;

  /// Schema-stable JSON export (version, options, sorted entries):
  ///   {"version":1,"decay":0.9,"entries":[{"predicate":"par","arity":2,
  ///    "adornment":"ff","card":8,"weight":1,"observations":1,
  ///    "first_epoch":1,"last_epoch":1}]}
  /// Doubles round-trip exactly; entries are sorted by (predicate,
  /// adornment) so equal catalogs serialize byte-identically.
  std::string ToJson() const;

  /// Parses a ToJson export. Unknown keys are skipped whatever their value
  /// (forward compatibility); a known key whose value does not fit its
  /// field, or a version above 1, is rejected. The catalog's own options_
  /// are kept — "decay" in the file is informational.
  Status MergeJson(const std::string& text);

  Status ExportFile(const std::string& path) const;
  Status ImportFile(const std::string& path);

  /// Gauges: feedback.catalog_entries, feedback.observations,
  /// feedback.dropped_observations. No-op on nullptr.
  void ExportTo(MetricsRegistry* metrics) const;

  const FeedbackOptions& options() const { return options_; }

 private:
  mutable std::mutex mu_;
  FeedbackOptions options_;
  /// Ordered so snapshots and exports are deterministically sorted.
  std::map<AdornedPredicate, CatalogEntry> entries_;
  uint64_t total_observations_ = 0;
  uint64_t dropped_observations_ = 0;
};

/// One detected estimate-vs-measurement divergence.
struct DriftEvent {
  AdornedPredicate key;
  double measured = 0;   ///< catalog cardinality at detection time
  double estimated = 0;  ///< Statistics cardinality it diverged from
  double q_error = 1;
  uint64_t old_epoch = 0;  ///< stats epoch before the bump
  uint64_t new_epoch = 0;  ///< stats epoch after the bump
};

/// Compares catalog truth against the optimizer's current statistics and
/// bumps the statistics epoch when they diverge. Only *hot all-free*
/// entries of predicates `stats` actually has rows for participate:
/// derived predicates cost through the default-stats fallback, so their
/// "estimate" is a placeholder that would perpetually trip the gate.
///
/// Each key trips at most once per statistics epoch — after the bump the
/// epoch differs, and the owner is expected to refresh statistics (which
/// collapses the q-error) before the key can trip again.
class DriftDetector {
 public:
  explicit DriftDetector(FeedbackOptions options = {}) : options_(options) {}

  /// Scans `catalog` against `*stats`. When at least one hot all-free
  /// entry's q-error crosses drift_q_threshold, bumps stats->epoch() by one
  /// (a single bump no matter how many keys tripped), appends DriftEvents,
  /// and increments the feedback.drift_events counter. Returns the number
  /// of keys that newly tripped (0 = no drift).
  size_t Check(const StatisticsCatalog& catalog, Statistics* stats,
               MetricsRegistry* metrics = nullptr);

  uint64_t drift_events() const;
  /// Max q-error over the checked keys of the most recent Check (1 when
  /// nothing was checked).
  double last_max_q_error() const;
  /// Bounded event history, oldest first (the /stats "epoch history").
  std::vector<DriftEvent> history() const;

  const FeedbackOptions& options() const { return options_; }

 private:
  static constexpr size_t kMaxHistory = 64;

  mutable std::mutex mu_;
  FeedbackOptions options_;
  uint64_t drift_events_ = 0;
  double last_max_q_ = 1.0;
  /// Re-trip dedup: the epoch a key last tripped at (post-bump value).
  std::map<AdornedPredicate, uint64_t> tripped_epoch_;
  std::vector<DriftEvent> history_;
};

/// JSON body of the stats server's /stats route: the current statistics
/// epoch, catalog entries with their live estimate and q-error, predicates
/// the statistics know but the catalog has never observed (coverage gaps),
/// and the drift-event history. Any of the pointers may be null.
std::string RenderStatsJson(const StatisticsCatalog* catalog,
                            const DriftDetector* drift,
                            const Statistics* stats);

}  // namespace ldl

#endif  // LDLOPT_OBS_FEEDBACK_H_
