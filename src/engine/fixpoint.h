#ifndef LDLOPT_ENGINE_FIXPOINT_H_
#define LDLOPT_ENGINE_FIXPOINT_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "ast/program.h"
#include "base/json.h"
#include "base/status.h"
#include "engine/rule_eval.h"
#include "obs/context.h"
#include "storage/database.h"

namespace ldl {

/// The recursive-query implementation methods the optimizer chooses among
/// at CC nodes (paper section 7.3): naive/seminaive fixpoint for free
/// query forms, Magic Sets [BMSU 85] and generalized Counting [SZ 86] for
/// bound query forms.
enum class RecursionMethod {
  kNaive,
  kSemiNaive,
  kMagic,
  kCounting,
};

const char* RecursionMethodToString(RecursionMethod method);

struct FixpointOptions {
  /// Hard cap on fixpoint rounds per clique; tripping it means the program
  /// is (or behaves) unsafe.
  size_t max_iterations = 1'000'000;
  /// Cap on the cumulative derivations (head tuples produced, before dedup)
  /// of one EvaluateProgram call, summed over every rule firing of every
  /// clique; exceeding it aborts with kResourceExhausted.
  size_t max_derivations = 200'000'000;
  /// Body evaluation order per rule index (from the optimizer's chosen
  /// permutations); missing entries use textual order.
  std::unordered_map<size_t, std::vector<size_t>> rule_orders;
  /// Observability handle: spans per clique fixpoint, per-round counters
  /// and delta-size histograms. Inert by default.
  TraceContext trace;
  /// Record a FixpointIteration per round into FixpointStats::per_iteration
  /// (with wall-clock timing; off by default because clock reads per round
  /// are not free).
  bool record_iterations = false;
  /// Label stamped on recorded iterations: the overall recursion method as
  /// the caller sees it ("magic"/"counting" run semi-naive after their
  /// rewrite, and the rewritten rounds should be attributed to the method,
  /// not the machinery). Empty = use the raw fixpoint discipline.
  std::string method_label;
};

/// One fixpoint round of one clique — the convergence curve of the chosen
/// RecursionMethod (delta cardinality per round is the quantity the
/// semi-naive argument is about).
struct FixpointIteration {
  std::string clique;      ///< representative member, e.g. "anc/2"
  std::string method;      ///< method label ("naive", "seminaive", ...)
  size_t iteration = 0;    ///< 1-based round number within the clique
  size_t delta_tuples = 0;  ///< new tuples this round (0 = convergence round)
  size_t derivations = 0;  ///< head tuples produced this round (pre-dedup)
  double wall_ms = 0;
};

struct FixpointStats {
  size_t iterations = 0;  ///< total fixpoint rounds across all cliques
  EvalCounters counters;
  /// Per-round telemetry, only populated when
  /// FixpointOptions::record_iterations is set.
  std::vector<FixpointIteration> per_iteration;

  std::string ToString() const;

  /// Adds the stats into the registry (engine.fixpoint.iterations plus the
  /// EvalCounters engine.* names). No-op on nullptr.
  void ExportTo(MetricsRegistry* metrics) const;

  /// JSON array of the per-round telemetry:
  /// [{"clique","method","iteration","delta_tuples","derivations",
  ///   "wall_ms"}, ...].
  void WriteIterationsJson(JsonWriter& w) const;
};

/// Evaluates every derived predicate of `program` bottom-up into `scratch`.
/// Base relations are read from `base`; derived relations are created in
/// `scratch` (so repeated evaluations never pollute the fact base).
/// `method` must be kNaive or kSemiNaive; the rewriting methods (magic,
/// counting) are separate source-to-source transforms that then run
/// semi-naive (see engine/magic.h, engine/counting.h).
///
/// The program must be stratified; strata are evaluated bottom-up so that
/// negated literals always refer to completed relations.
Status EvaluateProgram(const Program& program, RecursionMethod method,
                       Database* base, Database* scratch,
                       FixpointStats* stats,
                       const FixpointOptions& options = {});

}  // namespace ldl

#endif  // LDLOPT_ENGINE_FIXPOINT_H_
