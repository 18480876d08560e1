#ifndef LDLOPT_OPTIMIZER_OPTIMIZER_H_
#define LDLOPT_OPTIMIZER_OPTIMIZER_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "ast/program.h"
#include "base/status.h"
#include "engine/fixpoint.h"
#include "graph/adornment.h"
#include "graph/dependency_graph.h"
#include "obs/context.h"
#include "optimizer/cost_model.h"
#include "optimizer/join_order.h"
#include "plan/processing_tree.h"
#include "storage/statistics.h"

namespace ldl {

class ProgramAnalysis;

/// Decisions of a previously chosen plan, pinned so a fresh Optimizer run
/// can *cost* that plan under a different model instead of searching — the
/// mechanism behind plan-regret analysis (obs/calibration.h): cost the
/// chosen plan and the hindsight-optimal plan under the same
/// MeasuredStatistics overlay and compare.
///
/// Pinning is best-effort: a pinned rule order that is unsafe (EC-violating)
/// under some adornment the re-run visits falls back to the normal search
/// for that (rule, adornment), and a pinned clique method that is
/// inapplicable under the re-run's safety analysis falls back to the best
/// applicable one. With identical models on both sides this reproduces the
/// chosen plan's cost exactly.
struct PlanConstraints {
  /// Body order per rule index (QueryPlan::rule_orders of the chosen plan).
  std::unordered_map<size_t, std::vector<size_t>> rule_orders;
  /// Recursive method per clique index (QueryPlan::clique_methods).
  std::map<int, RecursionMethod> clique_methods;
};

/// Knobs of the whole optimizer.
struct OptimizerOptions {
  SearchStrategy strategy = SearchStrategy::kExhaustive;
  StrategyOptions strategy_options;
  CostModelOptions cost;

  /// Recursive methods the CC-node optimization may label a clique with
  /// (the "set of labels is restricted only by the availability of the
  /// techniques in the system", section 4).
  bool enable_magic = true;
  bool enable_counting = true;

  /// MP: consider materializing derived subqueries (compute once, probe per
  /// binding) in addition to pipelining them. Off = pipeline-only (ablation).
  bool consider_materialization = true;

  /// NR-OPT's per-binding memoization of OR subtrees ("each subtree is
  /// optimized exactly ONCE for each binding", Figure 7-1). Off re-optimizes
  /// on every reference (ablation for experiment E6).
  bool memoize = true;

  /// Apply the [RBK 87] projection-pushing rewrite before optimizing
  /// (LdlSystem honors this; see optimizer/project_pushdown.h). The paper
  /// uses it as a pre-processing step because magic/counting only push
  /// selections.
  bool push_projections = true;

  /// Run the PlanVerifier (src/analysis/plan_verifier.h) over the annotated
  /// processing tree of every safe plan Optimize produces, and over every
  /// tree AnnotateTree returns: each transformation the search applied must
  /// leave the §4/§5 structural invariants intact. A violation turns into a
  /// kInternal error instead of a silently wrong plan. On in tests and
  /// debug tooling; off by default to keep production optimization lean.
  bool verify_plans = false;

  /// Observability handle (src/obs/): spans around Optimize/clique search
  /// and per-strategy timings, metrics for search effort. Inert by default;
  /// LdlSystem forwards the same context to the engine so estimates and
  /// measurements land in one registry. trace.search additionally records
  /// every candidate subplan and the memo lattice (obs/search_trace.h).
  /// trace.cancel/trace.accountant make the search itself abortable: every
  /// subplan optimization is a check-point, and memo entries are charged
  /// against the byte budget.
  TraceContext trace;

  /// Per-query resource/deadline limits, honored by LdlSystem::Query (which
  /// builds the accountant + token from them). Zeroes = unlimited.
  QueryLimits limits;

  /// LdlSystem::Query: record per-round fixpoint telemetry into
  /// QueryAnswer::exec_stats.per_iteration (see FixpointOptions). Off by
  /// default — it adds two clock reads per fixpoint round.
  bool record_fixpoint_iterations = false;

  /// Hindsight overlay: measured per-(predicate, adornment) cardinalities
  /// that override the model's estimates wherever available (cost-model
  /// catalog items and derived-subplan cardinalities). Non-owning; must
  /// outlive the optimizer. Used by plan-regret analysis.
  const MeasuredStatistics* measured = nullptr;

  /// Pin the decisions of a previously chosen plan (see PlanConstraints)
  /// so this run costs that plan instead of searching. Non-owning; must
  /// outlive the optimizer.
  const PlanConstraints* pinned = nullptr;

  /// LdlSystem-level switch: run ProgramAnalyzer on the (goal, program)
  /// pair before optimizing and attach the result as `analysis`, so the
  /// search skips memoizing adornments the static pass proved unreachable.
  /// Ignored by the Optimizer itself (it only reads `analysis`).
  bool analyze_reachability = false;

  /// LdlSystem-level switch: strip statically dead rules (unreachable from
  /// the goal, unsatisfiable, subsumed) from the working program before
  /// optimizing. Implies a fresh per-goal analysis; see
  /// analysis/analyzer.h for the answer-preservation argument.
  bool eliminate_dead_rules = false;

  /// LdlSystem-level switch: feedback planning mode. When a feedback
  /// statistics catalog is attached (LdlSystem::set_feedback), each
  /// Plan/Query consults it as a blended measured-over-estimated overlay
  /// (StatisticsCatalog::BlendedOverlay -> `measured`); predicates the
  /// catalog never observed keep their catalog estimates. Ignored by the
  /// Optimizer itself (it only reads `measured`), and inert when an
  /// explicit `measured` overlay is already set.
  bool feedback = false;

  /// Goal-directed static analysis consulted during the search: candidate
  /// (predicate, adornment) pairs outside its reachable set are answered
  /// with a shallow unmemoized subplan (disposition pruned-unreachable)
  /// instead of being optimized. Non-owning; must outlive the optimizer
  /// and describe the SAME program and goal. Normally set by LdlSystem
  /// when analyze_reachability is on.
  const ProgramAnalysis* analysis = nullptr;
};

/// Search-effort accounting, the currency of experiments E2/E3/E6.
struct PlanSearchStats {
  size_t cost_evaluations = 0;  ///< sequence/step costings performed
  size_t subplans_optimized = 0;  ///< (predicate, binding) optimizations run
  size_t memo_hits = 0;
  size_t memo_misses = 0;   ///< memo lookups that had to optimize fresh
  size_t prunes_unsafe = 0;  ///< subplans discarded at infinite cost (§8.2)
  size_t prunes_unreachable = 0;  ///< subplans skipped because the static
                                  ///< analysis proved the adornment
                                  ///< unreachable from the query
  double search_wall_ms = 0;  ///< wall time spent inside Optimize calls

  /// Adds the stats into the registry under the optimizer.* names.
  /// No-op on nullptr.
  void ExportTo(MetricsRegistry* metrics) const;
};

/// The optimizer's output: estimated cost plus every decision needed to
/// execute the query — per-rule body orders (the PR/SIP choices), the
/// recursive method per clique (the PA/EL choices on CC nodes), and the
/// materialize/pipeline decisions (MP).
struct QueryPlan {
  Literal goal;
  Adornment adornment;
  PlanEstimate estimate;
  bool safe = false;
  std::string unsafe_reason;

  /// Execution method for the goal: the clique's chosen method when the
  /// goal predicate is recursive, otherwise magic (bound goal) or
  /// semi-naive (free goal).
  RecursionMethod top_method = RecursionMethod::kSemiNaive;

  /// Chosen SIPs: body order per (rule, head adornment); drives the magic
  /// rewrite.
  SipStrategy sips;
  /// Chosen body order per rule for direct fixpoint evaluation.
  std::unordered_map<size_t, std::vector<size_t>> rule_orders;
  /// Method chosen per clique index.
  std::map<int, RecursionMethod> clique_methods;
  /// Derived body literals the plan decided to materialize (predicate
  /// names, informational).
  std::vector<std::string> materialized;

  PlanSearchStats search_stats;

  double TotalCost() const { return estimate.setup + estimate.per_binding; }

  /// Multi-line human-readable plan summary.
  std::string Explain(const Program& program) const;

  /// Stable 16-hex-digit digest over every plan decision (adornment, top
  /// method, rule orders, clique methods, materialization set). Two runs
  /// that chose the same plan produce the same fingerprint — the query
  /// log's plan identity, and what ldl_replay diffs against.
  std::string Fingerprint() const;
};

/// The LDL query optimizer: implements NR-OPT (Figure 7-1) for the
/// nonrecursive AND/OR structure with per-binding memoization, and OPT
/// (Figure 7-2) for recursive cliques, choosing SIPs and a recursive method
/// per CC node. Safety is folded into the search by the infinite-cost
/// treatment of EC violations and non-well-founded cliques (section 8.2).
class Optimizer {
 public:
  /// `program` and `stats` must outlive the optimizer.
  Optimizer(const Program& program, const Statistics& stats,
            OptimizerOptions options = {});
  /// Releases memo byte charges from the attached accountant (if any).
  ~Optimizer();
  /// Only references are stored; binding them to temporaries dangles (an
  /// AddressSanitizer find — see tests/analysis_test.cc history).
  Optimizer(const Program&&, const Statistics&, OptimizerOptions = {}) = delete;
  Optimizer(const Program&, const Statistics&&, OptimizerOptions = {}) = delete;

  /// Optimizes one query form. Optimization is query-specific: p(c, Y) and
  /// p(X, Y) produce independent plans (section 2).
  Result<QueryPlan> Optimize(const Literal& goal);

  /// Search-effort accounting for the most recent Optimize call (the stats
  /// reset at the start of every call; QueryPlan::search_stats carries the
  /// same per-call values).
  const PlanSearchStats& search_stats() const { return search_stats_; }

  /// Annotates a processing tree (see plan/processing_tree.h) with the
  /// optimizer's cost and cardinality estimates, method labels, chosen
  /// permutations (PR) and materialize/pipeline flags — producing the
  /// fully-labeled execution the paper's figures depict. The tree must have
  /// been built from the same program.
  Status AnnotateTree(PlanNode* tree);

 private:
  Status AnnotateNode(PlanNode* node, const Adornment& binding);
  /// strategy_->FindOrder with per-call timing into the trace context
  /// (clock reads only when tracing/metrics are attached).
  OrderResult TimedFindOrder(const std::vector<ConjunctItem>& items,
                             const BoundVars& initial);
  /// What the memo stores per (predicate, adornment): Figure 7-1's
  /// "cost, cardinality, graph, etc., indexed by the binding".
  struct Subplan {
    PlanEstimate est;
    RecursionMethod method = RecursionMethod::kSemiNaive;
    /// Body order per rule index (this predicate's own rules).
    std::map<size_t, std::vector<size_t>> orders;
    /// Derived predicates this subplan references, with their bindings.
    std::vector<AdornedPredicate> children;
    /// Children chosen to be materialized instead of pipelined.
    std::vector<AdornedPredicate> materialized_children;
    /// Diagnostic when est is unsafe.
    std::string note;
    /// Search-trace bookkeeping: the memo lattice node this subplan was
    /// recorded under, valid while trace_gen matches the tracer's
    /// generation(). Lets memo hits record without rebuilding the key.
    uint32_t trace_node = UINT32_MAX;
    uint32_t trace_gen = 0;
  };

  // OR node / CC dispatch (Figure 7-1 case 2 + Figure 7-2 case 3).
  Subplan OptimizePredicate(const AdornedPredicate& ap);
  /// OptimizePredicate(ap).est without copying the memo entry: the path of
  /// every derived item's estimate.
  PlanEstimate EstimatePredicate(const AdornedPredicate& ap);
  /// The memo entry for `ap`, optimizing it on a miss; a result that is not
  /// memoized (aborted, pruned, memo off) is built in `*scratch`. memo_ is
  /// node-based, so the reference survives later inserts.
  const Subplan& FindOrOptimize(const AdornedPredicate& ap, Subplan* scratch);
  // AND node (Figure 7-1/7-2 case 1): order search over one rule body.
  Subplan OptimizeRule(size_t rule_index, const Adornment& head_adn);
  // CC node (Figure 7-2 case 3).
  Subplan OptimizeClique(int clique_index, const AdornedPredicate& ap);

  /// Builds the conjunct item for a body literal: base literals from
  /// statistics; derived literals backed by OptimizePredicate (pipelined)
  /// and, when enabled, the materialized alternative.
  ConjunctItem MakeItem(const Literal& lit, Subplan* parent);

  /// True iff the attached static analysis proved `ap` unreachable from
  /// the query (never true without options_.analysis).
  bool Unreachable(const AdornedPredicate& ap) const;

  /// Cooperative abort inside the search: polls trace.cancel and latches
  /// the first non-OK status into aborted_status_. Once aborted, subplan
  /// optimization returns cheap placeholders (never memoized) so the
  /// recursion unwinds fast; Optimize() surfaces the latched status.
  bool Aborted();
  Subplan AbortedSubplan() const;

  /// Estimated footprint of one memo entry, charged to trace.accountant.
  uint64_t ApproxSubplanBytes(const Subplan& sub) const;
  /// The shallow placeholder subplan returned for pruned-unreachable
  /// adornments: safe, costless, carded from the analysis sketch, never
  /// memoized.
  Subplan PrunedSubplan(const AdornedPredicate& ap);

  /// The attached-and-enabled search tracer, or nullptr. Sites must only
  /// build labels/keys after this returns non-null (disabled tracing must
  /// stay allocation-free).
  SearchTracer* Tracing() const;
  /// Records `ap`'s subplan into the tracer's memo lattice under `key`
  /// (the caller's precomputed ap.ToString()), and stamps the subplan with
  /// the interned node so memo hits can record string-free. No-op when not
  /// tracing.
  void TraceMemoNode(std::string_view key, const AdornedPredicate& ap,
                     Subplan* sub);

  void CollectPlan(const AdornedPredicate& ap, QueryPlan* plan,
                   std::set<std::string>* visited);

  const Program& program_;
  const Statistics& stats_;
  OptimizerOptions options_;
  DependencyGraph graph_;
  CostModel model_;
  std::unique_ptr<JoinOrderStrategy> strategy_;
  std::unordered_map<AdornedPredicate, Subplan, AdornedPredicateHash> memo_;
  PlanSearchStats search_stats_;
  /// First cancel/deadline/budget violation seen during the current
  /// Optimize call (sticky until the next call starts).
  Status aborted_status_;
  /// Bytes charged to trace.accountant for memo_ entries so far.
  uint64_t memo_charged_bytes_ = 0;
};

}  // namespace ldl

#endif  // LDLOPT_OPTIMIZER_OPTIMIZER_H_
