#ifndef LDLOPT_ENGINE_RULE_EVAL_H_
#define LDLOPT_ENGINE_RULE_EVAL_H_

#include <functional>
#include <string>
#include <vector>

#include "ast/rule.h"
#include "base/status.h"
#include "obs/metrics.h"
#include "obs/resource.h"
#include "storage/database.h"

namespace ldl {

/// Work counters accumulated by the evaluator. `tuples_examined` is the
/// machine-independent work measure the recursion benchmarks report
/// alongside wall-clock time.
struct EvalCounters {
  size_t tuples_examined = 0;  ///< tuples touched during joins/lookups
  size_t derivations = 0;      ///< head tuples produced (before dedup)
  size_t inserts = 0;          ///< head tuples that were new
  size_t rule_firings = 0;     ///< rule evaluations started

  void Add(const EvalCounters& other);
  std::string ToString() const;

  /// Adds the counters into the registry under the engine.* names
  /// (engine.tuples_examined, engine.derivations, engine.inserts,
  /// engine.rule_firings). No-op on nullptr.
  void ExportTo(MetricsRegistry* metrics) const;
};

/// Maps a body literal occurrence to the relation to read. Lets semi-naive
/// evaluation substitute delta relations for specific occurrences, and the
/// magic rewrite look up freshly created predicates. Returning nullptr means
/// "empty relation".
using RelationResolver =
    std::function<Relation*(const Literal& lit, size_t body_pos)>;

/// A binding-aware resolver: receives the literal's argument patterns under
/// the current substitution (ground where bound). Lets a caller implement
/// *pipelined* evaluation of derived literals — computing, per binding
/// instance, just the matching fragment of the subquery (with tabling on
/// the caller's side). Returning nullptr falls back to the plain resolver.
using PatternResolver = std::function<Relation*(
    const Literal& lit, size_t body_pos, const std::vector<Term>& patterns)>;

struct RuleEvalOptions {
  /// Order in which to visit body literals; empty = textual order.
  std::vector<size_t> order;
  /// Guard against runaway evaluation (unsafe programs).
  size_t max_derivations = 200'000'000;
  /// Optional binding-aware resolution, tried before the plain resolver.
  PatternResolver pattern_resolver;
  /// Cooperative cancellation: checked every
  /// CancellationToken::kCheckIntervalTuples examined tuples, bounding
  /// abort latency inside even a single monster rule evaluation.
  CancellationToken* cancel = nullptr;
  /// Per-query work meter; examined/derived tuples are flushed into it at
  /// check-points (not per tuple) to keep the hot loop cheap.
  ResourceAccountant* accountant = nullptr;
};

/// Evaluates one rule bottom-up: enumerates all substitutions satisfying
/// the body (visiting literals in `options.order`), and for each one emits
/// the instantiated head tuple into `out`.
///
/// Positive literals are matched via hash-index lookups on their bound
/// argument positions. Builtins are computed inline; a kNotComputable
/// builtin aborts with kUnsafe (the optimizer is responsible for choosing
/// orders where this cannot happen). Negated literals require all their
/// variables bound and test for absence.
///
/// Returns the number of *new* tuples added to `out`.
Result<size_t> EvaluateRule(const Rule& rule, const RelationResolver& resolve,
                            Relation* out, EvalCounters* counters,
                            const RuleEvalOptions& options = {});

/// Convenience resolver reading every literal from `db` (creating empty
/// relations for unknown predicates on the fly is avoided: unknown ->
/// nullptr -> empty).
RelationResolver DatabaseResolver(Database* db);

}  // namespace ldl

#endif  // LDLOPT_ENGINE_RULE_EVAL_H_
