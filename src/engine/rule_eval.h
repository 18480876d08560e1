#ifndef LDLOPT_ENGINE_RULE_EVAL_H_
#define LDLOPT_ENGINE_RULE_EVAL_H_

#include <functional>
#include <memory>
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
  size_t inserts = 0;          ///< rows new to the target relation
  size_t rule_firings = 0;     ///< rule evaluations started

  void Add(const EvalCounters& other);
  std::string ToString() const;

  /// Adds the counters into the registry under the engine.* names
  /// (engine.tuples_examined, engine.derivations, engine.inserts,
  /// engine.rule_firings). No-op on nullptr.
  void ExportTo(MetricsRegistry* metrics) const;
};

/// The rows of `rel` a body literal reads: those with ids in [begin, end).
/// Relations are append-only, so a window whose end is fixed before a rule
/// firing keeps out the rows that firing adds, and the rows one fixpoint
/// round added are a window of the full relation. The default window reads
/// the relation as it grows: a scan or probe sees every row present when
/// it starts. A null `rel` reads as empty. Negated literals test the whole
/// relation.
struct RowWindow {
  static constexpr size_t kOpen = static_cast<size_t>(-1);

  RowWindow(Relation* rel = nullptr, size_t begin = 0, size_t end = kOpen)
      : rel(rel), begin(begin), end(end) {}

  Relation* rel;
  size_t begin;
  size_t end;
};

/// Maps a body literal occurrence to the rows to read. Lets semi-naive
/// evaluation read the previous round's rows at specific occurrences, and
/// the magic rewrite look up freshly created predicates. A Relation*
/// converts to its default window.
using RelationResolver =
    std::function<RowWindow(const Literal& lit, size_t body_pos)>;

/// A binding-aware resolver: receives the literal's arguments instantiated
/// under the current bindings (ground where bound; unbound variables stay
/// the rule's variable terms). Lets a caller implement
/// *pipelined* evaluation of derived literals — computing, per binding
/// instance, just the matching fragment of the subquery (with tabling on
/// the caller's side). Returning nullptr falls back to the plain resolver.
using PatternResolver = std::function<Relation*(
    const Literal& lit, size_t body_pos, const std::vector<Term>& patterns)>;

struct RuleEvalOptions {
  /// Order in which to visit body literals; empty = textual order. Read
  /// only by the EvaluateRule overload that compiles the rule itself.
  std::vector<size_t> order;
  /// Guard against runaway evaluation (unsafe programs): a cap on the
  /// cumulative EvalCounters::derivations.
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

struct CompiledBody;

/// A rule compiled for one body order (DESIGN.md section 6). Each variable
/// gets a dense slot id. Which variables are bound before each literal is
/// fixed by the order, so every body column compiles to one op: a
/// constant or an already-bound variable goes into the literal's index
/// key, a variable's first occurrence binds its slot to the stored value
/// in place, and a repeat within the literal compares. Function-term and
/// list columns, builtins, negated literals and the head read the same
/// slots. Compiling never fails on an unsafe order: the kUnsafe error is
/// raised when evaluation reaches the offending literal or head, exactly
/// as an interpreting evaluator would.
///
/// Immutable once built, so one compiled form serves every firing of the
/// rule in a fixpoint: each round and each semi-naive delta occurrence.
class CompiledRule {
 public:
  /// Compiles `rule` for `order` (empty = textual order). Fails only when
  /// `order` is not a list of body positions of the right size. The
  /// compiled form refers to `rule`, which must outlive it.
  static Result<CompiledRule> Compile(const Rule& rule,
                                      const std::vector<size_t>& order = {});

 private:
  explicit CompiledRule(std::shared_ptr<const CompiledBody> body)
      : body_(std::move(body)) {}

  friend Result<size_t> EvaluateRule(const CompiledRule& rule,
                                     const RelationResolver& resolve,
                                     Relation* out, EvalCounters* counters,
                                     const RuleEvalOptions& options);

  std::shared_ptr<const CompiledBody> body_;
};

/// Evaluates one compiled rule bottom-up: enumerates all bindings
/// satisfying the body in the compiled order, and for each one emits the
/// instantiated head tuple into `out`.
///
/// Positive literals are matched via hash-index lookups on their bound
/// argument positions (compared with Term::operator==); the remaining
/// columns unify with the stored values, so a repeated variable or a
/// bound variable inside a function term equates 1 and 1.0. Each body
/// position's window is resolved at most once per call, when first
/// reached, and only its rows count as examined; a pattern resolver is
/// asked on every probe. Builtins are computed inline; a kNotComputable
/// builtin aborts with kUnsafe (the optimizer is responsible for choosing
/// orders where this cannot happen).
/// Negated literals require all their variables bound and test for
/// absence. Arithmetic is folded in the head and in builtins only: a body
/// literal's `X + 1` is a constructor term.
///
/// Returns the number of *new* tuples added to `out`.
Result<size_t> EvaluateRule(const CompiledRule& rule,
                            const RelationResolver& resolve, Relation* out,
                            EvalCounters* counters,
                            const RuleEvalOptions& options = {});

/// Compiles `rule` for `options.order` and evaluates it once.
Result<size_t> EvaluateRule(const Rule& rule, const RelationResolver& resolve,
                            Relation* out, EvalCounters* counters,
                            const RuleEvalOptions& options = {});

/// The tuples of `rel` that match `goal`'s argument pattern, as a relation
/// of the same arity, in `rel` order; nullptr reads as empty. The goal is
/// compiled like a body literal with nothing bound: its ground arguments
/// form the index key and the rest unify. A selection over a set is a set,
/// so results are appended with `rel`'s cached hashes and no dedup probe.
Relation SelectMatching(Relation* rel, const Literal& goal);

/// Convenience resolver reading every literal from `db` (creating empty
/// relations for unknown predicates on the fly is avoided: unknown ->
/// nullptr -> empty).
RelationResolver DatabaseResolver(Database* db);

}  // namespace ldl

#endif  // LDLOPT_ENGINE_RULE_EVAL_H_
