#ifndef LDLOPT_ENGINE_QUERY_EVAL_H_
#define LDLOPT_ENGINE_QUERY_EVAL_H_

#include <string>
#include <utility>
#include <vector>

#include "ast/program.h"
#include "base/status.h"
#include "engine/fixpoint.h"
#include "graph/adornment.h"
#include "storage/database.h"

namespace ldl {

/// The answers to one query plus the work it took to compute them.
struct QueryResult {
  /// One tuple per distinct binding of the goal's arguments (arity =
  /// goal arity; bound positions repeat the constants).
  Relation answers{"answers", 0};
  FixpointStats stats;
  RecursionMethod method_used = RecursionMethod::kSemiNaive;
  /// Human-readable note, e.g. "counting fell back to magic (cyclic data)".
  std::string note;
  /// Fixpoint size of every derived predicate, filled only by the full
  /// bottom-up methods (kNaive/kSemiNaive): those compute each reachable
  /// predicate in its entirety, so the sizes are true all-free
  /// cardinalities. Magic/counting evaluate goal-restricted subsets whose
  /// sizes would poison a statistics catalog, so they leave this empty.
  std::vector<std::pair<PredicateId, uint64_t>> derived_sizes;
};

struct QueryEvalOptions {
  FixpointOptions fixpoint;
  /// SIPs used for adornment when method is kMagic (defaults to textual
  /// left-to-right order).
  SipStrategy sips;
  /// If true, kCounting falls back to kMagic when inapplicable or when the
  /// ascent hits the iteration guard (cyclic data).
  bool counting_fallback = true;
};

/// Evaluates `goal` over `program` + `base` with the given recursion
/// method:
///  - kNaive / kSemiNaive evaluate the reachable part of the program
///    bottom-up in full, then select the matching tuples;
///  - kMagic adorns the program for the goal, applies the magic rewrite and
///    evaluates semi-naively;
///  - kCounting applies the counting rewrite (with optional fallback).
/// `base` is not modified except for lazily built indexes.
Result<QueryResult> EvaluateQuery(const Program& program, Database* base,
                                  const Literal& goal, RecursionMethod method,
                                  const QueryEvalOptions& options = {});

/// Restricts `program` to the rules defining predicates that `goal`
/// depends on (transitively). Avoids evaluating unrelated rule sets.
/// When `index_map` is non-null it receives, for each rule of the result,
/// the index of that rule in `program` (so per-rule options can be
/// remapped).
Program ReachableSubprogram(const Program& program, const Literal& goal,
                            std::vector<size_t>* index_map = nullptr);

/// Canonical form of an answer set: the tuples sorted by Term's total
/// order. Two evaluations of the same query are equivalent iff their
/// canonical forms are equal, regardless of derivation order — the
/// comparison primitive of the differential-testing oracle
/// (src/testing/difftest.h) and of the golden result tests.
std::vector<Tuple> CanonicalAnswers(const Relation& answers);

/// Order-independent digest of an answer set: "<rows>:<hex>" where the hex
/// is a commutative hash over the tuples. Cheap to compare and to log;
/// collisions are possible in principle, so mismatch *reports* should
/// re-check with CanonicalAnswers.
std::string AnswerFingerprint(const Relation& answers);

}  // namespace ldl

#endif  // LDLOPT_ENGINE_QUERY_EVAL_H_
