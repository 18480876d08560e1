#include "engine/query_eval.h"

#include <algorithm>
#include <cstdio>
#include <set>

#include "base/hash.h"
#include "base/strings.h"
#include "engine/counting.h"
#include "engine/magic.h"
#include "graph/dependency_graph.h"

namespace ldl {

Program ReachableSubprogram(const Program& program, const Literal& goal,
                            std::vector<size_t>* index_map) {
  std::set<PredicateId> reachable;
  std::vector<PredicateId> stack;
  if (program.IsDerived(goal.predicate())) {
    reachable.insert(goal.predicate());
    stack.push_back(goal.predicate());
  }
  while (!stack.empty()) {
    PredicateId pred = stack.back();
    stack.pop_back();
    for (size_t rule_index : program.RulesFor(pred)) {
      for (const Literal& lit : program.rules()[rule_index].body()) {
        if (lit.IsBuiltin()) continue;
        PredicateId p = lit.predicate();
        if (program.IsDerived(p) && reachable.insert(p).second) {
          stack.push_back(p);
        }
      }
    }
  }
  Program out;
  for (size_t i = 0; i < program.rules().size(); ++i) {
    const Rule& rule = program.rules()[i];
    if (reachable.count(rule.head().predicate())) {
      out.AddRule(rule);
      if (index_map != nullptr) index_map->push_back(i);
    }
  }
  return out;
}

std::vector<Tuple> CanonicalAnswers(const Relation& answers) {
  std::vector<Tuple> out;
  out.reserve(answers.size());
  for (TupleView t : answers.tuples()) out.push_back(ToTuple(t));
  std::sort(out.begin(), out.end());
  return out;
}

std::string AnswerFingerprint(const Relation& answers) {
  // Commutative accumulation (sum of per-tuple hashes) so the digest is
  // independent of insertion order without sorting. The per-tuple hash is
  // fixed here, not shared with storage: recorded fingerprints (query logs,
  // bench work digests) stay comparable when storage hashing changes.
  uint64_t acc = 0;
  for (TupleView t : answers.tuples()) {
    size_t hash = t.size();
    for (const Term& v : t) HashCombine(&hash, v.Hash());
    acc += static_cast<uint64_t>(hash) * 0x9e3779b97f4a7c15ULL;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%zu:%016llx", answers.size(),
                static_cast<unsigned long long>(acc));
  return buf;
}

namespace {

/// True iff every argument of `goal` is a variable and no two are the same
/// one, so the goal matches every row of its relation.
bool SelectsEveryRow(const Literal& goal) {
  for (size_t i = 0; i < goal.arity(); ++i) {
    const Term& a = goal.args()[i];
    if (!a.IsVariable()) return false;
    for (size_t j = 0; j < i; ++j) {
      if (goal.args()[j] == a) return false;
    }
  }
  return true;
}

Result<QueryResult> EvaluateFull(const Program& program, Database* base,
                                 const Literal& goal, RecursionMethod method,
                                 const QueryEvalOptions& options) {
  QueryResult result;
  result.method_used = method;
  std::vector<size_t> index_map;
  Program sub = ReachableSubprogram(program, goal, &index_map);
  // options.fixpoint.rule_orders is keyed by indices into the *original*
  // program; remap to the subprogram's indices.
  FixpointOptions fixpoint = options.fixpoint;
  fixpoint.method_label = RecursionMethodToString(method);
  fixpoint.rule_orders.clear();
  for (size_t sub_index = 0; sub_index < index_map.size(); ++sub_index) {
    auto it = options.fixpoint.rule_orders.find(index_map[sub_index]);
    if (it != options.fixpoint.rule_orders.end()) {
      fixpoint.rule_orders[sub_index] = it->second;
    }
  }
  Database scratch;
  scratch.set_accountant(fixpoint.trace.accountant);
  LDL_RETURN_NOT_OK(EvaluateProgram(sub, method, base, &scratch,
                                    &result.stats, fixpoint));
  // The full bottom-up methods compute every reachable derived predicate in
  // its entirety, so the scratch relation sizes are true all-free
  // cardinalities — exactly what the feedback statistics catalog wants.
  // (Magic/counting compute goal-restricted subsets and must not report.)
  for (const PredicateId& pred : scratch.Predicates()) {
    const Relation* rel = scratch.Find(pred);
    result.derived_sizes.emplace_back(pred,
                                      static_cast<uint64_t>(rel->size()));
  }
  Relation* full = scratch.Find(goal.predicate());
  if (full != nullptr && SelectsEveryRow(goal)) {
    // The answers are the whole relation: take it instead of copying it,
    // and detach it from the query's accountant, which it outlives.
    result.answers = std::move(*full);
    result.answers.set_accountant(nullptr);
  } else {
    result.answers = SelectMatching(full, goal);
  }
  return result;
}

Result<QueryResult> EvaluateMagic(const Program& program, Database* base,
                                  const Literal& goal,
                                  const QueryEvalOptions& options) {
  QueryResult result;
  result.method_used = RecursionMethod::kMagic;
  // Adornment itself only visits rules reachable from the goal, and
  // options.sips is keyed by original rule indices — adorn the original
  // program directly.
  Span rewrite_span =
      options.fixpoint.trace.StartSpan("magic-rewrite", "engine");
  LDL_ASSIGN_OR_RETURN(AdornedProgram adorned,
                       AdornProgramForQuery(program, goal, options.sips));
  LDL_ASSIGN_OR_RETURN(MagicProgram magic, MagicRewrite(adorned));
  rewrite_span.Finish();

  // Install the seed as a bodiless rule so its predicate counts as derived
  // (EvaluateProgram reads non-derived predicates from `base`).
  magic.rewritten.AddRule(Rule(magic.seed, {}));
  Database scratch;
  scratch.set_accountant(options.fixpoint.trace.accountant);
  // The SIP orders are already baked into the rewritten rule bodies;
  // rule_orders keyed by original-program indices must not leak through.
  FixpointOptions fixpoint = options.fixpoint;
  fixpoint.rule_orders.clear();
  // The rewritten program runs semi-naive, but the rounds belong to magic.
  fixpoint.method_label = "magic";
  LDL_RETURN_NOT_OK(EvaluateProgram(magic.rewritten,
                                    RecursionMethod::kSemiNaive, base,
                                    &scratch, &result.stats, fixpoint));
  result.answers =
      SelectMatching(scratch.Find(magic.answer_pred), magic.answer_goal);
  return result;
}

Result<QueryResult> EvaluateCounting(const Program& program, Database* base,
                                     const Literal& goal,
                                     const QueryEvalOptions& options) {
  Span rewrite_span =
      options.fixpoint.trace.StartSpan("counting-rewrite", "engine");
  auto rewritten = CountingRewrite(program, goal);
  rewrite_span.Finish();
  if (!rewritten.ok()) {
    if (options.counting_fallback &&
        rewritten.status().code() == StatusCode::kUnsupported) {
      LDL_ASSIGN_OR_RETURN(QueryResult result,
                           EvaluateMagic(program, base, goal, options));
      result.note = StrCat("counting inapplicable (",
                           rewritten.status().message(),
                           "); fell back to magic");
      return result;
    }
    return rewritten.status();
  }
  CountingProgram counting = std::move(rewritten).value();
  counting.rewritten.AddRule(Rule(counting.seed, {}));

  QueryResult result;
  result.method_used = RecursionMethod::kCounting;
  Database scratch;
  scratch.set_accountant(options.fixpoint.trace.accountant);
  FixpointOptions fixpoint = options.fixpoint;
  fixpoint.rule_orders.clear();
  fixpoint.method_label = "counting";
  // Divergence guard. On acyclic data the ascent gains at least one new
  // counter level per round and the longest level chain is bounded by the
  // number of base tuples, so |EDB| + a few settling rounds suffices for
  // any terminating run. Cyclic data then trips kResourceExhausted after
  // O(|EDB|) rounds — and falls back to magic below — instead of grinding
  // through the generic million-round safety cap.
  fixpoint.max_iterations =
      std::min(fixpoint.max_iterations,
               base->TotalTuples() + counting.rewritten.rules().size() + 8);
  Status st = EvaluateProgram(counting.rewritten, RecursionMethod::kSemiNaive,
                              base, &scratch, &result.stats, fixpoint);
  if (!st.ok()) {
    if (options.counting_fallback &&
        st.code() == StatusCode::kResourceExhausted) {
      LDL_ASSIGN_OR_RETURN(QueryResult fallback,
                           EvaluateMagic(program, base, goal, options));
      fallback.note =
          StrCat("counting diverged (", st.message(), "); fell back to magic");
      return fallback;
    }
    return st;
  }
  // Answers: project the counter away; re-attach the goal's constants.
  Relation matched = SelectMatching(scratch.Find(counting.answer_pred),
                                    counting.answer_goal);
  Relation answers("answers", goal.arity());
  const Adornment adn = Adornment::FromGoal(goal);
  Tuple full;
  full.reserve(goal.arity());
  for (TupleView t : matched.tuples()) {
    full.clear();
    size_t free_idx = 1;  // t[0] is the counter (= 0)
    for (size_t i = 0; i < goal.arity(); ++i) {
      if (adn.IsBound(i)) {
        full.push_back(goal.args()[i]);
      } else {
        full.push_back(t[free_idx++]);
      }
    }
    answers.Insert(full);
  }
  result.answers = std::move(answers);
  return result;
}

}  // namespace

Result<QueryResult> EvaluateQuery(const Program& program, Database* base,
                                  const Literal& goal, RecursionMethod method,
                                  const QueryEvalOptions& options) {
  Span span = options.fixpoint.trace.StartSpan("query", "engine");
  if (span.active()) {
    span.AddArg("goal", goal.ToString());
    span.AddArg("method", RecursionMethodToString(method));
  }
  if (options.fixpoint.trace.metrics != nullptr) {
    options.fixpoint.trace.Count(
        StrCat("engine.method.", RecursionMethodToString(method)));
  }
  LDL_RETURN_NOT_OK(options.fixpoint.trace.CheckCancel());
  if (!program.IsDerived(goal.predicate())) {
    // A pure base-relation query needs no rules.
    QueryResult result;
    result.method_used = method;
    result.answers = SelectMatching(base->Find(goal.predicate()), goal);
    return result;
  }
  switch (method) {
    case RecursionMethod::kNaive:
    case RecursionMethod::kSemiNaive:
      return EvaluateFull(program, base, goal, method, options);
    case RecursionMethod::kMagic:
      return EvaluateMagic(program, base, goal, options);
    case RecursionMethod::kCounting:
      return EvaluateCounting(program, base, goal, options);
  }
  return Status::Internal("unknown recursion method");
}

}  // namespace ldl
