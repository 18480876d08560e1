#include "engine/fixpoint.h"

#include <algorithm>
#include <chrono>

#include "base/strings.h"
#include "graph/dependency_graph.h"

namespace ldl {

const char* RecursionMethodToString(RecursionMethod method) {
  switch (method) {
    case RecursionMethod::kNaive:
      return "naive";
    case RecursionMethod::kSemiNaive:
      return "seminaive";
    case RecursionMethod::kMagic:
      return "magic";
    case RecursionMethod::kCounting:
      return "counting";
  }
  return "?";
}

std::string FixpointStats::ToString() const {
  return StrCat("iterations=", iterations, " ", counters.ToString());
}

void FixpointStats::ExportTo(MetricsRegistry* metrics) const {
  if (metrics == nullptr) return;
  metrics->counter("engine.fixpoint.iterations")->Increment(iterations);
  counters.ExportTo(metrics);
}

void FixpointStats::WriteIterationsJson(JsonWriter& w) const {
  w.BeginArray();
  for (const FixpointIteration& it : per_iteration) {
    w.BeginObject()
        .Member("clique", it.clique)
        .Member("method", it.method)
        .Member("iteration", it.iteration)
        .Member("delta_tuples", it.delta_tuples)
        .Member("derivations", it.derivations)
        .Member("wall_ms", it.wall_ms)
        .EndObject();
  }
  w.EndArray();
}

namespace {

/// Shared machinery for evaluating one program bottom-up, one strongly
/// connected component at a time.
class ProgramEvaluator {
 public:
  ProgramEvaluator(const Program& program, RecursionMethod method,
                   Database* base, Database* scratch, FixpointStats* stats,
                   const FixpointOptions& options)
      : program_(program),
        method_(method),
        base_(base),
        scratch_(scratch),
        stats_(stats),
        options_(options) {}

  Status Run() {
    DependencyGraph graph = DependencyGraph::Build(program_);
    LDL_RETURN_NOT_OK(graph.CheckStratified());
    for (const auto& component : graph.topological_components()) {
      // Ensure relations exist for every member up front.
      for (const PredicateId& pred : component) scratch_->GetOrCreate(pred);
      bool recursive = graph.IsRecursive(component[0]);
      if (!recursive) {
        LDL_RETURN_NOT_OK(EvaluateOnce(component[0]));
      } else if (method_ == RecursionMethod::kNaive) {
        LDL_RETURN_NOT_OK(EvaluateCliqueNaive(component, graph));
      } else {
        LDL_RETURN_NOT_OK(EvaluateCliqueSemiNaive(component, graph));
      }
    }
    return Status::OK();
  }

 private:
  Relation* Resolve(const Literal& lit) {
    const PredicateId pred = lit.predicate();
    if (program_.IsDerived(pred)) return scratch_->GetOrCreate(pred);
    return base_->Find(pred);
  }

  RelationResolver MakeResolver() {
    return [this](const Literal& lit, size_t) { return Resolve(lit); };
  }

  /// Fires rule `rule_index` once into `out`. The rule is compiled for its
  /// chosen body order on first use; every later firing in this
  /// EvaluateProgram call, each round and each delta occurrence, reuses it.
  Status Fire(size_t rule_index, const RelationResolver& resolve,
              Relation* out) {
    auto it = compiled_.find(rule_index);
    if (it == compiled_.end()) {
      auto order = options_.rule_orders.find(rule_index);
      LDL_ASSIGN_OR_RETURN(
          CompiledRule rule,
          CompiledRule::Compile(program_.rules()[rule_index],
                                order == options_.rule_orders.end()
                                    ? std::vector<size_t>{}
                                    : order->second));
      it = compiled_.emplace(rule_index, std::move(rule)).first;
    }
    RuleEvalOptions opts;
    opts.max_derivations = options_.max_derivations;
    opts.cancel = options_.trace.cancel;
    opts.accountant = options_.trace.accountant;
    return EvaluateRule(it->second, resolve, out, &stats_->counters, opts)
        .status();
  }

  /// Transient per-round relations (deltas, rule temporaries) count against
  /// the query's byte budget too — they are where a blow-up shows up first.
  void Attach(Relation* rel) const {
    if (options_.trace.accountant != nullptr) {
      rel->set_accountant(options_.trace.accountant);
    }
  }

  /// Per-round check-point: polls cancellation/deadline/budget and charges
  /// the round into the accountant.
  Status RoundCheckpoint() {
    if (options_.trace.accountant != nullptr) {
      options_.trace.accountant->AddFixpointRounds(1);
    }
    return options_.trace.CheckCancel();
  }

  /// The method name to stamp on recorded iterations: the caller's label
  /// (e.g. "magic" for a rewritten program running semi-naive) when given,
  /// else the raw fixpoint discipline.
  std::string_view MethodLabel(std::string_view discipline) const {
    return options_.method_label.empty()
               ? discipline
               : std::string_view(options_.method_label);
  }

  void RecordIteration(const PredicateId& clique_rep,
                       std::string_view method, size_t round, size_t delta,
                       size_t derivations, double wall_ms) {
    FixpointIteration it;
    it.clique = clique_rep.ToString();
    it.method = std::string(method);
    it.iteration = round;
    it.delta_tuples = delta;
    it.derivations = derivations;
    it.wall_ms = wall_ms;
    stats_->per_iteration.push_back(std::move(it));
    if (options_.trace.metrics != nullptr) {
      options_.trace.Observe(StrCat("engine.fixpoint.iteration_ms.", method),
                             wall_ms);
    }
  }

  // Non-recursive predicate: fire each of its rules once.
  Status EvaluateOnce(const PredicateId& pred) {
    Span span = options_.trace.StartSpan("eval-once", "engine");
    if (span.active()) span.AddArg("predicate", pred.ToString());
    LDL_RETURN_NOT_OK(options_.trace.CheckCancel());
    Relation* out = scratch_->GetOrCreate(pred);
    RelationResolver resolve = MakeResolver();
    for (size_t rule_index : program_.RulesFor(pred)) {
      LDL_RETURN_NOT_OK(Fire(rule_index, resolve, out));
    }
    return Status::OK();
  }

  // Naive fixpoint: every round re-fires every rule of the clique against
  // the full current relations, until a round adds nothing.
  Status EvaluateCliqueNaive(const std::vector<PredicateId>& members,
                             const DependencyGraph& graph) {
    const RecursiveClique& clique =
        graph.cliques()[graph.CliqueIndex(members[0])];
    Span span = options_.trace.StartSpan("fixpoint", "engine");
    if (span.active()) {
      span.AddArg("clique", members[0].ToString());
      span.AddArg("method", "naive");
    }
    RelationResolver resolve = MakeResolver();
    std::vector<size_t> all_rules = clique.exit_rules;
    all_rules.insert(all_rules.end(), clique.recursive_rules.begin(),
                     clique.recursive_rules.end());
    size_t round = 0;
    while (true) {
      if (++round > options_.max_iterations) {
        return Status::ResourceExhausted(
            StrCat("naive fixpoint exceeded ", options_.max_iterations,
                   " iterations for ", clique.ToString()));
      }
      stats_->iterations++;
      LDL_RETURN_NOT_OK(RoundCheckpoint());
      const size_t deriv_before = stats_->counters.derivations;
      std::chrono::steady_clock::time_point round_start;
      if (options_.record_iterations) {
        round_start = std::chrono::steady_clock::now();
      }
      // Round-based: evaluate all rules into per-predicate temporaries,
      // then merge, so each round sees exactly the previous round's state.
      std::unordered_map<PredicateId, Relation, PredicateIdHash> temp;
      for (const PredicateId& pred : members) {
        Attach(&temp.emplace(pred, Relation(pred.name, pred.arity))
                    .first->second);
      }
      for (size_t rule_index : all_rules) {
        const Rule& rule = program_.rules()[rule_index];
        LDL_RETURN_NOT_OK(
            Fire(rule_index, resolve, &temp.at(rule.head().predicate())));
      }
      size_t added = 0;
      for (const PredicateId& pred : members) {
        added += scratch_->GetOrCreate(pred)->MergeFrom(
            std::move(temp.at(pred)), nullptr);
      }
      options_.trace.Count("engine.fixpoint.rounds");
      options_.trace.Observe("engine.fixpoint.delta_tuples",
                             static_cast<double>(added));
      if (options_.record_iterations) {
        // Every naive round does full-rule work, including the final
        // added == 0 convergence round — record them all.
        RecordIteration(members[0], MethodLabel("naive"), round, added,
                        stats_->counters.derivations - deriv_before,
                        std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - round_start)
                            .count());
      }
      if (added == 0) break;
    }
    if (span.active()) span.AddArg("rounds", std::to_string(round));
    return Status::OK();
  }

  // Semi-naive fixpoint: exit rules once; then each round fires each
  // recursive rule once per occurrence of a clique predicate in its body,
  // with that occurrence reading the previous round's delta.
  Status EvaluateCliqueSemiNaive(const std::vector<PredicateId>& members,
                                 const DependencyGraph& graph) {
    const RecursiveClique& clique =
        graph.cliques()[graph.CliqueIndex(members[0])];
    Span span = options_.trace.StartSpan("fixpoint", "engine");
    if (span.active()) {
      span.AddArg("clique", members[0].ToString());
      span.AddArg("method", "seminaive");
    }

    auto in_clique = [&clique](const Literal& lit) {
      return !lit.IsBuiltin() && !lit.negated() &&
             clique.Contains(lit.predicate());
    };

    std::unordered_map<PredicateId, Relation, PredicateIdHash> delta;
    for (const PredicateId& pred : members) {
      Attach(&delta.emplace(pred, Relation(pred.name, pred.arity))
                  .first->second);
    }

    // Seed with the exit rules.
    RelationResolver resolve = MakeResolver();
    for (size_t rule_index : clique.exit_rules) {
      const Rule& rule = program_.rules()[rule_index];
      Relation temp(rule.head().predicate().name, rule.head().arity());
      Attach(&temp);
      LDL_RETURN_NOT_OK(Fire(rule_index, resolve, &temp));
      scratch_->GetOrCreate(rule.head().predicate())
          ->MergeFrom(std::move(temp), &delta.at(rule.head().predicate()));
    }

    size_t round = 0;
    while (true) {
      if (++round > options_.max_iterations) {
        return Status::ResourceExhausted(
            StrCat("seminaive fixpoint exceeded ", options_.max_iterations,
                   " iterations for ", clique.ToString()));
      }
      stats_->iterations++;
      LDL_RETURN_NOT_OK(RoundCheckpoint());
      bool any_delta = std::any_of(
          members.begin(), members.end(),
          [&delta](const PredicateId& p) { return !delta.at(p).empty(); });
      if (!any_delta) break;
      // Work rounds only: the final empty-delta round breaks above without
      // firing a rule, so per_iteration holds iterations - 1 entries.
      const size_t deriv_before = stats_->counters.derivations;
      std::chrono::steady_clock::time_point round_start;
      if (options_.record_iterations) {
        round_start = std::chrono::steady_clock::now();
      }

      std::unordered_map<PredicateId, Relation, PredicateIdHash> new_delta;
      for (const PredicateId& pred : members) {
        Attach(&new_delta.emplace(pred, Relation(pred.name, pred.arity))
                    .first->second);
      }

      for (size_t rule_index : clique.recursive_rules) {
        const Rule& rule = program_.rules()[rule_index];
        // One differentiated firing per clique-predicate occurrence.
        for (size_t occ = 0; occ < rule.body().size(); ++occ) {
          if (!in_clique(rule.body()[occ])) continue;
          RelationResolver diff_resolve =
              [this, &delta, &in_clique, occ](const Literal& lit,
                                              size_t body_pos) -> Relation* {
            if (body_pos == occ && in_clique(lit)) {
              return &delta.at(lit.predicate());
            }
            return Resolve(lit);
          };
          Relation temp(rule.head().predicate().name, rule.head().arity());
          Attach(&temp);
          LDL_RETURN_NOT_OK(Fire(rule_index, diff_resolve, &temp));
          scratch_->GetOrCreate(rule.head().predicate())
              ->MergeFrom(std::move(temp),
                          &new_delta.at(rule.head().predicate()));
        }
      }
      delta = std::move(new_delta);
      if (options_.trace.metrics != nullptr || options_.record_iterations) {
        size_t added = 0;
        for (const PredicateId& pred : members) added += delta.at(pred).size();
        options_.trace.Count("engine.fixpoint.rounds");
        options_.trace.Observe("engine.fixpoint.delta_tuples",
                               static_cast<double>(added));
        if (options_.record_iterations) {
          RecordIteration(members[0], MethodLabel("seminaive"), round, added,
                          stats_->counters.derivations - deriv_before,
                          std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - round_start)
                              .count());
        }
      }
    }
    if (span.active()) span.AddArg("rounds", std::to_string(round));
    return Status::OK();
  }

  const Program& program_;
  RecursionMethod method_;
  Database* base_;
  Database* scratch_;
  FixpointStats* stats_;
  const FixpointOptions& options_;
  std::unordered_map<size_t, CompiledRule> compiled_;
};

}  // namespace

Status EvaluateProgram(const Program& program, RecursionMethod method,
                       Database* base, Database* scratch,
                       FixpointStats* stats, const FixpointOptions& options) {
  if (method != RecursionMethod::kNaive &&
      method != RecursionMethod::kSemiNaive) {
    return Status::InvalidArgument(
        StrCat("EvaluateProgram supports naive/seminaive, got ",
               RecursionMethodToString(method),
               " (use MagicRewrite/CountingRewrite first)"));
  }
  FixpointStats local;
  ProgramEvaluator evaluator(program, method, base, scratch, &local, options);
  Status st = evaluator.Run();
  local.ExportTo(options.trace.metrics);
  if (stats != nullptr) {
    stats->iterations += local.iterations;
    stats->counters.Add(local.counters);
    for (FixpointIteration& it : local.per_iteration) {
      stats->per_iteration.push_back(std::move(it));
    }
  }
  return st;
}

}  // namespace ldl
