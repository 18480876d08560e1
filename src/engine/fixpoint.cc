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
      } else {
        LDL_RETURN_NOT_OK(EvaluateClique(
            component, graph, method_ == RecursionMethod::kNaive));
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

  /// Fires rule `rule_index` once, inserting its head rows straight into
  /// the head's full scratch relation. The rule is compiled for its chosen
  /// body order on first use; every later firing in this EvaluateProgram
  /// call, each round and each delta occurrence, reuses it.
  Status Fire(size_t rule_index, const RelationResolver& resolve) {
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
    Relation* out =
        scratch_->GetOrCreate(program_.rules()[rule_index].head().predicate());
    return EvaluateRule(it->second, resolve, out, &stats_->counters, opts)
        .status();
  }

  /// Row counts of the members' scratch relations, in member order.
  void Sizes(const std::vector<PredicateId>& members,
             std::vector<size_t>* out) const {
    out->clear();
    for (const PredicateId& pred : members) {
      out->push_back(scratch_->Find(pred)->size());
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
    RelationResolver resolve = MakeResolver();
    for (size_t rule_index : program_.RulesFor(pred)) {
      LDL_RETURN_NOT_OK(Fire(rule_index, resolve));
    }
    return Status::OK();
  }

  // Fixpoint of one recursive clique. Every firing inserts straight into
  // the members' full relations. Those are append-only, so what a firing
  // reads of a member is a row window of its relation.
  //
  // Naive: every round fires every rule of the clique, and every clique
  // read sees the members as they stood when the round started, until a
  // round adds nothing.
  //
  // Semi-naive: the exit rules fire once. Then each round fires each
  // recursive rule once per occurrence of a clique member in its body:
  // that occurrence reads the rows the previous round added, and every
  // other clique read sees the member as it stood when the firing started.
  Status EvaluateClique(const std::vector<PredicateId>& members,
                        const DependencyGraph& graph, bool naive) {
    const RecursiveClique& clique =
        graph.cliques()[graph.CliqueIndex(members[0])];
    const std::string_view discipline = naive ? "naive" : "seminaive";
    Span span = options_.trace.StartSpan("fixpoint", "engine");
    if (span.active()) {
      span.AddArg("clique", members[0].ToString());
      span.AddArg("method", discipline);
    }
    auto member_of = [&members](const Literal& lit) -> int {
      if (lit.IsBuiltin() || lit.negated()) return -1;
      auto it = std::find(members.begin(), members.end(), lit.predicate());
      return it == members.end() ? -1 : static_cast<int>(it - members.begin());
    };
    // Member m's rows [delta_begin[m], delta_end[m]) are the ones the
    // previous round added; delta_end holds the sizes at round start.
    std::vector<size_t> delta_begin;
    std::vector<size_t> delta_end;
    std::vector<size_t> firing_start;
    constexpr size_t kNoDelta = static_cast<size_t>(-1);
    auto fire = [&](size_t rule_index, size_t delta_pos) -> Status {
      if (!naive) Sizes(members, &firing_start);
      const std::vector<size_t>& seen = naive ? delta_end : firing_start;
      return Fire(rule_index,
                  [&](const Literal& lit, size_t body_pos) -> RowWindow {
                    const int m = member_of(lit);
                    if (m < 0) return Resolve(lit);
                    Relation* rel = scratch_->Find(members[m]);
                    if (body_pos == delta_pos) {
                      return RowWindow(rel, delta_begin[m], delta_end[m]);
                    }
                    return RowWindow(rel, 0, seen[m]);
                  });
    };

    // Naive fires the exit rules in every round, semi-naive once up front.
    std::vector<size_t> round_rules = clique.recursive_rules;
    if (naive) {
      round_rules.insert(round_rules.begin(), clique.exit_rules.begin(),
                         clique.exit_rules.end());
    }
    Sizes(members, &delta_begin);
    if (!naive) {
      for (size_t rule_index : clique.exit_rules) {
        LDL_RETURN_NOT_OK(fire(rule_index, kNoDelta));
      }
    }
    Sizes(members, &delta_end);
    size_t round = 0;
    while (true) {
      if (++round > options_.max_iterations) {
        return Status::ResourceExhausted(
            StrCat(discipline, " fixpoint exceeded ", options_.max_iterations,
                   " iterations for ", clique.ToString()));
      }
      stats_->iterations++;
      LDL_RETURN_NOT_OK(RoundCheckpoint());
      // Semi-naive stops on an empty delta without firing a rule, so its
      // per_iteration holds iterations - 1 entries. Every naive round does
      // full-rule work, the final convergence round included, and is
      // recorded.
      if (!naive && delta_begin == delta_end) break;
      const size_t deriv_before = stats_->counters.derivations;
      std::chrono::steady_clock::time_point round_start;
      if (options_.record_iterations) {
        round_start = std::chrono::steady_clock::now();
      }
      for (size_t rule_index : round_rules) {
        const std::vector<Literal>& body = program_.rules()[rule_index].body();
        if (naive) {
          LDL_RETURN_NOT_OK(fire(rule_index, kNoDelta));
          continue;
        }
        // One differentiated firing per clique-member occurrence.
        for (size_t occ = 0; occ < body.size(); ++occ) {
          if (member_of(body[occ]) >= 0) {
            LDL_RETURN_NOT_OK(fire(rule_index, occ));
          }
        }
      }
      delta_begin = std::move(delta_end);
      Sizes(members, &delta_end);
      size_t added = 0;
      for (size_t m = 0; m < members.size(); ++m) {
        added += delta_end[m] - delta_begin[m];
      }
      options_.trace.Count("engine.fixpoint.rounds");
      options_.trace.Observe("engine.fixpoint.delta_tuples",
                             static_cast<double>(added));
      if (options_.record_iterations) {
        RecordIteration(members[0], MethodLabel(discipline), round, added,
                        stats_->counters.derivations - deriv_before,
                        std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - round_start)
                            .count());
      }
      if (naive && added == 0) break;
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
