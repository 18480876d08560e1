#include "engine/fixpoint.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <map>
#include <memory>

#include "base/strings.h"
#include "graph/dependency_graph.h"
#include "storage/sharded.h"

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

void FixpointStats::WriteIterationsJson(std::ostream& os) const {
  os << "[";
  for (size_t i = 0; i < per_iteration.size(); ++i) {
    const FixpointIteration& it = per_iteration[i];
    if (i > 0) os << ",";
    os << "\n  {\"clique\": \"" << JsonEscape(it.clique)
       << "\", \"method\": \"" << JsonEscape(it.method)
       << "\", \"iteration\": " << it.iteration
       << ", \"delta_tuples\": " << it.delta_tuples
       << ", \"derivations\": " << it.derivations
       << ", \"wall_ms\": " << it.wall_ms << "}";
  }
  if (!per_iteration.empty()) os << "\n";
  os << "]\n";
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
    if (Parallel()) {
      options_.trace.Set("engine.parallel.threads",
                         static_cast<double>(options_.engine.num_threads));
    }
    for (const auto& component : graph.topological_components()) {
      // Ensure relations exist for every member up front.
      for (const PredicateId& pred : component) scratch_->GetOrCreate(pred);
      bool recursive = graph.IsRecursive(component[0]);
      if (!recursive) {
        LDL_RETURN_NOT_OK(Parallel() ? EvaluateOnceParallel(component[0])
                                     : EvaluateOnce(component[0]));
      } else if (method_ == RecursionMethod::kNaive) {
        LDL_RETURN_NOT_OK(Parallel()
                              ? EvaluateCliqueNaiveParallel(component, graph)
                              : EvaluateCliqueNaive(component, graph));
      } else {
        LDL_RETURN_NOT_OK(
            Parallel() ? EvaluateCliqueSemiNaiveParallel(component, graph)
                       : EvaluateCliqueSemiNaive(component, graph));
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

  RuleEvalOptions OptionsForRule(size_t rule_index) const {
    RuleEvalOptions opts;
    opts.max_derivations = options_.max_derivations;
    opts.cancel = options_.trace.cancel;
    opts.accountant = options_.trace.accountant;
    auto it = options_.rule_orders.find(rule_index);
    if (it != options_.rule_orders.end()) opts.order = it->second;
    return opts;
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
      auto n = EvaluateRule(program_.rules()[rule_index], resolve, out,
                            &stats_->counters, OptionsForRule(rule_index));
      LDL_RETURN_NOT_OK(n.status());
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
        auto n = EvaluateRule(rule, resolve, &temp.at(rule.head().predicate()),
                              &stats_->counters, OptionsForRule(rule_index));
        LDL_RETURN_NOT_OK(n.status());
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
      auto n = EvaluateRule(rule, resolve, &temp, &stats_->counters,
                            OptionsForRule(rule_index));
      LDL_RETURN_NOT_OK(n.status());
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
          auto n = EvaluateRule(rule, diff_resolve, &temp, &stats_->counters,
                                OptionsForRule(rule_index));
          LDL_RETURN_NOT_OK(n.status());
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

  // ---------------------------------------------------------------------
  // Parallel paths (EngineOptions::num_threads > 1). One fixpoint round =
  // fan out hash-partitioned tasks over frozen relations, barrier, then a
  // deterministic sharded merge. Workers only read shared state and write
  // private TupleBatches; every shared-state mutation (index preparation,
  // relation creation, the merge commit) happens on the coordinator between
  // barriers. Determinism: each task is a pure function of frozen inputs,
  // results are folded in task order, and the merge commits shards in shard
  // order — so answers, counters, and failure statuses are independent of
  // the worker schedule.
  // ---------------------------------------------------------------------

  static constexpr size_t kNoPartition = static_cast<size_t>(-1);

  /// One unit of parallel work: fire `rule_index` once with body position
  /// `occ` reading the partition `part` instead of the full relation
  /// (kNoPartition = fire against full relations only). Output and counters
  /// are task-private until harvested.
  struct ParTask {
    size_t rule_index = 0;
    size_t occ = kNoPartition;
    Relation* part = nullptr;
    TupleBatch batch;
    EvalCounters counters;
    Status status = Status::OK();
    double wall_ms = 0;
  };

  bool Parallel() const { return options_.engine.num_threads > 1; }

  WorkerPool* Pool() {
    if (pool_ == nullptr) {
      pool_ = std::make_unique<WorkerPool>(options_.engine.num_threads);
    }
    return pool_.get();
  }

  /// Read-only resolver for worker tasks: never creates relations (that
  /// would mutate the scratch database under concurrent readers). Every
  /// derived predicate reachable here was created by an earlier component
  /// or the coordinator's per-component pre-pass.
  Relation* ResolveFrozen(const Literal& lit) {
    const PredicateId pred = lit.predicate();
    if (program_.IsDerived(pred)) return scratch_->Find(pred);
    return base_->Find(pred);
  }

  /// Derivation budget left for the next fan-out, so per-task caps add up
  /// to the same cumulative limit the sequential engine enforces.
  size_t RemainingDerivations() const {
    return options_.max_derivations > stats_->counters.derivations
               ? options_.max_derivations - stats_->counters.derivations
               : 0;
  }

  /// Runs every task across the pool and blocks until all complete.
  void RunTasks(std::vector<ParTask>* tasks, size_t max_derivations) {
    const bool timing = options_.trace.metrics != nullptr;
    const auto& hook = options_.engine.test_yield_hook;
    Pool()->Run(tasks->size(), [&](size_t index, size_t worker) {
      if (hook) hook(worker);
      ParTask& t = (*tasks)[index];
      std::chrono::steady_clock::time_point start;
      if (timing) start = std::chrono::steady_clock::now();
      const Rule& rule = program_.rules()[t.rule_index];
      t.batch = TupleBatch(rule.head().arity());
      RuleEvalOptions opts = OptionsForRule(t.rule_index);
      opts.concurrent_reads = true;
      opts.max_derivations = max_derivations;
      RelationResolver resolve = [this, &t](const Literal& lit,
                                            size_t body_pos) -> Relation* {
        if (body_pos == t.occ) return t.part;
        return ResolveFrozen(lit);
      };
      auto n = EvaluateRule(rule, resolve, &t.batch, &t.counters, opts);
      t.status = n.status();
      if (timing) {
        t.wall_ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
      }
      if (hook) hook(worker);
    });
  }

  /// Folds per-task counters and statuses in task order (schedule
  /// independent; the lowest-index failure wins) and re-checks the
  /// cumulative derivation cap across the whole fan-out.
  Status HarvestTasks(const std::vector<ParTask>& tasks) {
    for (const ParTask& t : tasks) stats_->counters.Add(t.counters);
    if (options_.trace.metrics != nullptr) {
      options_.trace.Count("engine.parallel.tasks", tasks.size());
      for (const ParTask& t : tasks) {
        options_.trace.Observe("engine.parallel.worker_ms", t.wall_ms);
      }
    }
    for (const ParTask& t : tasks) {
      LDL_RETURN_NOT_OK(t.status);
    }
    if (stats_->counters.derivations > options_.max_derivations) {
      return Status::ResourceExhausted(
          StrCat("parallel round exceeded ", options_.max_derivations,
                 " derivations"));
    }
    return Status::OK();
  }

  /// Coordinator-side index preparation: builds every index the tasks are
  /// predicted to probe, so workers can stay on the const lookup path. A
  /// missed prediction only costs a scan inside the task.
  void PrepareTaskIndexes(std::vector<ParTask>* tasks) {
    std::map<size_t, std::vector<std::pair<size_t, std::vector<int>>>> cache;
    for (ParTask& t : *tasks) {
      auto [it, fresh] = cache.try_emplace(t.rule_index);
      const Rule& rule = program_.rules()[t.rule_index];
      if (fresh) {
        std::vector<size_t> order;
        auto oit = options_.rule_orders.find(t.rule_index);
        if (oit != options_.rule_orders.end()) order = oit->second;
        it->second = PredictBoundCols(rule, order);
        for (const auto& [body_pos, cols] : it->second) {
          Relation* rel = ResolveFrozen(rule.body()[body_pos]);
          if (rel != nullptr) rel->PrepareIndex(cols);
        }
      }
      if (t.part != nullptr) {
        for (const auto& [body_pos, cols] : it->second) {
          if (body_pos == t.occ) t.part->PrepareIndex(cols);
        }
      }
    }
  }

  /// The round barrier: merges task batches into the global relations, per
  /// head predicate in `preds` order. Phase 1 fans the per-shard dedup
  /// filter (against the frozen full relation) across the pool; phase 2
  /// commits shards in order into full and, when given, the round's new
  /// delta. Returns tuples added.
  size_t MergeBatches(
      std::vector<ParTask>& tasks, const std::vector<PredicateId>& preds,
      std::unordered_map<PredicateId, Relation, PredicateIdHash>* new_delta) {
    const bool timing = options_.trace.metrics != nullptr;
    std::chrono::steady_clock::time_point start;
    if (timing) start = std::chrono::steady_clock::now();
    std::unordered_map<PredicateId, std::vector<const TupleBatch*>,
                       PredicateIdHash>
        by_pred;
    uint64_t batch_bytes = 0;
    for (ParTask& t : tasks) {
      if (t.batch.empty()) continue;
      by_pred[program_.rules()[t.rule_index].head().predicate()].push_back(
          &t.batch);
      batch_bytes += t.batch.ApproxBytes();
    }
    // The thread-local batches are real memory: keep them charged for the
    // span of the merge so budget enforcement sees the parallel peak.
    if (options_.trace.accountant != nullptr && batch_bytes != 0) {
      options_.trace.accountant->AddBytes(batch_bytes);
    }
    size_t added = 0;
    const auto& hook = options_.engine.test_yield_hook;
    for (const PredicateId& pred : preds) {
      auto it = by_pred.find(pred);
      if (it == by_pred.end()) continue;
      Relation* full = scratch_->GetOrCreate(pred);
      ShardedMerger merger(options_.engine.num_threads);
      Pool()->Run(merger.num_shards(), [&](size_t shard, size_t worker) {
        if (hook) hook(worker);
        merger.CollectShard(shard, it->second, *full);
      });
      added += merger.Commit(
          full, new_delta == nullptr ? nullptr : &new_delta->at(pred));
    }
    if (options_.trace.accountant != nullptr && batch_bytes != 0) {
      options_.trace.accountant->ReleaseBytes(batch_bytes);
    }
    if (timing) {
      options_.trace.Observe("engine.parallel.merge_ms",
                             std::chrono::duration<double, std::milli>(
                                 std::chrono::steady_clock::now() - start)
                                 .count());
    }
    return added;
  }

  /// Builds tasks for firing `rule_index` once against frozen relations:
  /// partitions the first positive body literal whose relation is large
  /// enough, else emits one unpartitioned task. Splitting any single
  /// positive literal is sound — the body is a conjunction, so the firing
  /// is additive over a disjoint split of one input.
  void AddOnceTasks(size_t rule_index, std::vector<ParTask>* tasks,
                    std::deque<std::vector<Relation>>* part_store) {
    const Rule& rule = program_.rules()[rule_index];
    size_t occ = kNoPartition;
    Relation* rel = nullptr;
    for (size_t i = 0; i < rule.body().size(); ++i) {
      const Literal& lit = rule.body()[i];
      if (lit.IsBuiltin() || lit.negated()) continue;
      Relation* r = ResolveFrozen(lit);
      if (r != nullptr && r->size() >= options_.engine.min_partition_tuples) {
        occ = i;
        rel = r;
        break;
      }
    }
    if (occ == kNoPartition) {
      ParTask t;
      t.rule_index = rule_index;
      tasks->push_back(std::move(t));
      return;
    }
    part_store->push_back(
        HashPartitionRelation(*rel, options_.engine.num_threads));
    for (Relation& part : part_store->back()) {
      if (part.empty()) continue;
      ParTask t;
      t.rule_index = rule_index;
      t.occ = occ;
      t.part = &part;
      tasks->push_back(std::move(t));
    }
  }

  // Non-recursive predicate, parallel: rules of a non-recursive predicate
  // never read their own output (that would make it recursive), so all
  // firings are independent and merge through the shared barrier.
  Status EvaluateOnceParallel(const PredicateId& pred) {
    Span span = options_.trace.StartSpan("eval-once", "engine");
    if (span.active()) {
      span.AddArg("predicate", pred.ToString());
      span.AddArg("threads", std::to_string(options_.engine.num_threads));
    }
    LDL_RETURN_NOT_OK(options_.trace.CheckCancel());
    scratch_->GetOrCreate(pred);
    std::deque<std::vector<Relation>> part_store;
    std::vector<ParTask> tasks;
    for (size_t rule_index : program_.RulesFor(pred)) {
      AddOnceTasks(rule_index, &tasks, &part_store);
    }
    PrepareTaskIndexes(&tasks);
    RunTasks(&tasks, RemainingDerivations());
    LDL_RETURN_NOT_OK(HarvestTasks(tasks));
    MergeBatches(tasks, {pred}, nullptr);
    return Status::OK();
  }

  // Naive fixpoint, parallel. Sequential naive already has round-snapshot
  // semantics (rules derive into per-round temporaries), so the parallel
  // version follows the exact same round trajectory.
  Status EvaluateCliqueNaiveParallel(const std::vector<PredicateId>& members,
                                     const DependencyGraph& graph) {
    const RecursiveClique& clique =
        graph.cliques()[graph.CliqueIndex(members[0])];
    Span span = options_.trace.StartSpan("fixpoint", "engine");
    if (span.active()) {
      span.AddArg("clique", members[0].ToString());
      span.AddArg("method", "naive");
      span.AddArg("threads", std::to_string(options_.engine.num_threads));
    }
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
      std::deque<std::vector<Relation>> part_store;
      std::vector<ParTask> tasks;
      for (size_t rule_index : all_rules) {
        AddOnceTasks(rule_index, &tasks, &part_store);
      }
      PrepareTaskIndexes(&tasks);
      RunTasks(&tasks, RemainingDerivations());
      LDL_RETURN_NOT_OK(HarvestTasks(tasks));
      size_t added = MergeBatches(tasks, members, nullptr);
      options_.trace.Count("engine.fixpoint.rounds");
      options_.trace.Count("engine.parallel.rounds");
      options_.trace.Observe("engine.fixpoint.delta_tuples",
                             static_cast<double>(added));
      if (options_.record_iterations) {
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

  // Semi-naive fixpoint, parallel: each round hash-partitions the deltas,
  // fires one task per (recursive rule, clique occurrence, non-empty
  // partition) against frozen relations, and merges through the sharded
  // barrier. Unlike the sequential loop — whose later firings see tuples
  // inserted by earlier firings of the same round — every task reads the
  // round-start snapshot; such tuples are simply picked up from the next
  // round's delta, so the fixpoint is identical (full ⊇ delta makes the
  // standard semi-naive completeness argument go through unchanged).
  Status EvaluateCliqueSemiNaiveParallel(
      const std::vector<PredicateId>& members, const DependencyGraph& graph) {
    const RecursiveClique& clique =
        graph.cliques()[graph.CliqueIndex(members[0])];
    Span span = options_.trace.StartSpan("fixpoint", "engine");
    if (span.active()) {
      span.AddArg("clique", members[0].ToString());
      span.AddArg("method", "seminaive");
      span.AddArg("threads", std::to_string(options_.engine.num_threads));
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

    // Seed with the exit rules (no in-clique reads: independent firings).
    {
      std::deque<std::vector<Relation>> part_store;
      std::vector<ParTask> tasks;
      for (size_t rule_index : clique.exit_rules) {
        AddOnceTasks(rule_index, &tasks, &part_store);
      }
      PrepareTaskIndexes(&tasks);
      RunTasks(&tasks, RemainingDerivations());
      LDL_RETURN_NOT_OK(HarvestTasks(tasks));
      MergeBatches(tasks, members, &delta);
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
      const size_t deriv_before = stats_->counters.derivations;
      std::chrono::steady_clock::time_point round_start;
      if (options_.record_iterations) {
        round_start = std::chrono::steady_clock::now();
      }

      // Partition this round's deltas by tuple hash. Small rounds stay in
      // one partition: fan-out would cost more than the work.
      size_t total_delta = 0;
      for (const PredicateId& pred : members) {
        total_delta += delta.at(pred).size();
      }
      const size_t parts_per_pred =
          total_delta >= options_.engine.min_partition_tuples
              ? options_.engine.num_threads
              : 1;
      std::unordered_map<PredicateId, std::vector<Relation>, PredicateIdHash>
          parts;
      for (const PredicateId& pred : members) {
        parts.emplace(pred,
                      HashPartitionRelation(delta.at(pred), parts_per_pred));
      }

      std::vector<ParTask> tasks;
      for (size_t rule_index : clique.recursive_rules) {
        const Rule& rule = program_.rules()[rule_index];
        for (size_t occ = 0; occ < rule.body().size(); ++occ) {
          if (!in_clique(rule.body()[occ])) continue;
          std::vector<Relation>& pp =
              parts.at(rule.body()[occ].predicate());
          for (Relation& part : pp) {
            if (part.empty()) continue;
            ParTask t;
            t.rule_index = rule_index;
            t.occ = occ;
            t.part = &part;
            tasks.push_back(std::move(t));
          }
        }
      }

      std::unordered_map<PredicateId, Relation, PredicateIdHash> new_delta;
      for (const PredicateId& pred : members) {
        Attach(&new_delta.emplace(pred, Relation(pred.name, pred.arity))
                    .first->second);
      }

      PrepareTaskIndexes(&tasks);
      RunTasks(&tasks, RemainingDerivations());
      LDL_RETURN_NOT_OK(HarvestTasks(tasks));
      size_t added = MergeBatches(tasks, members, &new_delta);
      delta = std::move(new_delta);
      options_.trace.Count("engine.fixpoint.rounds");
      options_.trace.Count("engine.parallel.rounds");
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
    if (span.active()) span.AddArg("rounds", std::to_string(round));
    return Status::OK();
  }

  const Program& program_;
  RecursionMethod method_;
  Database* base_;
  Database* scratch_;
  FixpointStats* stats_;
  const FixpointOptions& options_;
  std::unique_ptr<WorkerPool> pool_;  ///< created lazily when num_threads > 1
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
