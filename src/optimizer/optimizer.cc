#include "optimizer/optimizer.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <set>
#include <sstream>

#include "analysis/analyzer.h"
#include "analysis/plan_verifier.h"
#include "base/hash.h"
#include "base/strings.h"
#include "engine/counting.h"
#include "obs/search_trace.h"
#include "safety/safety.h"

namespace ldl {

void PlanSearchStats::ExportTo(MetricsRegistry* metrics) const {
  if (metrics == nullptr) return;
  metrics->counter("optimizer.cost_evaluations")->Increment(cost_evaluations);
  metrics->counter("optimizer.subplans_optimized")
      ->Increment(subplans_optimized);
  metrics->counter("optimizer.memo_hits")->Increment(memo_hits);
  metrics->counter("optimizer.memo_misses")->Increment(memo_misses);
  metrics->counter("optimizer.prunes_unsafe")->Increment(prunes_unsafe);
  metrics->counter("optimizer.prunes_unreachable")
      ->Increment(prunes_unreachable);
  metrics->histogram("optimizer.search_wall_ms")->Record(search_wall_ms);
}

namespace {

/// Full-body order for a recursive rule given the chosen order of the
/// non-delta items: the delta occurrence leads, followed by the remaining
/// literals in their chosen order.
std::vector<size_t> DeltaFirstOrder(size_t delta_pos,
                                    const std::vector<size_t>& item_positions,
                                    const std::vector<size_t>& item_order) {
  std::vector<size_t> order;
  order.reserve(item_positions.size() + 1);
  order.push_back(delta_pos);
  for (size_t idx : item_order) order.push_back(item_positions[idx]);
  return order;
}

}  // namespace

Optimizer::Optimizer(const Program& program, const Statistics& stats,
                     OptimizerOptions options)
    : program_(program),
      stats_(stats),
      options_(std::move(options)),
      graph_(DependencyGraph::Build(program)),
      model_(options_.cost),
      strategy_(MakeStrategy(options_.strategy, options_.strategy_options)) {}

Optimizer::~Optimizer() {
  if (options_.trace.accountant != nullptr && memo_charged_bytes_ != 0) {
    options_.trace.accountant->ReleaseBytes(memo_charged_bytes_);
  }
}

bool Optimizer::Aborted() {
  if (!aborted_status_.ok()) return true;
  if (options_.trace.cancel == nullptr) return false;
  Status st = options_.trace.cancel->Check();
  if (st.ok()) return false;
  aborted_status_ = std::move(st);
  return true;
}

Optimizer::Subplan Optimizer::AbortedSubplan() const {
  // Cheap, safe, never memoized: only exists so the in-flight recursion
  // unwinds without tripping estimation paths; Optimize() discards the
  // whole plan and returns aborted_status_.
  Subplan sub;
  sub.est.safe = true;
  sub.est.card = 1;
  sub.note = "optimization aborted";
  return sub;
}

uint64_t Optimizer::ApproxSubplanBytes(const Subplan& sub) const {
  uint64_t n = sizeof(AdornedPredicate) + sizeof(Subplan);
  for (const auto& [rule_index, order] : sub.orders) {
    n += sizeof(rule_index) + order.capacity() * sizeof(size_t) +
         sizeof(order);
  }
  n += (sub.children.capacity() + sub.materialized_children.capacity()) *
       sizeof(AdornedPredicate);
  n += sub.note.size();
  return n;
}

SearchTracer* Optimizer::Tracing() const {
  SearchTracer* st = options_.trace.search;
  return (st != nullptr && st->enabled()) ? st : nullptr;
}

bool Optimizer::Unreachable(const AdornedPredicate& ap) const {
  return options_.analysis != nullptr &&
         !options_.analysis->AdornmentReachable(ap);
}

Optimizer::Subplan Optimizer::PrunedSubplan(const AdornedPredicate& ap) {
  // Safe and costless on purpose: these placeholders only ever answer
  // estimation probes (the KBZ parameter / materialization all-free
  // lookups); the reachability closure guarantees no winning plan path
  // consumes one. The cardinality comes from the analysis sketch so the
  // probe still sees a plausible magnitude.
  Subplan sub;
  sub.est.safe = true;
  sub.est.card = options_.analysis->CardinalityBound(ap.pred);
  sub.note = "statically unreachable adornment";
  return sub;
}

void Optimizer::TraceMemoNode(std::string_view key,
                              const AdornedPredicate& ap, Subplan* sub) {
  SearchTracer* st = Tracing();
  if (st == nullptr) return;
  const uint32_t node = st->InternMemoNode(key);
  st->SetMemoNode(node, sub->est.setup + sub->est.per_binding, sub->est.card,
                  sub->est.safe,
                  graph_.CliqueIndex(ap.pred) >= 0
                      ? RecursionMethodToString(sub->method)
                      : std::string_view(),
                  sub->note);
  for (const AdornedPredicate& child : sub->children) {
    st->AddMemoEdge(node, st->InternMemoNode(child.ToString()));
  }
  // Remembered in the memoized subplan so later hits on this entry can
  // record against the node index without rebuilding the key string.
  sub->trace_node = node;
  sub->trace_gen = st->generation();
}

OrderResult Optimizer::TimedFindOrder(const std::vector<ConjunctItem>& items,
                                      const BoundVars& initial) {
  // The search tracer rides along either way; only the clock reads are
  // gated on the span/metrics context.
  if (!options_.trace.active()) {
    return strategy_->FindOrder(items, initial, model_, options_.trace.search);
  }
  // Per-strategy wall time: one histogram per strategy name, so mixed-
  // strategy experiments can compare effort directly.
  auto start = std::chrono::steady_clock::now();
  OrderResult result =
      strategy_->FindOrder(items, initial, model_, options_.trace.search);
  double ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - start)
                  .count();
  options_.trace.Observe(StrCat("optimizer.find_order_ms.", strategy_->name()),
                         ms);
  return result;
}

ConjunctItem Optimizer::MakeItem(const Literal& lit, Subplan* parent) {
  if (lit.IsBuiltin()) {
    ConjunctItem item;
    item.literal = lit;
    return item;  // the cost model charges builtins without an estimate
  }
  if (!program_.IsDerived(lit.predicate())) {
    ConjunctItem item = MakeBaseItem(lit, stats_, options_.cost);
    // Hindsight overlay: measured truth into the catalog item.
    if (options_.measured != nullptr) options_.measured->AdjustBaseItem(&item);
    return item;
  }

  // Derived literal: back the estimate with the (predicate, binding) memo.
  // MP: the estimate picks pipelined vs materialized per outer cardinality.
  const PredicateId pred = lit.predicate();
  // When the static analysis proved the all-free adornment unreachable the
  // lattice edge is dropped too: the memoized plan never evaluates this
  // child free, so the dependency would be fictitious.
  const bool free_reachable =
      !Unreachable({pred, Adornment::AllFree(pred.arity)});
  if (parent != nullptr && free_reachable) {
    parent->children.push_back({pred, Adornment::AllFree(pred.arity)});
  }
  const bool consider_mat = options_.consider_materialization;
  const CostModelOptions cost = options_.cost;
  ConjunctItem item;
  item.literal = lit;
  // KBZ graph parameters from the all-free subplan.
  {
    const PlanEstimate full =
        EstimatePredicate({pred, Adornment::AllFree(pred.arity)});
    item.base_cardinality = std::max(1.0, full.card);
    item.distinct.assign(pred.arity, std::max(1.0, std::pow(full.card, 0.8)));
  }
  item.estimate = [this, pred, consider_mat, free_reachable, cost](
                      const Adornment& adn, double outer_card) {
    const PlanEstimate pipelined = EstimatePredicate({pred, adn});
    PlanEstimate best = pipelined;
    // The materialized alternative computes the child's FULL extension;
    // when the free adornment is statically unreachable its subplan is a
    // costless placeholder that must not be allowed to win (it would drive
    // an un-analyzed — possibly unsafe — free fixpoint at execution).
    if (consider_mat && free_reachable && adn.BoundCount() > 0) {
      const PlanEstimate full =
          EstimatePredicate({pred, Adornment::AllFree(pred.arity)});
      if (full.safe) {
        PlanEstimate mat;
        mat.setup =
            full.setup + full.per_binding + full.card * cost.materialize_cost;
        mat.per_binding = cost.index_probe_cost +
                          std::max(pipelined.card, 0.0) * cost.tuple_cost;
        mat.card = pipelined.safe ? pipelined.card
                                  : full.card;  // fallback estimate
        mat.safe = true;
        double outer = std::max(outer_card, 1.0);
        double pipe_total =
            pipelined.safe ? pipelined.setup + outer * pipelined.per_binding
                           : kInfiniteCost;
        double mat_total = mat.setup + outer * mat.per_binding;
        if (mat_total < pipe_total) best = mat;
      }
    }
    return best;
  };
  return item;
}

Optimizer::Subplan Optimizer::OptimizePredicate(const AdornedPredicate& ap) {
  Subplan scratch;
  return FindOrOptimize(ap, &scratch);
}

PlanEstimate Optimizer::EstimatePredicate(const AdornedPredicate& ap) {
  Subplan scratch;
  return FindOrOptimize(ap, &scratch).est;
}

const Optimizer::Subplan& Optimizer::FindOrOptimize(const AdornedPredicate& ap,
                                                    Subplan* scratch) {
  // Cooperative abort: every subplan optimization is a check-point, so a
  // deadline or budget violation stops the search within one subplan's
  // worth of work instead of finishing an exponential enumeration.
  if (Aborted()) return *scratch = AbortedSubplan();
  // Static pruning (analysis/analyzer.h): adornments outside the query's
  // reachable closure are answered with a placeholder instead of being
  // optimized — and deliberately NOT memoized, so the memo lattice (and
  // Figure 7-1's per-binding table) shrinks by exactly these entries.
  if (Unreachable(ap)) {
    search_stats_.prunes_unreachable++;
    if (SearchTracer* st = Tracing()) {
      st->RecordCandidate({}, 0.0, CandidateDisposition::kPrunedUnreachable,
                          ap.ToString());
    }
    return *scratch = PrunedSubplan(ap);
  }
  if (options_.memoize) {
    auto it = memo_.find(ap);
    if (it != memo_.end()) {
      search_stats_.memo_hits++;
      if (SearchTracer* st = Tracing()) {
        const Subplan& sub = it->second;
        const double cost = sub.est.setup + sub.est.per_binding;
        if (sub.trace_node != UINT32_MAX &&
            sub.trace_gen == st->generation()) {
          // Hot path: one per cost evaluation that touches a derived item,
          // so no strings — the memo entry remembers its lattice node.
          st->RecordMemoHit(sub.trace_node, cost);
        } else {
          // The entry predates this trace (tracer cleared or attached
          // mid-stream): fall back to recording the key.
          st->RecordCandidate({}, cost, CandidateDisposition::kMemoHit,
                              ap.ToString());
        }
      }
      return it->second;
    }
    search_stats_.memo_misses++;
  }
  search_stats_.subplans_optimized++;
  SearchTracer* const st = Tracing();
  const std::string trace_key = st == nullptr ? std::string() : ap.ToString();
  SearchScope trace_scope(st, st == nullptr ? std::string()
                                            : StrCat("p ", trace_key));

  Subplan& result = *scratch;
  int clique_index = graph_.CliqueIndex(ap.pred);
  if (clique_index >= 0) {
    result = OptimizeClique(clique_index, ap);
  } else {
    // OR node: optimize each AND child (rule) for this binding; the union's
    // cost is the sum, its cardinality the sum of the children's.
    result.est.safe = true;
    result.est.card = 0;
    for (size_t rule_index : program_.RulesFor(ap.pred)) {
      Subplan rule_plan = OptimizeRule(rule_index, ap.adornment);
      if (!rule_plan.est.safe) {
        result.est = PlanEstimate::Unsafe();
        search_stats_.prunes_unsafe++;
        result.note = rule_plan.note;
        break;
      }
      result.est.setup += rule_plan.est.setup;
      result.est.per_binding += rule_plan.est.per_binding;
      result.est.card += rule_plan.est.card;
      for (auto& [ri, order] : rule_plan.orders) {
        result.orders[ri] = std::move(order);
      }
      result.children.insert(result.children.end(),
                             rule_plan.children.begin(),
                             rule_plan.children.end());
      result.materialized_children.insert(
          result.materialized_children.end(),
          rule_plan.materialized_children.begin(),
          rule_plan.materialized_children.end());
    }
  }

  // Hindsight overlay: when this (predicate, binding) was actually
  // executed, the measured per-binding cardinality replaces the estimate —
  // so every parent costing that consumes this subplan sees the truth.
  if (options_.measured != nullptr && result.est.safe) {
    if (const double* card = options_.measured->Find(ap.pred, ap.adornment)) {
      result.est.card = std::max(*card, 1e-9);
    }
  }

  // A result computed after an abort latched may be built from placeholder
  // children — never memoize it (it would poison later Optimize calls).
  if (!aborted_status_.ok()) return result = AbortedSubplan();
  TraceMemoNode(trace_key, ap, &result);
  if (!options_.memoize) return result;
  Subplan& entry = memo_[ap] = std::move(result);
  if (options_.trace.accountant != nullptr) {
    const uint64_t entry_bytes = ApproxSubplanBytes(entry);
    memo_charged_bytes_ += entry_bytes;
    options_.trace.accountant->AddBytes(entry_bytes);
  }
  return entry;
}

Optimizer::Subplan Optimizer::OptimizeRule(size_t rule_index,
                                           const Adornment& head_adn) {
  const Rule& rule = program_.rules()[rule_index];
  Subplan plan;
  SearchTracer* const st = Tracing();
  SearchScope trace_scope(
      st, st == nullptr
              ? std::string()
              : StrCat("rule ", rule_index, " [", head_adn.ToString(), "]"));

  std::vector<ConjunctItem> items;
  items.reserve(rule.body().size());
  for (const Literal& lit : rule.body()) {
    items.push_back(MakeItem(lit, &plan));
  }
  BoundVars initial;
  BindHeadVariables(rule.head(), head_adn, &initial);

  OrderResult best;
  bool pinned_order = false;
  if (options_.pinned != nullptr) {
    // Plan pinning: cost the chosen order instead of searching. Falls back
    // to the search when the pinned order is unsafe under this adornment
    // (best-effort, see PlanConstraints).
    auto it = options_.pinned->rule_orders.find(rule_index);
    if (it != options_.pinned->rule_orders.end() &&
        it->second.size() == rule.body().size()) {
      SequenceCost cost = model_.CostSequence(items, it->second, initial);
      search_stats_.cost_evaluations++;
      if (cost.safe && CheckRuleEc(rule, it->second, head_adn).ok()) {
        best.order = it->second;
        best.cost = cost.cost;
        best.out_card = cost.out_card;
        best.safe = true;
        pinned_order = true;
      }
    }
  }
  if (!pinned_order) {
    best = TimedFindOrder(items, initial);
    search_stats_.cost_evaluations += best.cost_evaluations;
  }

  if (!best.safe) {
    plan.est = PlanEstimate::Unsafe();
    search_stats_.prunes_unsafe++;
    plan.note = StrCat("no safe order for rule ", rule.ToString(),
                       " under binding ", head_adn.ToString());
    if (st != nullptr) {
      st->RecordCandidate(best.order, kInfiniteCost,
                          CandidateDisposition::kPrunedUnsafe, plan.note);
    }
    return plan;
  }
  // Range restriction of the head under this binding.
  Status ec = CheckRuleEc(rule, best.order, head_adn);
  if (!ec.ok()) {
    plan.est = PlanEstimate::Unsafe();
    search_stats_.prunes_unsafe++;
    plan.note = ec.message();
    if (st != nullptr) {
      st->RecordCandidate(best.order, kInfiniteCost,
                          CandidateDisposition::kPrunedUnsafe, plan.note);
    }
    return plan;
  }

  plan.est.setup = 0;
  plan.est.per_binding = best.cost;
  plan.est.card = std::max(best.out_card, 0.0);
  plan.est.safe = true;
  plan.orders[rule_index] = best.order;

  // Record which derived children the chosen order materializes.
  {
    const CompiledConjunct conj(items, initial);
    CompiledConjunct::Bindings bindings = conj.Initial();
    CompiledConjunct::Progress progress;
    for (size_t idx : best.order) {
      const Literal& lit = rule.body()[idx];
      if (!lit.IsBuiltin() && !lit.negated() &&
          program_.IsDerived(lit.predicate())) {
        Adornment adn = conj.Adorn(idx, bindings.bound);
        plan.children.push_back({lit.predicate(), adn});
        // Same gate as MakeItem's estimate: a statically-unreachable free
        // adornment must not be materialized (its subplan is a placeholder).
        if (options_.consider_materialization && adn.BoundCount() > 0 &&
            !Unreachable({lit.predicate(), Adornment::AllFree(lit.arity())})) {
          const PlanEstimate pipelined =
              EstimatePredicate({lit.predicate(), adn});
          const PlanEstimate full = EstimatePredicate(
              {lit.predicate(), Adornment::AllFree(lit.arity())});
          double outer = std::max(progress.card, 1.0);
          double pipe_total =
              pipelined.safe
                  ? pipelined.setup + outer * pipelined.per_binding
                  : kInfiniteCost;
          double mat_total =
              full.safe ? full.setup + full.per_binding +
                              outer * options_.cost.index_probe_cost
                        : kInfiniteCost;
          if (mat_total < pipe_total) {
            plan.materialized_children.push_back({lit.predicate(), adn});
          }
        }
      }
      model_.Charge(conj, idx, bindings, &progress);
      if (!progress.safe) break;
      conj.Bind(idx, &bindings);
    }
  }
  return plan;
}

Optimizer::Subplan Optimizer::OptimizeClique(int clique_index,
                                             const AdornedPredicate& ap) {
  const RecursiveClique& clique = graph_.cliques()[clique_index];
  Span span = options_.trace.StartSpan("optimize-clique", "optimizer");
  if (span.active()) span.AddArg("subquery", ap.ToString());
  SearchTracer* const st = Tracing();
  SearchScope trace_scope(
      st, st == nullptr
              ? std::string()
              : StrCat("clique #", clique_index, " ", ap.ToString()));
  Subplan plan;

  // Safety first: a non-well-founded clique has no finite execution under
  // this binding — infinite cost, section 8.2.
  Status wf = CheckWellFounded(program_, clique, ap.pred, ap.adornment);
  if (!wf.ok()) {
    plan.est = PlanEstimate::Unsafe();
    search_stats_.prunes_unsafe++;
    plan.note = wf.message();
    if (st != nullptr) {
      st->RecordCandidate({}, kInfiniteCost,
                          CandidateDisposition::kPrunedUnsafe, plan.note);
    }
    return plan;
  }

  const double D = options_.cost.assumed_recursion_depth;

  // Universe estimate: the largest distinct count among base columns used
  // by the clique (bounds how many constants recursion can reach).
  double universe = 2.0;
  {
    std::vector<size_t> all_rules = clique.exit_rules;
    all_rules.insert(all_rules.end(), clique.recursive_rules.begin(),
                     clique.recursive_rules.end());
    for (size_t rule_index : all_rules) {
      for (const Literal& lit : program_.rules()[rule_index].body()) {
        if (lit.IsBuiltin() || program_.IsDerived(lit.predicate())) continue;
        const RelationStats& rs = stats_.Get(lit.predicate());
        for (double d : rs.distinct) universe = std::max(universe, d);
        universe = std::max(universe, std::sqrt(rs.cardinality));
      }
    }
  }

  // --- Exit rules: free and bound variants. ---
  double exit_card_ff = 0, exit_cost_ff = 0, exit_cost_b = 0;
  bool exit_safe_ff = true, exit_safe_b = true;
  for (size_t rule_index : clique.exit_rules) {
    const Rule& rule = program_.rules()[rule_index];
    std::vector<ConjunctItem> items;
    for (const Literal& lit : rule.body()) items.push_back(MakeItem(lit, &plan));

    OrderResult free_run = TimedFindOrder(items, BoundVars());
    search_stats_.cost_evaluations += free_run.cost_evaluations;
    exit_safe_ff = exit_safe_ff && free_run.safe &&
                   CheckRuleEc(rule, free_run.order, Adornment()).ok();
    if (free_run.safe) {
      exit_card_ff += free_run.out_card;
      exit_cost_ff += free_run.cost;
    }

    BoundVars bound_init;
    Adornment head_adn = rule.head().predicate() == ap.pred
                             ? ap.adornment
                             : Adornment::AllFree(rule.head().arity());
    BindHeadVariables(rule.head(), head_adn, &bound_init);
    OrderResult bound_run = TimedFindOrder(items, bound_init);
    search_stats_.cost_evaluations += bound_run.cost_evaluations;
    exit_safe_b = exit_safe_b && bound_run.safe &&
                  CheckRuleEc(rule, bound_run.order, head_adn).ok();
    if (bound_run.safe) exit_cost_b += bound_run.cost;

    // Record: the free order drives seminaive evaluation; the bound order
    // is the SIP for the magic rewrite.
    if (free_run.safe) plan.orders[rule_index] = free_run.order;
  }
  exit_card_ff = std::max(exit_card_ff, 1.0);

  // --- Recursive rules: delta-driven cost + growth factor, and a bound
  // SIP order for magic. ---
  double rec_cost = 0;  // per delta tuple, summed over recursive rules
  double growth = 0;    // expected new tuples per delta tuple
  bool rec_safe_ff = true;  // delta-driven orders EC-safe with free head
  bool rec_safe_b = true;   // SIP orders EC-safe under the query binding
  bool magic_rec_bound = ap.adornment.BoundCount() > 0;
  std::map<size_t, std::vector<size_t>> magic_sips;
  for (size_t rule_index : clique.recursive_rules) {
    const Rule& rule = program_.rules()[rule_index];
    // Locate the first clique occurrence (the delta driver).
    size_t delta_pos = SIZE_MAX;
    for (size_t i = 0; i < rule.body().size(); ++i) {
      const Literal& lit = rule.body()[i];
      if (!lit.IsBuiltin() && !lit.negated() &&
          clique.Contains(lit.predicate())) {
        delta_pos = i;
        break;
      }
    }
    if (delta_pos == SIZE_MAX) {
      rec_safe_ff = false;
      rec_safe_b = false;
      continue;
    }

    // Items for everything except the delta occurrence; further clique
    // occurrences become probe items over the (being computed) fixpoint.
    std::vector<ConjunctItem> items;
    std::vector<size_t> item_positions;
    const double clique_card_guess = exit_card_ff * std::max(1.0, D);
    for (size_t i = 0; i < rule.body().size(); ++i) {
      if (i == delta_pos) continue;
      const Literal& lit = rule.body()[i];
      if (!lit.IsBuiltin() && !lit.negated() &&
          clique.Contains(lit.predicate())) {
        // Further occurrences of clique predicates probe the fixpoint
        // being computed; model them as catalog items over its estimated
        // extent so the search prices bound probes far below full scans.
        ConjunctItem item;
        item.literal = lit;
        item.use_catalog = true;
        item.base_cardinality = clique_card_guess;
        item.distinct.assign(
            lit.arity(),
            std::max(2.0, std::min(clique_card_guess, universe)));
        items.push_back(std::move(item));
      } else {
        items.push_back(MakeItem(lit, &plan));
      }
      item_positions.push_back(i);
    }

    BoundVars delta_bound;
    for (const Term& t : rule.body()[delta_pos].args()) {
      delta_bound.BindTerm(t);
    }
    OrderResult rec_run = TimedFindOrder(items, delta_bound);
    search_stats_.cost_evaluations += rec_run.cost_evaluations;
    std::vector<size_t> full_order;
    if (rec_run.safe) {
      full_order = DeltaFirstOrder(delta_pos, item_positions, rec_run.order);
    }
    bool this_rule_ff_safe =
        rec_run.safe && !full_order.empty() &&
        CheckRuleEc(rule, full_order, Adornment()).ok();
    rec_safe_ff = rec_safe_ff && this_rule_ff_safe;
    if (rec_run.safe) {
      rec_cost += rec_run.cost;
      growth += rec_run.out_card;
      if (this_rule_ff_safe) plan.orders[rule_index] = full_order;
    }

    // SIP for magic: order the FULL body under the head binding.
    if (magic_rec_bound) {
      std::vector<ConjunctItem> full_items;
      for (size_t i = 0; i < rule.body().size(); ++i) {
        const Literal& lit = rule.body()[i];
        if (!lit.IsBuiltin() && !lit.negated() &&
            clique.Contains(lit.predicate())) {
          // Self-reference inside the SIP: a catalog item over the clique's
          // estimated extent. An unbound recursive call then prices as a
          // full pass over the fixpoint, so the search keeps it after the
          // binding-producing literals — exactly the SIPs magic wants.
          ConjunctItem item;
          item.literal = lit;
          item.use_catalog = true;
          item.base_cardinality = clique_card_guess;
          item.distinct.assign(
              lit.arity(),
              std::max(2.0, std::min(clique_card_guess, universe)));
          full_items.push_back(std::move(item));
        } else {
          full_items.push_back(MakeItem(lit, &plan));
        }
      }
      BoundVars head_bound;
      Adornment head_adn = rule.head().predicate() == ap.pred
                               ? ap.adornment
                               : Adornment::AllFree(rule.head().arity());
      BindHeadVariables(rule.head(), head_adn, &head_bound);
      OrderResult sip_run = TimedFindOrder(full_items, head_bound);
      search_stats_.cost_evaluations += sip_run.cost_evaluations;
      if (sip_run.safe &&
          CheckRuleEc(rule, sip_run.order, head_adn).ok()) {
        magic_sips[rule_index] = sip_run.order;
        // Stable binding: the recursive occurrence must be reached with at
        // least one bound argument, else magic degenerates.
        BoundVars walk = head_bound;
        for (size_t idx : sip_run.order) {
          const Literal& lit = rule.body()[idx];
          if (!lit.IsBuiltin() && !lit.negated() &&
              clique.Contains(lit.predicate())) {
            if (AdornLiteral(lit, walk).BoundCount() == 0) {
              magic_rec_bound = false;
            }
          }
          PropagateBindings(lit, &walk);
        }
      } else {
        magic_rec_bound = false;
        rec_safe_b = false;
      }
    }
  }

  const bool semi_safe = rec_safe_ff && exit_safe_ff;
  const bool magic_safe = ap.adornment.BoundCount() > 0 && exit_safe_b &&
                          rec_safe_b;
  if (!semi_safe && !magic_safe) {
    // No evaluation discipline makes every clique rule effectively
    // computable: prune with infinite cost (section 8.2).
    plan.est = PlanEstimate::Unsafe();
    search_stats_.prunes_unsafe++;
    plan.note = StrCat("no safe evaluation order for clique ",
                       clique.ToString(), " under binding ",
                       ap.adornment.ToString(), " (section 8.2 pruning)");
    if (st != nullptr) {
      st->RecordCandidate({}, kInfiniteCost,
                          CandidateDisposition::kPrunedUnsafe, plan.note);
    }
    return plan;
  }

  // --- Size and per-method cost estimation. ---
  double geom;
  if (growth > 1.001) {
    geom = (std::pow(growth, D + 1) - 1) / (growth - 1);
  } else if (growth < 0.999) {
    geom = 1.0 / (1.0 - growth);
  } else {
    geom = D + 1;
  }
  double arity_cap = std::pow(
      universe, std::min<double>(static_cast<double>(ap.pred.arity), 3.0));
  double total_card = std::min(exit_card_ff * geom, arity_cap);
  total_card = std::max(total_card, exit_card_ff);

  double sel_b = 1.0;
  for (size_t i = 0; i < ap.adornment.size(); ++i) {
    if (ap.adornment.IsBound(i)) {
      sel_b /= std::max(2.0, std::min(total_card, universe));
    }
  }
  double per_binding_card = std::max(total_card * sel_b, 1e-6);

  const CostModelOptions& cost = options_.cost;
  double fixpoint_work = exit_cost_ff + total_card * std::max(rec_cost, 1e-3) +
                         total_card * cost.materialize_cost;

  struct Candidate {
    RecursionMethod method;
    PlanEstimate est;
  };
  std::vector<Candidate> candidates;

  if (semi_safe) {
    PlanEstimate semi;
    semi.setup = fixpoint_work;
    semi.per_binding = cost.index_probe_cost +
                       per_binding_card * cost.tuple_cost;
    semi.card = per_binding_card;
    semi.safe = true;
    candidates.push_back({RecursionMethod::kSemiNaive, semi});

    PlanEstimate naive = semi;
    naive.setup *= 1.0 + D * cost.naive_rederivation_factor;
    candidates.push_back({RecursionMethod::kNaive, naive});
  }

  if (options_.enable_magic && magic_safe) {
    double restriction = magic_rec_bound ? sel_b : 1.0;
    PlanEstimate magic;
    magic.setup = 0;
    magic.per_binding = cost.magic_overhead * restriction * fixpoint_work +
                        cost.index_probe_cost;
    magic.card = per_binding_card;
    magic.safe = true;
    candidates.push_back({RecursionMethod::kMagic, magic});

    if (options_.enable_counting && magic_rec_bound) {
      // Applicability via the actual rewrite machinery on a proxy goal.
      Program clique_program;
      for (size_t rule_index : clique.exit_rules) {
        clique_program.AddRule(program_.rules()[rule_index]);
      }
      for (size_t rule_index : clique.recursive_rules) {
        clique_program.AddRule(program_.rules()[rule_index]);
      }
      std::vector<Term> proxy_args;
      for (size_t i = 0; i < ap.adornment.size(); ++i) {
        proxy_args.push_back(ap.adornment.IsBound(i)
                                 ? Term::MakeInt(0)
                                 : Term::MakeVariable(StrCat("_F", i)));
      }
      Literal proxy = Literal::Make(ap.pred.name, std::move(proxy_args));
      if (CountingRewrite(clique_program, proxy).ok()) {
        PlanEstimate counting = candidates.back().est;
        counting.per_binding *= cost.counting_discount;
        candidates.push_back({RecursionMethod::kCounting, counting});
      }
    }
  }

  // Plan pinning: keep only the chosen method's candidate when it is still
  // applicable under this run's safety analysis (best-effort).
  if (options_.pinned != nullptr) {
    auto it = options_.pinned->clique_methods.find(clique_index);
    if (it != options_.pinned->clique_methods.end()) {
      std::vector<Candidate> matching;
      for (const Candidate& c : candidates) {
        if (c.method == it->second && c.est.safe) matching.push_back(c);
      }
      if (!matching.empty()) candidates = std::move(matching);
    }
  }

  const Candidate* best = nullptr;
  for (const Candidate& c : candidates) {
    if (!c.est.safe) continue;
    if (best == nullptr ||
        c.est.setup + c.est.per_binding <
            best->est.setup + best->est.per_binding) {
      best = &c;
    }
  }
  if (best == nullptr) {
    plan.est = PlanEstimate::Unsafe();
    search_stats_.prunes_unsafe++;
    plan.note = "no applicable recursive method";
    if (st != nullptr) {
      st->RecordCandidate({}, kInfiniteCost,
                          CandidateDisposition::kPrunedUnsafe, plan.note);
    }
    return plan;
  }
  if (st != nullptr) {
    // The PA method race: one candidate event per applicable recursive
    // method, the winner kept.
    for (const Candidate& c : candidates) {
      st->RecordCandidate({}, c.est.setup + c.est.per_binding,
                          &c == best ? CandidateDisposition::kKept
                                     : CandidateDisposition::kDominated,
                          RecursionMethodToString(c.method));
    }
  }
  plan.est = best->est;
  plan.method = best->method;
  // PA choice per clique: which recursive method won the cost race.
  if (options_.trace.metrics != nullptr) {
    options_.trace.Count(StrCat("optimizer.pa_choice.",
                                RecursionMethodToString(best->method)));
  }
  if (span.active()) {
    span.AddArg("method", RecursionMethodToString(best->method));
  }
  if (best->method == RecursionMethod::kMagic ||
      best->method == RecursionMethod::kCounting) {
    // Magic executes the SIP orders; override the seminaive ones.
    for (auto& [rule_index, order] : magic_sips) {
      plan.orders[rule_index] = order;
    }
  }
  return plan;
}

void Optimizer::CollectPlan(const AdornedPredicate& ap, QueryPlan* plan,
                            std::set<std::string>* visited) {
  if (!visited->insert(ap.ToString()).second) return;
  auto it = memo_.find(ap);
  if (it == memo_.end()) return;
  // Everything CollectPlan reaches is part of the chosen plan: highlight it
  // in the memo lattice.
  if (SearchTracer* st = Tracing()) st->MarkWinning(ap.ToString());
  const Subplan& sub = it->second;
  for (const auto& [rule_index, order] : sub.orders) {
    plan->rule_orders.emplace(rule_index, order);
    plan->sips.SetOrderForAdornment(rule_index, ap.adornment, order);
    plan->sips.SetOrder(rule_index, order);
  }
  int ci = graph_.CliqueIndex(ap.pred);
  if (ci >= 0) plan->clique_methods[ci] = sub.method;
  for (const AdornedPredicate& child : sub.materialized_children) {
    plan->materialized.push_back(child.ToString());
  }
  for (const AdornedPredicate& child : sub.children) {
    CollectPlan(child, plan, visited);
    CollectPlan({child.pred, Adornment::AllFree(child.pred.arity)}, plan,
                visited);
  }
}

Result<QueryPlan> Optimizer::Optimize(const Literal& goal) {
  if (!program_.IsDerived(goal.predicate())) {
    return Status::InvalidArgument(
        StrCat("query predicate ", goal.predicate().ToString(),
               " is not defined by any rule"));
  }
  Span span = options_.trace.StartSpan("optimize", "optimizer");
  if (span.active()) {
    span.AddArg("goal", goal.ToString());
    span.AddArg("strategy", strategy_->name());
  }
  // Per-call accounting: a single Optimizer can serve several Optimize
  // calls (with the memo persisting across them), but the stats describe
  // one call, not the instance's lifetime.
  search_stats_ = PlanSearchStats{};
  aborted_status_ = Status::OK();
  const auto wall_start = std::chrono::steady_clock::now();

  QueryPlan plan;
  plan.goal = goal;
  plan.adornment = Adornment::FromGoal(goal);

  AdornedPredicate ap{goal.predicate(), plan.adornment};
  Subplan sub = OptimizePredicate(ap);
  if (!aborted_status_.ok()) return aborted_status_;
  plan.estimate = sub.est;
  plan.safe = sub.est.safe;
  if (!plan.safe) {
    plan.unsafe_reason = sub.note.empty()
                             ? AnalyzeQuerySafety(program_, goal).ToString()
                             : sub.note;
  }

  std::set<std::string> visited;
  CollectPlan(ap, &plan, &visited);

  int ci = graph_.CliqueIndex(goal.predicate());
  if (ci >= 0) {
    plan.top_method = sub.method;
  } else {
    plan.top_method = (plan.adornment.BoundCount() > 0 && options_.enable_magic)
                          ? RecursionMethod::kMagic
                          : RecursionMethod::kSemiNaive;
  }
  search_stats_.search_wall_ms +=
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - wall_start)
          .count();
  plan.search_stats = search_stats_;

  // The stats already cover exactly this call (reset above), so repeated
  // queries don't double-count in the registry.
  search_stats_.ExportTo(options_.trace.metrics);

  // verify_plans: materialize the decisions into a processing tree and
  // check the §4/§5 invariants held through the search. Unsafe plans carry
  // no executable decisions to verify.
  if (options_.verify_plans && plan.safe) {
    LDL_ASSIGN_OR_RETURN(std::unique_ptr<PlanNode> tree,
                         BuildProcessingTree(program_, goal));
    LDL_RETURN_NOT_OK(AnnotateTree(tree.get()));
  }
  return plan;
}

std::string QueryPlan::Explain(const Program& program) const {
  std::ostringstream os;
  os << "QUERY   " << goal.ToString() << "?  [binding " << adornment.ToString()
     << "]\n";
  if (!safe) {
    os << "UNSAFE  " << unsafe_reason << "\n";
    return os.str();
  }
  os << "COST    " << TotalCost() << " (setup " << estimate.setup
     << " + per-binding " << estimate.per_binding << "), est. cardinality "
     << estimate.card << "\n";
  os << "METHOD  " << RecursionMethodToString(top_method) << "\n";
  for (const auto& [ci, method] : clique_methods) {
    os << "CLIQUE  #" << ci << " via " << RecursionMethodToString(method)
       << "\n";
  }
  for (const auto& [rule_index, order] : rule_orders) {
    const Rule& rule = program.rules()[rule_index];
    os << "RULE " << rule_index << "  " << rule.head().ToString() << " <- ";
    for (size_t i = 0; i < order.size(); ++i) {
      if (i) os << ", ";
      os << rule.body()[order[i]].ToString();
    }
    os << ".\n";
  }
  for (const std::string& m : materialized) {
    os << "MAT     " << m << "\n";
  }
  os << "SEARCH  " << search_stats.cost_evaluations << " cost evaluations, "
     << search_stats.subplans_optimized << " subplans, "
     << search_stats.memo_hits << " memo hits, "
     << search_stats.prunes_unsafe << " unsafe prunes";
  if (search_stats.prunes_unreachable > 0) {
    os << ", " << search_stats.prunes_unreachable << " unreachable prunes";
  }
  os << "\n";
  return os.str();
}

std::string QueryPlan::Fingerprint() const {
  // Decisions only — no costs or wall times, so two runs with different
  // hardware but identical choices fingerprint identically. Unordered
  // containers are folded in sorted order.
  size_t seed = 0;
  HashValue(&seed, goal.predicate().ToString());
  HashValue(&seed, adornment.ToString());
  HashValue(&seed, safe);
  HashValue(&seed, std::string(RecursionMethodToString(top_method)));
  std::vector<std::pair<size_t, std::vector<size_t>>> orders(
      rule_orders.begin(), rule_orders.end());
  std::sort(orders.begin(), orders.end());
  for (const auto& [rule_index, order] : orders) {
    HashValue(&seed, rule_index);
    for (size_t pos : order) HashValue(&seed, pos);
    HashValue(&seed, order.size());
  }
  for (const auto& [clique_index, method] : clique_methods) {
    HashValue(&seed, clique_index);
    HashValue(&seed, std::string(RecursionMethodToString(method)));
  }
  std::vector<std::string> mats = materialized;
  std::sort(mats.begin(), mats.end());
  for (const std::string& m : mats) HashValue(&seed, m);
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(seed));
  return buf;
}


// --- Processing-tree annotation -------------------------------------------

Status Optimizer::AnnotateTree(PlanNode* tree) {
  LDL_RETURN_NOT_OK(AnnotateNode(tree, Adornment::FromGoal(tree->goal)));
  if (options_.verify_plans) {
    PlanVerifierOptions vopts;
    vopts.allow_magic = options_.enable_magic;
    vopts.allow_counting = options_.enable_counting;
    LDL_RETURN_NOT_OK(PlanVerifier(program_, vopts).Verify(*tree));
  }
  return Status::OK();
}

Status Optimizer::AnnotateNode(PlanNode* node, const Adornment& binding) {
  node->binding = binding;
  switch (node->kind) {
    case PlanNodeKind::kScan: {
      ConjunctItem item = MakeBaseItem(node->goal, stats_, options_.cost);
      if (options_.measured != nullptr) {
        options_.measured->AdjustBaseItem(&item);
      }
      PlanEstimate est = item.estimate(binding, 1.0);
      node->est_cost = est.per_binding;
      node->est_cardinality = est.card;
      node->method = binding.BoundCount() > 0 ? "index-scan" : "scan";
      return Status::OK();
    }
    case PlanNodeKind::kBuiltin: {
      node->est_cost = options_.cost.builtin_cost;
      node->est_cardinality = 1;
      return Status::OK();
    }
    case PlanNodeKind::kOr: {
      Subplan sub = OptimizePredicate({node->goal.predicate(), binding});
      node->est_cost = sub.est.setup + sub.est.per_binding;
      node->est_cardinality = sub.est.card;
      for (auto& child : node->children) {
        LDL_RETURN_NOT_OK(AnnotateNode(child.get(), binding));
      }
      return Status::OK();
    }
    case PlanNodeKind::kCc: {
      Subplan sub = OptimizePredicate({node->goal.predicate(), binding});
      node->est_cost = sub.est.setup + sub.est.per_binding;
      node->est_cardinality = sub.est.card;
      node->method = RecursionMethodToString(sub.method);
      // Pipelined methods are triangle nodes; fixpoint materializations are
      // squares (MP label on the CC node).
      node->materialized = sub.method == RecursionMethod::kNaive ||
                           sub.method == RecursionMethod::kSemiNaive;
      // Install the chosen c-permutation (PA).
      for (size_t i = 0; i < node->clique_rules.size(); ++i) {
        auto it = sub.orders.find(node->clique_rules[i]);
        if (it != sub.orders.end() && i < node->clique_orders.size() &&
            it->second.size() == node->clique_orders[i].size()) {
          node->clique_orders[i] = it->second;
        }
      }
      for (auto& child : node->children) {
        LDL_RETURN_NOT_OK(
            AnnotateNode(child.get(),
                         Adornment::AllFree(child->goal.arity())));
      }
      return Status::OK();
    }
    case PlanNodeKind::kAnd: {
      if (node->rule_index >= program_.rules().size()) {
        return Status::Internal(
            StrCat("AND node references rule ", node->rule_index,
                   " of a program with ", program_.rules().size(), " rules"));
      }
      const Rule& rule = program_.rules()[node->rule_index];
      if (node->children.size() != rule.body().size() ||
          node->body_order.size() != rule.body().size()) {
        return Status::Internal(
            StrCat("AND node for rule ", node->rule_index, " has ",
                   node->children.size(), " children / ",
                   node->body_order.size(), " order entries for a body of ",
                   rule.body().size(), " literals"));
      }
      Subplan sub = OptimizeRule(node->rule_index, binding);
      node->est_cost = sub.est.setup + sub.est.per_binding;
      node->est_cardinality = sub.est.card;
      auto it = sub.orders.find(node->rule_index);
      if (it != sub.orders.end()) {
        // PR: reorder the children into the chosen execution order. Resolve
        // every chosen position to a child slot before moving anything, so
        // a mismatched order leaves the node untouched instead of nulling
        // the children it had already moved out.
        const std::vector<size_t>& chosen = it->second;
        std::vector<size_t> slots;
        std::vector<bool> taken(node->children.size(), false);
        slots.reserve(chosen.size());
        for (size_t original : chosen) {
          for (size_t j = 0; j < node->body_order.size(); ++j) {
            if (node->body_order[j] == original && !taken[j] &&
                node->children[j]) {
              slots.push_back(j);
              taken[j] = true;
              break;
            }
          }
        }
        if (slots.size() == node->children.size()) {
          std::vector<std::unique_ptr<PlanNode>> new_children;
          std::vector<size_t> new_order;
          new_children.reserve(slots.size());
          new_order.reserve(slots.size());
          for (size_t j : slots) {
            new_children.push_back(std::move(node->children[j]));
            new_order.push_back(node->body_order[j]);
          }
          node->children = std::move(new_children);
          node->body_order = std::move(new_order);
        }
      }
      // Children bindings via sideways information passing along the
      // chosen order.
      BoundVars bound;
      BindHeadVariables(rule.head(), binding, &bound);
      for (size_t j = 0; j < node->children.size(); ++j) {
        const Literal& lit = rule.body()[node->body_order[j]];
        Adornment child_binding = AdornLiteral(lit, bound);
        LDL_RETURN_NOT_OK(AnnotateNode(node->children[j].get(),
                                       child_binding));
        // MP flag for derived children: pipeline when the binding helps.
        if (node->children[j]->kind == PlanNodeKind::kOr ||
            node->children[j]->kind == PlanNodeKind::kCc) {
          bool materialize = child_binding.BoundCount() == 0;
          for (const AdornedPredicate& m : sub.materialized_children) {
            if (m.pred == lit.predicate()) materialize = true;
          }
          if (node->children[j]->kind == PlanNodeKind::kOr) {
            node->children[j]->materialized = materialize;
          }
        }
        PropagateBindings(lit, &bound);
      }
      return Status::OK();
    }
  }
  return Status::Internal("unknown plan node kind");
}

}  // namespace ldl
