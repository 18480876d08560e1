#include "optimizer/join_order.h"

#include <algorithm>
#include <cmath>

#include "obs/search_trace.h"
#include "optimizer/kbz.h"

namespace ldl {

const char* SearchStrategyToString(SearchStrategy strategy) {
  switch (strategy) {
    case SearchStrategy::kExhaustive:
      return "exhaustive";
    case SearchStrategy::kDynamicProgramming:
      return "dp";
    case SearchStrategy::kKbz:
      return "kbz";
    case SearchStrategy::kAnnealing:
      return "annealing";
    case SearchStrategy::kLexicographic:
      return "lexicographic";
  }
  return "?";
}

namespace {

std::vector<size_t> IdentityOrder(size_t n) {
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  return order;
}

/// Collapses the null/disabled cases so strategies test one pointer.
SearchTracer* Active(SearchTracer* trace) {
  return (trace != nullptr && trace->enabled()) ? trace : nullptr;
}

/// Prolog's control: take the body exactly as written. The paper's
/// motivating baseline ("it is up to the programmer to make sure this order
/// leads to a safe and efficient execution").
class LexicographicStrategy : public JoinOrderStrategy {
 public:
  std::string name() const override { return "lexicographic"; }

  OrderResult FindOrder(const std::vector<ConjunctItem>& items,
                        const BoundVars& initial, const CostModel& model,
                        SearchTracer* trace) override {
    OrderResult result;
    result.order = IdentityOrder(items.size());
    SequenceCost sc = model.CostSequence(items, result.order, initial);
    result.cost = sc.cost;
    result.out_card = sc.out_card;
    result.safe = sc.safe;
    result.cost_evaluations = 1;
    if (SearchTracer* st = Active(trace)) {
      st->RecordCandidate(result.order, sc.cost,
                          sc.safe ? CandidateDisposition::kKept
                                  : CandidateDisposition::kPrunedUnsafe,
                          "textual order");
    }
    return result;
  }
};

/// Exhaustive enumeration with branch-and-bound: abandons a prefix as soon
/// as its cost exceeds the best complete order found so far. Exact, and the
/// reference that the quadratic and stochastic strategies are measured
/// against (section 9: "supplies the basis for assessing ... the two
/// alternative algorithms").
class ExhaustiveStrategy : public JoinOrderStrategy {
 public:
  explicit ExhaustiveStrategy(const StrategyOptions& options)
      : options_(options) {}

  std::string name() const override { return "exhaustive"; }

  OrderResult FindOrder(const std::vector<ConjunctItem>& items,
                        const BoundVars& initial, const CostModel& model,
                        SearchTracer* trace) override {
    // All search state is local: FindOrder re-enters itself whenever a
    // derived item's estimate recursively optimizes a subquery.
    OrderResult result;
    if (items.size() > options_.exhaustive_limit) {
      // Too large: defer to DP (the caller picked the wrong strategy, but
      // degrade gracefully rather than running for hours).
      auto dp = MakeStrategy(SearchStrategy::kDynamicProgramming, options_);
      return dp->FindOrder(items, initial, model, trace);
    }
    const CompiledConjunct conj(items, initial);
    Search search{conj, model, Active(trace), IdentityOrder(items.size()),
                  {}, std::vector<CompiledConjunct::Bindings>(
                          items.size() + 1, conj.Initial()),
                  &result};
    search.Recurse(0, CompiledConjunct::Progress{});
    return result;
  }

 private:
  /// One search's state; `bindings[d]` holds the bindings after the
  /// d-item prefix, so a step copies them only when it is kept.
  struct Search {
    const CompiledConjunct& conj;
    const CostModel& model;
    SearchTracer* trace;
    std::vector<size_t> remaining;
    std::vector<size_t> prefix;
    std::vector<CompiledConjunct::Bindings> bindings;
    OrderResult* result;

    void Recurse(size_t depth, const CompiledConjunct::Progress& progress) {
      if (remaining.empty()) {
        double total =
            progress.cost + progress.card * model.options().output_cost;
        result->cost_evaluations++;
        const bool improved = total < result->cost;
        if (trace != nullptr) {
          trace->RecordCandidate(prefix, total,
                                 improved ? CandidateDisposition::kKept
                                          : CandidateDisposition::kDominated);
        }
        if (improved) {
          result->cost = total;
          result->out_card = progress.card;
          result->order = prefix;
          result->safe = true;
        }
        return;
      }
      for (size_t i = 0; i < remaining.size(); ++i) {
        size_t item = remaining[i];
        CompiledConjunct::Progress next = progress;
        model.Charge(conj, item, bindings[depth], &next);
        result->cost_evaluations++;
        if (!next.safe || next.cost >= result->cost) {  // prune this prefix
          if (trace != nullptr) {
            trace->RecordCandidateStep(
                prefix, item, next.cost,
                next.safe ? CandidateDisposition::kPrunedBound
                          : CandidateDisposition::kPrunedUnsafe);
          }
          continue;
        }
        bindings[depth + 1] = bindings[depth];
        conj.Bind(item, &bindings[depth + 1]);
        remaining.erase(remaining.begin() + i);
        prefix.push_back(item);
        Recurse(depth + 1, next);
        prefix.pop_back();
        remaining.insert(remaining.begin() + i, item);
      }
    }
  };

  StrategyOptions options_;
};

/// Selinger-style dynamic programming over subsets [Sel 79]: O(n 2^n) time,
/// O(2^n) space, left-deep orders. The bound-variable set of a subset is a
/// function of the subset alone, so the DP decomposition is exact for our
/// cost model.
class DpStrategy : public JoinOrderStrategy {
 public:
  explicit DpStrategy(const StrategyOptions& options) : options_(options) {}

  std::string name() const override { return "dp"; }

  OrderResult FindOrder(const std::vector<ConjunctItem>& items,
                        const BoundVars& initial, const CostModel& model,
                        SearchTracer* trace) override {
    OrderResult result;
    const size_t n = items.size();
    if (n > options_.dp_limit) {
      auto sa = MakeStrategy(SearchStrategy::kAnnealing, options_);
      return sa->FindOrder(items, initial, model, trace);
    }
    SearchTracer* st = Active(trace);
    struct Entry {
      double cost = kInfiniteCost;
      double card = 0;
      int last = -1;      // last item added
      uint32_t prev = 0;  // preceding subset
      bool reached = false;
    };
    std::vector<Entry> table(size_t{1} << n);
    const CompiledConjunct conj(items, initial);
    const CompiledConjunct::Bindings start = conj.Initial();
    CompiledConjunct::Bindings at = start;
    std::vector<uint64_t> before;
    table[0].cost = 0;
    table[0].card = 1;
    table[0].reached = true;
    // Left-deep prefix of a reached subset, via the prev-chain (tracing
    // only: O(n) per recorded candidate).
    auto chain_of = [&table](uint32_t mask) {
      std::vector<size_t> reversed;
      while (mask != 0) {
        reversed.push_back(static_cast<size_t>(table[mask].last));
        mask = table[mask].prev;
      }
      return std::vector<size_t>(reversed.rbegin(), reversed.rend());
    };
    size_t evals = 0;
    for (uint32_t mask = 0; mask < table.size(); ++mask) {
      if (!table[mask].reached || table[mask].cost >= kInfiniteCost) continue;
      // The bindings of a subset are order-independent, but an `=`
      // propagates only once a side is bound: iterate to the fixpoint.
      at.bound = start.bound;
      do {
        before = at.bound;
        for (size_t i = 0; i < n; ++i) {
          if (mask & (1u << i)) conj.Propagate(i, &at.bound);
        }
      } while (at.bound != before);
      std::fill(at.domains.begin(), at.domains.end(), 0.0);
      for (size_t i = 0; i < n; ++i) {
        if (mask & (1u << i)) conj.Absorb(i, &at.domains);
      }
      for (size_t i = 0; i < n; ++i) {
        if (mask & (1u << i)) continue;
        CompiledConjunct::Progress step{table[mask].cost, table[mask].card,
                                        true};
        model.Charge(conj, i, at, &step);
        ++evals;
        uint32_t next = mask | (1u << i);
        const bool improved = step.safe && step.cost < table[next].cost;
        if (st != nullptr) {
          st->RecordCandidateStep(
              chain_of(mask), i, step.cost,
              !step.safe ? CandidateDisposition::kPrunedUnsafe
              : improved ? CandidateDisposition::kKept
                         : CandidateDisposition::kDominated);
        }
        if (!improved) continue;
        table[next] = {step.cost, step.card, static_cast<int>(i), mask,
                       true};
      }
    }
    const uint32_t full = static_cast<uint32_t>(table.size() - 1);
    result.cost_evaluations = evals;
    if (!table[full].reached || table[full].cost >= kInfiniteCost) {
      return result;  // no safe order
    }
    result.cost =
        table[full].cost + table[full].card * model.options().output_cost;
    result.out_card = table[full].card;
    result.safe = true;
    // Reconstruct.
    std::vector<size_t> reversed;
    uint32_t cur = full;
    while (cur != 0) {
      reversed.push_back(static_cast<size_t>(table[cur].last));
      cur = table[cur].prev;
    }
    result.order.assign(reversed.rbegin(), reversed.rend());
    return result;
  }

 private:
  StrategyOptions options_;
};

/// Simulated annealing [IW 87]: a random walk over the permutation space
/// whose neighbor relation is "interchange two positions" — the closure of
/// that relation is the whole space, which (per the paper) is all that is
/// needed to characterize the process besides the annealing schedule.
class AnnealingStrategy : public JoinOrderStrategy {
 public:
  explicit AnnealingStrategy(const StrategyOptions& options)
      : options_(options) {}

  std::string name() const override { return "annealing"; }

  OrderResult FindOrder(const std::vector<ConjunctItem>& items,
                        const BoundVars& initial, const CostModel& model,
                        SearchTracer* trace) override {
    OrderResult result;
    const size_t n = items.size();
    SearchTracer* st = Active(trace);
    Rng rng(options_.anneal_seed + n * 7919);
    std::vector<size_t> current = IdentityOrder(n);
    size_t evals = 0;
    const CompiledConjunct conj(items, initial);
    auto cost_of = [&](const std::vector<size_t>& order) {
      ++evals;
      return model.CostSequence(conj, order);
    };
    SequenceCost cur_cost = cost_of(current);
    // If the textual order is unsafe, scan for a safe starting point.
    size_t tries = 0;
    while (!cur_cost.safe && tries++ < 4 * n * n) {
      if (st != nullptr) {
        st->RecordCandidate(current, cur_cost.cost,
                            CandidateDisposition::kPrunedUnsafe,
                            "restart: unsafe start");
      }
      rng.Shuffle(&current);
      cur_cost = cost_of(current);
    }
    if (!cur_cost.safe) {
      result.cost_evaluations = evals;
      return result;  // no safe order found to start from
    }
    if (st != nullptr) {
      st->RecordCandidate(current, cur_cost.cost,
                          CandidateDisposition::kKept, "starting point");
    }
    std::vector<size_t> best = current;
    SequenceCost best_cost = cur_cost;

    double temp =
        std::max(1.0, best_cost.cost * options_.anneal_initial_temp_factor);
    const size_t moves =
        options_.anneal_moves_per_temp ? options_.anneal_moves_per_temp
                                       : 4 * n * n;
    size_t no_improve = 0;
    while (no_improve < options_.anneal_max_no_improve && n >= 2) {
      bool improved = false;
      for (size_t m = 0; m < moves; ++m) {
        size_t i = rng.Uniform(n);
        size_t j = rng.Uniform(n);
        if (i == j) continue;
        std::swap(current[i], current[j]);
        SequenceCost cand = cost_of(current);
        bool accept = false;
        if (cand.safe) {
          if (cand.cost <= cur_cost.cost) {
            accept = true;
          } else {
            double delta = cand.cost - cur_cost.cost;
            accept = rng.UniformDouble() < std::exp(-delta / temp);
          }
        }
        if (st != nullptr) {
          // New global best = kept; other accepted or metropolis-rejected
          // moves lose on cost; unsafe neighbors are section 8.2 prunes.
          st->RecordCandidate(current, cand.cost,
                              !cand.safe ? CandidateDisposition::kPrunedUnsafe
                              : accept && cand.cost < best_cost.cost
                                  ? CandidateDisposition::kKept
                              : accept ? CandidateDisposition::kDominated
                                       : CandidateDisposition::kPrunedBound);
        }
        if (accept) {
          cur_cost = cand;
          if (cand.cost < best_cost.cost) {
            best = current;
            best_cost = cand;
            improved = true;
          }
        } else {
          std::swap(current[i], current[j]);  // undo
        }
      }
      temp *= options_.anneal_cooling;
      no_improve = improved ? 0 : no_improve + 1;
    }
    result.order = best;
    result.cost = best_cost.cost;
    result.out_card = best_cost.out_card;
    result.safe = best_cost.safe;
    result.cost_evaluations = evals;
    return result;
  }

 private:
  StrategyOptions options_;
};

}  // namespace

std::unique_ptr<JoinOrderStrategy> MakeStrategy(
    SearchStrategy strategy, const StrategyOptions& options) {
  switch (strategy) {
    case SearchStrategy::kExhaustive:
      return std::make_unique<ExhaustiveStrategy>(options);
    case SearchStrategy::kDynamicProgramming:
      return std::make_unique<DpStrategy>(options);
    case SearchStrategy::kKbz:
      return MakeKbzStrategy(options);
    case SearchStrategy::kAnnealing:
      return std::make_unique<AnnealingStrategy>(options);
    case SearchStrategy::kLexicographic:
      return std::make_unique<LexicographicStrategy>();
  }
  return nullptr;
}

}  // namespace ldl
