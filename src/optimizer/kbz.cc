#include "optimizer/kbz.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "obs/search_trace.h"

namespace ldl {

namespace {

/// Union-find for Kruskal.
class Dsu {
 public:
  explicit Dsu(size_t n) : parent_(n) {
    for (size_t i = 0; i < n; ++i) parent_[i] = i;
  }
  size_t Find(size_t x) {
    while (parent_[x] != x) x = parent_[x] = parent_[parent_[x]];
    return x;
  }
  bool Union(size_t a, size_t b) {
    a = Find(a);
    b = Find(b);
    if (a == b) return false;
    parent_[a] = b;
    return true;
  }

 private:
  std::vector<size_t> parent_;
};

/// A maximal run of relations whose internal order is already fixed.
/// C(S1 S2) = C(S1) + T(S1) C(S2); T(S1 S2) = T(S1) T(S2);
/// rank(S) = (T(S) - 1) / C(S).
struct Module {
  std::vector<size_t> items;  // indices into the relation list
  double t = 1;
  double c = 0;

  double Rank() const { return c > 0 ? (t - 1) / c : -1e300; }
};

Module MergeModules(const Module& a, const Module& b) {
  Module m;
  m.items = a.items;
  m.items.insert(m.items.end(), b.items.begin(), b.items.end());
  m.c = a.c + a.t * b.c;
  m.t = a.t * b.t;
  return m;
}

class KbzStrategy : public JoinOrderStrategy {
 public:
  explicit KbzStrategy(const StrategyOptions& options) : options_(options) {}

  std::string name() const override { return "kbz"; }

  OrderResult FindOrder(const std::vector<ConjunctItem>& items,
                        const BoundVars& initial, const CostModel& model,
                        SearchTracer* trace) override {
    OrderResult best;
    SearchTracer* st =
        (trace != nullptr && trace->enabled()) ? trace : nullptr;
    const CompiledConjunct conj(items, initial);

    // Partition: relations participate in the query graph; builtins and
    // negated literals are re-inserted greedily later.
    std::vector<size_t> rel_idx, other_idx;
    for (size_t i = 0; i < items.size(); ++i) {
      const Literal& lit = items[i].literal;
      if (lit.IsBuiltin() || lit.negated()) {
        other_idx.push_back(i);
      } else {
        rel_idx.push_back(i);
      }
    }
    const size_t n = rel_idx.size();
    if (n == 0) {
      // Pure builtin conjunct: greedy insertion only.
      std::vector<size_t> order = GreedyComplete({}, other_idx, conj);
      SequenceCost sc = model.CostSequence(conj, order);
      if (st != nullptr) {
        st->RecordCandidate(order, sc.cost,
                            sc.safe ? CandidateDisposition::kKept
                                    : CandidateDisposition::kPrunedUnsafe,
                            "pure-builtin conjunct");
      }
      best.order = order;
      best.cost = sc.cost;
      best.out_card = sc.out_card;
      best.safe = sc.safe;
      best.cost_evaluations = 1;
      return best;
    }

    // Effective cardinalities under the initial bindings (bound arguments
    // act as selections).
    std::vector<double> card(n);
    const std::vector<uint64_t> initial_bound = conj.Initial().bound;
    for (size_t a = 0; a < n; ++a) {
      const ConjunctItem& item = items[rel_idx[a]];
      card[a] = std::max(
          item.estimate
              ? item.estimate(conj.Adorn(rel_idx[a], initial_bound), 1.0).card
              : 1.0,
          1e-9);
    }

    // Pairwise selectivities from shared variables.
    std::vector<std::vector<double>> sel(n, std::vector<double>(n, 1.0));
    {
      // var -> list of (relation position a, column, distinct count)
      std::map<std::string, std::vector<std::pair<size_t, double>>> where;
      for (size_t a = 0; a < n; ++a) {
        const ConjunctItem& item = items[rel_idx[a]];
        for (size_t col = 0; col < item.literal.arity(); ++col) {
          std::vector<std::string> vars;
          item.literal.args()[col].CollectVariables(&vars);
          double d = col < item.distinct.size()
                         ? std::max(1.0, item.distinct[col])
                         : std::max(1.0, item.base_cardinality);
          for (const auto& v : vars) where[v].push_back({a, d});
        }
      }
      for (const auto& [v, occs] : where) {
        for (size_t x = 0; x < occs.size(); ++x) {
          for (size_t y = x + 1; y < occs.size(); ++y) {
            auto [a, da] = occs[x];
            auto [b, db] = occs[y];
            if (a == b) continue;
            sel[a][b] = sel[b][a] =
                std::min(sel[a][b], 1.0 / std::max(da, db));
          }
        }
      }
    }

    // Maximum-selectivity spanning tree (keep the most selective edges):
    // Kruskal over edges sorted by ascending selectivity; then connect
    // remaining components with selectivity-1 (cross product) edges.
    std::vector<std::vector<size_t>> adj(n);
    {
      struct Edge {
        size_t a, b;
        double s;
      };
      std::vector<Edge> edges;
      for (size_t a = 0; a < n; ++a) {
        for (size_t b = a + 1; b < n; ++b) {
          if (sel[a][b] < 1.0) edges.push_back({a, b, sel[a][b]});
        }
      }
      std::sort(edges.begin(), edges.end(),
                [](const Edge& x, const Edge& y) { return x.s < y.s; });
      Dsu dsu(n);
      for (const Edge& e : edges) {
        if (dsu.Union(e.a, e.b)) {
          adj[e.a].push_back(e.b);
          adj[e.b].push_back(e.a);
        }
      }
      for (size_t a = 1; a < n; ++a) {
        if (dsu.Union(0, a)) {
          adj[0].push_back(a);
          adj[a].push_back(0);
        }
      }
    }

    // Try each root; order the tree by ASI ranks; re-insert the builtins;
    // keep the best order under the real cost model.
    size_t evals = 0;
    for (size_t root = 0; root < n; ++root) {
      std::vector<size_t> tree_order = OrderForRoot(root, adj, card, sel);
      std::vector<size_t> mapped;
      mapped.reserve(n);
      for (size_t a : tree_order) mapped.push_back(rel_idx[a]);
      std::vector<size_t> order = GreedyComplete(mapped, other_idx, conj);
      SequenceCost sc = model.CostSequence(conj, order);
      ++evals;
      const bool improved = sc.safe && sc.cost < best.cost;
      if (st != nullptr) {
        // One ASI-ranked candidate per root of the spanning tree.
        st->RecordCandidate(order, sc.cost,
                            !sc.safe   ? CandidateDisposition::kPrunedUnsafe
                            : improved ? CandidateDisposition::kKept
                                       : CandidateDisposition::kDominated);
      }
      if (improved) {
        best.order = order;
        best.cost = sc.cost;
        best.out_card = sc.out_card;
        best.safe = true;
      }
    }
    best.cost_evaluations = evals;
    return best;
  }

 private:
  // The IK/KBZ normalize-and-merge: returns the relation positions in rank
  // order consistent with the rooted tree's precedence constraints.
  std::vector<size_t> OrderForRoot(size_t root,
                                   const std::vector<std::vector<size_t>>& adj,
                                   const std::vector<double>& card,
                                   const std::vector<std::vector<double>>& sel) {
    std::vector<Module> chain = Solve(root, SIZE_MAX, adj, card, sel);
    std::vector<size_t> order;
    for (const Module& m : chain) {
      order.insert(order.end(), m.items.begin(), m.items.end());
    }
    return order;
  }

  std::vector<Module> Solve(size_t v, size_t parent,
                            const std::vector<std::vector<size_t>>& adj,
                            const std::vector<double>& card,
                            const std::vector<std::vector<double>>& sel) {
    // This node's own module: T = sel(v, parent) * card(v).
    Module own;
    own.items = {v};
    own.t = (parent == SIZE_MAX ? card[v] : sel[v][parent] * card[v]);
    own.t = std::max(own.t, 1e-12);
    own.c = own.t;

    // Children chains, merged in ascending rank order.
    std::vector<Module> merged;
    for (size_t child : adj[v]) {
      if (child == parent) continue;
      std::vector<Module> chain = Solve(child, v, adj, card, sel);
      std::vector<Module> next;
      next.reserve(merged.size() + chain.size());
      size_t i = 0, j = 0;
      while (i < merged.size() && j < chain.size()) {
        if (merged[i].Rank() <= chain[j].Rank()) {
          next.push_back(std::move(merged[i++]));
        } else {
          next.push_back(std::move(chain[j++]));
        }
      }
      while (i < merged.size()) next.push_back(std::move(merged[i++]));
      while (j < chain.size()) next.push_back(std::move(chain[j++]));
      merged = std::move(next);
    }

    // Normalize: the first module must not have a smaller rank than its
    // predecessor (v's module) — merge violations into v's module.
    std::vector<Module> out;
    out.push_back(std::move(own));
    for (Module& m : merged) {
      if (m.Rank() < out.back().Rank()) {
        out.back() = MergeModules(out.back(), m);
        // Merging may create a new violation with the previous module.
        while (out.size() >= 2 &&
               out.back().Rank() < out[out.size() - 2].Rank()) {
          Module merged_pair =
              MergeModules(out[out.size() - 2], out.back());
          out.pop_back();
          out.back() = std::move(merged_pair);
        }
      } else {
        out.push_back(std::move(m));
      }
    }
    return out;
  }

  // Interleaves the non-relation items (builtins, negation) into the
  // relation order at the earliest position where they are computable.
  std::vector<size_t> GreedyComplete(const std::vector<size_t>& rel_order,
                                     std::vector<size_t> pending,
                                     const CompiledConjunct& conj) {
    std::vector<size_t> order;
    std::vector<uint64_t> bound = conj.Initial().bound;
    auto flush = [&]() {
      bool progress = true;
      while (progress) {
        progress = false;
        for (size_t k = 0; k < pending.size(); ++k) {
          if (conj.Computable(pending[k], bound)) {
            order.push_back(pending[k]);
            conj.Propagate(pending[k], &bound);
            pending.erase(pending.begin() + k);
            progress = true;
            break;
          }
        }
      }
    };
    flush();
    for (size_t idx : rel_order) {
      order.push_back(idx);
      conj.Propagate(idx, &bound);
      flush();
    }
    // Anything still pending is not computable in any completion of this
    // order; append it so CostSequence reports the unsafety.
    for (size_t idx : pending) order.push_back(idx);
    return order;
  }

  StrategyOptions options_;
};

}  // namespace

std::unique_ptr<JoinOrderStrategy> MakeKbzStrategy(
    const StrategyOptions& options) {
  return std::make_unique<KbzStrategy>(options);
}

}  // namespace ldl
