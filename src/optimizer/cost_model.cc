#include "optimizer/cost_model.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

#include "engine/builtins.h"

namespace ldl {

ConjunctItem MakeBaseItem(const Literal& lit, const Statistics& stats,
                          const CostModelOptions& options) {
  ConjunctItem item;
  item.literal = lit;
  const RelationStats rs = stats.Get(lit.predicate());
  item.base_cardinality = std::max(1.0, rs.cardinality);
  item.distinct = rs.distinct;
  if (item.distinct.size() < lit.arity()) {
    item.distinct.resize(lit.arity(), item.base_cardinality);
  }
  for (double& d : item.distinct) d = std::max(1.0, d);
  double card = item.base_cardinality;
  std::vector<double> distinct = item.distinct;
  item.use_catalog = true;
  item.estimate = [card, distinct, options](const Adornment& adn,
                                            double /*outer_card*/) {
    PlanEstimate est;
    double matches = card;
    for (size_t i = 0; i < adn.size() && i < distinct.size(); ++i) {
      if (adn.IsBound(i)) matches /= distinct[i];
    }
    matches = std::max(matches, 1e-9);
    est.card = matches;
    // EL: choose between a full scan and an index probe per binding.
    double scan_cost = card * options.tuple_cost;
    double index_cost = options.index_probe_cost +
                        matches * options.tuple_cost;
    est.per_binding = (options.enable_index_join && adn.BoundCount() > 0)
                          ? std::min(scan_cost, index_cost)
                          : scan_cost;
    est.setup = 0;
    return est;
  };
  return item;
}

void MeasuredStatistics::AdjustBaseItem(ConjunctItem* item) const {
  const PredicateId pred = item->literal.predicate();
  if (const double* total = Find(pred, Adornment::AllFree(pred.arity))) {
    item->base_cardinality = std::max(1.0, *total);
    for (double& d : item->distinct) {
      d = std::min(d, item->base_cardinality);
    }
  }
  if (!item->estimate) return;
  auto original = item->estimate;
  // Non-owning self capture: the overlay outlives the optimizer run (see
  // OptimizerOptions::measured).
  item->estimate = [original, this, pred](const Adornment& adn,
                                          double outer_card) {
    PlanEstimate est = original(adn, outer_card);
    if (const double* measured = Find(pred, adn)) {
      est.card = std::max(*measured, 1e-9);
    }
    return est;
  };
}

std::vector<std::pair<AdornedPredicate, double>> MeasuredStatistics::Entries()
    const {
  std::vector<std::pair<AdornedPredicate, double>> out(cards_.begin(),
                                                       cards_.end());
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

std::string MeasuredStatistics::ToString() const {
  // Sorted for deterministic output.
  std::map<std::string, double> sorted;
  for (const auto& [ap, card] : cards_) sorted[ap.ToString()] = card;
  std::string out;
  for (const auto& [name, card] : sorted) {
    out += name;
    out += " = ";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g\n", card);
    out += buf;
  }
  return out;
}

namespace {

/// Calls `f` on the name of every variable occurrence in `t`, in the order
/// Term::CollectVariables lists them, without copying the names.
template <typename F>
void ForEachVariable(const Term& t, const F& f) {
  if (t.kind() == TermKind::kVariable) {
    f(t.text());
  } else if (t.kind() == TermKind::kFunction) {
    for (const Term& a : t.args()) ForEachVariable(a, f);
  }
}

}  // namespace

CompiledConjunct::CompiledConjunct(const std::vector<ConjunctItem>& items,
                                   const BoundVars& initial) {
  // Dense ids in order of first occurrence. A body has few variables, so a
  // linear scan beats hashing the names.
  std::vector<const std::string*> names;
  auto id_of = [&names](const std::string& v) {
    for (size_t id = 0; id < names.size(); ++id) {
      if (*names[id] == v) return static_cast<int32_t>(id);
    }
    return int32_t{-1};
  };
  for (const ConjunctItem& item : items) {
    for (const Term& arg : item.literal.args()) {
      ForEachVariable(arg, [&](const std::string& v) {
        if (id_of(v) < 0) names.push_back(&v);
      });
    }
  }
  num_vars_ = names.size();
  words_ = std::max<size_t>(1, (num_vars_ + 63) / 64);
  auto set_bit = [this](size_t offset, int32_t id) {
    masks_[offset + static_cast<size_t>(id) / 64] |= uint64_t{1} << (id % 64);
  };

  size_t columns = 0;
  for (const ConjunctItem& item : items) columns += item.literal.arity();
  items_.reserve(items.size());
  masks_.reserve((columns + items.size()) * words_);
  columns_.reserve(columns);
  for (const ConjunctItem& source : items) {
    const Literal& lit = source.literal;
    Item item;
    item.source = &source;
    item.arity = static_cast<uint32_t>(lit.arity());
    if (lit.IsBuiltin()) {
      item.kind = Kind::kBuiltin;
      item.builtin = lit.builtin();
      item.eq_binds = lit.builtin() == BuiltinKind::kEq && !lit.negated();
    } else if (lit.negated()) {
      item.kind = Kind::kNegated;
    } else {
      item.kind = source.use_catalog ? Kind::kCatalog : Kind::kDerived;
    }
    item.args = masks_.size();
    item.vars = item.args + item.arity * words_;
    masks_.resize(item.vars + words_, 0);
    item.cols = columns_.size();
    for (size_t j = 0; j < item.arity; ++j) {
      const Term& arg = lit.args()[j];
      ForEachVariable(arg, [&](const std::string& v) {
        const int32_t id = id_of(v);
        set_bit(item.args + j * words_, id);
        set_bit(item.vars, id);
      });
      Column col;
      if (arg.kind() == TermKind::kVariable) col.var = id_of(arg.text());
      if (j < source.distinct.size()) {
        col.divisor = std::max(1.0, source.distinct[j]);
        col.domain = col.divisor;
      } else {
        col.divisor = source.base_cardinality;
        col.domain = std::max(1.0, source.base_cardinality);
      }
      columns_.push_back(col);
    }
    items_.push_back(item);
  }

  initial_.assign(words_, 0);
  for (size_t id = 0; id < num_vars_; ++id) {
    if (initial.IsBound(*names[id])) {
      initial_[id / 64] |= uint64_t{1} << (id % 64);
    }
  }
}

CompiledConjunct::Bindings CompiledConjunct::Initial() const {
  Bindings b;
  b.bound = initial_;
  b.domains.assign(num_vars_, 0.0);
  return b;
}

bool CompiledConjunct::Subset(size_t offset,
                              const std::vector<uint64_t>& bound) const {
  const uint64_t* mask = &masks_[offset];
  for (size_t w = 0; w < words_; ++w) {
    if ((mask[w] & ~bound[w]) != 0) return false;
  }
  return true;
}

void CompiledConjunct::Union(size_t offset,
                             std::vector<uint64_t>* bound) const {
  const uint64_t* mask = &masks_[offset];
  for (size_t w = 0; w < words_; ++w) (*bound)[w] |= mask[w];
}

Adornment CompiledConjunct::Adorn(size_t i,
                                  const std::vector<uint64_t>& bound) const {
  const Item& item = items_[i];
  Adornment adn(item.arity);
  for (size_t j = 0; j < item.arity; ++j) {
    if (Subset(item.args + j * words_, bound)) adn.SetBound(j, true);
  }
  return adn;
}

bool CompiledConjunct::Computable(size_t i,
                                  const std::vector<uint64_t>& bound) const {
  const Item& item = items_[i];
  if (item.kind == Kind::kBuiltin) {
    return BuiltinComputable(item.source->literal, Subset(item.args, bound),
                             Subset(item.args + words_, bound));
  }
  return Subset(item.vars, bound);
}

void CompiledConjunct::Absorb(size_t i, std::vector<double>* domains) const {
  const Item& item = items_[i];
  if (item.kind != Kind::kCatalog && item.kind != Kind::kDerived) return;
  for (size_t j = 0; j < item.arity; ++j) {
    const Column& col = columns_[item.cols + j];
    if (col.var < 0) continue;
    double& d = (*domains)[col.var];
    d = d == 0 ? col.domain : std::min(d, col.domain);
  }
}

void CompiledConjunct::Propagate(size_t i,
                                 std::vector<uint64_t>* bound) const {
  const Item& item = items_[i];
  switch (item.kind) {
    case Kind::kNegated:
      return;
    case Kind::kCatalog:
    case Kind::kDerived:
      Union(item.vars, bound);
      return;
    case Kind::kBuiltin:
      if (!item.eq_binds) return;
      // One direction per test, right side first, as PropagateBindings.
      if (Subset(item.args + words_, *bound)) Union(item.args, bound);
      if (Subset(item.args, *bound)) Union(item.args + words_, bound);
      return;
  }
}

void CompiledConjunct::Bind(size_t i, Bindings* b) const {
  Absorb(i, &b->domains);
  Propagate(i, &b->bound);
}

void CostModel::Charge(const CompiledConjunct& conj, size_t i,
                       const CompiledConjunct::Bindings& bindings,
                       CompiledConjunct::Progress* p) const {
  using Kind = CompiledConjunct::Kind;
  if (!p->safe) return;
  const CompiledConjunct::Item& item = conj.items_[i];
  const ConjunctItem& source = *item.source;
  const std::vector<uint64_t>& bound = bindings.bound;
  auto unsafe = [p]() {
    p->safe = false;
    p->cost = kInfiniteCost;
  };

  switch (item.kind) {
    case Kind::kBuiltin: {
      const bool lhs_bound = conj.Subset(item.args, bound);
      const bool rhs_bound = conj.Subset(item.args + conj.words_, bound);
      if (!BuiltinComputable(source.literal, lhs_bound, rhs_bound)) {
        return unsafe();
      }
      p->cost += p->card * options_.builtin_cost;
      switch (item.builtin) {
        case BuiltinKind::kEq:
          if (lhs_bound && rhs_bound) {
            p->card *= options_.comparison_selectivity;
          }
          // Binding form: one output per input; card unchanged.
          break;
        case BuiltinKind::kNe:
          p->card *= options_.ne_selectivity;
          break;
        default:
          p->card *= options_.comparison_selectivity;
          break;
      }
      return;
    }

    case Kind::kNegated: {
      // Stratified negation: all variables must be bound here.
      if (!conj.Subset(item.vars, bound)) return unsafe();
      // A negated *derived* literal still requires its relation to be fully
      // computed within its stratum; charge that setup once.
      if (source.estimate) {
        PlanEstimate est =
            source.estimate(Adornment::AllBound(item.arity), p->card);
        if (!est.safe) return unsafe();
        p->cost += est.setup;
      }
      p->cost += p->card * (options_.index_probe_cost + options_.tuple_cost);
      p->card *= options_.negation_selectivity;
      return;
    }

    case Kind::kCatalog: {
      // Catalog-backed item: symmetric selectivity math. Matches per binding
      // instance = |R| / prod over bound columns of max(d_col, domain(var)).
      double matches = std::max(source.base_cardinality, 1e-9);
      bool any_bound = false;
      for (size_t j = 0; j < item.arity; ++j) {
        if (!conj.Subset(item.args + j * conj.words_, bound)) continue;
        any_bound = true;
        const CompiledConjunct::Column& col = conj.columns_[item.cols + j];
        double divisor = col.divisor;
        if (col.var >= 0) {
          const double domain = bindings.domains[col.var];
          if (domain != 0) divisor = std::max(col.divisor, domain);
        }
        matches /= divisor;
      }
      matches = std::max(matches, 1e-9);
      double scan_cost = source.base_cardinality * options_.tuple_cost;
      double probe_cost =
          options_.index_probe_cost + matches * options_.tuple_cost;
      double per_binding = (options_.enable_index_join && any_bound)
                               ? std::min(scan_cost, probe_cost)
                               : scan_cost;
      p->cost += p->card * per_binding;
      p->card *= matches;
      return;
    }

    case Kind::kDerived: {
      PlanEstimate est = source.estimate
                             ? source.estimate(conj.Adorn(i, bound), p->card)
                             : PlanEstimate{};
      if (!est.safe) return unsafe();
      p->cost += est.setup + p->card * est.per_binding;
      p->card *= est.card;
      return;
    }
  }
}

SequenceCost CostModel::CostSequence(const CompiledConjunct& conj,
                                     const std::vector<size_t>& order) const {
  CompiledConjunct::Bindings bindings = conj.Initial();
  CompiledConjunct::Progress progress;
  for (size_t idx : order) {
    Charge(conj, idx, bindings, &progress);
    if (!progress.safe) return SequenceCost{};
    conj.Bind(idx, &bindings);
  }
  SequenceCost out;
  out.cost = progress.cost + progress.card * options_.output_cost;
  out.out_card = progress.card;
  out.safe = true;
  return out;
}

SequenceCost CostModel::CostSequence(const std::vector<ConjunctItem>& items,
                                     const std::vector<size_t>& order,
                                     const BoundVars& initial) const {
  return CostSequence(CompiledConjunct(items, initial), order);
}

}  // namespace ldl
