#include "plan/interpreter.h"

#include <chrono>
#include <sstream>

#include "base/strings.h"
#include "engine/operators.h"
#include "engine/query_eval.h"
#include "engine/rule_eval.h"
#include "engine/unify.h"

namespace ldl {

namespace {

/// Standardizes a rule apart: every variable v becomes _r.v so that rule
/// variables can never collide with variables of the instance goal.
Rule StandardizeApart(const Rule& rule) {
  auto rename_term = [](const Term& t) {
    // Rebuild the term with renamed variables.
    struct Renamer {
      Term operator()(const Term& t) const {
        switch (t.kind()) {
          case TermKind::kVariable:
            return Term::MakeVariable("_r." + t.text());
          case TermKind::kFunction: {
            std::vector<Term> args;
            args.reserve(t.args().size());
            for (const Term& a : t.args()) args.push_back((*this)(a));
            return t.WithArgs(std::move(args));
          }
          default:
            return t;
        }
      }
    };
    return Renamer{}(t);
  };
  auto rename_literal = [&rename_term](const Literal& lit) {
    std::vector<Term> args;
    args.reserve(lit.args().size());
    for (const Term& a : lit.args()) args.push_back(rename_term(a));
    return lit.WithArgs(std::move(args));
  };
  std::vector<Literal> body;
  body.reserve(rule.body().size());
  for (const Literal& lit : rule.body()) body.push_back(rename_literal(lit));
  return Rule(rename_literal(rule.head()), std::move(body));
}

RecursionMethod MethodFromLabel(const std::string& label) {
  if (label == "naive") return RecursionMethod::kNaive;
  if (label == "magic") return RecursionMethod::kMagic;
  if (label == "counting") return RecursionMethod::kCounting;
  return RecursionMethod::kSemiNaive;
}

std::string MemoKey(const PlanNode& node, const Literal& goal) {
  std::ostringstream os;
  os << &node << '|' << goal.ToString();
  return os.str();
}

}  // namespace

Result<Relation> TreeInterpreter::Execute(const PlanNode& tree,
                                          const Literal& goal_instance) {
  LDL_ASSIGN_OR_RETURN(const Relation* rel, ExecuteNode(tree, goal_instance));
  return *rel;  // copy out (memo retains ownership)
}

Result<const Relation*> TreeInterpreter::ExecuteNode(
    const PlanNode& node, const Literal& goal_instance) {
  const std::string key = MemoKey(node, goal_instance);
  auto it = memo_.find(key);
  if (it != memo_.end()) {
    ++memo_hits_;
    profile_.nodes[&node].memo_hits++;
    return it->second.get();
  }
  LDL_RETURN_NOT_OK(trace_.CheckCancel());

  // Per-node actuals for EXPLAIN ANALYZE: wall time and tuples examined are
  // inclusive of the node's subtree (children execute inside this frame).
  Span span = trace_.StartSpan(PlanNodeKindToString(node.kind), "interpreter");
  if (span.active()) span.AddArg("goal", goal_instance.ToString());
  const size_t examined_before = counters_.tuples_examined;
  const auto wall_start = std::chrono::steady_clock::now();

  Result<Relation> result = [&]() -> Result<Relation> {
    switch (node.kind) {
      case PlanNodeKind::kScan:
        return ExecuteScan(node, goal_instance);
      case PlanNodeKind::kOr:
        return ExecuteOr(node, goal_instance);
      case PlanNodeKind::kAnd:
        return ExecuteAnd(node, goal_instance);
      case PlanNodeKind::kCc:
        return ExecuteCc(node, goal_instance);
      case PlanNodeKind::kBuiltin:
        return Status::Internal(
            "builtin nodes are evaluated inline by their AND parent");
    }
    return Status::Internal("unknown node kind");
  }();
  LDL_RETURN_NOT_OK(result.status());

  // Rows are accumulated on real evaluations only; the memo-hit path above
  // bumps memo_hits without re-adding rows (see NodeActuals::out_rows).
  NodeActuals& actuals = profile_.nodes[&node];
  actuals.executions++;
  actuals.out_rows += result->size();
  actuals.tuples_examined += counters_.tuples_examined - examined_before;
  actuals.wall_ms += std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - wall_start)
                         .count();

  auto stored = std::make_unique<Relation>(std::move(result).value());
  // The memo table holds derived tuples for the query's lifetime; charge it
  // against the query's budget like any other derived storage.
  if (trace_.accountant != nullptr) stored->set_accountant(trace_.accountant);
  const Relation* raw = stored.get();
  memo_[key] = std::move(stored);
  return raw;
}

void TreeInterpreter::RecordScanActuals(const PlanNode& node,
                                        const Relation* rel) {
  // Scans under AND/CC parents are resolved inline (never through
  // ExecuteNode), so their actuals are recorded here: one execution per
  // resolution (the rule evaluator resolves each body position once per
  // rule evaluation), rows = the materialized base relation. Selection
  // against the binding happens downstream in the rule evaluator, so a
  // scan's per-execution rows measure the relation's total cardinality.
  NodeActuals& actuals = profile_.nodes[&node];
  actuals.executions++;
  actuals.out_rows += rel == nullptr ? 0 : rel->size();
}

Result<Relation> TreeInterpreter::ExecuteScan(const PlanNode& node,
                                              const Literal& goal) {
  Relation* rel = db_->Find(node.goal.predicate());
  Relation out = SelectMatching(rel, goal);
  counters_.tuples_examined += out.size();
  return out;
}

Result<Relation> TreeInterpreter::ExecuteOr(const PlanNode& node,
                                            const Literal& goal) {
  Relation out(node.goal.predicate_name(), node.goal.arity());
  for (const auto& child : node.children) {
    LDL_ASSIGN_OR_RETURN(const Relation* part, ExecuteNode(*child, goal));
    out.InsertAll(*part);
  }
  return out;
}

Result<Relation> TreeInterpreter::ExecuteAnd(const PlanNode& node,
                                             const Literal& goal) {
  if (node.rule_index >= program_.rules().size()) {
    return Status::Internal("AND node without a valid rule index");
  }
  // Specialize the rule to the instance goal.
  Rule renamed = StandardizeApart(program_.rules()[node.rule_index]);
  Substitution unifier;
  {
    bool ok = true;
    for (size_t i = 0; i < goal.arity(); ++i) {
      if (!Unify(renamed.head().args()[i], goal.args()[i], &unifier)) {
        ok = false;
        break;
      }
    }
    if (!ok) {
      return Relation(node.goal.predicate_name(), node.goal.arity());
    }
  }
  // Build the execution-order body (children order); child j corresponds to
  // original body position node.body_order[j].
  std::vector<Literal> exec_body;
  exec_body.reserve(renamed.body().size());
  for (size_t j = 0; j < node.body_order.size(); ++j) {
    exec_body.push_back(
        unifier.Apply(renamed.body()[node.body_order[j]]));
  }
  Rule specialized(unifier.Apply(renamed.head()), std::move(exec_body));

  // EL: an AND node labeled "hash-join" executes through the materialized
  // whole-relation operators instead of the tuple-at-a-time pipeline.
  if (node.method == "hash-join") {
    auto via_hash = TryHashJoin(node, specialized);
    if (via_hash.has_value()) return std::move(*via_hash);
    // Shape not expressible as pure equi-joins: fall through.
  }

  // Resolvers: body position j <-> node.children[j].
  Status child_error = Status::OK();
  RelationResolver resolve = [&](const Literal&, size_t pos) -> Relation* {
    const PlanNode& child = *node.children[pos];
    if (child.kind == PlanNodeKind::kBuiltin) return nullptr;
    if (child.kind == PlanNodeKind::kScan) {
      Relation* base = db_->Find(child.goal.predicate());
      RecordScanActuals(child, base);
      return base;
    }
    // Materialized derived subtree: full result, computed once.
    auto rel = ExecuteNode(child, child.goal);
    if (!rel.ok()) {
      child_error = rel.status();
      return nullptr;
    }
    // Memo owns the relation; safe to hand out a mutable pointer for index
    // building.
    return const_cast<Relation*>(*rel);
  };
  RuleEvalOptions options;
  options.cancel = trace_.cancel;
  options.accountant = trace_.accountant;
  options.pattern_resolver = [&](const Literal& lit, size_t pos,
                                 const std::vector<Term>& patterns)
      -> Relation* {
    const PlanNode& child = *node.children[pos];
    if (child.kind != PlanNodeKind::kOr && child.kind != PlanNodeKind::kCc) {
      return nullptr;  // base/builtin: plain resolution
    }
    if (child.materialized) return nullptr;  // square node: full subtree
    // Triangle node: evaluate the subtree for this binding instance only.
    Literal instance = lit.WithArgs(std::vector<Term>(patterns));
    auto rel = ExecuteNode(child, instance);
    if (!rel.ok()) {
      child_error = rel.status();
      return nullptr;
    }
    return const_cast<Relation*>(*rel);
  };

  Relation out(node.goal.predicate_name(), node.goal.arity());
  auto n = EvaluateRule(specialized, resolve, &out, &counters_, options);
  LDL_RETURN_NOT_OK(n.status());
  LDL_RETURN_NOT_OK(child_error);
  return out;
}

std::optional<Result<Relation>> TreeInterpreter::TryHashJoin(
    const PlanNode& node, const Rule& specialized) {
  // Applicability: every body literal positive, every argument a variable
  // or a constant, head arguments variables/constants.
  for (const Literal& lit : specialized.body()) {
    if (lit.IsBuiltin() || lit.negated()) return std::nullopt;
    for (const Term& a : lit.args()) {
      if (a.kind() == TermKind::kFunction) return std::nullopt;
    }
  }
  for (const Term& a : specialized.head().args()) {
    if (a.kind() == TermKind::kFunction) return std::nullopt;
  }

  // Materialize every child; apply constant selections; track variable ->
  // column positions (first occurrence). Repeated variables within one
  // literal are handled by a same-relation key comparison fallback.
  Relation acc("", 0);
  std::map<std::string, size_t> var_col;
  bool first = true;
  for (size_t j = 0; j < specialized.body().size(); ++j) {
    const Literal& lit = specialized.body()[j];
    const PlanNode& child = *node.children[j];
    Relation input("", 0);
    if (child.kind == PlanNodeKind::kScan) {
      Relation* base = db_->Find(child.goal.predicate());
      RecordScanActuals(child, base);
      input = base == nullptr ? Relation(lit.predicate_name(), lit.arity())
                              : *base;
    } else {
      auto rel = ExecuteNode(child, child.goal);
      if (!rel.ok()) return Result<Relation>(rel.status());
      input = **rel;
    }
    // Constant selections and repeated-variable diagonal filters.
    std::map<std::string, size_t> local_first;
    for (size_t c = 0; c < lit.arity(); ++c) {
      const Term& a = lit.args()[c];
      if (a.kind() != TermKind::kVariable) {
        input = Select(input, c, a, &counters_);
      } else {
        auto [it, inserted] = local_first.emplace(a.text(), c);
        if (!inserted) {
          // diagonal: keep tuples where both columns agree
          Relation filtered(input.name(), input.arity());
          for (TupleView t : input.tuples()) {
            counters_.tuples_examined++;
            if (t[it->second] == t[c]) filtered.Insert(t);
          }
          input = std::move(filtered);
        }
      }
    }

    if (first) {
      acc = std::move(input);
      for (const auto& [v, c] : local_first) var_col[v] = c;
      first = false;
      continue;
    }
    JoinKeys keys;
    for (const auto& [v, c] : local_first) {
      auto it = var_col.find(v);
      if (it != var_col.end()) keys.push_back({it->second, c});
    }
    size_t offset = acc.arity();
    acc = HashJoin(acc, input, keys, &counters_);
    for (const auto& [v, c] : local_first) {
      var_col.emplace(v, offset + c);  // keep first occurrence if present
    }
  }

  // Project the head.
  Relation out(node.goal.predicate_name(), node.goal.arity());
  if (first) {
    // Empty body: the head itself (must be ground).
    Tuple t;
    for (const Term& a : specialized.head().args()) {
      if (!a.IsGround()) return Result<Relation>(std::move(out));
      t.push_back(a);
    }
    out.Insert(std::move(t));
    return Result<Relation>(std::move(out));
  }
  Tuple h;
  for (TupleView t : acc.tuples()) {
    counters_.tuples_examined++;
    h.clear();
    bool ok = true;
    for (const Term& a : specialized.head().args()) {
      if (a.kind() == TermKind::kVariable) {
        auto it = var_col.find(a.text());
        if (it == var_col.end()) {
          ok = false;
          break;
        }
        h.push_back(t[it->second]);
      } else {
        h.push_back(a);
      }
    }
    if (ok) {
      counters_.derivations++;
      out.Insert(h);
    }
  }
  counters_.inserts += out.size();
  return Result<Relation>(std::move(out));
}

Result<Relation> TreeInterpreter::ExecuteCc(const PlanNode& node,
                                            const Literal& goal) {
  // Clique subprogram in clique_rules order.
  Program sub;
  for (size_t rule_index : node.clique_rules) {
    sub.AddRule(program_.rules()[rule_index]);
  }

  // Materialize the CC node's operand subtrees (non-clique derived
  // literals) into a merged database, alongside the base relations the
  // clique reads.
  Database merged;
  merged.set_accountant(trace_.accountant);
  for (const auto& child : node.children) {
    if (child->kind == PlanNodeKind::kBuiltin) continue;
    if (child->kind == PlanNodeKind::kScan) {
      // Read from db_ below; still record the base-relation read so the
      // profile carries true base cardinalities.
      RecordScanActuals(*child, db_->Find(child->goal.predicate()));
      continue;
    }
    LDL_ASSIGN_OR_RETURN(const Relation* rel,
                         ExecuteNode(*child, child->goal));
    merged.GetOrCreate(child->goal.predicate())->InsertAll(*rel);
  }
  for (size_t rule_index : node.clique_rules) {
    for (const Literal& lit : program_.rules()[rule_index].body()) {
      if (lit.IsBuiltin() || sub.IsDerived(lit.predicate())) continue;
      if (merged.Exists(lit.predicate())) continue;
      Relation* base = db_->Find(lit.predicate());
      if (base != nullptr) {
        merged.GetOrCreate(lit.predicate())->InsertAll(*base);
      }
    }
  }

  QueryEvalOptions options;
  options.fixpoint.trace = trace_;
  for (size_t i = 0; i < node.clique_rules.size() &&
                     i < node.clique_orders.size();
       ++i) {
    options.fixpoint.rule_orders[i] = node.clique_orders[i];
    options.sips.SetOrder(i, node.clique_orders[i]);
  }
  LDL_ASSIGN_OR_RETURN(
      QueryResult result,
      EvaluateQuery(sub, &merged, goal, MethodFromLabel(node.method),
                    options));
  counters_.Add(result.stats.counters);
  return std::move(result.answers);
}

}  // namespace ldl
