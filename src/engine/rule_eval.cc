#include "engine/rule_eval.h"

#include <algorithm>

#include "base/strings.h"
#include "engine/builtins.h"
#include "engine/unify.h"

namespace ldl {

void EvalCounters::Add(const EvalCounters& other) {
  tuples_examined += other.tuples_examined;
  derivations += other.derivations;
  inserts += other.inserts;
  rule_firings += other.rule_firings;
}

std::string EvalCounters::ToString() const {
  return StrCat("examined=", tuples_examined, " derivations=", derivations,
                " inserts=", inserts, " firings=", rule_firings);
}

void EvalCounters::ExportTo(MetricsRegistry* metrics) const {
  if (metrics == nullptr) return;
  metrics->counter("engine.tuples_examined")->Increment(tuples_examined);
  metrics->counter("engine.derivations")->Increment(derivations);
  metrics->counter("engine.inserts")->Increment(inserts);
  metrics->counter("engine.rule_firings")->Increment(rule_firings);
}

namespace {

/// The value of every variable during evaluation, by slot id. A slot points
/// at the value in place: into a stored row, a probe's per-depth copy of
/// one, or a folded builtin side, each of which outlives the bindings made
/// from it.
using Slots = std::vector<const Term*>;

/// One argument term compiled against the variables bound at its position.
struct TermCode {
  enum class Op : uint8_t {
    kConst,     ///< a ground term of the rule text
    kBound,     ///< a variable bound earlier: read or compare its slot
    kFree,      ///< an unbound variable: a match binds its slot
    kFunction,  ///< f(t1..tn) with a variable somewhere inside
  };
  Op op = Op::kConst;
  uint32_t slot = 0;
  /// kConst: the value. kBound/kFree: the variable. kFunction: the term,
  /// for its functor and arity.
  const Term* term = nullptr;
  std::vector<TermCode> args;  ///< kFunction only
  /// False iff a kFree occurs anywhere: instantiating would leave a
  /// variable.
  bool ground = true;
};

/// Assigns slots and tracks which variables are bound at the current point
/// of the body order.
class SlotTable {
 public:
  /// Compiles `t`. When `binds`, each unbound variable becomes kFree and
  /// counts as bound from then on, so a later occurrence — in the same
  /// term or literal — compiles to a comparison, as left-to-right
  /// unification would do it.
  TermCode Compile(const Term& t, bool binds) {
    TermCode code;
    code.term = &t;
    switch (t.kind()) {
      case TermKind::kVariable: {
        code.slot = SlotOf(t.text());
        if (bound_[code.slot]) {
          code.op = TermCode::Op::kBound;
        } else {
          code.op = TermCode::Op::kFree;
          code.ground = false;
          if (binds) bound_[code.slot] = true;
        }
        return code;
      }
      case TermKind::kFunction:
        if (t.IsGround()) return code;  // a constant
        code.op = TermCode::Op::kFunction;
        code.args.reserve(t.arity());
        for (const Term& a : t.args()) {
          code.args.push_back(Compile(a, binds));
          code.ground = code.ground && code.args.back().ground;
        }
        return code;
      default:
        return code;
    }
  }

  size_t size() const { return bound_.size(); }

 private:
  /// The slot of variable `name`, assigned on first sight. Rules have few
  /// variables, so a linear scan beats hashing the names.
  uint32_t SlotOf(const std::string& name) {
    for (uint32_t s = 0; s < names_.size(); ++s) {
      if (*names_[s] == name) return s;
    }
    names_.push_back(&name);
    bound_.push_back(false);
    return static_cast<uint32_t>(names_.size() - 1);
  }

  std::vector<const std::string*> names_;  ///< by slot, into the rule
  std::vector<bool> bound_;                ///< by slot
};

/// Slots of the variables a compiled term reads (its kBound occurrences).
void CollectBoundSlots(const TermCode& code, std::vector<uint32_t>* out) {
  if (code.op == TermCode::Op::kBound) out->push_back(code.slot);
  for (const TermCode& a : code.args) CollectBoundSlots(a, out);
}

/// The term `code` denotes under `slots`; unbound variables stay variables.
Term Instantiate(const TermCode& code, const Slots& slots) {
  switch (code.op) {
    case TermCode::Op::kBound:
      return *slots[code.slot];
    case TermCode::Op::kFunction: {
      std::vector<Term> args;
      args.reserve(code.args.size());
      for (const TermCode& a : code.args) args.push_back(Instantiate(a, slots));
      return code.term->WithArgs(std::move(args));
    }
    default:
      return *code.term;
  }
}

/// A ground term's value without copying it when it is a constant or a
/// bound variable; a function term is instantiated into `scratch`.
const Term& Read(const TermCode& code, const Slots& slots, Term* scratch) {
  switch (code.op) {
    case TermCode::Op::kBound:
      return *slots[code.slot];
    case TermCode::Op::kFunction:
      *scratch = Instantiate(code, slots);
      return *scratch;
    default:
      return *code.term;
  }
}

/// Unify of a compiled pattern with a ground value: binds kFree slots to
/// subterms of `value` and compares everything else with GroundUnify.
/// A failed match may leave slots bound; nothing reads them before the
/// next successful match rebinds them.
bool Match(const TermCode& code, const Term& value, Slots* slots) {
  switch (code.op) {
    case TermCode::Op::kConst:
      return GroundUnify(*code.term, value);
    case TermCode::Op::kBound: {
      const Term& bound = *(*slots)[code.slot];
      if (bound.kind() == TermKind::kInt && value.kind() == TermKind::kInt) {
        return bound.int_value() == value.int_value();
      }
      return GroundUnify(bound, value);
    }
    case TermCode::Op::kFree:
      (*slots)[code.slot] = &value;
      return true;
    case TermCode::Op::kFunction: {
      if (!value.IsFunction() || value.text() != code.term->text() ||
          value.arity() != code.args.size()) {
        return false;
      }
      for (size_t i = 0; i < code.args.size(); ++i) {
        if (!Match(code.args[i], value.args()[i], slots)) return false;
      }
      return true;
    }
  }
  return false;
}

/// A literal's arguments compiled for probing a relation: ground columns
/// form the index key, the rest match in column order.
struct ProbeCode {
  std::vector<int> key_cols;
  std::vector<TermCode> key;  ///< one per key column
  struct Column {
    size_t col;
    TermCode code;
  };
  std::vector<Column> match;  ///< the non-key columns, binding as they go
};

/// Splits `args` (compiled without binding) into key and match columns and
/// compiles the match columns with binding, in column order.
ProbeCode CompileProbe(const Literal& lit, const std::vector<TermCode>& args,
                       SlotTable* table) {
  ProbeCode probe;
  for (size_t i = 0; i < args.size(); ++i) {
    if (args[i].ground) {
      probe.key_cols.push_back(static_cast<int>(i));
      probe.key.push_back(args[i]);
    }
  }
  for (size_t i = 0; i < args.size(); ++i) {
    if (!args[i].ground) {
      probe.match.push_back({i, table->Compile(lit.args()[i], true)});
    }
  }
  return probe;
}

/// True iff `t` matches every match column of `probe`; binds their slots.
bool MatchColumns(const ProbeCode& probe, TupleView t, Slots* slots) {
  for (const ProbeCode::Column& c : probe.match) {
    if (!Match(c.code, t[c.col], slots)) return false;
  }
  return true;
}

/// Fills `key` (sized to the key columns) from the compiled key terms.
void FillKey(const ProbeCode& probe, const Slots& slots, Tuple* key) {
  for (size_t k = 0; k < probe.key.size(); ++k) {
    const TermCode& code = probe.key[k];
    if (code.op != TermCode::Op::kConst) (*key)[k] = Instantiate(code, slots);
  }
}

/// A fresh key buffer with the constant key columns filled in.
Tuple KeyTemplate(const ProbeCode& probe) {
  Tuple key;
  key.reserve(probe.key.size());
  for (const TermCode& code : probe.key) {
    key.push_back(code.op == TermCode::Op::kConst ? *code.term : Term());
  }
  return key;
}

enum class StepKind : uint8_t { kPositive, kNegated, kCompare, kEq };

/// One body literal at its position in the order.
struct CompiledStep {
  StepKind kind;
  const Literal* lit;
  size_t body_pos;
  /// Every argument compiled against the variables bound before this
  /// literal, binding nothing: the pattern resolver's view, the negation
  /// key, and the builtin sides.
  std::vector<TermCode> args;
  /// kPositive: the index key and match columns.
  ProbeCode probe;
  /// Builtins and negation: not computable at this point of the order.
  bool unsafe = false;
  /// kEq with one non-ground side: that side (0 or 1) as a binding pattern,
  /// and the slots it reads, which must not hold arithmetic.
  int pattern_side = -1;
  TermCode pattern;
  std::vector<uint32_t> pattern_reads;
};

bool AnyArithmetic(const std::vector<uint32_t>& reads, const Slots& slots) {
  for (uint32_t s : reads) {
    if (ContainsArithmetic(*slots[s])) return true;
  }
  return false;
}

}  // namespace

struct CompiledBody {
  const Rule* rule;
  std::vector<CompiledStep> steps;  ///< in evaluation order
  std::vector<TermCode> head;
  size_t num_slots = 0;
};

Result<CompiledRule> CompiledRule::Compile(const Rule& rule,
                                           const std::vector<size_t>& order) {
  auto body = std::make_shared<CompiledBody>();
  body->rule = &rule;
  const std::vector<Literal>& lits = rule.body();
  std::vector<size_t> positions = order;
  if (positions.empty()) {
    positions.resize(lits.size());
    for (size_t i = 0; i < positions.size(); ++i) positions[i] = i;
  }
  if (positions.size() != lits.size()) {
    return Status::Internal("rule evaluation order has wrong size");
  }
  SlotTable table;
  body->steps.reserve(positions.size());
  for (size_t pos : positions) {
    if (pos >= lits.size()) {
      return Status::Internal("rule evaluation order names no literal");
    }
    const Literal& lit = lits[pos];
    CompiledStep step;
    step.lit = &lit;
    step.body_pos = pos;
    for (const Term& a : lit.args()) {
      step.args.push_back(table.Compile(a, false));
    }
    if (!lit.IsBuiltin()) {
      if (lit.negated()) {
        step.kind = StepKind::kNegated;
        for (const TermCode& a : step.args) step.unsafe |= !a.ground;
      } else {
        step.kind = StepKind::kPositive;
        step.probe = CompileProbe(lit, step.args, &table);
      }
    } else if (lit.builtin() != BuiltinKind::kEq) {
      step.kind = StepKind::kCompare;
      step.unsafe = !step.args[0].ground || !step.args[1].ground;
    } else {
      step.kind = StepKind::kEq;
      const bool lhs = step.args[0].ground;
      const bool rhs = step.args[1].ground;
      if (lhs != rhs) {
        // Evaluate the ground side and match it against the other, which
        // must be a constructor pattern: arithmetic there would need
        // equation solving. Bound variables can bring arithmetic in too,
        // so those are checked when the literal runs.
        step.pattern_side = lhs ? 1 : 0;
        const Term& side = lit.args()[step.pattern_side];
        step.unsafe = ContainsArithmetic(side);
        CollectBoundSlots(step.args[step.pattern_side], &step.pattern_reads);
        step.pattern = table.Compile(side, true);
      } else {
        step.unsafe = !lhs;
      }
    }
    body->steps.push_back(std::move(step));
  }
  for (const Term& a : rule.head().args()) {
    body->head.push_back(table.Compile(a, false));
  }
  body->num_slots = table.size();
  return CompiledRule(std::move(body));
}

namespace {

/// Backtracking join over a compiled rule body. Holds the per-call state:
/// slot values, key buffers and the relation each position resolved to.
class RuleEvaluator {
 public:
  RuleEvaluator(const CompiledBody& body, const RelationResolver& resolve,
                Relation* out, EvalCounters* counters,
                const RuleEvalOptions& options)
      : body_(body),
        resolve_(resolve),
        out_(out),
        counters_(counters),
        options_(options),
        slots_(body.num_slots, nullptr),
        keys_(body.steps.size()),
        head_(body.head.size()),
        copies_(body.steps.size()),
        resolved_(body.steps.size()),
        indexes_(body.steps.size(), nullptr),
        resolved_done_(body.steps.size(), false) {
    for (size_t d = 0; d < body.steps.size(); ++d) {
      const CompiledStep& step = body.steps[d];
      if (step.kind == StepKind::kPositive) {
        keys_[d] = KeyTemplate(step.probe);
      } else if (step.kind == StepKind::kNegated) {
        keys_[d].resize(step.args.size());
      }
    }
  }

  Result<size_t> Run() {
    counters_->rule_firings++;
    LDL_RETURN_NOT_OK(Step(0));
    FlushWork();
    if (options_.accountant != nullptr && inserted_ != 0) {
      options_.accountant->AddTuplesDerived(inserted_);
    }
    return inserted_;
  }

 private:
  /// Counts one examined tuple; every kCheckIntervalTuples of them, flushes
  /// work into the accountant and polls the cancellation token. The
  /// disabled path (no token, no accountant) is the increment + compare.
  Status CountExamined() {
    counters_->tuples_examined++;
    if (++since_check_ < CancellationToken::kCheckIntervalTuples) {
      return Status::OK();
    }
    FlushWork();
    if (options_.cancel != nullptr) {
      LDL_RETURN_NOT_OK(options_.cancel->Check());
    }
    return Status::OK();
  }

  /// Pushes locally accumulated work into the accountant.
  void FlushWork() {
    if (options_.accountant != nullptr && since_check_ != 0) {
      options_.accountant->AddTuplesExamined(since_check_);
    }
    since_check_ = 0;
  }

  /// The plain resolver's window for position `depth`, asked once, and
  /// the handle of its index on the position's key columns.
  const RowWindow& Resolved(size_t depth) {
    if (!resolved_done_[depth]) {
      const CompiledStep& step = body_.steps[depth];
      const RowWindow window = resolve_(*step.lit, step.body_pos);
      resolved_[depth] = window;
      if (window.rel != nullptr && step.kind == StepKind::kPositive &&
          !step.probe.key_cols.empty()) {
        indexes_[depth] = &window.rel->IndexOn(step.probe.key_cols);
      }
      resolved_done_[depth] = true;
    }
    return resolved_[depth];
  }

  /// The literal with its arguments instantiated, for error messages.
  Literal Instantiated(const CompiledStep& step) const {
    std::vector<Term> args;
    for (const TermCode& a : step.args) args.push_back(Instantiate(a, slots_));
    return step.lit->WithArgs(std::move(args));
  }

  Status Step(size_t depth) {
    if (depth == body_.steps.size()) return EmitHead();
    const CompiledStep& step = body_.steps[depth];
    switch (step.kind) {
      case StepKind::kPositive:
        return StepPositive(step, depth);
      case StepKind::kNegated:
        return StepNegated(step, depth);
      case StepKind::kCompare:
        return StepCompare(step, depth);
      case StepKind::kEq:
        return StepEq(step, depth);
    }
    return Status::Internal("unreachable");
  }

  Status EmitHead() {
    counters_->derivations++;
    if (counters_->derivations > options_.max_derivations) {
      return Status::ResourceExhausted(
          StrCat("rule ", body_.rule->ToString(), " exceeded ",
                 options_.max_derivations, " derivations"));
    }
    for (size_t i = 0; i < body_.head.size(); ++i) {
      const TermCode& code = body_.head[i];
      if (!code.ground) {
        return Status::Unsafe(
            StrCat("non-ground head value ",
                   Instantiate(code, slots_).ToString(), " in rule ",
                   body_.rule->ToString(),
                   " (rule is not range-restricted under this order)"));
      }
      Term& v = head_[i];
      switch (code.op) {
        case TermCode::Op::kBound:
          v = *slots_[code.slot];
          break;
        case TermCode::Op::kFunction:
          v = Instantiate(code, slots_);
          break;
        default:
          v = *code.term;
      }
      // Fold any arithmetic the head may carry, e.g. p(X+1) <- q(X).
      if (v.IsFunction() && ContainsArithmetic(v)) {
        auto folded = EvalArithmetic(v);
        if (!folded.ok()) return Status::OK();  // arithmetic error: no tuple
        v = std::move(folded).value();
      }
    }
    if (out_->Insert(head_)) {
      counters_->inserts++;
      ++inserted_;
    }
    return Status::OK();
  }

  Status NotComputable(const CompiledStep& step) const {
    return Status::Unsafe(StrCat("builtin ", Instantiated(step).ToString(),
                                 " is not computable at this point of rule ",
                                 body_.rule->ToString(),
                                 " (unsafe literal order)"));
  }

  Status StepCompare(const CompiledStep& step, size_t depth) {
    if (step.unsafe) return NotComputable(step);
    Term lhs_scratch;
    Term rhs_scratch;
    const Term& lhs = Read(step.args[0], slots_, &lhs_scratch);
    const Term& rhs = Read(step.args[1], slots_, &rhs_scratch);
    if (EvalComparison(step.lit->builtin(), lhs, rhs) !=
        BuiltinOutcome::kSatisfied) {
      return Status::OK();
    }
    return Step(depth + 1);
  }

  /// `=`: folds the ground side(s), then either compares two ground values
  /// or matches the value against the other side's pattern, binding it.
  Status StepEq(const CompiledStep& step, size_t depth) {
    if (step.unsafe || AnyArithmetic(step.pattern_reads, slots_)) {
      return NotComputable(step);
    }
    Term folded[2];
    for (int side = 0; side < 2; ++side) {
      if (side == step.pattern_side) continue;
      auto value = EvalArithmetic(Read(step.args[side], slots_, &folded[side]));
      if (!value.ok()) return Status::OK();  // arithmetic error: no match
      folded[side] = std::move(value).value();
    }
    if (step.pattern_side < 0) {
      if (!GroundUnify(folded[0], folded[1])) return Status::OK();
    } else if (!Match(step.pattern, folded[1 - step.pattern_side], &slots_)) {
      return Status::OK();
    }
    return Step(depth + 1);
  }

  Status StepNegated(const CompiledStep& step, size_t depth) {
    if (step.unsafe) {
      return Status::Unsafe(StrCat("negated literal ",
                                   Instantiated(step).ToString(),
                                   " has unbound variables in rule ",
                                   body_.rule->ToString()));
    }
    Relation* rel = Resolved(depth).rel;
    LDL_RETURN_NOT_OK(CountExamined());
    Tuple& key = keys_[depth];
    for (size_t i = 0; i < step.args.size(); ++i) {
      key[i] = Instantiate(step.args[i], slots_);
    }
    if (rel != nullptr && rel->Contains(key)) return Status::OK();
    return Step(depth + 1);
  }

  Status TryTuple(const CompiledStep& step, size_t depth, TupleView t) {
    LDL_RETURN_NOT_OK(CountExamined());
    if (!MatchColumns(step.probe, t, &slots_)) return Status::OK();
    return Step(depth + 1);
  }

  Status StepPositive(const CompiledStep& step, size_t depth) {
    RowWindow window;
    if (options_.pattern_resolver) {
      std::vector<Term> patterns;
      patterns.reserve(step.args.size());
      for (const TermCode& a : step.args) {
        patterns.push_back(Instantiate(a, slots_));
      }
      window.rel =
          options_.pattern_resolver(*step.lit, step.body_pos, patterns);
    }
    const bool tabled = window.rel != nullptr;
    Relation::Index* index = nullptr;
    if (!tabled) {
      window = Resolved(depth);
      index = indexes_[depth];
    }
    Relation* rel = window.rel;
    if (rel == nullptr) return Status::OK();

    const ProbeCode& probe = step.probe;
    const bool keyed = !probe.key_cols.empty();
    if (keyed) {
      FillKey(probe, slots_, &keys_[depth]);
      if (tabled) index = &rel->IndexOn(probe.key_cols);
    }

    // A stable relation gains no rows while this rule runs, so its posting
    // lists and rows are read in place and slots point into its arena.
    // Two kinds are not stable: the rule's own sink (direct recursion, as
    // in a fixpoint firing's reads of its head predicate), and a tabled
    // relation from the pattern resolver, which deeper probes may extend.
    // An insert made deeper in the recursion can grow their arena and
    // posting lists, so the posting list is copied and each row is copied
    // into this depth's buffer before the slots point into it.
    const bool in_place = !tabled && rel != out_;
    RowCopy& copy = copies_[depth];
    auto try_row = [&](size_t id) {
      const TupleView row = rel->tuple(id);
      return TryTuple(step, depth, in_place ? row : copy.Take(row));
    };
    // Only rows inside the window are read: a scan stops at its end as of
    // now, and a posting list (ascending row ids) is clipped to it.
    const size_t end = std::min(window.end, rel->size());
    if (!keyed) {
      for (size_t i = window.begin; i < end; ++i) {
        LDL_RETURN_NOT_OK(try_row(i));
      }
      return Status::OK();
    }
    std::span<const uint32_t> ids = rel->Lookup(*index, keys_[depth]);
    if (!ids.empty() && ids.front() < window.begin) {
      ids = ids.subspan(std::lower_bound(ids.begin(), ids.end(),
                                         window.begin) - ids.begin());
    }
    if (!ids.empty() && ids.back() >= end) {
      ids = ids.first(std::lower_bound(ids.begin(), ids.end(), end) -
                      ids.begin());
    }
    if (!in_place) {
      copy.ids.assign(ids.begin(), ids.end());
      ids = copy.ids;
    }
    for (uint32_t id : ids) LDL_RETURN_NOT_OK(try_row(id));
    return Status::OK();
  }

  /// A depth's private copies for reading a relation that may grow.
  struct RowCopy {
    std::vector<uint32_t> ids;  ///< the posting list being walked
    Tuple row;                  ///< the row being matched

    TupleView Take(TupleView stored) {
      row.assign(stored.begin(), stored.end());
      return row;
    }
  };

  const CompiledBody& body_;
  const RelationResolver& resolve_;
  Relation* out_;
  EvalCounters* counters_;
  const RuleEvalOptions& options_;
  Slots slots_;
  std::vector<Tuple> keys_;  ///< per position: index or negation key
  Tuple head_;               ///< the head row being emitted
  std::vector<RowCopy> copies_;  ///< per position
  std::vector<RowWindow> resolved_;
  /// Per resolved position: the handle of its index, looked up once.
  std::vector<Relation::Index*> indexes_;
  std::vector<bool> resolved_done_;
  size_t inserted_ = 0;
  size_t since_check_ = 0;  ///< examined tuples since the last check-point
};

}  // namespace

Result<size_t> EvaluateRule(const CompiledRule& rule,
                            const RelationResolver& resolve, Relation* out,
                            EvalCounters* counters,
                            const RuleEvalOptions& options) {
  RuleEvaluator evaluator(*rule.body_, resolve, out, counters, options);
  return evaluator.Run();
}

Result<size_t> EvaluateRule(const Rule& rule, const RelationResolver& resolve,
                            Relation* out, EvalCounters* counters,
                            const RuleEvalOptions& options) {
  LDL_ASSIGN_OR_RETURN(CompiledRule compiled,
                       CompiledRule::Compile(rule, options.order));
  return EvaluateRule(compiled, resolve, out, counters, options);
}

Relation SelectMatching(Relation* rel, const Literal& goal) {
  Relation out("answers", goal.arity());
  if (rel == nullptr) return out;
  SlotTable table;
  std::vector<TermCode> args;
  args.reserve(goal.arity());
  for (const Term& a : goal.args()) args.push_back(table.Compile(a, false));
  const ProbeCode probe = CompileProbe(goal, args, &table);
  Slots slots(table.size(), nullptr);
  auto consider = [&](uint32_t id) {
    const TupleView t = rel->tuple(id);
    if (MatchColumns(probe, t, &slots)) {
      out.AppendUnchecked(t, rel->tuple_hash(id));
    }
  };
  if (!probe.key_cols.empty()) {
    for (uint32_t id : rel->Lookup(probe.key_cols, KeyTemplate(probe))) {
      consider(id);
    }
  } else {
    for (uint32_t id = 0; id < rel->size(); ++id) consider(id);
  }
  return out;
}

RelationResolver DatabaseResolver(Database* db) {
  return [db](const Literal& lit, size_t) -> Relation* {
    return db->Find(lit.predicate());
  };
}

}  // namespace ldl
