#include "engine/builtins.h"

#include <cmath>

#include "base/strings.h"

namespace ldl {

namespace {

bool IsArithFunctor(const std::string& f, size_t arity) {
  return arity == 2 &&
         (f == "+" || f == "-" || f == "*" || f == "/" || f == "mod");
}

}  // namespace

bool ContainsArithmetic(const Term& t) {
  if (t.kind() != TermKind::kFunction) return false;
  if (IsArithFunctor(t.text(), t.arity())) return true;
  for (const Term& a : t.args()) {
    if (ContainsArithmetic(a)) return true;
  }
  return false;
}

Result<Term> EvalArithmetic(const Term& t) {
  if (t.kind() != TermKind::kFunction) return t;
  std::vector<Term> args;
  args.reserve(t.arity());
  for (const Term& a : t.args()) {
    LDL_ASSIGN_OR_RETURN(Term folded, EvalArithmetic(a));
    args.push_back(std::move(folded));
  }
  if (IsArithFunctor(t.text(), t.arity()) && args[0].IsNumeric() &&
      args[1].IsNumeric()) {
    const std::string& op = t.text();
    bool both_int = args[0].kind() == TermKind::kInt &&
                    args[1].kind() == TermKind::kInt;
    if (op == "mod") {
      if (!both_int || args[1].int_value() == 0) {
        return Status::InvalidArgument("mod requires nonzero integers");
      }
      return Term::MakeInt(args[0].int_value() % args[1].int_value());
    }
    if (op == "/") {
      if (args[1].AsDouble() == 0.0) {
        return Status::InvalidArgument("division by zero");
      }
      if (both_int && args[0].int_value() % args[1].int_value() == 0) {
        return Term::MakeInt(args[0].int_value() / args[1].int_value());
      }
      return Term::MakeReal(args[0].AsDouble() / args[1].AsDouble());
    }
    if (both_int) {
      int64_t x = args[0].int_value();
      int64_t y = args[1].int_value();
      if (op == "+") return Term::MakeInt(x + y);
      if (op == "-") return Term::MakeInt(x - y);
      if (op == "*") return Term::MakeInt(x * y);
    } else {
      double x = args[0].AsDouble();
      double y = args[1].AsDouble();
      if (op == "+") return Term::MakeReal(x + y);
      if (op == "-") return Term::MakeReal(x - y);
      if (op == "*") return Term::MakeReal(x * y);
    }
  }
  return t.WithArgs(std::move(args));
}

namespace {

// Three-way comparison of ground terms: numeric when both numeric, term
// order otherwise. Returns -1/0/+1.
int CompareGround(const Term& a, const Term& b) {
  if (a.IsNumeric() && b.IsNumeric()) {
    double x = a.AsDouble();
    double y = b.AsDouble();
    return x < y ? -1 : (x > y ? 1 : 0);
  }
  if (a == b) return 0;
  return a < b ? -1 : 1;
}

BuiltinOutcome FromBool(bool ok) {
  return ok ? BuiltinOutcome::kSatisfied : BuiltinOutcome::kFailed;
}

}  // namespace

BuiltinOutcome EvalBuiltin(const Literal& lit, Substitution* subst) {
  const Term lhs = subst->Apply(lit.args()[0]);
  const Term rhs = subst->Apply(lit.args()[1]);
  const bool lhs_ground = lhs.IsGround();
  const bool rhs_ground = rhs.IsGround();

  if (lit.builtin() == BuiltinKind::kEq) {
    if (!lhs_ground && !rhs_ground) return BuiltinOutcome::kNotComputable;
    // A ground side can be evaluated and unified against the other side
    // only if that side is a constructor pattern; residual arithmetic
    // would require equation solving.
    if (!lhs_ground && ContainsArithmetic(lhs)) {
      return BuiltinOutcome::kNotComputable;
    }
    if (!rhs_ground && ContainsArithmetic(rhs)) {
      return BuiltinOutcome::kNotComputable;
    }
    size_t mark = subst->Mark();
    Term l = lhs;
    Term r = rhs;
    if (lhs_ground) {
      auto folded = EvalArithmetic(l);
      if (!folded.ok()) return BuiltinOutcome::kFailed;
      l = std::move(folded).value();
    }
    if (rhs_ground) {
      auto folded = EvalArithmetic(r);
      if (!folded.ok()) return BuiltinOutcome::kFailed;
      r = std::move(folded).value();
    }
    if (Unify(l, r, subst)) return BuiltinOutcome::kSatisfied;
    subst->UndoTo(mark);
    return BuiltinOutcome::kFailed;
  }

  // Ordering comparisons need both sides ground.
  if (!lhs_ground || !rhs_ground) return BuiltinOutcome::kNotComputable;
  return EvalComparison(lit.builtin(), lhs, rhs);
}

BuiltinOutcome EvalComparison(BuiltinKind kind, const Term& lhs,
                              const Term& rhs) {
  int cmp = 0;
  if (lhs.IsFunction() || rhs.IsFunction()) {
    auto l = EvalArithmetic(lhs);
    auto r = EvalArithmetic(rhs);
    if (!l.ok() || !r.ok()) return BuiltinOutcome::kFailed;
    cmp = CompareGround(*l, *r);
  } else {
    cmp = CompareGround(lhs, rhs);  // nothing to fold
  }
  switch (kind) {
    case BuiltinKind::kNe:
      return FromBool(cmp != 0);
    case BuiltinKind::kLt:
      return FromBool(cmp < 0);
    case BuiltinKind::kLe:
      return FromBool(cmp <= 0);
    case BuiltinKind::kGt:
      return FromBool(cmp > 0);
    case BuiltinKind::kGe:
      return FromBool(cmp >= 0);
    default:
      return BuiltinOutcome::kFailed;
  }
}

bool BuiltinComputableWith(BuiltinKind kind, bool lhs_bound, bool rhs_bound) {
  if (kind == BuiltinKind::kEq) return lhs_bound || rhs_bound;
  return lhs_bound && rhs_bound;
}

bool BuiltinComputable(const Literal& lit, bool lhs_bound, bool rhs_bound) {
  if (lit.builtin() != BuiltinKind::kEq) {
    return lhs_bound && rhs_bound;
  }
  if (lhs_bound && rhs_bound) return true;
  if (lhs_bound) return !ContainsArithmetic(lit.args()[1]);
  if (rhs_bound) return !ContainsArithmetic(lit.args()[0]);
  return false;
}

}  // namespace ldl
