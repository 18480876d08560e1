#ifndef LDLOPT_ENGINE_BUILTINS_H_
#define LDLOPT_ENGINE_BUILTINS_H_

#include "ast/literal.h"
#include "ast/term.h"
#include "base/status.h"
#include "engine/unify.h"

namespace ldl {

// Reentrancy contract: every function in this header is a pure function of
// its arguments (plus the passed-in Substitution, for EvalBuiltin), and
// concurrently evaluating LdlSystem instances may call them from any
// number of threads as long as each Substitution is thread-private. The
// rule evaluator holds no Substitution: its bindings live in per-call slot
// arrays (engine/rule_eval.cc), private to the calling thread.
//
// The evaluation stack has exactly one piece of process-wide mutable
// state: the atom table that interns variable, symbol, functor and string
// text (InternAtom in ast/term.h). It is append-only and thread-safe: a
// reader-writer lock guards it, atoms are never freed or moved, and every
// thread gets the same atom for the same text, so terms built on
// different threads compare equal by atom address. Function-term nodes
// are shared between copies of a term through an atomic reference count.
// Every other function-local static in the stack is an immutable constant
// with thread-safe initialization. Pinned under TSan by
// ScenarioTest.ConcurrentIndependentSystems and
// ScenarioTest.ConcurrentSystemsShareInternedText (tests/scenario_test.cc)
// and AtomTableTest.ConcurrentInterningAgreesAcrossThreads
// (tests/term_test.cc).

/// Outcome of attempting one builtin literal under a substitution.
enum class BuiltinOutcome {
  kSatisfied,      ///< test passed / assignment made (subst may be extended)
  kFailed,         ///< test failed (or arithmetic error); prune this branch
  kNotComputable,  ///< insufficient bindings: the literal is an infinite
                   ///< relation here (paper section 8); evaluation order bug
};

/// Evaluates ground arithmetic inside `t`: function terms with functors
/// + - * / mod over numeric arguments are folded to numeric constants;
/// everything else (data constructors, symbols) is left intact.
/// Returns kInvalidArgument on division by zero.
Result<Term> EvalArithmetic(const Term& t);

/// True iff `t` contains any arithmetic functor (+ - * / mod).
bool ContainsArithmetic(const Term& t);

/// Attempts the builtin comparison literal `lit` under `*subst`:
///  - comparisons (< <= > >= !=) require both sides ground; compares
///    numerically when both sides are numeric, by term order otherwise;
///  - `=` evaluates whichever side is ground (folding arithmetic) and
///    unifies it with the other side, possibly binding variables.
/// On kFailed/kNotComputable the substitution is unchanged.
BuiltinOutcome EvalBuiltin(const Literal& lit, Substitution* subst);

/// The ordering comparisons (< <= > >= !=) on two ground sides: folds
/// their arithmetic, then compares numerically when both sides are
/// numeric, by term order otherwise. kFailed on an arithmetic error.
BuiltinOutcome EvalComparison(BuiltinKind kind, const Term& lhs,
                              const Term& rhs);

/// Static EC test used by the safety analysis and by the adornment walk:
/// given which argument sides are fully bound, would EvalBuiltin be
/// computable? (paper section 8.1: "patterns of argument bindings that
/// ensure EC are simple to derive for comparison predicates"). This raw
/// form ignores term structure; prefer BuiltinComputable below.
bool BuiltinComputableWith(BuiltinKind kind, bool lhs_bound, bool rhs_bound);

/// Structure-aware EC test for a builtin literal. For `=` the paper's rule
/// is directional: "we are ensured of EC as soon as all the variables in
/// *expression* are instantiated". Evaluating a ground side and unifying it
/// against the other side works only when the unbound side is a pure
/// constructor pattern — an unbound side containing arithmetic (X = Y / 2
/// with Y free) would need equation solving, which the engine does not do.
bool BuiltinComputable(const Literal& lit, bool lhs_bound, bool rhs_bound);

}  // namespace ldl

#endif  // LDLOPT_ENGINE_BUILTINS_H_
