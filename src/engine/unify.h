#ifndef LDLOPT_ENGINE_UNIFY_H_
#define LDLOPT_ENGINE_UNIFY_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "ast/literal.h"
#include "ast/term.h"

namespace ldl {

/// A substitution: variable name -> term. Bindings may map to terms that
/// themselves contain variables (full unification); during bottom-up rule
/// evaluation they are always ground.
///
/// Supports O(1) snapshot/undo through a trail, which the tuple-at-a-time
/// rule evaluator uses for backtracking.
class Substitution {
 public:
  Substitution() = default;

  /// The binding of `var`, or nullptr.
  const Term* Lookup(const std::string& var) const;

  /// Binds `var` (must be unbound) and records it on the trail.
  void Bind(const std::string& var, Term value);

  /// Current trail position; pass to UndoTo to roll back.
  size_t Mark() const { return trail_.size(); }
  /// Removes all bindings made after `mark`.
  void UndoTo(size_t mark);

  /// Applies the substitution: replaces each bound variable by its (fully
  /// dereferenced) binding. Unbound variables remain.
  Term Apply(const Term& t) const;
  Literal Apply(const Literal& lit) const;

  size_t size() const { return map_.size(); }
  bool empty() const { return map_.empty(); }

  std::string ToString() const;

 private:
  std::unordered_map<std::string, Term> map_;
  std::vector<std::string> trail_;
};

/// General unification of two terms under `subst`, extending it on success.
/// On failure `subst` is restored to its state at entry. No occurs check
/// (consistent with Prolog practice; the engine only ever unifies against
/// ground terms, where the check is moot).
bool Unify(const Term& a, const Term& b, Substitution* subst);

/// Unify on two ground terms, which binds nothing: structural equality
/// where numbers compare by value across kinds (1 unifies with 1.0).
bool GroundUnify(const Term& a, const Term& b);

}  // namespace ldl

#endif  // LDLOPT_ENGINE_UNIFY_H_
