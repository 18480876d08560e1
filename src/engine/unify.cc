#include "engine/unify.h"

#include <sstream>

namespace ldl {

const Term* Substitution::Lookup(const std::string& var) const {
  auto it = map_.find(var);
  return it == map_.end() ? nullptr : &it->second;
}

void Substitution::Bind(const std::string& var, Term value) {
  map_.emplace(var, std::move(value));
  trail_.push_back(var);
}

void Substitution::UndoTo(size_t mark) {
  while (trail_.size() > mark) {
    map_.erase(trail_.back());
    trail_.pop_back();
  }
}

Term Substitution::Apply(const Term& t) const {
  switch (t.kind()) {
    case TermKind::kVariable: {
      const Term* bound = Lookup(t.text());
      if (bound == nullptr) return t;
      // Dereference chains (X -> Y -> 3).
      return Apply(*bound);
    }
    case TermKind::kFunction: {
      std::vector<Term> args;
      args.reserve(t.args().size());
      bool changed = false;
      for (const Term& a : t.args()) {
        Term applied = Apply(a);
        changed = changed || !(applied == a);
        args.push_back(std::move(applied));
      }
      if (!changed) return t;
      return t.WithArgs(std::move(args));
    }
    default:
      return t;
  }
}

Literal Substitution::Apply(const Literal& lit) const {
  std::vector<Term> args;
  args.reserve(lit.args().size());
  for (const Term& a : lit.args()) args.push_back(Apply(a));
  return lit.WithArgs(std::move(args));
}

std::string Substitution::ToString() const {
  std::ostringstream os;
  os << '{';
  bool first = true;
  for (const auto& [var, term] : map_) {
    if (!first) os << ", ";
    first = false;
    os << var << " -> " << term;
  }
  os << '}';
  return os.str();
}

namespace {

// Dereferences a variable term through the substitution until it reaches a
// non-variable term or an unbound variable.
const Term* Deref(const Term* t, const Substitution& subst) {
  while (t->kind() == TermKind::kVariable) {
    const Term* bound = subst.Lookup(t->text());
    if (bound == nullptr) return t;
    t = bound;
  }
  return t;
}

bool UnifyImpl(const Term& a, const Term& b, Substitution* subst) {
  const Term* da = Deref(&a, *subst);
  const Term* db = Deref(&b, *subst);
  if (da->kind() == TermKind::kVariable) {
    if (db->kind() == TermKind::kVariable && da->text() == db->text()) {
      return true;
    }
    subst->Bind(da->text(), *db);
    return true;
  }
  if (db->kind() == TermKind::kVariable) {
    subst->Bind(db->text(), *da);
    return true;
  }
  if (da->kind() != db->kind()) {
    // Numeric cross-kind equality (1 == 1.0) is resolved by value.
    if (da->IsNumeric() && db->IsNumeric()) {
      return da->AsDouble() == db->AsDouble();
    }
    return false;
  }
  switch (da->kind()) {
    case TermKind::kInt:
      return da->int_value() == db->int_value();
    case TermKind::kReal:
      return da->real_value() == db->real_value();
    case TermKind::kString:
    case TermKind::kSymbol:
      return da->text() == db->text();
    case TermKind::kFunction: {
      if (da->text() != db->text() || da->arity() != db->arity()) return false;
      for (size_t i = 0; i < da->arity(); ++i) {
        if (!UnifyImpl(da->args()[i], db->args()[i], subst)) return false;
      }
      return true;
    }
    default:
      return false;
  }
}

}  // namespace

bool Unify(const Term& a, const Term& b, Substitution* subst) {
  size_t mark = subst->Mark();
  if (UnifyImpl(a, b, subst)) return true;
  subst->UndoTo(mark);
  return false;
}

bool GroundUnify(const Term& a, const Term& b) {
  if (a.kind() != b.kind()) {
    return a.IsNumeric() && b.IsNumeric() && a.AsDouble() == b.AsDouble();
  }
  switch (a.kind()) {
    case TermKind::kInt:
      return a.int_value() == b.int_value();
    case TermKind::kReal:
      return a.real_value() == b.real_value();
    case TermKind::kFunction: {
      if (a.text() != b.text() || a.arity() != b.arity()) return false;
      for (size_t i = 0; i < a.arity(); ++i) {
        if (!GroundUnify(a.args()[i], b.args()[i])) return false;
      }
      return true;
    }
    default:
      return a.text() == b.text();
  }
}

}  // namespace ldl
