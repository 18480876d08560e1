#include "ast/term.h"

#include <algorithm>
#include <mutex>
#include <new>
#include <shared_mutex>
#include <sstream>

namespace ldl {

namespace {

// List constructors: '.'(Head, Tail) cons cells terminated by the symbol [].
constexpr char kConsFunctor[] = ".";
constexpr char kNilSymbol[] = "[]";

/// The process-wide atom table: an open-addressing set of atom pointers
/// keyed by each atom's cached hash, kept at most half full. Lookups take
/// the shared lock; a miss retakes the exclusive lock and inserts. Atoms
/// are never removed, so an atom pointer handed out stays valid for the
/// life of the process.
class AtomTable {
 public:
  const Atom* Intern(std::string_view text) {
    const size_t hash = std::hash<std::string_view>{}(text);
    {
      std::shared_lock<std::shared_mutex> lock(mu_);
      const Atom* found = slots_[Probe(hash, text)];
      if (found != nullptr) return found;
    }
    std::unique_lock<std::shared_mutex> lock(mu_);
    size_t i = Probe(hash, text);
    if (slots_[i] != nullptr) return slots_[i];
    if ((count_ + 1) * 2 > slots_.size()) {
      Grow();
      i = Probe(hash, text);
    }
    slots_[i] = new Atom{std::string(text), hash};
    ++count_;
    return slots_[i];
  }

 private:
  /// The slot holding `text`, else the empty slot where it belongs.
  size_t Probe(size_t hash, std::string_view text) const {
    const size_t mask = slots_.size() - 1;
    for (size_t i = Mix64(hash) & mask;; i = (i + 1) & mask) {
      const Atom* a = slots_[i];
      if (a == nullptr || (a->hash == hash && a->text == text)) return i;
    }
  }

  void Grow() {
    std::vector<const Atom*> old(slots_.size() * 2, nullptr);
    old.swap(slots_);
    const size_t mask = slots_.size() - 1;
    for (const Atom* a : old) {
      if (a == nullptr) continue;
      size_t i = Mix64(a->hash) & mask;
      while (slots_[i] != nullptr) i = (i + 1) & mask;
      slots_[i] = a;
    }
  }

  std::shared_mutex mu_;
  std::vector<const Atom*> slots_ = std::vector<const Atom*>(1024, nullptr);
  size_t count_ = 0;
};

AtomTable& Atoms() {
  static auto* table = new AtomTable();
  return *table;
}

}  // namespace

const Atom* InternAtom(std::string_view text) { return Atoms().Intern(text); }

const Atom* Term::NilAtom() {
  static const Atom* const nil = InternAtom("nil");
  return nil;
}

const std::string& Term::EmptyText() {
  static const auto* empty = new std::string();
  return *empty;
}

Term Term::MakeAtomic(TermKind kind, const Atom* atom) {
  Term t(kind);
  t.atom_ = atom;
  return t;
}

Term Term::MakeVariable(std::string_view name) {
  return MakeAtomic(TermKind::kVariable, InternAtom(name));
}

Term Term::MakeInt(int64_t value) {
  Term t(TermKind::kInt);
  t.int_ = value;
  return t;
}

Term Term::MakeReal(double value) {
  Term t(TermKind::kReal);
  t.real_ = value;
  return t;
}

Term Term::MakeString(std::string_view value) {
  return MakeAtomic(TermKind::kString, InternAtom(value));
}

Term Term::MakeSymbol(std::string_view name) {
  return MakeAtomic(TermKind::kSymbol, InternAtom(name));
}

Term Term::MakeFunctionNode(const Atom* functor, std::vector<Term> args) {
  void* mem = ::operator new(sizeof(FunctionNode) + args.size() * sizeof(Term));
  auto* node = new (mem) FunctionNode;
  node->refs.store(1, std::memory_order_relaxed);
  node->arity = static_cast<uint32_t>(args.size());
  node->functor = functor;
  size_t seed = static_cast<size_t>(TermKind::kFunction);
  HashCombine(&seed, functor->hash);
  Term* slots = node->args();
  for (size_t i = 0; i < args.size(); ++i) {
    HashCombine(&seed, args[i].Hash());
    new (slots + i) Term(std::move(args[i]));
  }
  node->hash = seed;
  Term t(TermKind::kFunction);
  t.fn_ = node;
  return t;
}

void Term::Free(FunctionNode* node) {
  Term* args = node->args();
  for (uint32_t i = 0; i < node->arity; ++i) args[i].~Term();
  node->~FunctionNode();
  ::operator delete(node);
}

Term Term::MakeFunction(std::string_view functor, std::vector<Term> args) {
  return MakeFunctionNode(InternAtom(functor), std::move(args));
}

Term Term::WithArgs(std::vector<Term> args) const {
  return MakeFunctionNode(fn_->functor, std::move(args));
}

Term Term::MakeList(const std::vector<Term>& items) {
  static const Atom* const nil = InternAtom(kNilSymbol);
  return MakeList(items, MakeAtomic(TermKind::kSymbol, nil));
}

Term Term::MakeList(const std::vector<Term>& items, Term tail) {
  static const Atom* const cons = InternAtom(kConsFunctor);
  Term list = std::move(tail);
  for (auto it = items.rbegin(); it != items.rend(); ++it) {
    std::vector<Term> args;
    args.reserve(2);
    args.push_back(*it);
    args.push_back(std::move(list));
    list = MakeFunctionNode(cons, std::move(args));
  }
  return list;
}

bool Term::IsGround() const {
  switch (kind_) {
    case TermKind::kVariable:
      return false;
    case TermKind::kFunction:
      for (const Term& a : args()) {
        if (!a.IsGround()) return false;
      }
      return true;
    default:
      return true;
  }
}

void Term::CollectVariables(std::vector<std::string>* out) const {
  if (kind_ == TermKind::kVariable) {
    out->push_back(atom_->text);
  } else if (kind_ == TermKind::kFunction) {
    for (const Term& a : args()) a.CollectVariables(out);
  }
}

bool Term::ContainsVariable(const std::string& name) const {
  if (kind_ == TermKind::kVariable) return atom_->text == name;
  if (kind_ == TermKind::kFunction) {
    for (const Term& a : args()) {
      if (a.ContainsVariable(name)) return true;
    }
  }
  return false;
}

bool Term::HasStrictSubterm(const Term& other) const {
  if (kind_ != TermKind::kFunction) return false;
  for (const Term& a : args()) {
    if (a == other || a.HasStrictSubterm(other)) return true;
  }
  return false;
}

size_t Term::Size() const {
  if (kind_ != TermKind::kFunction) return 1;
  size_t n = 1;
  for (const Term& a : args()) n += a.Size();
  return n;
}

size_t Term::Depth() const {
  if (kind_ != TermKind::kFunction) return 1;
  size_t d = 0;
  for (const Term& a : args()) d = std::max(d, a.Depth());
  return d + 1;
}

bool Term::FunctionEquals(const FunctionNode& a, const FunctionNode& b) {
  // Equal terms hash equally (std::hash maps 0.0 and -0.0 alike), so a
  // hash mismatch settles most unequal pairs without a descent.
  if (a.hash != b.hash || a.functor != b.functor || a.arity != b.arity) {
    return false;
  }
  const Term* x = a.args();
  const Term* y = b.args();
  for (uint32_t i = 0; i < a.arity; ++i) {
    if (!(x[i] == y[i])) return false;
  }
  return true;
}

namespace {

int CompareTexts(const Atom* a, const Atom* b) {
  if (a == b) return 0;
  return a->text.compare(b->text) < 0 ? -1 : 1;
}

/// Three-way form of the term order: <0, 0 or >0. Descends into each
/// argument once, where two operator< calls per argument would descend
/// twice and take time exponential in the depth of equal list prefixes.
int Compare(const Term& a, const Term& b) {
  if (a.kind() != b.kind()) return a.kind() < b.kind() ? -1 : 1;
  switch (a.kind()) {
    case TermKind::kInt:
      return a.int_value() < b.int_value()   ? -1
             : b.int_value() < a.int_value() ? 1
                                             : 0;
    case TermKind::kReal:
      return a.real_value() < b.real_value()   ? -1
             : b.real_value() < a.real_value() ? 1
                                               : 0;
    case TermKind::kFunction: {
      if (int c = CompareTexts(a.atom(), b.atom())) return c;
      if (a.arity() != b.arity()) return a.arity() < b.arity() ? -1 : 1;
      for (size_t i = 0; i < a.arity(); ++i) {
        if (int c = Compare(a.args()[i], b.args()[i])) return c;
      }
      return 0;
    }
    default:
      return CompareTexts(a.atom(), b.atom());
  }
}

}  // namespace

bool Term::FunctionLess(const Term& a, const Term& b) {
  return Compare(a, b) < 0;
}

namespace {

// Renders a cons-cell chain using list sugar; returns false if `t` is not a
// cons cell.
bool TryPrintList(const Term& t, std::ostream& os);

bool IsInfixFunctor(const std::string& f, size_t arity) {
  return arity == 2 &&
         (f == "+" || f == "-" || f == "*" || f == "/" || f == "mod");
}

// `nested` parenthesizes infix arithmetic when it appears inside another
// term, so X + 1 prints bare but f((X + 1)) and (X + 1) * 2 stay readable.
void PrintTerm(const Term& t, std::ostream& os, bool nested = false) {
  switch (t.kind()) {
    case TermKind::kVariable:
    case TermKind::kSymbol:
      os << t.text();
      return;
    case TermKind::kInt:
      os << t.int_value();
      return;
    case TermKind::kReal:
      os << t.real_value();
      return;
    case TermKind::kString:
      os << '"' << t.text() << '"';
      return;
    case TermKind::kFunction: {
      if (TryPrintList(t, os)) return;
      if (IsInfixFunctor(t.text(), t.arity())) {
        if (nested) os << '(';
        PrintTerm(t.args()[0], os, true);
        os << ' ' << t.text() << ' ';
        PrintTerm(t.args()[1], os, true);
        if (nested) os << ')';
        return;
      }
      os << t.text() << '(';
      bool first = true;
      for (const Term& a : t.args()) {
        if (!first) os << ", ";
        first = false;
        PrintTerm(a, os, true);
      }
      os << ')';
      return;
    }
  }
}

bool TryPrintList(const Term& t, std::ostream& os) {
  if (!(t.kind() == TermKind::kFunction && t.text() == kConsFunctor &&
        t.arity() == 2)) {
    return false;
  }
  os << '[';
  const Term* cur = &t;
  bool first = true;
  while (true) {
    if (!first) os << ", ";
    first = false;
    PrintTerm(cur->args()[0], os);
    const Term& tail = cur->args()[1];
    if (tail.kind() == TermKind::kSymbol && tail.text() == kNilSymbol) {
      break;
    }
    if (tail.kind() == TermKind::kFunction && tail.text() == kConsFunctor &&
        tail.arity() == 2) {
      cur = &tail;
      continue;
    }
    os << " | ";
    PrintTerm(tail, os);
    break;
  }
  os << ']';
  return true;
}

}  // namespace

std::string Term::ToString() const {
  std::ostringstream os;
  PrintTerm(*this, os);
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const Term& term) {
  PrintTerm(term, os);
  return os;
}

}  // namespace ldl
