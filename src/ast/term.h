#ifndef LDLOPT_AST_TERM_H_
#define LDLOPT_AST_TERM_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "base/hash.h"

namespace ldl {

/// The kind of a term. LDL terms cover both flat relational values and the
/// "complex objects" of the paper's section 1: hierarchies (function terms)
/// and lists (encoded as nested cons/nil function terms).
///
/// The numeric values are part of Term::Hash and of the term order.
enum class TermKind : uint8_t {
  kVariable,  ///< Logical variable, e.g. X.
  kInt,       ///< 64-bit integer constant.
  kReal,      ///< Double constant.
  kString,    ///< Quoted string constant, e.g. "austin".
  kSymbol,    ///< Unquoted atom constant, e.g. austin.
  kFunction,  ///< Complex term f(t1, ..., tn), n >= 1.
};

/// An interned text: the name of a variable, symbol or functor, or the
/// value of a string. Atoms live in one process-wide, append-only table
/// and are never freed, so two atoms are equal iff their addresses are.
struct Atom {
  std::string text;
  size_t hash;  ///< std::hash<std::string>{}(text)
};

/// The atom for `text`, created on first use. Thread-safe: any number of
/// threads may intern concurrently, and every thread gets the same atom for
/// the same text.
const Atom* InternAtom(std::string_view text);

class Term;

/// The shared, immutable body of a function term: functor, arity, cached
/// Term::Hash, then `arity` argument Terms stored inline after the header.
/// Reference-counted; freed when the last Term holding it is destroyed.
struct FunctionNode {
  std::atomic<uint32_t> refs;
  uint32_t arity;
  const Atom* functor;
  size_t hash;

  const Term* args() const {
    return reinterpret_cast<const Term*>(this + 1);
  }
  Term* args() { return reinterpret_cast<Term*>(this + 1); }
};

/// An immutable first-order term, 16 bytes: a one-byte kind and an 8-byte
/// payload. Integers and reals are stored inline. Variable, symbol and
/// string text is a pointer to an interned Atom, so equal texts compare by
/// address. A function term points to a reference-counted FunctionNode
/// whose arguments are stored inline; copying the term shares the node.
///
/// One Term representation is used end to end — parser AST, stored tuples,
/// and runtime values — mirroring LDL's elimination of the impedance
/// mismatch between language and data.
class Term {
 public:
  /// Default-constructs the symbol `nil` (rarely useful; containers need it).
  Term() : kind_(TermKind::kSymbol), atom_(NilAtom()) {}

  Term(const Term& other) : kind_(other.kind_), int_(other.int_) {
    if (kind_ == TermKind::kFunction) Ref(fn_);
  }
  Term(Term&& other) noexcept : kind_(other.kind_), int_(other.int_) {
    other.kind_ = TermKind::kInt;
    other.int_ = 0;
  }
  Term& operator=(const Term& other) {
    if (this == &other) return *this;
    if (other.kind_ == TermKind::kFunction) Ref(other.fn_);
    if (kind_ == TermKind::kFunction) Unref(fn_);
    kind_ = other.kind_;
    int_ = other.int_;
    return *this;
  }
  Term& operator=(Term&& other) noexcept {
    if (this == &other) return *this;
    if (kind_ == TermKind::kFunction) Unref(fn_);
    kind_ = other.kind_;
    int_ = other.int_;
    other.kind_ = TermKind::kInt;
    other.int_ = 0;
    return *this;
  }
  ~Term() {
    if (kind_ == TermKind::kFunction) Unref(fn_);
  }

  /// Factory functions; the only way to create terms.
  static Term MakeVariable(std::string_view name);
  static Term MakeInt(int64_t value);
  static Term MakeReal(double value);
  static Term MakeString(std::string_view value);
  static Term MakeSymbol(std::string_view name);
  static Term MakeFunction(std::string_view functor, std::vector<Term> args);

  /// The function term with this function term's functor and `args`.
  Term WithArgs(std::vector<Term> args) const;

  /// Builds the list [t1, ..., tn | tail] as nested '.'/2 cons terms.
  /// With no explicit tail, the empty-list symbol "[]" terminates it.
  static Term MakeList(const std::vector<Term>& items);
  static Term MakeList(const std::vector<Term>& items, Term tail);

  TermKind kind() const { return kind_; }
  bool IsVariable() const { return kind_ == TermKind::kVariable; }
  bool IsConstant() const {
    return kind_ != TermKind::kVariable && kind_ != TermKind::kFunction;
  }
  bool IsFunction() const { return kind_ == TermKind::kFunction; }
  bool IsNumeric() const {
    return kind_ == TermKind::kInt || kind_ == TermKind::kReal;
  }

  /// Variable name, symbol name, string value, or functor, by kind; empty
  /// for numbers.
  const std::string& text() const {
    const Atom* a = atom();
    return a == nullptr ? EmptyText() : a->text;
  }
  /// The interned text (functor for a function term); nullptr for numbers.
  const Atom* atom() const {
    switch (kind_) {
      case TermKind::kInt:
      case TermKind::kReal:
        return nullptr;
      case TermKind::kFunction:
        return fn_->functor;
      default:
        return atom_;
    }
  }
  int64_t int_value() const { return kind_ == TermKind::kInt ? int_ : 0; }
  double real_value() const { return kind_ == TermKind::kReal ? real_ : 0.0; }
  /// Numeric value as double regardless of kInt/kReal.
  double AsDouble() const {
    return kind_ == TermKind::kInt ? static_cast<double>(int_) : real_value();
  }

  /// Function-term arguments; empty for non-function terms.
  std::span<const Term> args() const {
    if (kind_ != TermKind::kFunction) return {};
    return {fn_->args(), fn_->arity};
  }
  size_t arity() const {
    return kind_ == TermKind::kFunction ? fn_->arity : 0;
  }

  /// True iff no variable occurs anywhere in the term.
  bool IsGround() const;

  /// Appends the names of all variables occurring in the term (with
  /// duplicates) to `out`.
  void CollectVariables(std::vector<std::string>* out) const;

  /// True iff the variable `name` occurs in the term.
  bool ContainsVariable(const std::string& name) const;

  /// True iff `other` is a strict (proper) subterm of *this. Used by the
  /// safety analysis: recursion on a strictly decreasing term argument is
  /// well-founded (paper section 8.1, the list-traversal example).
  bool HasStrictSubterm(const Term& other) const;

  /// Number of function symbols + constants + variables in the term.
  size_t Size() const;
  /// Nesting depth: constants/variables have depth 1.
  size_t Depth() const;

  /// Structural equality; reals compare as doubles, texts by atom.
  bool operator==(const Term& other) const {
    if (kind_ != other.kind_) return false;
    switch (kind_) {
      case TermKind::kInt:
        return int_ == other.int_;
      case TermKind::kReal:
        return real_ == other.real_;
      case TermKind::kFunction:
        return FunctionEquals(*fn_, *other.fn_);
      default:
        return atom_ == other.atom_;
    }
  }
  bool operator!=(const Term& other) const { return !(*this == other); }
  /// Total order (by kind, then content; texts by their characters).
  /// Suitable for sorting tuples.
  bool operator<(const Term& other) const {
    if (kind_ != other.kind_) return kind_ < other.kind_;
    switch (kind_) {
      case TermKind::kInt:
        return int_ < other.int_;
      case TermKind::kReal:
        return real_ < other.real_;
      case TermKind::kFunction:
        return FunctionLess(*this, other);
      default:
        return atom_ != other.atom_ && atom_->text < other.atom_->text;
    }
  }

  /// The kind mixed with the value: std::hash of the number or text, and
  /// for a function term its functor's and arguments' hashes in order.
  size_t Hash() const {
    size_t seed = static_cast<size_t>(kind_);
    switch (kind_) {
      case TermKind::kInt:
        HashValue(&seed, int_);
        return seed;
      case TermKind::kReal:
        HashValue(&seed, real_);
        return seed;
      case TermKind::kFunction:
        return fn_->hash;
      default:
        HashCombine(&seed, atom_->hash);
        return seed;
    }
  }

  /// Prolog-ish rendering: f(a, X), [1, 2 | T], "str", 42.
  std::string ToString() const;

 private:
  /// A term of `kind` whose payload the caller sets next.
  explicit Term(TermKind kind) : kind_(kind), int_(0) {}

  static const Atom* NilAtom();
  static const std::string& EmptyText();
  static bool FunctionEquals(const FunctionNode& a, const FunctionNode& b);
  static bool FunctionLess(const Term& a, const Term& b);
  static Term MakeAtomic(TermKind kind, const Atom* atom);
  static Term MakeFunctionNode(const Atom* functor, std::vector<Term> args);
  static void Ref(FunctionNode* node) {
    node->refs.fetch_add(1, std::memory_order_relaxed);
  }
  static void Unref(FunctionNode* node) {
    if (node->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) Free(node);
  }
  static void Free(FunctionNode* node);

  TermKind kind_;
  union {
    int64_t int_;
    double real_;
    const Atom* atom_;
    FunctionNode* fn_;
  };
};

static_assert(sizeof(Term) == 16, "Term is a kind byte and a 64-bit payload");

std::ostream& operator<<(std::ostream& os, const Term& term);

/// Hash functor for unordered containers keyed by Term.
struct TermHash {
  size_t operator()(const Term& t) const { return t.Hash(); }
};

}  // namespace ldl

#endif  // LDLOPT_AST_TERM_H_
