#ifndef LDLOPT_STORAGE_TUPLE_H_
#define LDLOPT_STORAGE_TUPLE_H_

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "ast/term.h"
#include "base/hash.h"

namespace ldl {

/// An owned row: a build buffer of ground terms, for rows that are not
/// (yet) stored in a relation. Complex terms are first-class column values
/// (the paper's "complex objects").
using Tuple = std::vector<Term>;

/// A non-owning view of one row: `size()` consecutive terms, usually in a
/// relation's row arena. Converts implicitly from a Tuple. A view into a
/// relation is invalidated when that relation's arena grows.
class TupleView {
 public:
  using value_type = Term;
  using iterator = const Term*;
  using const_iterator = const Term*;

  TupleView() = default;
  TupleView(const Term* data, size_t size) : data_(data), size_(size) {}
  TupleView(const Tuple& t)  // NOLINT(google-explicit-constructor)
      : data_(t.data()), size_(t.size()) {}

  const Term* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const Term& operator[](size_t i) const { return data_[i]; }
  const Term* begin() const { return data_; }
  const Term* end() const { return data_ + size_; }

  friend bool operator==(TupleView a, TupleView b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  const Term* data_ = nullptr;
  size_t size_ = 0;
};

/// An owned copy of `row`.
inline Tuple ToTuple(TupleView row) { return Tuple(row.begin(), row.end()); }

/// Hash over all columns. Each column's Term::Hash passes through Mix64
/// first: small integers hash to nearly consecutive values, and combining
/// those unmixed maps distinct tuples onto few hashes (the 397,488 int
/// pairs of [0, 1092) x {0, 3, ..., 1089} onto 69,477), which then share
/// one probe chain in every dedup set and index.
struct TupleHash {
  size_t operator()(TupleView t) const {
    size_t seed = t.size();
    for (const Term& v : t) HashCombine(&seed, Mix64(v.Hash()));
    return seed;
  }
};

/// "(a, 1, f(b))".
std::string TupleToString(TupleView t);

/// Bytes a stored value owns beyond its 16-byte cell, used by resource
/// accounting: for a function term its node (header plus inline arguments)
/// and, recursively, its arguments' nodes; 0 for every other kind, whose
/// text is interned once per process. Deliberately cheap (no heap
/// introspection); charge and release use the same formula.
size_t ApproxTermBytes(const Term& t);
/// Arena bytes of one stored row: 16 per column plus its function nodes.
size_t ApproxTupleBytes(TupleView t);

}  // namespace ldl

#endif  // LDLOPT_STORAGE_TUPLE_H_
