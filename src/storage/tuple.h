#ifndef LDLOPT_STORAGE_TUPLE_H_
#define LDLOPT_STORAGE_TUPLE_H_

#include <string>
#include <vector>

#include "ast/term.h"
#include "base/hash.h"

namespace ldl {

/// A stored tuple: a fixed-arity vector of ground terms. Complex terms are
/// first-class column values (the paper's "complex objects").
using Tuple = std::vector<Term>;

/// Hash over all columns. Each column's Term::Hash passes through Mix64
/// first: small integers hash to nearly consecutive values, and combining
/// those unmixed maps distinct tuples onto few hashes (the 397,488 int
/// pairs of [0, 1092) x {0, 3, ..., 1089} onto 69,477), which then share
/// one probe chain in every dedup set and index.
struct TupleHash {
  size_t operator()(const Tuple& t) const {
    size_t seed = t.size();
    for (const Term& v : t) HashCombine(&seed, Mix64(v.Hash()));
    return seed;
  }
};

/// "(a, 1, f(b))".
std::string TupleToString(const Tuple& t);

/// Rough in-memory footprint of a term / tuple, used by resource
/// accounting. Deliberately cheap (no heap introspection): object size plus
/// string payload plus recursive function arguments. Consistency matters
/// more than precision — charge and release use the same formula.
size_t ApproxTermBytes(const Term& t);
size_t ApproxTupleBytes(const Tuple& t);

}  // namespace ldl

#endif  // LDLOPT_STORAGE_TUPLE_H_
