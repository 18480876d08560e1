#ifndef LDLOPT_ENGINE_OPERATORS_H_
#define LDLOPT_ENGINE_OPERATORS_H_

#include <utility>
#include <vector>

#include "engine/rule_eval.h"
#include "storage/relation.h"

namespace ldl {

/// Whole-relation operators of the extended relational algebra that the
/// paper's target language is built on (section 4). The rule evaluator
/// implements the pipelined/tuple-at-a-time path; these materialized
/// operators implement the EL labels an optimizer can choose for square
/// (materialized) nodes — in particular "hash-join".
///
/// All operators use set semantics (duplicates eliminated by Relation).

/// sigma: tuples of `rel` whose column `col` equals `value`.
Relation Select(const Relation& rel, size_t col, const Term& value,
                EvalCounters* counters);

/// pi: projection onto `cols` (in the given order; may repeat/reorder).
Relation Project(const Relation& rel, const std::vector<size_t>& cols,
                 EvalCounters* counters);

/// Equi-join condition: left column i must equal right column j.
using JoinKeys = std::vector<std::pair<size_t, size_t>>;

/// Nested-loop equi-join; result schema = left columns ++ right columns.
Relation NestedLoopJoin(const Relation& left, const Relation& right,
                        const JoinKeys& keys, EvalCounters* counters);

/// Hash equi-join (builds on the smaller input); same result as
/// NestedLoopJoin.
Relation HashJoin(Relation& left, Relation& right, const JoinKeys& keys,
                  EvalCounters* counters);

/// Set union (arity must match).
Relation Union(const Relation& a, const Relation& b, EvalCounters* counters);

/// Set difference a - b.
Relation Difference(const Relation& a, const Relation& b,
                    EvalCounters* counters);

/// Left semi-join: tuples of `left` with at least one match in `right`.
Relation SemiJoin(Relation& left, Relation& right, const JoinKeys& keys,
                  EvalCounters* counters);

}  // namespace ldl

#endif  // LDLOPT_ENGINE_OPERATORS_H_
