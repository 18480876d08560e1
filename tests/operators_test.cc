#include "engine/operators.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "base/rng.h"
#include "engine/query_eval.h"
#include "testing/workloads.h"

namespace ldl {
namespace {

Tuple Pair(int64_t a, int64_t b) {
  return {Term::MakeInt(a), Term::MakeInt(b)};
}

std::vector<Tuple> Sorted(const Relation& r) { return CanonicalAnswers(r); }

TEST(OperatorsTest, Select) {
  Relation r("r", 2);
  for (int64_t i = 0; i < 10; ++i) r.Insert(Pair(i % 3, i));
  EvalCounters c;
  Relation sel = Select(r, 0, Term::MakeInt(1), &c);
  EXPECT_EQ(sel.size(), 3u);  // 1, 4, 7
  EXPECT_EQ(c.tuples_examined, 10u);
}

TEST(OperatorsTest, ProjectDeduplicates) {
  Relation r("r", 2);
  for (int64_t i = 0; i < 10; ++i) r.Insert(Pair(i % 3, i));
  EvalCounters c;
  Relation proj = Project(r, {0}, &c);
  EXPECT_EQ(proj.size(), 3u);
  // Reorder/duplicate columns.
  Relation swapped = Project(r, {1, 0, 0}, &c);
  EXPECT_EQ(swapped.arity(), 3u);
  EXPECT_EQ(swapped.size(), 10u);
}

TEST(OperatorsTest, HashJoinEqualsNestedLoop) {
  Rng rng(5);
  for (int trial = 0; trial < 5; ++trial) {
    Database db;
    testing::MakeRandomRelation("a", 2, 120, 15, trial * 2 + 1, &db);
    testing::MakeRandomRelation("b", 2, 80, 15, trial * 2 + 2, &db);
    Relation& a = *db.Find({"a", 2});
    Relation& b = *db.Find({"b", 2});
    EvalCounters c1, c2;
    Relation nl = NestedLoopJoin(a, b, {{1, 0}}, &c1);
    Relation hj = HashJoin(a, b, {{1, 0}}, &c2);
    EXPECT_EQ(Sorted(nl), Sorted(hj)) << "trial " << trial;
    // Hash join examines far fewer tuple pairs.
    EXPECT_LT(c2.tuples_examined, c1.tuples_examined);
  }
}

TEST(OperatorsTest, MultiKeyJoin) {
  Relation a("a", 2), b("b", 2);
  a.Insert(Pair(1, 2));
  a.Insert(Pair(1, 3));
  b.Insert(Pair(1, 2));
  b.Insert(Pair(2, 2));
  EvalCounters c;
  Relation j = HashJoin(a, b, {{0, 0}, {1, 1}}, &c);
  ASSERT_EQ(j.size(), 1u);
  EXPECT_EQ(j.tuples()[0], Tuple(
      {Term::MakeInt(1), Term::MakeInt(2), Term::MakeInt(1),
       Term::MakeInt(2)}));
}

TEST(OperatorsTest, CrossProductWhenNoKeys) {
  Relation a("a", 1), b("b", 1);
  a.Insert({Term::MakeInt(1)});
  a.Insert({Term::MakeInt(2)});
  b.Insert({Term::MakeInt(3)});
  EvalCounters c;
  EXPECT_EQ(HashJoin(a, b, {}, &c).size(), 2u);
}

TEST(OperatorsTest, DuplicateBuildColumnFallsBack) {
  // keys (0,0) and (1,0): right column 0 must equal both left columns.
  Relation a("a", 2), b("b", 1);
  a.Insert(Pair(1, 1));
  a.Insert(Pair(1, 2));
  b.Insert({Term::MakeInt(1)});
  EvalCounters c;
  Relation j = HashJoin(a, b, {{0, 0}, {1, 0}}, &c);
  ASSERT_EQ(j.size(), 1u);
  EXPECT_EQ(j.tuples()[0][1].int_value(), 1);
}

TEST(OperatorsTest, UnionAndDifference) {
  Relation a("a", 1), b("b", 1);
  for (int64_t i = 0; i < 5; ++i) a.Insert({Term::MakeInt(i)});
  for (int64_t i = 3; i < 8; ++i) b.Insert({Term::MakeInt(i)});
  EvalCounters c;
  EXPECT_EQ(Union(a, b, &c).size(), 8u);
  EXPECT_EQ(Difference(a, b, &c).size(), 3u);  // 0,1,2
  EXPECT_EQ(Difference(b, a, &c).size(), 3u);  // 5,6,7
}

TEST(OperatorsTest, SemiJoin) {
  Relation orders("orders", 2), good("good", 1);
  orders.Insert(Pair(1, 10));
  orders.Insert(Pair(2, 20));
  orders.Insert(Pair(3, 10));
  good.Insert({Term::MakeInt(10)});
  EvalCounters c;
  Relation filtered = SemiJoin(orders, good, {{1, 0}}, &c);
  EXPECT_EQ(filtered.size(), 2u);
  EXPECT_EQ(filtered.arity(), 2u);  // left schema preserved
}

TEST(OperatorsTest, EmptyInputs) {
  Relation empty("e", 2), full("f", 2);
  full.Insert(Pair(1, 2));
  EvalCounters c;
  EXPECT_TRUE(NestedLoopJoin(empty, full, {{0, 0}}, &c).empty());
  EXPECT_TRUE(HashJoin(empty, full, {{0, 0}}, &c).empty());
  EXPECT_TRUE(HashJoin(full, empty, {{0, 0}}, &c).empty());
  EXPECT_EQ(Union(empty, full, &c).size(), 1u);
  EXPECT_EQ(Difference(full, empty, &c).size(), 1u);
}

}  // namespace
}  // namespace ldl
