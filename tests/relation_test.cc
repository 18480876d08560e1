#include "storage/relation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "storage/database.h"
#include "storage/statistics.h"
#include "ast/parser.h"

namespace ldl {
namespace {

Tuple Pair(int64_t a, int64_t b) {
  return {Term::MakeInt(a), Term::MakeInt(b)};
}

TEST(RelationTest, InsertDeduplicates) {
  Relation r("edge", 2);
  EXPECT_TRUE(r.Insert(Pair(1, 2)));
  EXPECT_FALSE(r.Insert(Pair(1, 2)));
  EXPECT_TRUE(r.Insert(Pair(2, 1)));
  EXPECT_EQ(r.size(), 2u);
  EXPECT_TRUE(r.Contains(Pair(1, 2)));
  EXPECT_FALSE(r.Contains(Pair(3, 3)));
}

TEST(RelationTest, IndexLookup) {
  Relation r("edge", 2);
  for (int64_t i = 0; i < 100; ++i) {
    r.Insert(Pair(i % 10, i));
  }
  const auto& ids = r.Lookup({0}, {Term::MakeInt(3)});
  EXPECT_EQ(ids.size(), 10u);
  for (uint32_t id : ids) {
    EXPECT_EQ(r.tuple(id)[0].int_value(), 3);
  }
}

TEST(RelationTest, IndexExtendsAfterInsert) {
  Relation r("edge", 2);
  r.Insert(Pair(1, 10));
  EXPECT_EQ(r.Lookup({0}, {Term::MakeInt(1)}).size(), 1u);
  r.Insert(Pair(1, 11));  // insert after the index exists
  EXPECT_EQ(r.Lookup({0}, {Term::MakeInt(1)}).size(), 2u);
}

TEST(RelationTest, MultiColumnIndex) {
  Relation r("t", 3);
  r.Insert({Term::MakeInt(1), Term::MakeInt(2), Term::MakeInt(3)});
  r.Insert({Term::MakeInt(1), Term::MakeInt(2), Term::MakeInt(4)});
  r.Insert({Term::MakeInt(1), Term::MakeInt(9), Term::MakeInt(3)});
  EXPECT_EQ(r.Lookup({0, 1}, {Term::MakeInt(1), Term::MakeInt(2)}).size(), 2u);
  EXPECT_EQ(r.Lookup({0, 2}, {Term::MakeInt(1), Term::MakeInt(3)}).size(), 2u);
}

TEST(RelationTest, ZeroArityRelation) {
  Relation r("flag", 0);
  EXPECT_TRUE(r.Insert({}));
  EXPECT_FALSE(r.Insert({}));
  EXPECT_EQ(r.size(), 1u);
  EXPECT_TRUE(r.Contains({}));
}

TEST(RelationTest, ComplexTermColumns) {
  Relation r("shape", 1);
  auto t1 = ParseTerm("poly([p(0,0), p(1,0), p(0,1)])");
  auto t2 = ParseTerm("poly([p(0,0), p(1,0), p(0,1)])");
  ASSERT_TRUE(t1.ok() && t2.ok());
  EXPECT_TRUE(r.Insert({*t1}));
  EXPECT_FALSE(r.Insert({*t2}));  // structurally equal -> dedup
}

Term T(const char* text) {
  auto t = ParseTerm(text);
  EXPECT_TRUE(t.ok()) << t.status();
  return *t;
}

TEST(RelationTest, DistinctCount) {
  Relation r("edge", 2);
  for (int64_t i = 0; i < 30; ++i) r.Insert(Pair(i % 3, i));
  EXPECT_EQ(r.DistinctCounts(), (std::vector<size_t>{3, 30}));

  // Mixed kinds: 1 and 1.0 differ (int vs real), 0.0 and -0.0 are one
  // value, a symbol and a string with the same text differ, and function
  // terms compare structurally.
  Relation m("mixed", 2);
  const std::vector<Tuple> rows = {
      {Term::MakeInt(1), T("a")},
      {Term::MakeReal(1.0), T("a")},
      {Term::MakeReal(0.0), Term::MakeString("a")},
      {Term::MakeReal(-0.0), Term::MakeString("b")},
      {T("a"), T("f(1)")},
      {Term::MakeString("a"), T("f(1)")},
      {T("f(1)"), T("f(1.0)")},
      {T("f(1)"), T("g(1)")},
      {T("f(1.0)"), Term::MakeInt(1)},
      {T("g(1)"), Term::MakeInt(1)},
  };
  for (const Tuple& t : rows) ASSERT_TRUE(m.Insert(t)) << TupleToString(t);
  EXPECT_EQ(m.DistinctCounts(), (std::vector<size_t>{8, 7}));
  // Same counts as an ordered set of copied values per column.
  for (size_t c = 0; c < 2; ++c) {
    std::set<Term> values;
    for (TupleView t : m.tuples()) values.insert(t[c]);
    EXPECT_EQ(m.DistinctCounts()[c], values.size()) << "column " << c;
  }
  EXPECT_EQ(Relation("empty", 3).DistinctCounts(),
            (std::vector<size_t>{0, 0, 0}));
}

// Distinct tuples forced onto one hash share a single probe run; the set
// must keep comparing rows, not just hashes, through growth and wrap-around.
TEST(RelationTest, ForcedHashCollisionsStayDistinct) {
  constexpr size_t kHash = 42;
  Relation r("edge", 2);
  for (int64_t i = 0; i < 100; ++i) {
    EXPECT_TRUE(r.InsertHashed(Pair(i, i), kHash));
  }
  for (int64_t i = 100; i < 150; ++i) r.AppendUnchecked(Pair(i, i), kHash);
  for (int64_t i = 0; i < 150; ++i) {
    EXPECT_FALSE(r.InsertHashed(Pair(i, i), kHash));
    EXPECT_TRUE(r.ContainsHashed(Pair(i, i), kHash));
    EXPECT_EQ(r.tuple(i), Pair(i, i));
    EXPECT_EQ(r.tuple_hash(i), kHash);
  }
  EXPECT_EQ(r.size(), 150u);
  EXPECT_FALSE(r.ContainsHashed(Pair(150, 150), kHash));
  EXPECT_FALSE(r.ContainsHashed(Pair(0, 0), kHash + 1));
}

// Small-integer tuples are the common case (graph edges). Combining raw
// Term::Hash values maps these 397,488 pairs onto 69,477 distinct hashes;
// mixing each column first keeps every pair distinct.
TEST(TupleHashTest, SmallIntPairsHashDistinctly) {
  std::vector<size_t> hashes;
  for (int64_t a = 0; a < 1092; ++a) {
    for (int64_t b = 0; b < 1092; b += 3) {
      hashes.push_back(TupleHash{}(Pair(a, b)));
    }
  }
  ASSERT_EQ(hashes.size(), 397488u);
  std::sort(hashes.begin(), hashes.end());
  hashes.erase(std::unique(hashes.begin(), hashes.end()), hashes.end());
  EXPECT_EQ(hashes.size(), 397488u);
}

TEST(RelationTest, GrowthKeepsIdsOrderAndPostings) {
  Relation r("edge", 2);
  ASSERT_TRUE(r.Insert(Pair(3, 0)));
  ASSERT_EQ(r.Lookup({0}, {Term::MakeInt(3)}).size(), 1u);
  // 5000 tuples cross every power-of-two slot count from 16 to 16384.
  constexpr int64_t kN = 5000;
  for (int64_t i = 1; i < kN; ++i) ASSERT_TRUE(r.Insert(Pair(i % 7, i)));
  ASSERT_EQ(r.size(), static_cast<size_t>(kN));
  for (int64_t i = 0; i < kN; ++i) {
    const TupleView t = r.tuple(i);
    EXPECT_EQ(t[1].int_value(), i);
    EXPECT_EQ(r.tuple_hash(i), TupleHash{}(t));
    EXPECT_FALSE(r.Insert(t));
  }
  // The index built before growth was extended in id order.
  const std::span<const uint32_t> found = r.Lookup({0}, {Term::MakeInt(3)});
  const std::vector<uint32_t> ids(found.begin(), found.end());
  std::vector<uint32_t> expected = {0};
  for (int64_t i = 1; i < kN; ++i) {
    if (i % 7 == 3) expected.push_back(static_cast<uint32_t>(i));
  }
  EXPECT_EQ(ids, expected);
}

TEST(RelationTest, AccountantChargesBalanceAcrossClearCopyMove) {
  ResourceAccountant acct;
  {
    Relation r("edge", 2);
    r.set_accountant(&acct);
    for (int64_t i = 0; i < 100; ++i) r.Insert(Pair(i % 10, i));
    r.Lookup({0}, {Term::MakeInt(1)});
    const uint64_t one = r.charged_bytes();
    ASSERT_GT(one, 0u);
    EXPECT_EQ(acct.current_bytes(), one);

    Relation copy(r);
    EXPECT_EQ(acct.current_bytes(), 2 * one);
    EXPECT_FALSE(copy.Insert(Pair(1, 1)));
    EXPECT_TRUE(copy.Contains(Pair(9, 99)));

    Relation moved(std::move(copy));
    EXPECT_EQ(acct.current_bytes(), 2 * one);
    EXPECT_EQ(copy.charged_bytes(), 0u);  // NOLINT(bugprone-use-after-move)
    EXPECT_FALSE(moved.Insert(Pair(2, 2)));

    Relation assigned("other", 2);
    assigned.set_accountant(&acct);
    assigned = r;
    EXPECT_EQ(acct.current_bytes(), 3 * one);
    assigned = std::move(moved);
    EXPECT_EQ(acct.current_bytes(), 2 * one);
    EXPECT_TRUE(assigned.Contains(Pair(5, 55)));

    r.Clear();
    EXPECT_EQ(acct.current_bytes(), one);
    EXPECT_TRUE(r.empty());
    EXPECT_FALSE(r.Contains(Pair(1, 1)));
    EXPECT_TRUE(r.Insert(Pair(1, 1)));
    EXPECT_GT(acct.current_bytes(), one);
  }
  EXPECT_EQ(acct.current_bytes(), 0u);
}

TEST(RelationTest, ZeroArityRowsLiveWithoutAnArena) {
  Relation r("flag", 0);
  EXPECT_FALSE(r.Contains({}));
  EXPECT_TRUE(r.empty());
  EXPECT_TRUE(r.Insert({}));
  EXPECT_FALSE(r.Insert(Tuple{}));
  EXPECT_FALSE(r.InsertHashed(Tuple{}, TupleHash{}(Tuple{})));
  EXPECT_EQ(r.size(), 1u);
  EXPECT_TRUE(r.Contains({}));
  EXPECT_EQ(r.tuple(0).size(), 0u);
  EXPECT_EQ(r.tuple_hash(0), TupleHash{}(Tuple{}));
  EXPECT_EQ(TupleToString(r.tuple(0)), "()");

  Relation other("flag", 0);
  EXPECT_EQ(other.InsertAll(r), 1u);
  EXPECT_EQ(other.InsertAll(r), 0u);
  Relation copy("flag", 0);
  copy.AppendUnchecked(r.tuple(0), r.tuple_hash(0));
  EXPECT_EQ(copy.size(), 1u);
  EXPECT_TRUE(copy.Contains({}));
  r.Clear();
  EXPECT_TRUE(r.empty());
  EXPECT_FALSE(r.Contains({}));
}

// Function terms and lists are column values like any other: stored rows
// share their nodes, dedup compares them structurally, and an index keyed
// on a function-term column finds them. 1 and 1.0 stay distinct values.
TEST(RelationTest, FunctionTermColumnsDedupAndIndex) {
  Relation r("p", 2);
  const char* const rows[][2] = {
      {"f(1)", "a"},          {"f(1.0)", "a"},     {"f(1)", "b"},
      {"[1, 2]", "a"},        {"[1, 2 | T]", "a"}, {"g(f(1), [x])", "c"},
      {"g(f(1), [x])", "d"},  {"1", "a"},          {"1.0", "a"},
  };
  for (const auto& row : rows) {
    EXPECT_TRUE(r.Insert({T(row[0]), T(row[1])})) << row[0];
  }
  for (const auto& row : rows) {
    // Freshly parsed terms: equal structure, different nodes.
    EXPECT_FALSE(r.Insert({T(row[0]), T(row[1])})) << row[0];
    EXPECT_TRUE(r.Contains({T(row[0]), T(row[1])})) << row[0];
  }
  ASSERT_EQ(r.size(), 9u);
  EXPECT_FALSE(r.Contains({T("f(2)"), T("a")}));
  EXPECT_FALSE(r.Contains({T("[1, 2, 3]"), T("a")}));

  auto rows_of = [&](const char* key) {
    std::vector<std::string> out;
    for (uint32_t id : r.Lookup({0}, {T(key)})) {
      out.push_back(TupleToString(r.tuple(id)));
    }
    return out;
  };
  EXPECT_EQ(rows_of("f(1)"),
            (std::vector<std::string>{"(f(1), a)", "(f(1), b)"}));
  EXPECT_EQ(rows_of("f(1.0)"), (std::vector<std::string>{"(f(1), a)"}));
  EXPECT_EQ(rows_of("g(f(1), [x])"),
            (std::vector<std::string>{"(g(f(1), [x]), c)",
                                      "(g(f(1), [x]), d)"}));
  EXPECT_EQ(rows_of("[1, 2]"), (std::vector<std::string>{"([1, 2], a)"}));
  EXPECT_EQ(rows_of("1"), (std::vector<std::string>{"(1, a)"}));
  EXPECT_EQ(rows_of("1.0"), (std::vector<std::string>{"(1, a)"}));
  EXPECT_TRUE(rows_of("f(2)").empty());
  EXPECT_EQ(r.Lookup({0, 1}, {T("f(1.0)"), T("a")}).size(), 1u);
  EXPECT_TRUE(r.Lookup({0, 1}, {T("f(1.0)"), T("b")}).empty());
}

TEST(RelationTest, MergingOrInsertingARelationIntoItselfAddsNothing) {
  ResourceAccountant acct;
  Relation r("p", 2);
  r.set_accountant(&acct);
  for (int64_t i = 0; i < 40; ++i) r.Insert(Pair(i, i % 3));
  const uint64_t bytes = r.charged_bytes();
  EXPECT_EQ(r.InsertAll(r), 0u);
  EXPECT_EQ(r.size(), 40u);
  EXPECT_EQ(r.charged_bytes(), bytes);
  for (int64_t i = 0; i < 40; ++i) EXPECT_TRUE(r.Contains(Pair(i, i % 3)));
  // A stored row offered back to its own relation is a duplicate.
  for (size_t i = 0; i < r.size(); ++i) EXPECT_FALSE(r.Insert(r.tuple(i)));
  EXPECT_EQ(acct.current_bytes(), bytes);
}

// Every index must keep matching a brute-force scan while the relation
// grows in rounds past the rows it was built on, including function-term
// keys and several indexes on one relation.
TEST(RelationTest, PostingListsFollowGrowthPastTheIndexedRows) {
  Relation r("p", 3);
  auto row = [](int64_t i) {
    return Tuple{Term::MakeInt(i % 5),
                 Term::MakeFunction("k", {Term::MakeInt(i % 7)}),
                 Term::MakeInt(i)};
  };
  const std::vector<std::vector<int>> index_cols = {{0}, {1}, {0, 1}};
  int64_t next = 0;
  for (int64_t round_end : {3, 20, 150, 1200, 4000}) {
    for (; next < round_end; ++next) ASSERT_TRUE(r.Insert(row(next)));
    for (const std::vector<int>& cols : index_cols) {
      for (int64_t probe = 0; probe < 35; ++probe) {
        const Tuple full = row(probe);
        Tuple key;
        for (int c : cols) key.push_back(full[c]);
        std::vector<uint32_t> expected;
        for (uint32_t id = 0; id < r.size(); ++id) {
          bool match = true;
          for (size_t k = 0; k < cols.size(); ++k) {
            match = match && r.tuple(id)[cols[k]] == key[k];
          }
          if (match) expected.push_back(id);
        }
        const std::span<const uint32_t> got = r.Lookup(cols, key);
        EXPECT_EQ(std::vector<uint32_t>(got.begin(), got.end()), expected)
            << "after " << r.size() << " rows, key " << TupleToString(key);
      }
    }
  }
}

TEST(DatabaseTest, GetOrCreateAndFacts) {
  Database db;
  EXPECT_EQ(db.Find({"edge", 2}), nullptr);
  Relation* r = db.GetOrCreate({"edge", 2});
  EXPECT_EQ(db.Find({"edge", 2}), r);

  auto lit = ParseLiteral("edge(1, 2)");
  ASSERT_TRUE(lit.ok());
  ASSERT_TRUE(db.AddFact(*lit).ok());
  EXPECT_EQ(r->size(), 1u);
  EXPECT_EQ(db.TotalTuples(), 1u);
}

TEST(DatabaseTest, RejectsNonGroundFact) {
  Database db;
  auto lit = ParseLiteral("edge(1, X)");
  ASSERT_TRUE(lit.ok());
  EXPECT_FALSE(db.AddFact(*lit).ok());
}

TEST(DatabaseTest, SameNameDifferentArityAreDistinct) {
  Database db;
  db.GetOrCreate({"p", 1})->Insert({Term::MakeInt(1)});
  db.GetOrCreate({"p", 2})->Insert(Pair(1, 2));
  EXPECT_EQ(db.Find({"p", 1})->size(), 1u);
  EXPECT_EQ(db.Find({"p", 2})->size(), 1u);
}

TEST(StatisticsTest, CollectComputesCardinalityAndDistinct) {
  Database db;
  Relation* r = db.GetOrCreate({"edge", 2});
  for (int64_t i = 0; i < 20; ++i) r->Insert(Pair(i % 4, i));
  Statistics stats = Statistics::Collect(db);
  const RelationStats& rs = stats.Get({"edge", 2});
  EXPECT_DOUBLE_EQ(rs.cardinality, 20.0);
  EXPECT_DOUBLE_EQ(rs.distinct[0], 4.0);
  EXPECT_DOUBLE_EQ(rs.distinct[1], 20.0);
  EXPECT_DOUBLE_EQ(rs.EqConstSelectivity(0), 0.25);
  EXPECT_DOUBLE_EQ(rs.FanOut(0), 5.0);
}

TEST(StatisticsTest, UnknownPredicateFallsBackToDefault) {
  Statistics stats;
  EXPECT_DOUBLE_EQ(stats.Get({"nope", 3}).cardinality,
                   stats.default_stats().cardinality);
}

TEST(StatisticsTest, EqJoinSelectivityUsesLargerDomain) {
  RelationStats rs;
  rs.cardinality = 100;
  rs.distinct = {10, 50};
  EXPECT_DOUBLE_EQ(rs.EqJoinSelectivity(0, 20.0), 1.0 / 20.0);
  EXPECT_DOUBLE_EQ(rs.EqJoinSelectivity(1, 20.0), 1.0 / 50.0);
}

}  // namespace
}  // namespace ldl
