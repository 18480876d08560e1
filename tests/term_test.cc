#include "ast/term.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>
#include <vector>

namespace ldl {
namespace {

TEST(TermTest, ScalarConstruction) {
  EXPECT_EQ(Term::MakeInt(42).kind(), TermKind::kInt);
  EXPECT_EQ(Term::MakeInt(42).int_value(), 42);
  EXPECT_DOUBLE_EQ(Term::MakeReal(2.5).real_value(), 2.5);
  EXPECT_EQ(Term::MakeSymbol("austin").text(), "austin");
  EXPECT_EQ(Term::MakeString("hi").kind(), TermKind::kString);
  EXPECT_EQ(Term::MakeVariable("X").kind(), TermKind::kVariable);
}

TEST(TermTest, GroundChecks) {
  EXPECT_TRUE(Term::MakeInt(1).IsGround());
  EXPECT_FALSE(Term::MakeVariable("X").IsGround());
  Term f = Term::MakeFunction("f", {Term::MakeInt(1), Term::MakeVariable("X")});
  EXPECT_FALSE(f.IsGround());
  Term g = Term::MakeFunction("f", {Term::MakeInt(1), Term::MakeSymbol("a")});
  EXPECT_TRUE(g.IsGround());
}

TEST(TermTest, EqualityAndHash) {
  Term a = Term::MakeFunction("f", {Term::MakeInt(1), Term::MakeSymbol("x")});
  Term b = Term::MakeFunction("f", {Term::MakeInt(1), Term::MakeSymbol("x")});
  Term c = Term::MakeFunction("f", {Term::MakeInt(2), Term::MakeSymbol("x")});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a.Hash(), b.Hash());
}

TEST(TermTest, NumericKindsCompareDistinctly) {
  // Term equality is structural: 1 (int) != 1.0 (real) as stored values;
  // numeric equality is the builtin layer's job.
  EXPECT_NE(Term::MakeInt(1), Term::MakeReal(1.0));
}

TEST(TermTest, TotalOrderIsStrictWeak) {
  std::set<Term> s;
  s.insert(Term::MakeInt(1));
  s.insert(Term::MakeInt(1));
  s.insert(Term::MakeSymbol("a"));
  s.insert(Term::MakeVariable("X"));
  s.insert(Term::MakeFunction("f", {Term::MakeInt(1)}));
  EXPECT_EQ(s.size(), 4u);
}

TEST(TermTest, ListSugar) {
  Term list = Term::MakeList({Term::MakeInt(1), Term::MakeInt(2)});
  EXPECT_EQ(list.ToString(), "[1, 2]");
  EXPECT_TRUE(list.IsFunction());
  EXPECT_EQ(list.text(), ".");
  Term with_tail =
      Term::MakeList({Term::MakeInt(1)}, Term::MakeVariable("T"));
  EXPECT_EQ(with_tail.ToString(), "[1 | T]");
}

TEST(TermTest, CollectVariables) {
  Term t = Term::MakeFunction(
      "f", {Term::MakeVariable("X"),
            Term::MakeFunction("g", {Term::MakeVariable("Y"),
                                     Term::MakeVariable("X")})});
  std::vector<std::string> vars;
  t.CollectVariables(&vars);
  EXPECT_EQ(vars, (std::vector<std::string>{"X", "Y", "X"}));
  EXPECT_TRUE(t.ContainsVariable("Y"));
  EXPECT_FALSE(t.ContainsVariable("Z"));
}

TEST(TermTest, StrictSubterm) {
  Term x = Term::MakeVariable("X");
  Term fx = Term::MakeFunction("f", {x});
  Term gfx = Term::MakeFunction("g", {fx, Term::MakeInt(0)});
  EXPECT_TRUE(fx.HasStrictSubterm(x));
  EXPECT_TRUE(gfx.HasStrictSubterm(x));
  EXPECT_TRUE(gfx.HasStrictSubterm(fx));
  EXPECT_FALSE(x.HasStrictSubterm(x));
  EXPECT_FALSE(fx.HasStrictSubterm(gfx));
}

TEST(TermTest, SizeAndDepth) {
  Term x = Term::MakeVariable("X");
  EXPECT_EQ(x.Size(), 1u);
  EXPECT_EQ(x.Depth(), 1u);
  Term t = Term::MakeFunction("f", {Term::MakeFunction("g", {x}),
                                    Term::MakeInt(3)});
  EXPECT_EQ(t.Size(), 4u);
  EXPECT_EQ(t.Depth(), 3u);
}

TEST(TermTest, PrintingForms) {
  EXPECT_EQ(Term::MakeString("hi").ToString(), "\"hi\"");
  EXPECT_EQ(Term::MakeFunction("f", {Term::MakeVariable("X")}).ToString(),
            "f(X)");
  EXPECT_EQ(Term::MakeList({}).ToString(), "[]");
}

TEST(TermTest, ValuesAreSixteenBytesAndShareFunctionNodes) {
  static_assert(sizeof(Term) == 16);
  const Term f = Term::MakeFunction("f", {Term::MakeInt(1), Term::MakeSymbol("a")});
  Term copy = f;
  EXPECT_EQ(copy.args().data(), f.args().data());  // one node, shared
  Term moved = std::move(copy);
  EXPECT_EQ(moved, f);
  EXPECT_EQ(moved.args().data(), f.args().data());
  // Equal texts are one atom, whatever the kind of term that holds them.
  EXPECT_EQ(Term::MakeSymbol("austin").atom(),
            Term::MakeString("austin").atom());
  EXPECT_EQ(Term::MakeVariable("f").atom(), f.atom());
  EXPECT_NE(Term::MakeSymbol("austin"), Term::MakeString("austin"));
  EXPECT_EQ(Term::MakeInt(7).atom(), nullptr);
  EXPECT_EQ(Term::MakeInt(7).text(), "");
  EXPECT_EQ(f.WithArgs({Term::MakeInt(2)}).ToString(), "f(2)");
}

// Comparing two equal lists descends each cons cell once: the term order
// is a three-way comparison, so 20,000 equal elements take linear time.
TEST(TermTest, OrderOnLongEqualListsIsLinear) {
  std::vector<Term> items;
  for (int64_t i = 0; i < 20000; ++i) items.push_back(Term::MakeInt(i));
  const Term a = Term::MakeList(items);
  const Term b = Term::MakeList(items);
  EXPECT_FALSE(a < b);
  EXPECT_FALSE(b < a);
  EXPECT_EQ(a, b);
  items.back() = Term::MakeInt(-1);
  const Term c = Term::MakeList(items);
  EXPECT_TRUE(c < a);
  EXPECT_FALSE(a < c);
}

// The atom table is shared by every thread of the process. Threads that
// intern overlapping texts concurrently, while the table grows, must all
// get the same atom for the same text.
TEST(AtomTableTest, ConcurrentInterningAgreesAcrossThreads) {
  constexpr int kThreads = 4;
  constexpr int kTexts = 3000;
  std::vector<std::vector<const Atom*>> shared(kThreads);
  std::vector<std::vector<const Atom*>> own(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &shared, &own] {
      for (int k = 0; k < kTexts; ++k) {
        // Walk the shared texts in a different order on each thread.
        const int s = t % 2 == 0 ? k : kTexts - 1 - k;
        shared[t].push_back(
            Term::MakeSymbol("atom_test_shared_" + std::to_string(s)).atom());
        own[t].push_back(InternAtom("atom_test_own_" + std::to_string(t) +
                                    "_" + std::to_string(k)));
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    for (int k = 0; k < kTexts; ++k) {
      const int s = t % 2 == 0 ? k : kTexts - 1 - k;
      const std::string text = "atom_test_shared_" + std::to_string(s);
      ASSERT_EQ(shared[t][k], InternAtom(text)) << text;
      ASSERT_EQ(shared[t][k]->text, text);
      ASSERT_EQ(own[t][k]->text, "atom_test_own_" + std::to_string(t) + "_" +
                                     std::to_string(k));
    }
  }
  std::set<const Atom*> distinct;
  for (const auto& atoms : own) distinct.insert(atoms.begin(), atoms.end());
  for (const auto& atoms : shared) distinct.insert(atoms.begin(), atoms.end());
  EXPECT_EQ(distinct.size(), static_cast<size_t>(kThreads * kTexts + kTexts));
}

}  // namespace
}  // namespace ldl
