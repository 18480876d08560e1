// Golden term hashes and order: a fixed corpus of terms is rendered with
// its ToString, its Term::Hash in hex and its rank under operator< (the
// number of corpus terms strictly below it), and the rendering is pinned
// byte for byte in tests/golden/term_hashes.golden.txt. Term::Hash feeds
// AnswerFingerprint, the query-log goldens and the perfbench work digests,
// so a change to the value layout must leave every line here unchanged.
// The file also pins the AnswerFingerprint of relations holding every kind
// of ground term.
//
// On a mismatch the rendering is written to term_hashes.actual.txt in the
// test's working directory, for diffing against the golden.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "ast/term.h"
#include "engine/query_eval.h"
#include "storage/relation.h"

#ifndef LDLOPT_SOURCE_DIR
#error "tests/CMakeLists.txt must define LDLOPT_SOURCE_DIR"
#endif

namespace ldl {
namespace {

std::vector<Term> Ints(int64_t from, int64_t to) {
  std::vector<Term> out;
  for (int64_t i = from; i < to; ++i) out.push_back(Term::MakeInt(i));
  return out;
}

std::vector<Term> Corpus() {
  const Term x = Term::MakeVariable("X");
  const Term a = Term::MakeSymbol("a");
  const Term b = Term::MakeSymbol("b");
  const Term one = Term::MakeInt(1);
  std::vector<Term> c;
  // Integers.
  c.push_back(Term::MakeInt(std::numeric_limits<int64_t>::min()));
  c.push_back(Term::MakeInt(std::numeric_limits<int64_t>::max()));
  c.push_back(Term::MakeInt(0));
  c.push_back(Term::MakeInt(-1));
  c.push_back(Term::MakeInt(42));
  // Reals, including both zeros (equal, same hash) and extremes.
  c.push_back(Term::MakeReal(-0.0));
  c.push_back(Term::MakeReal(0.0));
  c.push_back(Term::MakeReal(1.0));
  c.push_back(Term::MakeReal(1e308));
  c.push_back(Term::MakeReal(0.1));
  c.push_back(Term::MakeReal(-2.5));
  // Symbols and strings: the same text in both kinds, the empty string,
  // the default term and the list terminator.
  c.push_back(Term::MakeSymbol("austin"));
  c.push_back(Term::MakeString("austin"));
  c.push_back(Term::MakeString(""));
  c.push_back(Term::MakeString("caf\xc3\xa9 au lait"));
  c.push_back(Term());
  c.push_back(Term::MakeSymbol("zz"));
  c.push_back(Term::MakeSymbol("[]"));
  // Variables.
  c.push_back(x);
  c.push_back(Term::MakeVariable("_Y1"));
  c.push_back(Term::MakeVariable("austin"));
  // Function terms, nested and infix.
  c.push_back(Term::MakeFunction("f", {a}));
  c.push_back(Term::MakeFunction("f", {a, b}));
  c.push_back(Term::MakeFunction("f", {b}));
  c.push_back(Term::MakeFunction("f", {one}));
  c.push_back(Term::MakeFunction("f", {Term::MakeReal(1.0)}));
  c.push_back(Term::MakeFunction(
      "g", {Term::MakeFunction("f", {one}), Term::MakeList({a, b})}));
  c.push_back(Term::MakeFunction(
      "h", {Term::MakeFunction("f", {Term::MakeFunction(
                                        "g", {Term::MakeReal(1.5)})}),
            Term::MakeString("s")}));
  c.push_back(Term::MakeFunction("+", {x, one}));
  c.push_back(Term::MakeFunction(
      "*", {Term::MakeFunction("+", {x, one}), Term::MakeInt(2)}));
  c.push_back(Term::MakeFunction("f", {x, Term::MakeFunction("g", {x})}));
  // Lists: empty, proper, with a tail, nested, and long.
  c.push_back(Term::MakeList({}));
  c.push_back(Term::MakeList(Ints(1, 4)));
  c.push_back(Term::MakeList({a}, Term::MakeVariable("T")));
  c.push_back(Term::MakeList({one, Term::MakeString("s")}, b));
  c.push_back(Term::MakeList(
      {Term::MakeList(Ints(0, 2)), Term::MakeList({}), Term::MakeList({a})}));
  c.push_back(Term::MakeList(Ints(0, 200)));
  c.push_back(Term::MakeList(Ints(0, 12), Term::MakeSymbol("end")));
  c.push_back(Term::MakeFunction(
      "rec", {Term::MakeList(Ints(5, 9)),
              Term::MakeFunction("pt", {Term::MakeReal(0.1),
                                        Term::MakeReal(-0.0)})}));
  return c;
}

const char* KindName(TermKind kind) {
  switch (kind) {
    case TermKind::kVariable:
      return "var";
    case TermKind::kInt:
      return "int";
    case TermKind::kReal:
      return "real";
    case TermKind::kString:
      return "string";
    case TermKind::kSymbol:
      return "symbol";
    case TermKind::kFunction:
      return "function";
  }
  return "?";
}

std::string Render() {
  const std::vector<Term> corpus = Corpus();
  std::ostringstream os;
  for (size_t i = 0; i < corpus.size(); ++i) {
    const Term& t = corpus[i];
    // t < t is false; skipping it keeps the rank cheap to compute for a
    // term order that may descend both ways at every cons cell.
    size_t rank = 0;
    for (size_t j = 0; j < corpus.size(); ++j) {
      rank += j != i && corpus[j] < t ? 1 : 0;
    }
    char hash[32];
    std::snprintf(hash, sizeof(hash), "%016llx",
                  static_cast<unsigned long long>(t.Hash()));
    os << rank << '\t' << hash << '\t' << KindName(t.kind()) << '\t'
       << t.ToString() << '\n';
  }
  // Every ground corpus term as a row of a unary relation, and adjacent
  // ground pairs as rows of a binary one.
  Relation unary("u", 1);
  Relation binary("b", 2);
  const Term* prev = nullptr;
  for (const Term& t : corpus) {
    if (!t.IsGround()) continue;
    unary.Insert({t});
    if (prev != nullptr) binary.Insert({*prev, t});
    prev = &t;
  }
  os << "fingerprint u/1 " << AnswerFingerprint(unary) << '\n';
  os << "fingerprint b/2 " << AnswerFingerprint(binary) << '\n';
  return os.str();
}

TEST(TermHashesGoldenTest, HashesOrderAndFingerprintsMatchTheGolden) {
  const std::string actual = Render();
  const std::string path = std::string(LDLOPT_SOURCE_DIR) +
                           "/tests/golden/term_hashes.golden.txt";
  std::ifstream in(path);
  std::ostringstream golden;
  golden << in.rdbuf();
  if (actual != golden.str()) {
    std::ofstream("term_hashes.actual.txt") << actual;
    FAIL() << "term hashes, order or fingerprints differ from " << path
           << "; the rendering was written to term_hashes.actual.txt";
  }
}

}  // namespace
}  // namespace ldl
