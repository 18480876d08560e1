// Tests for the JSON codec (src/base/json.h): the strict reader (grammar,
// depth limit, \u decoding, numbers kept as source text, typed reads), the
// writer (comma placement, the one number policy, non-finite spelling), and
// a seeded mutation fuzz of every JSON reader over the committed goldens.

#include "base/json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "base/rng.h"
#include "obs/feedback.h"
#include "obs/query_log.h"

#ifndef LDLOPT_SOURCE_DIR
#error "tests/CMakeLists.txt must define LDLOPT_SOURCE_DIR"
#endif

namespace ldl {
namespace {

std::string ErrorOf(std::string_view text) {
  auto doc = ParseJson(text);
  return doc.ok() ? "" : doc.status().message();
}

TEST(JsonReaderTest, ParsesEveryKind) {
  auto doc = ParseJson(
      " {\"a\":[1,-2.5e3,true,false,null],\"b\":{\"c\":\"d\"},\"e\":[]}\n");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  ASSERT_EQ(doc->kind, JsonValue::Kind::kObject);
  const JsonValue* a = doc->Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->items.size(), 5u);
  EXPECT_EQ(a->items[1].text, "-2.5e3");  // numbers keep their source text
  EXPECT_TRUE(a->items[2].boolean);
  EXPECT_EQ(a->items[4].kind, JsonValue::Kind::kNull);
  EXPECT_EQ(doc->Find("b")->Find("c")->text, "d");
  EXPECT_EQ(doc->Find("missing"), nullptr);
}

TEST(JsonReaderTest, RejectsWhatRfc8259Rejects) {
  for (const char* bad :
       {"", "  ", "{", "[1,]", "{\"a\":1,}", "{a:1}", "01", "1.", ".5", "1e",
        "+1", "-", "0x10", "2x", "7e", "tru", "nulls", "\"\\x\"", "\"\\u12\"",
        "\"a\nb\"", "\"unterminated", "[1 2]", "{\"a\" 1}", "1 2",
        "\"\\ud800\"", "\"\\udc00\"", "\"\\ud800\\u0041\"", "NaN", "inf"}) {
    EXPECT_FALSE(ParseJson(bad).ok()) << "accepted: " << bad;
  }
}

TEST(JsonReaderTest, ErrorsNameLineAndColumn) {
  EXPECT_EQ(ErrorOf("{\n  \"a\": tru\n}"),
            "line 2 col 8: invalid literal, expected true");
  EXPECT_EQ(ErrorOf("[1] x"), "line 1 col 5: trailing content after JSON value");
}

TEST(JsonReaderTest, DecodesEscapesToUtf8AndKeepsRawBytes) {
  auto doc = ParseJson(
      "\"\\u0070\\u0141\\u20ac\\ud83d\\ude00\\n\\/\\\"\xC3\xA9\x7F\"");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->text, "p\xC5\x81\xE2\x82\xAC\xF0\x9F\x98\x80\n/\"\xC3\xA9\x7F");
  // Bytes >= 0x80 are not validated as UTF-8: whatever json_check accepted
  // before still parses.
  EXPECT_TRUE(ParseJson("\"\xFF\xFE\"").ok());
}

TEST(JsonReaderTest, NestingDepthIsBounded) {
  std::string ok(kJsonMaxDepth, '[');
  ok.append(kJsonMaxDepth, ']');
  EXPECT_TRUE(ParseJson(ok).ok());
  const std::string deeper = "[" + ok + "]";
  EXPECT_NE(ErrorOf(deeper).find("nesting deeper than 512"), std::string::npos);
  // Used to overflow the stack.
  const std::string deep(200000, '[');
  EXPECT_NE(ErrorOf(deep).find("nesting deeper than 512"), std::string::npos);
}

TEST(JsonReaderTest, TypedReadsRejectValuesThatDoNotFit) {
  auto read_u64 = [](const char* text, uint64_t* out) {
    return ParseJson(text)->Get(out).ok();
  };
  uint64_t u = 7;
  EXPECT_TRUE(read_u64("18446744073709551615", &u));
  EXPECT_EQ(u, std::numeric_limits<uint64_t>::max());
  for (const char* bad :
       {"18446744073709551616", "-1", "-0", "1.0", "1e3", "\"3\"", "true"}) {
    u = 7;
    EXPECT_FALSE(read_u64(bad, &u)) << bad;
    EXPECT_EQ(u, 7u) << "a failed read must leave the field alone";
  }

  double d = 0;
  EXPECT_TRUE(ParseJson("-2.5e-3")->Get(&d).ok());
  EXPECT_EQ(d, -2.5e-3);
  EXPECT_FALSE(ParseJson("1e400")->Get(&d).ok());
  EXPECT_FALSE(ParseJson("\"12\"")->Get(&d).ok());
  EXPECT_TRUE(ParseJson("\"-inf\"")->Get(&d).ok());
  EXPECT_EQ(d, -std::numeric_limits<double>::infinity());
  EXPECT_TRUE(ParseJson("\"nan\"")->Get(&d).ok());
  EXPECT_TRUE(std::isnan(d));

  bool b = false;
  EXPECT_TRUE(ParseJson("true")->Get(&b).ok());
  EXPECT_TRUE(b);
  EXPECT_FALSE(ParseJson("1")->Get(&b).ok());
  std::string s;
  EXPECT_FALSE(ParseJson("1")->Get(&s).ok());
}

TEST(JsonWriterTest, PlacesCommasAndEscapes) {
  JsonWriter w;
  w.BeginObject()
      .Member("s", "a\"b\n\x01")
      .Member("n", -3)
      .Member("u", uint64_t{18446744073709551615u})
      .Member("t", true)
      .Key("xs")
      .BeginArray();
  for (int i = 0; i < 3; ++i) w.Value(i);
  w.BeginArray().EndArray().BeginObject().EndObject();
  w.EndArray().Key("o").BeginObject().Member("k", std::string("v"));
  w.EndObject().EndObject();
  EXPECT_EQ(w.str(),
            "{\"s\":\"a\\\"b\\n\\u0001\",\"n\":-3,\"u\":18446744073709551615,"
            "\"t\":true,\"xs\":[0,1,2,[],{}],\"o\":{\"k\":\"v\"}}");
}

TEST(JsonWriterTest, OneNumberPolicy) {
  EXPECT_EQ(FormatExactDouble(1792300000.25), "1792300000.25");
  EXPECT_EQ(FormatExactDouble(93931640), "93931640");
  EXPECT_EQ(FormatExactDouble(0.1 + 0.2), "0.30000000000000004");
  EXPECT_EQ(FormatExactDouble(1e-9), "1e-09");
  for (double v : {0.1 + 0.2, 1e300, -4.9e-324, 2.0 / 3.0, 123456.789}) {
    EXPECT_EQ(std::strtod(FormatExactDouble(v).c_str(), nullptr), v);
  }
  JsonWriter w;
  w.BeginArray()
      .Value(0.5)
      .Value(std::numeric_limits<double>::infinity())
      .Value(-std::numeric_limits<double>::infinity())
      .Value(std::nan(""))
      .EndArray();
  EXPECT_EQ(w.str(), "[0.5,\"inf\",\"-inf\",\"nan\"]");
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Applies 1-4 random edits: overwrite, insert or delete one byte, or
/// insert a JSON token, so mutants stay close to the grammar.
std::string Mutate(std::string text, Rng* rng) {
  static const char* const kTokens[] = {
      "{", "}", "[", "]", "\"", ",", ":", "\\", "\\u", "\\ud83d\\ude00",
      "\\u0141", "-", "0", "1e9", ".", "e", "true", "null", "18446744073709551616",
      "\xC3\xA9", "[[[[", "{\"k\":{}}"};
  const int edits = 1 + static_cast<int>(rng->Uniform(4));
  for (int i = 0; i < edits; ++i) {
    const size_t pos = text.empty() ? 0 : rng->Uniform(text.size() + 1);
    switch (rng->Uniform(4)) {
      case 0:
        if (pos < text.size()) text[pos] = static_cast<char>(rng->Uniform(256));
        break;
      case 1:
        text.insert(pos, 1, static_cast<char>(rng->Uniform(256)));
        break;
      case 2:
        if (pos < text.size()) text.erase(pos, 1 + rng->Uniform(4));
        break;
      default:
        text.insert(pos, kTokens[rng->Uniform(std::size(kTokens))]);
    }
  }
  return text;
}

// Every JSON reader survives mutated goldens (the ASan/UBSan ctest leg runs
// this too), and every document ParseJson accepts re-serializes through
// JsonWriter and re-parses to an equal DOM.
TEST(JsonFuzzTest, MutatedGoldensNeverCrashAndAcceptedOnesRoundTrip) {
  const std::string root = LDLOPT_SOURCE_DIR;
  const std::vector<std::string> seeds = {
      ReadFile(root + "/tests/golden/query_log.golden.jsonl"),
      ReadFile(root + "/tests/golden/stats_catalog.golden.json"),
      ReadFile(root + "/tests/golden/metrics.golden.prom"),
      ReadFile(root + "/bench/baselines/BENCH_recursion_methods.json"),
  };
  constexpr int kMutantsPerSeed = 2000;
  Rng rng(20261018);
  size_t accepted = 0;
  for (const std::string& seed : seeds) {
    ASSERT_FALSE(seed.empty());
    // The JSONL golden is fuzzed a line at a time as well as whole.
    std::vector<std::string> bases = {seed};
    std::istringstream lines(seed);
    for (std::string line; std::getline(lines, line);) bases.push_back(line);
    for (int i = 0; i < kMutantsPerSeed; ++i) {
      const std::string mutant =
          Mutate(bases[rng.Uniform(bases.size())], &rng);
      (void)QueryLogRecord::FromJson(mutant);
      StatisticsCatalog catalog;
      (void)catalog.MergeJson(mutant);
      auto doc = ParseJson(mutant);
      if (!doc.ok()) continue;
      ++accepted;
      JsonWriter w;
      w.Value(*doc);
      auto again = ParseJson(w.str());
      ASSERT_TRUE(again.ok()) << again.status().ToString() << "\n" << w.str();
      ASSERT_TRUE(*again == *doc) << "mutant: " << mutant;
    }
  }
  // The fuzz is only meaningful if some mutants stay valid JSON.
  EXPECT_GT(accepted, 100u);
}

}  // namespace
}  // namespace ldl
