#include <gtest/gtest.h>

#include <set>

#include "base/hash.h"
#include "base/rng.h"
#include "base/status.h"
#include "base/strings.h"

namespace ldl {
namespace {

TEST(StatusTest, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorsCarryCodeAndMessage) {
  Status st = Status::Unsafe("rule r is not computable");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kUnsafe);
  EXPECT_EQ(st.ToString(), "Unsafe: rule r is not computable");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kUnsafe, StatusCode::kUnsupported, StatusCode::kInternal,
        StatusCode::kResourceExhausted}) {
    EXPECT_STRNE(StatusCodeToString(code), "Unknown");
  }
}

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x;
}

TEST(ResultTest, ValueAndError) {
  Result<int> ok = ParsePositive(5);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 5);
  Result<int> err = ParsePositive(-1);
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kInvalidArgument);
}

Result<int> Chain(int x) {
  LDL_ASSIGN_OR_RETURN(int v, ParsePositive(x));
  LDL_ASSIGN_OR_RETURN(int w, ParsePositive(v - 1));
  return v + w;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  auto ok = Chain(3);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 5);
  EXPECT_FALSE(Chain(1).ok());   // inner call fails
  EXPECT_FALSE(Chain(-1).ok());  // outer call fails
}

TEST(StringsTest, StrCat) {
  EXPECT_EQ(StrCat("a", 1, "b", 2.5), "a1b2.5");
  EXPECT_EQ(StrCat(), "");
}

TEST(StringsTest, StrJoin) {
  std::vector<std::string> parts{"x", "y", "z"};
  EXPECT_EQ(StrJoin(parts, ", "), "x, y, z");
  EXPECT_EQ(StrJoin(std::vector<std::string>{}, ","), "");
  std::vector<int> nums{1, 2, 3};
  EXPECT_EQ(StrJoin(nums, "+", [](int v) { return std::to_string(v); }),
            "1+2+3");
}

TEST(StringsTest, StrSplit) {
  EXPECT_EQ(StrSplit("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(StrSplit("", ','), (std::vector<std::string>{""}));
}

TEST(StringsTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  hi \t\n"), "hi");
  EXPECT_EQ(StripWhitespace("\n \t"), "");
  EXPECT_EQ(StripWhitespace("x"), "x");
}

TEST(StringsTest, ParseUintAcceptsOnlyWholeInRangeNumbers) {
  uint64_t v = 7;
  EXPECT_TRUE(ParseUint("0", 10, &v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(ParseUint("18446744073709551615", UINT64_MAX, &v));
  EXPECT_EQ(v, UINT64_MAX);
  v = 7;
  for (const char* bad : {"", "abc", "12x", " 1", "-1", "+1", "11",
                          "18446744073709551616"}) {
    EXPECT_FALSE(ParseUint(bad, 10, &v)) << bad;
  }
  EXPECT_EQ(v, 7u) << "a rejected value must not be written";
}

TEST(StringsTest, ParseNonNegativeDoubleRejectsMalformedValues) {
  double v = 0;
  EXPECT_TRUE(ParseNonNegativeDouble("2.5", &v));
  EXPECT_EQ(v, 2.5);
  EXPECT_TRUE(ParseNonNegativeDouble("1e3", &v));
  EXPECT_EQ(v, 1000.0);
  for (const char* bad : {"", "abc", "1.5ms", " 1", "-1", "inf", "nan",
                          "1e999"}) {
    EXPECT_FALSE(ParseNonNegativeDouble(bad, &v)) << bad;
  }
  EXPECT_EQ(v, 1000.0);
}

TEST(RngTest, DeterministicBySeed) {
  Rng a(42), b(42), c(43);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(RngTest, GoldenSequenceIsPinned) {
  // Golden splitmix64 outputs. Seed-addressed artifacts (bench workloads,
  // difftest repro files) replay through these exact values; a failure
  // here means the recurrence changed and every recorded seed is invalid
  // (see the determinism guarantee in base/rng.h).
  constexpr uint64_t kSeed42[] = {
      0xbdd732262feb6e95ULL, 0x28efe333b266f103ULL, 0x47526757130f9f52ULL,
      0x581ce1ff0e4ae394ULL, 0x09bc585a244823f2ULL,
  };
  Rng rng(42);
  for (uint64_t want : kSeed42) EXPECT_EQ(rng.Next(), want);
  // splitmix64(1) from the reference implementation.
  Rng one(1);
  EXPECT_EQ(one.Next(), 0x910a2dec89025cc1ULL);
  // Derived draws are pinned too (Uniform is Next() % bound).
  Rng u(42);
  EXPECT_EQ(u.Uniform(100), 13u);
  EXPECT_EQ(u.Uniform(100), 91u);
  EXPECT_EQ(u.Uniform(100), 58u);
}

TEST(RngTest, SeedZeroRemapsToIncrement) {
  Rng zero(0);
  Rng inc(0x9e3779b97f4a7c15ULL);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(zero.Next(), inc.Next());
}

TEST(RngTest, UniformBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(10), 10u);
    int64_t v = rng.UniformInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    double d = rng.UniformDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ShuffleIsAPermutation) {
  Rng rng(11);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  std::vector<int> original = v;
  rng.Shuffle(&v);
  std::multiset<int> a(v.begin(), v.end());
  std::multiset<int> b(original.begin(), original.end());
  EXPECT_EQ(a, b);
}

TEST(RngTest, UniformCoversRange) {
  Rng rng(3);
  std::set<uint64_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(rng.Uniform(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(HashTest, CombineChangesWithOrder) {
  size_t a = 0, b = 0;
  HashValue(&a, 1);
  HashValue(&a, 2);
  HashValue(&b, 2);
  HashValue(&b, 1);
  EXPECT_NE(a, b);
}

}  // namespace
}  // namespace ldl
