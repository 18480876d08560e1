// Experiment E4 — the recursive-method comparison of the paper's
// section 7.3: Magic Sets [BMSU 85] and generalized Counting [SZ 86] are
// used because they "have been shown to produce some of the most efficient
// [BR 86] and general algorithms to support recursion".
//
// For bound queries over the classic same-generation and ancestor
// workloads we run all four CC-node methods end to end on real data and
// report tuples examined, tuples derived, and wall-clock. Expected shape:
//   naive > seminaive >> magic >= counting   (work, for bound queries)
// plus the counting->magic fallback on cyclic data.

#include <benchmark/benchmark.h>

#include "ast/parser.h"
#include "bench_util.h"
#include "engine/query_eval.h"
#include "testing/workloads.h"

namespace ldl {
namespace {

using bench::Fmt;
using bench::Stopwatch;
using bench::Table;

constexpr const char* kSgRules = R"(
  sg(X, Y) <- flat(X, Y).
  sg(X, Y) <- up(X, X1), sg(X1, Y1), dn(Y1, Y).
)";

constexpr const char* kAncRules = R"(
  anc(X, Y) <- par(X, Y).
  anc(X, Y) <- par(X, Z), anc(Z, Y).
)";

void RunRow(const Program& program, Database* db, const Literal& goal,
            Table* table, const std::string& workload) {
  for (RecursionMethod method :
       {RecursionMethod::kNaive, RecursionMethod::kSemiNaive,
        RecursionMethod::kMagic, RecursionMethod::kCounting}) {
    QueryEvalOptions options;
    options.counting_fallback = false;
    Stopwatch watch;
    auto result = EvaluateQuery(program, db, goal, method, options);
    double ms = watch.ElapsedMs();
    if (!result.ok()) {
      table->AddRow({workload, RecursionMethodToString(method), "-", "-", "-",
                     "-", "-", result.status().ToString().substr(0, 40)});
      continue;
    }
    const double examined =
        static_cast<double>(result->stats.counters.tuples_examined);
    table->AddRow(
        {workload, RecursionMethodToString(method),
         std::to_string(result->answers.size()), Fmt(examined, "%.3g"),
         Fmt(static_cast<double>(result->stats.counters.derivations), "%.3g"),
         Fmt(ms, "%.2f"),
         examined > 0 ? Fmt(ms * 1e6 / examined, "%.0f") : "-", ""});
  }
}

}  // namespace

void PrintExperiment() {
  bench::Banner("E4", "recursive methods on bound queries "
                      "(tuples examined = machine-independent work)");
  // ns/examined = ms x 1e6 / examined: wall time per tuple examined, the
  // engine's per-tuple cost (ROADMAP's north-star figure is the sg.bf
  // f=3 d=5 seminaive row).
  Table table({"workload", "method", "answers", "examined", "derived", "ms",
               "ns/examined", "note"});

  {
    auto program = ParseProgram(kSgRules);
    for (auto [fanout, depth] : {std::pair<size_t, size_t>{2, 6},
                                 std::pair<size_t, size_t>{3, 5},
                                 std::pair<size_t, size_t>{4, 4}}) {
      Database db;
      size_t nodes = testing::MakeSameGenerationData(fanout, depth, &db);
      Literal goal = Literal::Make(
          "sg", {Term::MakeInt(static_cast<int64_t>(nodes - 1)),
                 Term::MakeVariable("Y")});
      RunRow(*program, &db, goal,
             &table,
             "sg.bf f=" + std::to_string(fanout) +
                 " d=" + std::to_string(depth));
    }
  }
  {
    auto program = ParseProgram(kAncRules);
    for (auto [fanout, depth] : {std::pair<size_t, size_t>{2, 10},
                                 std::pair<size_t, size_t>{3, 7}}) {
      Database db;
      size_t nodes = testing::MakeTreeParentData(fanout, depth, &db);
      Literal goal = Literal::Make(
          "anc", {Term::MakeInt(static_cast<int64_t>(nodes - 1)),
                  Term::MakeVariable("Y")});
      RunRow(*program, &db, goal, &table,
             "anc.bf f=" + std::to_string(fanout) +
                 " d=" + std::to_string(depth));
    }
  }
  table.Print();

  // Free query: magic degenerates (no binding to exploit).
  bench::Banner("E4b", "free query sg(X, Y)? — pipelined methods lose their "
                       "advantage");
  {
    Table free_table({"workload", "method", "answers", "examined", "ms",
                      "note"});
    auto program = ParseProgram(kSgRules);
    Database db;
    testing::MakeSameGenerationData(3, 4, &db);
    Literal goal = Literal::Make(
        "sg", {Term::MakeVariable("X"), Term::MakeVariable("Y")});
    for (RecursionMethod method :
         {RecursionMethod::kSemiNaive, RecursionMethod::kMagic}) {
      QueryEvalOptions options;
      Stopwatch watch;
      auto result = EvaluateQuery(*program, &db, goal, method, options);
      double ms = watch.ElapsedMs();
      if (!result.ok()) continue;
      free_table.AddRow(
          {"sg.ff f=3 d=4", RecursionMethodToString(method),
           std::to_string(result->answers.size()),
           Fmt(static_cast<double>(result->stats.counters.tuples_examined),
               "%.3g"),
           Fmt(ms, "%.2f"), result->note});
    }
    free_table.Print();
  }

  // Cyclic data: counting diverges and falls back to magic.
  bench::Banner("E4c", "counting on cyclic data — divergence guard + "
                       "fallback to magic");
  {
    Table cyc({"data", "method requested", "method used", "answers", "note"});
    Program program = *ParseProgram(R"(
      tc(X, Y) <- edge(X, Y).
      tc(X, Y) <- edge(X, Z), tc(Z, Y).
    )");
    Database db;
    testing::MakeCycle(50, &db);
    QueryEvalOptions options;
    options.fixpoint.max_iterations = 500;
    auto result = EvaluateQuery(
        program, &db, *ParseLiteral("tc(0, Y)"), RecursionMethod::kCounting,
        options);
    if (result.ok()) {
      cyc.AddRow({"cycle n=50", "counting",
                  RecursionMethodToString(result->method_used),
                  std::to_string(result->answers.size()),
                  result->note.substr(0, 60)});
    }
    cyc.Print();
  }
}

namespace {

void BM_Method(benchmark::State& state) {
  auto method = static_cast<RecursionMethod>(state.range(0));
  auto program = ParseProgram(kSgRules);
  Database db;
  size_t nodes = testing::MakeSameGenerationData(3, 5, &db);
  Literal goal =
      Literal::Make("sg", {Term::MakeInt(static_cast<int64_t>(nodes - 1)),
                           Term::MakeVariable("Y")});
  QueryEvalOptions options;
  for (auto _ : state) {
    auto result = EvaluateQuery(*program, &db, goal, method, options);
    benchmark::DoNotOptimize(result);
  }
  state.SetLabel(RecursionMethodToString(method));
}
BENCHMARK(BM_Method)
    ->Arg(static_cast<int>(RecursionMethod::kNaive))
    ->Arg(static_cast<int>(RecursionMethod::kSemiNaive))
    ->Arg(static_cast<int>(RecursionMethod::kMagic))
    ->Arg(static_cast<int>(RecursionMethod::kCounting));

}  // namespace
}  // namespace ldl

int main(int argc, char** argv) {
  ldl::PrintExperiment();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  ldl::bench::FlushJson("recursion_methods");
  return 0;
}
