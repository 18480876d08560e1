// ldl_difftest — differential testing of the optimizer/engine matrix over
// randomly generated stratified recursive programs.
//
// Usage: ldl_difftest [options]
//
//   --seed S | A..B      seed, or inclusive seed range (repeatable; default 1)
//   --iters N            programs generated per seed (default 100)
//   --shape SHAPE        EDB graph shape: chain | tree | cycle | random |
//                        mixed (default mixed)
//   --methods LIST       comma-separated subset of naive,magic,counting to
//                        run beyond the semi-naive reference (default all)
//   --no-tree            skip the processing-tree interpreter configurations
//   --no-metamorphic     skip the metamorphic checks
//   --no-analysis        skip the opt:analysis configuration (semantic
//                        pre-optimization: dead-rule elimination +
//                        adornment-reachability pruning) and the injection
//                        of statically dead clauses into generated programs
//   --no-feedback        skip the opt:feedback configuration (planning
//                        under the blended measured-statistics overlay a
//                        warm pass accumulated; see obs/feedback.h)
//   --repro-dir DIR      where repro-*.ldl files are written (default ".")
//   --max-shrink-evals N shrinker budget per failure (default 2000)
//   --skip N             generate and discard the first N programs per seed
//                        (fast-forward to a failing iteration)
//   --dump               print each generated program before evaluating it
//   --inject-fault       self-test: flip a join predicate in a shadow
//                        configuration each iteration; the run then FAILS if
//                        any effective fault goes UNDETECTED, and every
//                        detected fault is shrunk and written as a repro
//   --verbose            per-iteration progress on stderr
//
// Exit status: 0 all iterations mismatch-free (or, with --inject-fault,
// every effective fault detected); 1 mismatch/metamorphic violation found
// (repros written); 2 usage error.

#include <cstdio>
#include <cstdlib>
#include <chrono>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "base/rng.h"
#include "base/strings.h"
#include "testing/difftest.h"
#include "testing/program_gen.h"

namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: ldl_difftest [--seed S|A..B]... [--iters N] [--shape SHAPE]\n"
      "                    [--methods naive,magic,counting] [--no-tree]\n"
      "                    [--no-metamorphic] [--no-analysis] "
      "[--no-feedback]\n"
      "                    [--repro-dir DIR]\n"
      "                    [--max-shrink-evals N] [--inject-fault] "
      "[--verbose]\n");
  return 2;
}

bool ParseSeeds(const std::string& arg, std::vector<uint64_t>* out) {
  size_t dots = arg.find("..");
  char* end = nullptr;
  if (dots == std::string::npos) {
    uint64_t s = std::strtoull(arg.c_str(), &end, 10);
    if (end == nullptr || *end != '\0') return false;
    out->push_back(s);
    return true;
  }
  // Named copies: `end` points into them, so they must outlive the checks.
  const std::string lo_text = arg.substr(0, dots);
  const std::string hi_text = arg.substr(dots + 2);
  uint64_t lo = std::strtoull(lo_text.c_str(), &end, 10);
  if (end == nullptr || *end != '\0') return false;
  uint64_t hi = std::strtoull(hi_text.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || hi < lo || hi - lo > 10000) {
    return false;
  }
  for (uint64_t s = lo; s <= hi; ++s) out->push_back(s);
  return true;
}

// Shrink predicate that preserves the failure mode: a reduction is
// accepted only while every failure it exhibits was already present in
// the original outcome. Reductions may drop failure modes but must never
// introduce new ones — otherwise ddmin happily walks to a degenerate
// program whose only "failure" is an evaluation error the reduction
// itself caused (e.g. "unknown predicate" after removing the query
// predicate's last rule).
std::function<bool(const ldl::testing::GeneratedProgram&)>
SignaturePreservingPredicate(const ldl::testing::DiffTestOptions& options,
                             const ldl::testing::DiffOutcome& original) {
  std::vector<std::string> sigs = original.FailureSignatures();
  std::set<std::string> allowed(sigs.begin(), sigs.end());
  return [options, allowed](const ldl::testing::GeneratedProgram& candidate) {
    ldl::testing::DiffOutcome o =
        ldl::testing::RunDifferential(candidate, options);
    std::vector<std::string> cand = o.FailureSignatures();
    if (cand.empty()) return false;
    for (const std::string& s : cand) {
      if (allowed.count(s) == 0) return false;
    }
    return true;
  };
}

}  // namespace

int main(int argc, char** argv) {
  using ldl::testing::DiffOutcome;
  using ldl::testing::DiffTestOptions;
  using ldl::testing::Fault;
  using ldl::testing::GeneratedProgram;

  std::vector<uint64_t> seeds;
  size_t iters = 100;
  size_t skip = 0;
  bool dump = false;
  size_t max_shrink_evals = 2000;
  std::string repro_dir = ".";
  DiffTestOptions options;
  bool inject_fault = false;
  bool no_analysis = false;
  bool verbose = false;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--seed" && i + 1 < argc) {
      if (!ParseSeeds(argv[++i], &seeds)) {
        std::fprintf(stderr, "ldl_difftest: bad --seed %s\n", argv[i]);
        return Usage();
      }
    } else if (arg == "--iters" && i + 1 < argc) {
      iters = static_cast<size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (arg == "--shape" && i + 1 < argc) {
      if (!ldl::testing::ParseEdbShape(argv[++i], &options.gen.shape)) {
        std::fprintf(stderr, "ldl_difftest: bad --shape %s\n", argv[i]);
        return Usage();
      }
    } else if (arg == "--methods" && i + 1 < argc) {
      options.run_naive = options.run_magic = options.run_counting = false;
      std::string list = argv[++i];
      size_t pos = 0;
      while (pos <= list.size()) {
        size_t comma = list.find(',', pos);
        if (comma == std::string::npos) comma = list.size();
        std::string m = list.substr(pos, comma - pos);
        if (m == "naive") {
          options.run_naive = true;
        } else if (m == "magic") {
          options.run_magic = true;
        } else if (m == "counting") {
          options.run_counting = true;
        } else if (m == "seminaive" || m.empty()) {
          // The reference always runs.
        } else {
          std::fprintf(stderr, "ldl_difftest: bad method %s\n", m.c_str());
          return Usage();
        }
        pos = comma + 1;
      }
    } else if (arg == "--no-tree") {
      options.run_tree_interpreter = false;
    } else if (arg == "--no-metamorphic") {
      options.run_metamorphic = false;
    } else if (arg == "--no-analysis") {
      no_analysis = true;
    } else if (arg == "--no-feedback") {
      options.run_feedback = false;
    } else if (arg == "--repro-dir" && i + 1 < argc) {
      repro_dir = argv[++i];
    } else if (arg == "--max-shrink-evals" && i + 1 < argc) {
      max_shrink_evals =
          static_cast<size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (arg == "--skip" && i + 1 < argc) {
      skip = static_cast<size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (arg == "--dump") {
      dump = true;
    } else if (arg == "--inject-fault") {
      inject_fault = true;
    } else if (arg == "--verbose") {
      verbose = true;
    } else if (arg == "--help" || arg == "-h") {
      Usage();
      return 0;
    } else {
      std::fprintf(stderr, "ldl_difftest: unknown argument %s\n", arg.c_str());
      return Usage();
    }
  }
  if (seeds.empty()) seeds.push_back(1);
  if (inject_fault) options.fault = Fault::kFlipJoin;
  if (no_analysis) {
    options.run_analysis_pruned = false;
  } else {
    // With the analysis configuration on, also feed it: a quarter of the
    // generated programs carry a statically dead rule and/or an
    // unreachable predicate that elimination must drop answer-neutrally.
    options.gen.dead_rule_probability = 0.25;
    options.gen.unreachable_predicate_probability = 0.25;
  }

  size_t total_iters = 0;
  size_t total_configs = 0;
  size_t mismatches = 0;
  size_t meta_violations = 0;
  size_t generator_failures = 0;
  size_t faults_effective = 0;  // injected fault actually changed answers
  size_t faults_detected = 0;
  std::vector<std::string> repro_paths;
  auto t0 = std::chrono::steady_clock::now();

  for (uint64_t seed : seeds) {
    ldl::Rng rng(seed);
    for (size_t iter = 0; iter < skip; ++iter) {
      (void)ldl::testing::GenerateProgram(&rng, options.gen);
    }
    for (size_t iter = skip; iter < skip + iters; ++iter) {
      ++total_iters;
      GeneratedProgram prog =
          ldl::testing::GenerateProgram(&rng, options.gen);
      if (dump) {
        std::fprintf(stderr, "-- seed %llu iter %zu (%s)\n%s",
                     static_cast<unsigned long long>(seed), iter,
                     prog.summary.c_str(), prog.ToLdl().c_str());
      }
      DiffOutcome outcome = ldl::testing::RunDifferential(prog, options);
      total_configs += outcome.configs.size();
      if (outcome.reference_failed) {
        ++generator_failures;
        std::fprintf(stderr,
                     "ldl_difftest: seed %llu iter %zu: generator produced "
                     "an unevaluable program (%s): %s\n",
                     static_cast<unsigned long long>(seed), iter,
                     prog.summary.c_str(), outcome.detail.c_str());
        continue;
      }

      if (inject_fault) {
        // Self-test mode: the fault:* shadow config must be the only
        // disagreement. A flagged fault is "effective" (the mutation
        // changed the answers); it is then shrunk and must stay small.
        bool fault_flagged = false;
        bool real_failure = outcome.metamorphic_violation;
        for (const auto& cr : outcome.configs) {
          if (cr.config.rfind("fault:", 0) == 0) {
            fault_flagged |= !cr.agrees || !cr.ok;
          } else if (!cr.ok || !cr.agrees) {
            real_failure = true;
          }
        }
        if (real_failure) ++mismatches;
        if (fault_flagged) {
          ++faults_effective;
          auto predicate = SignaturePreservingPredicate(options, outcome);
          ldl::testing::ShrinkStats sstats;
          GeneratedProgram minimized = ldl::testing::ShrinkFailure(
              prog, predicate, max_shrink_evals, &sstats);
          bool still_fails = predicate(minimized);
          if (still_fails && minimized.rules.size() <= 5) {
            ++faults_detected;
          } else {
            std::fprintf(stderr,
                         "ldl_difftest: seed %llu iter %zu: shrink lost the "
                         "fault or left %zu rules\n",
                         static_cast<unsigned long long>(seed), iter,
                         minimized.rules.size());
          }
          std::string path = ldl::testing::WriteRepro(
              repro_dir, seed, iter, minimized, outcome.detail);
          if (verbose && !path.empty()) {
            std::fprintf(stderr,
                         "  fault shrunk to %zu rules / %zu facts in %zu "
                         "evaluations -> %s\n",
                         minimized.rules.size(), minimized.facts.size(),
                         sstats.evaluations, path.c_str());
          }
          if (!path.empty()) repro_paths.push_back(path);
        }
      } else if (outcome.failed()) {
        if (outcome.mismatch) ++mismatches;
        if (outcome.metamorphic_violation) ++meta_violations;
        std::fprintf(stderr,
                     "ldl_difftest: MISMATCH seed %llu iter %zu (%s):\n%s",
                     static_cast<unsigned long long>(seed), iter,
                     prog.summary.c_str(), outcome.detail.c_str());
        ldl::testing::ShrinkStats sstats;
        GeneratedProgram minimized = ldl::testing::ShrinkFailure(
            prog, SignaturePreservingPredicate(options, outcome),
            max_shrink_evals, &sstats);
        std::string path = ldl::testing::WriteRepro(repro_dir, seed, iter,
                                                    minimized, outcome.detail);
        std::fprintf(stderr,
                     "  shrunk to %zu rules / %zu facts in %zu evaluations"
                     "%s%s\n",
                     minimized.rules.size(), minimized.facts.size(),
                     sstats.evaluations, path.empty() ? "" : " -> ",
                     path.c_str());
        if (!path.empty()) repro_paths.push_back(path);
      }
      if (verbose) {
        std::fprintf(stderr, "seed %llu iter %zu: %s: %zu configs %s\n",
                     static_cast<unsigned long long>(seed), iter,
                     prog.summary.c_str(), outcome.configs.size(),
                     outcome.failed() ? "FAIL" : "ok");
      }
    }
  }

  double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  std::printf(
      "ldl_difftest: %zu iterations, %zu config evaluations, "
      "%.1f iters/s\n",
      total_iters, total_configs, secs > 0 ? total_iters / secs : 0.0);
  std::printf("  mismatches: %zu, metamorphic violations: %zu, "
              "generator failures: %zu\n",
              mismatches, meta_violations, generator_failures);
  if (inject_fault) {
    std::printf(
        "  injected faults effective: %zu, caught+shrunk (<=5 rules): %zu\n",
        faults_effective, faults_detected);
    if (faults_effective == 0 || faults_detected < faults_effective) {
      std::fprintf(stderr,
                   "ldl_difftest: self-test FAILED: effective=%zu "
                   "caught+shrunk=%zu\n",
                   faults_effective, faults_detected);
      return 1;
    }
  }
  for (const std::string& path : repro_paths) {
    std::printf("  repro: %s\n", path.c_str());
  }
  bool failed = mismatches > 0 || meta_violations > 0 ||
                generator_failures > 0;
  return failed ? 1 : 0;
}
