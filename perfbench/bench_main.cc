// End-to-end benchmark of LdlSystem::Query: one process, one thread, one
// client in a closed loop (the next operation is issued when the previous
// one returns). See perfbench/README.md for the workloads and metrics.
//
//   perfbench_ldl --workload closure|joinplan|kb_session --seed N
//                 --seconds S --trace 0|1 [--out-dir DIR]
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics under --trace 0 and the per-layer metrics
// under --trace 1. Every layer is timed from outside, around calls into its
// public functions; nothing inside src/ is instrumented for the benchmark.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "ast/parser.h"
#include "base/strings.h"
#include "engine/query_eval.h"
#include "ldl/ldl.h"
#include "obs/feedback.h"
#include "obs/metrics.h"
#include "obs/query_log.h"
#include "obs/trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using ldl::StrCat;

/// Spans kept for the Chrome trace file (the counts use every span).
constexpr size_t kArchivedSpans = 50'000;

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string out_dir;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(args->seconds > 0)) {
        std::fprintf(stderr, "--seconds wants a positive number\n");
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        std::fprintf(stderr, "--trace wants 0 or 1\n");
        return false;
      }
      args->trace = value == "1";
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  if (args->workload.empty() || !have_seed || args->seconds <= 0) {
    std::fprintf(stderr,
                 "usage: perfbench_ldl --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--out-dir DIR]\n");
    return false;
  }
  return true;
}

// --- host record ----------------------------------------------------------

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid(0x80000000u, &regs[0], &regs[1], &regs[2], &regs[3]) &&
      regs[0] >= 0x80000004u) {
    for (unsigned int leaf = 0; leaf < 3; ++leaf) {
      __get_cpuid(0x80000002u + leaf, &regs[4 * leaf], &regs[4 * leaf + 1],
                  &regs[4 * leaf + 2], &regs[4 * leaf + 3]);
    }
    std::string model(reinterpret_cast<const char*>(regs), sizeof(regs));
    model.erase(model.find_last_not_of(std::string(" \0", 2)) + 1);
    model.erase(0, model.find_first_not_of(' '));
    return model;
  }
#endif
  return "unknown";
}

constexpr bool kNdebug =
#ifdef NDEBUG
    true;
#else
    false;
#endif

constexpr const char* kCompiler =
#if defined(__clang__)
    "clang " __VERSION__;
#elif defined(__GNUC__)
    "gcc " __VERSION__;
#else
    __VERSION__;
#endif

constexpr bool kOptimized =
#ifdef __OPTIMIZE__
    true;
#else
    false;
#endif

std::string HostJson(const Args& args) {
  std::ostringstream os;
  os << "{\"nproc\": " << std::thread::hardware_concurrency()
     << ", \"cpu\": \"" << ldl::JsonEscape(CpuModel())
     << "\", \"compiler\": \"" << ldl::JsonEscape(kCompiler)
     << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
     << "\", \"ndebug\": " << (kNdebug ? "true" : "false")
     << ", \"optimized\": " << (kOptimized && kNdebug ? "true" : "false")
     << ", \"workload\": \"" << ldl::JsonEscape(args.workload)
     << "\", \"seed\": " << args.seed << ", \"seconds\": " << args.seconds
     << ", \"trace\": " << (args.trace ? 1 : 0) << "}";
  return os.str();
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// --- statistics -----------------------------------------------------------

/// Nearest-rank percentile (q in (0, 1]) of unsorted samples.
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) h = (h ^ c) * 0x100000001b3ULL;
  return h;
}

// --- the system under test --------------------------------------------------

/// One knowledge-base session. The system holds non-owning pointers to the
/// log and the feedback objects, so it is declared last and destroyed first.
struct Session {
  std::unique_ptr<ldl::QueryLog> log;
  std::unique_ptr<ldl::StatisticsCatalog> catalog;
  std::unique_ptr<ldl::DriftDetector> drift;
  std::unique_ptr<ldl::LdlSystem> sys;
};

/// The work one operation did: for a query its answers and work counts, for
/// a write the base size it left. Every pass must repeat it exactly.
struct Work {
  std::string fingerprint;
  uint64_t rows = 0;
  uint64_t examined = 0;
  uint64_t derivations = 0;
  uint64_t inserts = 0;
  uint64_t firings = 0;
  uint64_t iterations = 0;
  uint64_t cost_evals = 0;
  uint64_t subplans = 0;
  uint64_t memo_hits = 0;
  uint64_t memo_misses = 0;
  uint64_t peak_bytes = 0;
  uint64_t base_tuples = 0;

  std::string ToString() const {
    return StrCat(fingerprint, " rows=", rows, " ex=", examined, " der=", derivations,
                  " ins=", inserts, " fire=", firings, " it=", iterations,
                  " ce=", cost_evals, " sub=", subplans, " mh=", memo_hits,
                  " mm=", memo_misses, " pb=", peak_bytes,
                  " base=", base_tuples);
  }
};

/// One operation of the pass and everything measured about it.
struct Slot {
  /// First slot of the pass that issues the same operation on the same
  /// data version (a pass may repeat a goal); their samples are pooled.
  size_t group = 0;
  bool recorded = false;  // `work` holds the first successful execution
  Work work;
  std::vector<double> ms;         // untraced executions
  std::vector<double> traced_ms;  // traced executions

  uint64_t executions() const { return ms.size() + traced_ms.size(); }
};

/// Per-layer sums over the traced operations.
struct LayerSums {
  uint64_t queries = 0;
  double parse_goal_us = 0;
  double query_ms = 0;
  double optimize_ms = 0;
  double execute_ms = 0;
  double overhead_ms = 0;
  double rewrite_ms = 0;
  uint64_t writes = 0;
  uint64_t facts = 0;
  double parse_batch_ms = 0;
  double ingest_ms = 0;
  double refresh_ms = 0;
};

class Runner {
 public:
  Runner(const Args& args, const Workload& workload)
      : args_(args), workload_(workload), slots_(workload.pass.size()) {
    if (workload_.operating_mode) {
      // Budgets far above what any query uses: metering engages on every
      // query and no query is refused.
      plain_.limits.budget_bytes = uint64_t{1} << 34;
      plain_.limits.budget_tuples = uint64_t{1} << 40;
      plain_.feedback = true;
    }
    std::map<std::string, size_t> first;
    size_t writes = 0;
    for (size_t i = 0; i < slots_.size(); ++i) {
      const Op& op = workload_.pass[i];
      slots_[i].group =
          first.try_emplace(StrCat(writes, "|", op.text), i).first->second;
      if (op.kind == Op::Kind::kWrite) ++writes;
    }
    traced_ = plain_;
    traced_.trace.tracer = &tracer_;
    traced_.trace.metrics = &registry_;
    archive_.set_max_events(kArchivedSpans);
  }

  int Run();

 private:
  void NewSession();
  void SetTraced(bool traced);
  void RunQuery(size_t i);
  void RunWrite(size_t i);
  void Record(size_t i, double ms, Work work);
  std::vector<double> Best(const std::vector<size_t>& which,
                           bool traced) const;
  void Fail(const std::string& what);
  void DrainTracer();
  void VerifyAgainstOracle();
  void CheckRegistry();
  void CheckDigest();
  void Report();

  const Args& args_;
  const Workload& workload_;
  ldl::OptimizerOptions plain_;
  ldl::OptimizerOptions traced_;
  ldl::Tracer tracer_;
  ldl::Tracer archive_;
  ldl::MetricsRegistry registry_;
  std::unique_ptr<Session> session_;
  bool traced_now_ = false;

  std::vector<Slot> slots_;
  std::vector<double> setup_s_;
  uint64_t passes_ = 0;
  double loop_ms_ = 0;
  uint64_t completed_ = 0;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> failures_;
  bool deterministic_ = true;
  std::vector<std::string> determinism_notes_;

  // Measured at the end of the first pass.
  uint64_t base_tuples_ = 0;
  uint64_t log_records_ = 0;
  double peak_rss_mb_ = 0;

  LayerSums layers_;
  // Work totals over the traced queries: the per-unit denominators, and
  // the sums the registry must match.
  Work traced_totals_;
  double work_ratio_ = 0;
  std::map<std::string, std::pair<uint64_t, uint64_t>> class_work_;
};

void Runner::NewSession() {
  session_.reset();
  auto s = std::make_unique<Session>();
  s->sys = std::make_unique<ldl::LdlSystem>(plain_);
  traced_now_ = false;
  if (workload_.operating_mode) {
    s->log = std::make_unique<ldl::QueryLog>();
    s->catalog = std::make_unique<ldl::StatisticsCatalog>();
    s->drift = std::make_unique<ldl::DriftDetector>();
    s->sys->set_query_log(s->log.get());
    s->sys->set_feedback(s->catalog.get(), s->drift.get());
  }
  const auto start = Clock::now();
  const ldl::Status st = s->sys->LoadProgram(workload_.setup_text);
  s->sys->RefreshStatistics();
  setup_s_.push_back(MsBetween(start, Clock::now()) / 1000.0);
  if (!st.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n", st.ToString().c_str());
    std::exit(1);
  }
  session_ = std::move(s);
}

void Runner::SetTraced(bool traced) {
  if (traced == traced_now_) return;
  traced_now_ = traced;
  session_->sys->set_options(traced ? traced_ : plain_);
}

void Runner::Fail(const std::string& what) {
  ++failed_;
  if (failures_.size() < 10) failures_.push_back(what);
}

void Runner::DrainTracer() {
  std::vector<ldl::TraceEvent> events = tracer_.snapshot();
  tracer_.Clear();
  // Self time of the rewrite spans: duration minus nested spans.
  for (const ldl::TraceEvent& e : events) {
    if (e.name != "magic-rewrite" && e.name != "counting-rewrite") continue;
    uint64_t child_us = 0;
    for (const ldl::TraceEvent& c : events) {
      if (&c != &e && c.thread_id == e.thread_id &&
          c.start_us >= e.start_us &&
          c.start_us + c.duration_us <= e.start_us + e.duration_us &&
          c.duration_us < e.duration_us) {
        child_us += c.duration_us;
      }
    }
    layers_.rewrite_ms +=
        static_cast<double>(e.duration_us - std::min(child_us, e.duration_us)) /
        1000.0;
  }
  for (ldl::TraceEvent& e : events) archive_.Record(std::move(e));
}

void Runner::Record(size_t i, double ms, Work work) {
  ++completed_;
  Slot& slot = slots_[i];
  (traced_now_ ? slot.traced_ms : slot.ms).push_back(ms);
  if (!slot.recorded) {
    slot.recorded = true;
    slot.work = std::move(work);
  } else if (slot.work.ToString() != work.ToString()) {
    deterministic_ = false;
    if (determinism_notes_.size() < 5) {
      determinism_notes_.push_back(StrCat("op ", i, " (",
                                          workload_.pass[i].text.substr(0, 40),
                                          "): ", slot.work.ToString(),
                                          " then ", work.ToString()));
    }
  }
}

void Runner::RunQuery(size_t i) {
  const Op& op = workload_.pass[i];
  ++attempted_;
  ldl::Result<ldl::QueryAnswer> answer = ldl::Status::Internal("not run");
  double total_ms = 0;
  double query_ms = 0;
  double parse_us = 0;
  if (!traced_now_) {
    const auto t0 = Clock::now();
    answer = session_->sys->Query(op.text);
    total_ms = MsBetween(t0, Clock::now());
  } else {
    // The goal is parsed outside Query so the parser's share shows.
    const auto t0 = Clock::now();
    ldl::Result<ldl::Literal> goal = ldl::Status::Internal("not parsed");
    {
      ldl::Span span(&tracer_, "bench.parse_goal", "bench");
      goal = ldl::ParseLiteral(op.text);
    }
    const auto t1 = Clock::now();
    if (goal.ok()) {
      ldl::Span span(&tracer_, "bench.query", "bench");
      span.AddArg("goal", op.text);
      answer = session_->sys->Query(*goal);
    } else {
      answer = goal.status();
    }
    const auto t2 = Clock::now();
    parse_us = MsBetween(t0, t1) * 1000.0;
    query_ms = MsBetween(t1, t2);
    total_ms = MsBetween(t0, t2);
    DrainTracer();
  }
  loop_ms_ += total_ms;
  if (!answer.ok()) {
    Fail(StrCat(op.text, ": ", answer.status().ToString()));
    return;
  }
  const ldl::QueryAnswer& a = *answer;
  Work work;
  work.fingerprint = ldl::AnswerFingerprint(a.answers);
  work.rows = a.answers.size();
  const ldl::EvalCounters& c = a.exec_stats.counters;
  work.examined = c.tuples_examined;
  work.derivations = c.derivations;
  work.inserts = c.inserts;
  work.firings = c.rule_firings;
  work.iterations = a.exec_stats.iterations;
  const ldl::PlanSearchStats& s = a.plan.search_stats;
  work.cost_evals = s.cost_evaluations;
  work.subplans = s.subplans_optimized;
  work.memo_hits = s.memo_hits;
  work.memo_misses = s.memo_misses;
  work.peak_bytes = a.peak_bytes;

  if (traced_now_) {
    ++layers_.queries;
    layers_.parse_goal_us += parse_us;
    layers_.query_ms += total_ms;
    layers_.optimize_ms += a.optimize_ms;
    layers_.execute_ms += a.execute_ms;
    layers_.overhead_ms += query_ms - a.optimize_ms - a.execute_ms;
    traced_totals_.examined += work.examined;
    traced_totals_.derivations += work.derivations;
    traced_totals_.inserts += work.inserts;
    traced_totals_.firings += work.firings;
    traced_totals_.iterations += work.iterations;
    traced_totals_.cost_evals += work.cost_evals;
    traced_totals_.subplans += work.subplans;
    traced_totals_.memo_hits += work.memo_hits;
    traced_totals_.memo_misses += work.memo_misses;
  }
  Record(i, total_ms, std::move(work));
}

void Runner::RunWrite(size_t i) {
  const Op& op = workload_.pass[i];
  ++attempted_;
  ldl::LdlSystem* sys = session_->sys.get();
  ldl::Status st;
  double write_ms = 0;
  if (!traced_now_) {
    const auto t0 = Clock::now();
    st = sys->LoadProgram(op.text);
    sys->RefreshStatistics();
    write_ms = MsBetween(t0, Clock::now());
    loop_ms_ += write_ms;
  } else {
    // LoadProgram parses and ingests; parsing the batch once more on its
    // own splits the two. Whichever of the two runs second finds the text
    // and the allocator warm, so the order alternates between writes.
    double parse_ms = 0;
    double load_ms = 0;
    const auto parse = [&] {
      ldl::Span span(&tracer_, "bench.parse_batch", "bench");
      const auto t = Clock::now();
      (void)ldl::ParseProgram(op.text);
      parse_ms = MsBetween(t, Clock::now());
    };
    const auto load = [&] {
      ldl::Span span(&tracer_, "bench.load_program", "bench");
      const auto t = Clock::now();
      st = sys->LoadProgram(op.text);
      load_ms = MsBetween(t, Clock::now());
    };
    if (layers_.writes % 2 == 0) {
      parse();
      load();
    } else {
      load();
      parse();
    }
    const auto t = Clock::now();
    {
      ldl::Span span(&tracer_, "bench.refresh_statistics", "bench");
      sys->RefreshStatistics();
    }
    const double refresh_ms = MsBetween(t, Clock::now());
    write_ms = load_ms + refresh_ms;
    loop_ms_ += parse_ms + write_ms;
    ++layers_.writes;
    layers_.facts += op.facts;
    layers_.parse_batch_ms += parse_ms;
    layers_.ingest_ms += load_ms - parse_ms;
    layers_.refresh_ms += refresh_ms;
    DrainTracer();
  }
  if (!st.ok()) {
    Fail(StrCat("write: ", st.ToString()));
    return;
  }
  Work work;
  work.base_tuples = sys->database()->TotalTuples();
  Record(i, write_ms, std::move(work));
}

int Runner::Run() {
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              args_.workload.c_str(),
              static_cast<unsigned long long>(args_.seed), args_.seconds,
              args_.trace ? 1 : 0);
  std::printf("host %s\n", HostJson(args_).c_str());
  if (!(kOptimized && kNdebug)) {
    std::printf("WARNING: unoptimized or assert-enabled build; timings are "
                "not comparable with Release numbers\n");
  }

  // The closed loop: whole passes, each on a fresh system, until the time
  // budget is spent. Under --trace 1 the odd passes run traced, so the
  // traced and untraced halves issue identical operations; the first pass
  // is always untraced.
  const double budget_ms = args_.seconds * 1000.0;
  const uint64_t min_passes = args_.trace ? 2 : 1;
  for (; passes_ < min_passes || loop_ms_ < budget_ms; ++passes_) {
    NewSession();
    SetTraced(args_.trace && passes_ % 2 == 1);
    for (size_t i = 0; i < workload_.pass.size(); ++i) {
      if (workload_.pass[i].kind == Op::Kind::kWrite) {
        RunWrite(i);
      } else {
        RunQuery(i);
      }
    }
    if (passes_ == 0) {
      base_tuples_ = session_->sys->database()->TotalTuples();
      if (session_->log != nullptr) log_records_ = session_->log->size();
    }
  }
  peak_rss_mb_ = PeakRssMb();
  session_.reset();

  VerifyAgainstOracle();
  if (args_.trace) CheckRegistry();
  CheckDigest();
  Report();
  return 0;
}

/// Checks each answer against the generator's closed-form row count, when
/// it has one, and against a reference: the pass replayed on a mirror
/// system, every answer recomputed with the reference evaluator (naive,
/// textual order, no optimizer). The full relation of each predicate is
/// computed once per data version and each goal's answers selected from
/// it, exactly as kNaive does for a bound goal. Under --trace 1 each goal also runs textual-order semi-naive, the
/// denominator of optimizer.work_ratio.
void Runner::VerifyAgainstOracle() {
  ldl::LdlSystem mirror;
  if (!mirror.LoadProgram(workload_.setup_text).ok()) {
    Fail("oracle set-up failed");
    return;
  }
  std::map<std::string, ldl::Relation> full;       // per predicate
  std::map<std::string, uint64_t> textual_cache;  // per goal
  uint64_t chosen_total = 0;
  uint64_t textual_total = 0;
  for (size_t i = 0; i < workload_.pass.size(); ++i) {
    const Op& op = workload_.pass[i];
    const Slot& slot = slots_[i];
    if (op.kind == Op::Kind::kWrite) {
      if (!mirror.LoadProgram(op.text).ok()) Fail("oracle write failed");
      full.clear();
      textual_cache.clear();
      const uint64_t base = mirror.database()->TotalTuples();
      if (slot.recorded && slot.work.base_tuples != base) {
        for (uint64_t k = 0; k < slot.executions(); ++k) {
          Fail(StrCat("write ", i, " left ", slot.work.base_tuples,
                      " base tuples, reference ", base));
        }
      }
      continue;
    }
    if (!slot.recorded) continue;  // every execution already failed
    ldl::Span span(&archive_, "bench.reference", "bench");
    auto goal = ldl::ParseLiteral(op.text);
    if (!goal.ok()) continue;
    const ldl::PredicateId pred = goal->predicate();
    const std::string pkey = StrCat(pred.name, "/", pred.arity);
    auto it = full.find(pkey);
    if (it == full.end()) {
      std::vector<ldl::Term> vars;
      for (size_t v = 0; v < pred.arity; ++v) {
        vars.push_back(ldl::Term::MakeVariable(StrCat("V", v)));
      }
      auto ref = mirror.EvaluateUnoptimized(
          ldl::Literal::Make(pred.name, std::move(vars)),
          ldl::RecursionMethod::kNaive);
      if (!ref.ok()) {
        Fail(StrCat("oracle ", pkey, ": ", ref.status().ToString()));
        continue;
      }
      it = full.emplace(pkey, std::move(ref->answers)).first;
    }
    const std::string expected =
        ldl::AnswerFingerprint(ldl::SelectMatching(&it->second, *goal));
    const bool closed_form_ok =
        op.expect_rows < 0 ||
        slot.work.rows == static_cast<uint64_t>(op.expect_rows);
    if (expected != slot.work.fingerprint || !closed_form_ok) {
      for (uint64_t k = 0; k < slot.executions(); ++k) {
        Fail(StrCat(op.text, " (op ", i, "): answers ", slot.work.fingerprint,
                    ", reference ", expected, ", closed form ",
                    op.expect_rows));
      }
    }
    if (!args_.trace) continue;
    auto [cached, fresh] = textual_cache.try_emplace(op.text, 0);
    if (fresh) {
      auto textual =
          mirror.EvaluateUnoptimized(*goal, ldl::RecursionMethod::kSemiNaive);
      if (textual.ok()) {
        cached->second = textual->stats.counters.tuples_examined;
      }
    }
    chosen_total += slot.work.examined;
    textual_total += cached->second;
    auto& [c, t] = class_work_[op.cls];
    c += slot.work.examined;
    t += cached->second;
  }
  work_ratio_ = Ratio(static_cast<double>(chosen_total),
                      static_cast<double>(textual_total));
}

/// The engine.* / optimizer.* counters the traced queries exported into the
/// registry must equal the same queries' public result structs.
void Runner::CheckRegistry() {
  const std::pair<const char*, uint64_t> expected[] = {
      {"engine.tuples_examined", traced_totals_.examined},
      {"engine.derivations", traced_totals_.derivations},
      {"engine.inserts", traced_totals_.inserts},
      {"engine.rule_firings", traced_totals_.firings},
      {"engine.fixpoint.iterations", traced_totals_.iterations},
      {"optimizer.cost_evaluations", traced_totals_.cost_evals},
      {"optimizer.subplans_optimized", traced_totals_.subplans},
      {"optimizer.memo_hits", traced_totals_.memo_hits},
      {"optimizer.memo_misses", traced_totals_.memo_misses},
  };
  for (const auto& [name, value] : expected) {
    const uint64_t got = registry_.counter_value(name);
    if (got != value) {
      deterministic_ = false;
      determinism_notes_.push_back(
          StrCat("registry ", name, "=", got, " but results sum to ", value));
    }
  }
}

/// Work digest of the pass: answer fingerprints, work counts and base
/// sizes. Within a run every pass must repeat it (checked in Record); a
/// later run with the same seed and build must reproduce it exactly.
void Runner::CheckDigest() {
  std::string text = StrCat("base_tuples=", base_tuples_,
                            " log_records=", log_records_, "\n");
  for (size_t i = 0; i < slots_.size(); ++i) {
    ldl::StrAppend(&text, i, " ", workload_.pass[i].text.substr(0, 40), " ",
                   slots_[i].work.ToString(), "\n");
  }
  std::printf("work digest %016llx over %zu operations\n",
              static_cast<unsigned long long>(Fnv1a(text)), slots_.size());
  if (args_.out_dir.empty()) return;
  const std::string path = StrCat(args_.out_dir, "/work-", args_.workload,
                                  "-seed", args_.seed, ".txt");
  std::ifstream in(path);
  if (in) {
    std::stringstream previous;
    previous << in.rdbuf();
    if (previous.str() != text) {
      deterministic_ = false;
      determinism_notes_.push_back(
          StrCat("work differs from the earlier run recorded in ", path));
    }
    return;
  }
  std::ofstream(path) << text;
}

/// Best time of each slot in `which`: the lowest sample of its group.
std::vector<double> Runner::Best(const std::vector<size_t>& which,
                                 bool traced) const {
  std::map<size_t, double> group_best;
  for (const Slot& slot : slots_) {
    const std::vector<double>& v = traced ? slot.traced_ms : slot.ms;
    if (v.empty()) continue;
    const double low = *std::min_element(v.begin(), v.end());
    auto [it, fresh] = group_best.try_emplace(slot.group, low);
    if (!fresh) it->second = std::min(it->second, low);
  }
  std::vector<double> best;
  for (size_t i : which) {
    auto it = group_best.find(slots_[i].group);
    if (it != group_best.end()) best.push_back(it->second);
  }
  return best;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void Runner::Report() {
  std::vector<size_t> queries;
  std::vector<size_t> writes;
  std::vector<size_t> all;
  std::map<std::string, std::vector<size_t>> by_class;
  for (size_t i = 0; i < slots_.size(); ++i) {
    const bool write = workload_.pass[i].kind == Op::Kind::kWrite;
    (write ? writes : queries).push_back(i);
    all.push_back(i);
    by_class[workload_.pass[i].cls].push_back(i);
  }
  const std::vector<double> query_best = Best(queries, false);
  const std::vector<double> write_best = Best(writes, false);
  const std::vector<double> all_best = Best(all, false);
  double pass_best_ms = 0;
  for (double ms : all_best) pass_best_ms += ms;

  std::printf("\n%llu passes of %zu operations; latencies below are each "
              "operation's best over the untraced passes (pooled over "
              "repeats of one goal within a pass)\n",
              static_cast<unsigned long long>(passes_), slots_.size());
  std::printf("%-20s %5s %12s %12s %14s\n", "class", "ops", "best_p50_ms",
              "best_p90_ms", "all_p50_ms");
  for (const auto& [cls, which] : by_class) {
    std::vector<double> every;
    for (size_t i : which) {
      every.insert(every.end(), slots_[i].ms.begin(), slots_[i].ms.end());
    }
    const std::vector<double> best = Best(which, false);
    std::printf("%-20s %5zu %12.4f %12.4f %14.4f\n", cls.c_str(),
                which.size(), Percentile(best, 0.5), Percentile(best, 0.9),
                Percentile(every, 0.5));
  }
  std::printf("raw throughput %.4f ops/s (%llu operations in %.3f s of "
              "calls)\n",
              Ratio(static_cast<double>(completed_), loop_ms_ / 1000.0),
              static_cast<unsigned long long>(completed_), loop_ms_ / 1000.0);
  for (const std::string& f : failures_) {
    std::printf("FAILED: %s\n", f.c_str());
  }
  for (const std::string& n : determinism_notes_) {
    std::printf("NONDETERMINISTIC: %s\n", n.c_str());
  }
  const double error_rate =
      Ratio(static_cast<double>(failed_), static_cast<double>(attempted_));

  std::vector<Metric> metrics;
  if (!args_.trace) {
    metrics = {
        {"query_ms_p50", Percentile(query_best, 0.5), "ms"},
        {"query_ms_p90", Percentile(query_best, 0.9), "ms"},
        {"ops_per_s",
         Ratio(static_cast<double>(all_best.size()), pass_best_ms / 1000.0),
         "1/s"},
        {"write_ms_p50", Percentile(write_best, 0.5), "ms"},
        {"setup_s", Percentile(setup_s_, 0.5), "s"},
        {"peak_rss_mb", peak_rss_mb_, "MB"},
    };
    std::printf("set-ups: %zu, error_rate %.6g (%llu of %llu operations "
                "failed)\n",
                setup_s_.size(), error_rate,
                static_cast<unsigned long long>(failed_),
                static_cast<unsigned long long>(attempted_));
  } else {
    Work sum;
    for (size_t i : queries) {
      const Work& k = slots_[i].work;
      sum.examined += k.examined;
      sum.derivations += k.derivations;
      sum.inserts += k.inserts;
      sum.firings += k.firings;
      sum.iterations += k.iterations;
      sum.cost_evals += k.cost_evals;
      sum.subplans += k.subplans;
      sum.memo_hits += k.memo_hits;
      sum.memo_misses += k.memo_misses;
      sum.peak_bytes = std::max(sum.peak_bytes, k.peak_bytes);
    }
    const LayerSums& l = layers_;
    const double q = static_cast<double>(l.queries);
    const double w = static_cast<double>(l.writes);
    const auto count = [](uint64_t n) { return static_cast<double>(n); };
    const double traced_p50 = Percentile(Best(queries, true), 0.5);
    metrics = {
        {"ast.parse_goal_us", Ratio(l.parse_goal_us, q), "us"},
        {"ast.parse_batch_ms", Ratio(l.parse_batch_ms, w), "ms"},
        {"storage.ingest_ms", Ratio(l.ingest_ms, w), "ms"},
        {"storage.ingest_ns_per_fact",
         Ratio(l.ingest_ms * 1e6, static_cast<double>(l.facts)), "ns"},
        {"storage.stats_refresh_ms", Ratio(l.refresh_ms, w), "ms"},
        {"storage.base_tuples", count(base_tuples_), "count"},
        {"optimizer.optimize_ms", Ratio(l.optimize_ms, q), "ms"},
        {"optimizer.ns_per_cost_eval",
         Ratio(l.optimize_ms * 1e6, static_cast<double>(traced_totals_.cost_evals)), "ns"},
        {"optimizer.cost_evaluations", count(sum.cost_evals), "count"},
        {"optimizer.subplans_optimized", count(sum.subplans), "count"},
        {"optimizer.memo_hits", count(sum.memo_hits), "count"},
        {"optimizer.memo_misses", count(sum.memo_misses), "count"},
        {"optimizer.work_ratio", work_ratio_, "ratio"},
        {"engine.execute_ms", Ratio(l.execute_ms, q), "ms"},
        {"engine.ns_per_examined",
         Ratio(l.execute_ms * 1e6, static_cast<double>(traced_totals_.examined)), "ns"},
        {"engine.ns_per_derivation",
         Ratio(l.execute_ms * 1e6,
               static_cast<double>(traced_totals_.derivations)), "ns"},
        {"engine.tuples_examined", count(sum.examined), "count"},
        {"engine.derivations", count(sum.derivations), "count"},
        {"engine.inserts", count(sum.inserts), "count"},
        {"engine.rule_firings", count(sum.firings), "count"},
        {"engine.iterations", count(sum.iterations), "count"},
        {"engine.dedup_ratio",
         Ratio(static_cast<double>(sum.inserts),
               static_cast<double>(sum.derivations)),
         "ratio"},
        {"engine.rewrite_ms", Ratio(l.rewrite_ms, q), "ms"},
        {"ldl.overhead_ms", Ratio(l.overhead_ms, q), "ms"},
        {"obs.peak_bytes", count(sum.peak_bytes), "bytes"},
        {"obs.query_log_records", count(log_records_), "count"},
        {"trace.overhead_pct",
         (Ratio(traced_p50, Percentile(query_best, 0.5)) - 1.0) * 100.0, "%"},
        {"error_rate", error_rate, "ratio"},
    };
    std::printf("\nper-layer split over %llu traced queries and %llu traced "
                "writes (means per operation)\n",
                static_cast<unsigned long long>(l.queries),
                static_cast<unsigned long long>(l.writes));
    std::printf("  query %.4f ms = parse %.4f + optimize %.4f + execute "
                "%.4f + ldl overhead %.4f\n",
                Ratio(l.query_ms, q), Ratio(l.parse_goal_us, q) / 1000.0,
                Ratio(l.optimize_ms, q), Ratio(l.execute_ms, q),
                Ratio(l.overhead_ms, q));
    std::printf("  shares of query time: optimize %.1f%%, execute %.1f%%, "
                "parse + ldl overhead %.1f%%\n",
                100 * Ratio(l.optimize_ms, l.query_ms),
                100 * Ratio(l.execute_ms, l.query_ms),
                100 * Ratio(l.parse_goal_us / 1000.0 + l.overhead_ms,
                            l.query_ms));
    std::printf("  parse + ingest + stats refresh + ldl overhead %.3f ms vs "
                "execute %.3f ms, summed over the traced operations\n",
                l.parse_goal_us / 1000.0 + l.parse_batch_ms + l.ingest_ms +
                    l.refresh_ms + l.overhead_ms,
                l.execute_ms);
    for (const auto& [cls, work] : class_work_) {
      std::printf("  work_ratio %-18s %llu / %llu = %.4f\n", cls.c_str(),
                  static_cast<unsigned long long>(work.first),
                  static_cast<unsigned long long>(work.second),
                  Ratio(static_cast<double>(work.first),
                        static_cast<double>(work.second)));
    }
    if (!args_.out_dir.empty()) {
      const std::string path = StrCat(args_.out_dir, "/trace-", args_.workload,
                                      "-seed", args_.seed, ".json");
      std::ofstream out(path);
      archive_.WriteChromeTrace(out);
      std::printf("  chrome trace: %s (%zu spans, %llu dropped)\n",
                  path.c_str(), archive_.event_count(),
                  static_cast<unsigned long long>(archive_.dropped_events()));
    }
  }

  std::printf("\n");
  for (const Metric& m : metrics) {
    std::printf("%-30s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = StrCat("{\"correct\": ",
                            failed_ == 0 && deterministic_ ? "true" : "false",
                            ", \"attempted\": ", attempted_,
                            ", \"failed\": ", failed_, ", \"metrics\": {");
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    ldl::StrAppend(&json, i > 0 ? ", " : "", "\"", metrics[i].name,
                   "\": {\"value\": ", value, ", \"unit\": \"",
                   metrics[i].unit, "\"}");
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) return 2;
  const std::optional<perfbench::Workload> workload =
      perfbench::MakeWorkload(args.workload, args.seed);
  if (!workload) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  perfbench::Runner runner(args, *workload);
  return runner.Run();
}
