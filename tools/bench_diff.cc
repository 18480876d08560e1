// bench_diff — wall-time and work regression gate over the bench JSON
// exports.
//
// Usage: bench_diff [options] BASELINE_DIR CURRENT_DIR
//
//   --threshold PCT      fail when a time-like cell grew by more than PCT
//                        percent over its baseline (default 25).
//   --min-baseline MS    ignore comparisons where both sides are below this
//                        floor (default 5.0 ms) — micro-timings are noise.
//   --update-baselines   copy CURRENT_DIR's BENCH_*.json into BASELINE_DIR
//                        instead of comparing (refreshing the committed
//                        baselines after an intentional perf change).
//
// Each bench binary writes BENCH_<name>.json via bench_util's JsonSink:
// {"bench":..., "experiments":[{"id",...,"tables":[{"headers":[...],
// "rows":[[...]]}]}]}. Time-like columns are those whose header mentions
// "ms" or "time" or starts with "ns/" (a per-unit time such as
// "ns/examined"); rows are matched positionally and must agree on their
// first (label) cell — a reshaped table is reported as skipped, not failed,
// so adding a workload does not masquerade as a regression.
//
// Work columns count deterministic work: tuples ("examined", "derived"),
// cost evaluations ("cost evals", "(evals)", "evals kbz", "evals dp",
// "avg evals", "avg evals (SA)") and memo work ("memo hits", "memo
// entries", "subplans"). They do not depend on the machine, so they must
// equal the baseline exactly, whatever the threshold: a change in work is
// a change in the algorithm, which the baselines record only when
// deliberately refreshed.
//
// Each file also carries a "host" object (nproc, cpu, build_type). When the
// baseline's host differs from the run's, or the baseline has none, a
// warning says so: wall times from different machines or builds are not
// comparable at a tight threshold. The host never affects the exit status.
//
// Exit status: 0 no regressions, 1 regression found, 2 usage/parse error.

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "base/json.h"

namespace {

namespace fs = std::filesystem;

using ldl::JsonValue;

// ---------------------------------------------------------------------------
// Comparison.

struct Options {
  double threshold_pct = 25.0;
  double min_baseline_ms = 5.0;
  bool update_baselines = false;
  std::string baseline_dir;
  std::string current_dir;
};

int Usage() {
  std::cerr << "usage: bench_diff [--threshold PCT] [--min-baseline MS] "
               "[--update-baselines] BASELINE_DIR CURRENT_DIR\n";
  return 2;
}

bool ReadFile(const fs::path& path, std::string* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

std::string Lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

bool TimeLikeHeader(const std::string& header) {
  std::string h = Lower(header);
  return h.find("ms") != std::string::npos ||
         h.find("time") != std::string::npos || h.rfind("ns/", 0) == 0;
}

bool WorkHeader(const std::string& header) {
  static const char* const kWork[] = {
      "examined",  "derived",   "cost evals", "(evals)",
      "evals kbz", "evals dp",  "avg evals",  "avg evals (SA)",
      "memo hits", "memo entries", "subplans"};
  return std::find(std::begin(kWork), std::end(kWork), header) !=
         std::end(kWork);
}

bool ParseCell(const std::string& cell, double* out) {
  if (cell.empty() || cell == "-") return false;
  char* end = nullptr;
  *out = std::strtod(cell.c_str(), &end);
  return end != cell.c_str();
}

/// headers + rows of one table, flattened out of the DOM; empty headers
/// means the table node was malformed.
struct FlatTable {
  std::string id;  ///< "<experiment id>/<table index>"
  std::vector<std::string> headers;
  std::vector<std::vector<std::string>> rows;
};

std::vector<FlatTable> ExtractTables(const JsonValue& root) {
  std::vector<FlatTable> tables;
  const JsonValue* experiments = root.Find("experiments");
  if (experiments == nullptr ||
      experiments->kind != JsonValue::Kind::kArray) {
    return tables;
  }
  for (const JsonValue& exp : experiments->items) {
    const JsonValue* id = exp.Find("id");
    const JsonValue* exp_tables = exp.Find("tables");
    if (exp_tables == nullptr ||
        exp_tables->kind != JsonValue::Kind::kArray) {
      continue;
    }
    for (size_t t = 0; t < exp_tables->items.size(); ++t) {
      const JsonValue& table = exp_tables->items[t];
      FlatTable flat;
      flat.id = (id != nullptr ? id->text : "") + "/" + std::to_string(t);
      const JsonValue* headers = table.Find("headers");
      const JsonValue* rows = table.Find("rows");
      if (headers != nullptr) {
        for (const JsonValue& h : headers->items) flat.headers.push_back(h.text);
      }
      if (rows != nullptr) {
        for (const JsonValue& row : rows->items) {
          std::vector<std::string> cells;
          // A number cell keeps its source text, like a string cell.
          for (const JsonValue& cell : row.items) cells.push_back(cell.text);
          flat.rows.push_back(std::move(cells));
        }
      }
      tables.push_back(std::move(flat));
    }
  }
  return tables;
}

/// "nproc=4 cpu=... build=Release" from a bench file's host record, or ""
/// when it has none.
std::string HostSummary(const JsonValue& root) {
  const JsonValue* host = root.Find("host");
  if (host == nullptr || host->kind != JsonValue::Kind::kObject) return "";
  std::ostringstream os;
  const JsonValue* nproc = host->Find("nproc");
  const JsonValue* cpu = host->Find("cpu");
  const JsonValue* build = host->Find("build_type");
  os << "nproc=" << (nproc != nullptr ? nproc->text : "0")
     << " cpu=\"" << (cpu != nullptr ? cpu->text : "") << "\" build="
     << (build != nullptr ? build->text : "");
  return os.str();
}

/// Warns (without gating) when the baseline was taken on another host.
void WarnOnHostMismatch(const std::string& name, const JsonValue& baseline,
                        const JsonValue& current) {
  const std::string base_host = HostSummary(baseline);
  const std::string cur_host = HostSummary(current);
  if (base_host == cur_host) return;
  std::cout << "warning: " << name << ": baseline host ["
            << (base_host.empty() ? "not recorded" : base_host)
            << "] differs from this run's ["
            << (cur_host.empty() ? "not recorded" : cur_host)
            << "]; wall times compare across machines\n";
}

/// Cells compared so far, by kind.
struct Checked {
  size_t time = 0;
  size_t work = 0;
};

/// Compares one bench file pair; returns the number of regressions and
/// prints each. `checked` counts the comparisons actually made.
size_t DiffFile(const std::string& name, const JsonValue& baseline,
                const JsonValue& current, const Options& options,
                Checked* checked) {
  std::vector<FlatTable> base_tables = ExtractTables(baseline);
  std::vector<FlatTable> cur_tables = ExtractTables(current);
  size_t regressions = 0;

  for (const FlatTable& cur : cur_tables) {
    const FlatTable* base = nullptr;
    bool id_seen = false;
    for (const FlatTable& b : base_tables) {
      if (b.id != cur.id) continue;
      id_seen = true;
      if (b.headers == cur.headers) {
        base = &b;
        break;
      }
    }
    if (base == nullptr) {
      // A table the baseline has never seen is expected when a benchmark
      // grows a new experiment — the next --update-baselines records it.
      // Same id with different headers means the table was reshaped; both
      // are skips, not failures.
      std::cout << name << " " << cur.id
                << (id_seen ? ": baseline table has different headers "
                              "(reshaped), skipped\n"
                            : ": new table, skipped\n");
      continue;
    }
    for (size_t c = 0; c < cur.headers.size(); ++c) {
      const bool work = WorkHeader(cur.headers[c]);
      if (!work && !TimeLikeHeader(cur.headers[c])) continue;
      size_t rows = std::min(cur.rows.size(), base->rows.size());
      for (size_t r = 0; r < rows; ++r) {
        const auto& cur_row = cur.rows[r];
        const auto& base_row = base->rows[r];
        // Positional match must agree on the label cell; a reshaped table
        // is a skip, not a regression.
        if (cur_row.empty() || base_row.empty() ||
            cur_row[0] != base_row[0]) {
          continue;
        }
        double cur_v = 0, base_v = 0;
        if (c >= cur_row.size() || c >= base_row.size() ||
            !ParseCell(cur_row[c], &cur_v) ||
            !ParseCell(base_row[c], &base_v)) {
          continue;
        }
        if (work) {
          ++checked->work;
          if (cur_v != base_v) {
            ++regressions;
            std::printf("%s %s [%s] row \"%s\": %s -> %s (work must "
                        "match the baseline exactly)\n",
                        name.c_str(), cur.id.c_str(), cur.headers[c].c_str(),
                        cur_row[0].c_str(), base_row[c].c_str(),
                        cur_row[c].c_str());
          }
          continue;
        }
        ++checked->time;
        if (std::max(cur_v, base_v) < options.min_baseline_ms) continue;
        double limit = base_v * (1.0 + options.threshold_pct / 100.0);
        if (cur_v > limit) {
          ++regressions;
          double pct = base_v > 0 ? (cur_v / base_v - 1.0) * 100.0 : 0;
          std::printf(
              "%s %s [%s] row \"%s\": %.3f -> %.3f ms (+%.0f%% > %.0f%%)\n",
              name.c_str(), cur.id.c_str(), cur.headers[c].c_str(),
              cur_row[0].c_str(), base_v, cur_v, pct, options.threshold_pct);
        }
      }
    }
  }
  return regressions;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--threshold" && i + 1 < argc) {
      options.threshold_pct = std::atof(argv[++i]);
    } else if (arg == "--min-baseline" && i + 1 < argc) {
      options.min_baseline_ms = std::atof(argv[++i]);
    } else if (arg == "--update-baselines") {
      options.update_baselines = true;
    } else if (arg == "--help" || arg == "-h") {
      Usage();
      return 0;
    } else if (arg.size() > 1 && arg[0] == '-') {
      std::cerr << "bench_diff: unknown option " << arg << "\n";
      return Usage();
    } else {
      positional.push_back(arg);
    }
  }
  if (positional.size() != 2) return Usage();
  options.baseline_dir = positional[0];
  options.current_dir = positional[1];

  std::error_code ec;
  std::vector<fs::path> current_files;
  for (const auto& entry :
       fs::directory_iterator(options.current_dir, ec)) {
    const std::string file = entry.path().filename().string();
    if (file.rfind("BENCH_", 0) == 0 &&
        file.size() > 5 && file.substr(file.size() - 5) == ".json") {
      current_files.push_back(entry.path());
    }
  }
  if (ec) {
    std::cerr << "bench_diff: cannot read " << options.current_dir << ": "
              << ec.message() << "\n";
    return 2;
  }
  std::sort(current_files.begin(), current_files.end());
  if (current_files.empty()) {
    std::cerr << "bench_diff: no BENCH_*.json in " << options.current_dir
              << "\n";
    return 2;
  }

  if (options.update_baselines) {
    fs::create_directories(options.baseline_dir, ec);
    for (const fs::path& src : current_files) {
      fs::path dst = fs::path(options.baseline_dir) / src.filename();
      fs::copy_file(src, dst, fs::copy_options::overwrite_existing, ec);
      if (ec) {
        std::cerr << "bench_diff: cannot copy " << src << " -> " << dst
                  << ": " << ec.message() << "\n";
        return 2;
      }
      std::cout << "updated " << dst.string() << "\n";
    }
    return 0;
  }

  size_t regressions = 0;
  Checked checked;
  for (const fs::path& cur_path : current_files) {
    const std::string name = cur_path.filename().string();
    fs::path base_path = fs::path(options.baseline_dir) / name;
    std::string base_text, cur_text;
    if (!ReadFile(base_path, &base_text)) {
      std::cout << name << ": no baseline (run with --update-baselines to "
                           "record one), skipped\n";
      continue;
    }
    if (!ReadFile(cur_path, &cur_text)) {
      std::cerr << "bench_diff: cannot read " << cur_path << "\n";
      return 2;
    }
    const auto baseline = ldl::ParseJson(base_text);
    const auto current = ldl::ParseJson(cur_text);
    for (const auto* parsed : {&baseline, &current}) {
      if (!parsed->ok()) {
        std::cerr << "bench_diff: "
                  << (parsed == &baseline ? base_path : cur_path).string()
                  << ": " << parsed->status().message() << "\n";
        return 2;
      }
    }
    WarnOnHostMismatch(name, *baseline, *current);
    regressions += DiffFile(name, *baseline, *current, options, &checked);
  }

  std::printf("bench_diff: %zu time cells and %zu work cells checked, %zu "
              "regression%s (threshold %.0f%%, floor %.1f ms, work exact)\n",
              checked.time, checked.work, regressions,
              regressions == 1 ? "" : "s", options.threshold_pct,
              options.min_baseline_ms);
  return regressions > 0 ? 1 : 0;
}
