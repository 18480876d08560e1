#ifndef LDLOPT_BENCH_BENCH_UTIL_H_
#define LDLOPT_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "base/json.h"
#include "base/strings.h"
#include "obs/process_metrics.h"

namespace ldl {
namespace bench {

/// "model name" of the first processor in /proc/cpuinfo, or "unknown".
inline std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const size_t value = line.find_first_not_of(" \t", line.find(':') + 1);
    return value == std::string::npos ? "unknown" : line.substr(value);
  }
  return "unknown";
}

/// Process-wide collector mirroring every Banner section and printed Table
/// into machine-readable JSON. Each bench binary calls FlushJson(name) at
/// exit to write BENCH_<name>.json next to the human tables, so runs can be
/// diffed or plotted without scraping stdout.
class JsonSink {
 public:
  static JsonSink& Global() {
    static JsonSink sink;
    return sink;
  }

  void BeginSection(const std::string& id, const std::string& title) {
    sections_.push_back({id, title, {}});
  }

  void AddTable(const std::vector<std::string>& headers,
                const std::vector<std::vector<std::string>>& rows) {
    if (sections_.empty()) BeginSection("", "");
    sections_.back().tables.push_back({headers, rows});
  }

  /// Writes BENCH_<name>.json into $LDL_BENCH_JSON_DIR (default: the
  /// current directory). Set LDL_BENCH_JSON=0 to disable. The "host"
  /// object (core count, CPU model, build type) lets bench_diff flag a
  /// wall-time comparison between different machines or builds.
  void Flush(const std::string& name) const {
    const char* toggle = std::getenv("LDL_BENCH_JSON");
    if (toggle != nullptr && std::string(toggle) == "0") return;
    std::string dir;
    if (const char* env = std::getenv("LDL_BENCH_JSON_DIR")) dir = env;
    std::string path =
        (dir.empty() ? "" : dir + "/") + "BENCH_" + name + ".json";
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
      return;
    }
    JsonWriter w;
    w.BeginObject()
        .Member("bench", name)
        .Key("host")
        .BeginObject()
        .Member("nproc", std::thread::hardware_concurrency())
        .Member("cpu", CpuModel())
        .Member("build_type", CurrentBuildInfo().build_type)
        .EndObject()
        .Key("experiments")
        .BeginArray();
    for (const Section& section : sections_) {
      w.BeginObject()
          .Member("id", section.id)
          .Member("title", section.title)
          .Key("tables")
          .BeginArray();
      for (const TableData& table : section.tables) {
        w.BeginObject().Key("headers");
        WriteStringArray(w, table.headers);
        w.Key("rows").BeginArray();
        for (const auto& row : table.rows) WriteStringArray(w, row);
        w.EndArray().EndObject();
      }
      w.EndArray().EndObject();
    }
    w.EndArray().EndObject();
    out << w.str() << "\n";
    std::printf("wrote %s\n", path.c_str());
  }

 private:
  struct TableData {
    std::vector<std::string> headers;
    std::vector<std::vector<std::string>> rows;
  };
  struct Section {
    std::string id;
    std::string title;
    std::vector<TableData> tables;
  };

  static void WriteStringArray(JsonWriter& w,
                               const std::vector<std::string>& items) {
    w.BeginArray();
    for (const std::string& item : items) w.Value(item);
    w.EndArray();
  }

  std::vector<Section> sections_;
};

/// Fixed-width console table, used to print the paper-style result tables
/// that each bench binary regenerates. Print() also registers the table
/// with the JsonSink so FlushJson exports it.
class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void AddRow(std::vector<std::string> row) { rows_.push_back(std::move(row)); }

  void Print() const {
    JsonSink::Global().AddTable(headers_, rows_);
    std::vector<size_t> widths(headers_.size());
    for (size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
    for (const auto& row : rows_) {
      for (size_t c = 0; c < row.size() && c < widths.size(); ++c) {
        widths[c] = std::max(widths[c], row[c].size());
      }
    }
    auto print_row = [&widths](const std::vector<std::string>& row) {
      std::printf("|");
      for (size_t c = 0; c < widths.size(); ++c) {
        const std::string& cell = c < row.size() ? row[c] : std::string();
        std::printf(" %-*s |", static_cast<int>(widths[c]), cell.c_str());
      }
      std::printf("\n");
    };
    print_row(headers_);
    std::printf("|");
    for (size_t c = 0; c < widths.size(); ++c) {
      std::printf("%s|", std::string(widths[c] + 2, '-').c_str());
    }
    std::printf("\n");
    for (const auto& row : rows_) print_row(row);
    std::printf("\n");
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// printf-style float formatting into std::string.
inline std::string Fmt(double v, const char* fmt = "%.3g") {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}

inline std::string Pct(size_t num, size_t den) {
  if (den == 0) return "-";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.0f%%",
                100.0 * static_cast<double>(num) / static_cast<double>(den));
  return buf;
}

/// Wall-clock stopwatch in milliseconds.
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  double ElapsedMs() const {
    auto end = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(end - start_).count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

inline void Banner(const char* id, const char* title) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", id, title);
  std::printf("==============================================================\n");
  JsonSink::Global().BeginSection(id, title);
}

/// Writes the collected sections/tables as BENCH_<name>.json (see
/// JsonSink::Flush). Call once at the end of main.
inline void FlushJson(const char* name) { JsonSink::Global().Flush(name); }

}  // namespace bench
}  // namespace ldl

#endif  // LDLOPT_BENCH_BENCH_UTIL_H_
