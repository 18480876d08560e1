// json_check — validates observability output files.
//
// Usage: json_check [--jsonl | --prom] file [file ...]
//
// Default mode parses each file with the library's strict RFC 8259 reader
// (base/json.h), so CI can assert that the JSON the observability tools
// emit (Chrome traces, metrics dumps, bench results) will load anywhere.
// Nesting deeper than kJsonMaxDepth is rejected.
//
// With --jsonl, each input is JSON Lines (one JSON value per non-empty
// line — the query-log format); every line is validated independently and
// errors carry the line number.
//
// With --prom, each input is Prometheus text exposition format v0.0.4
// (what /metrics serves): `# HELP`/`# TYPE` comments and sample lines
// `name{label="value",...} value [timestamp]`, with the metric/label name
// charsets and label-value escape rules of the format.
//
// Exit status: 0 all files valid, 1 any invalid/unreadable, 2 usage error.

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "base/json.h"

namespace {

// --- Prometheus text exposition (v0.0.4) ---

bool IsPromNameStart(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
         c == ':';
}
bool IsPromNameChar(char c) {
  return IsPromNameStart(c) || (c >= '0' && c <= '9');
}
bool IsPromLabelStart(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
}
bool IsPromLabelChar(char c) {
  return IsPromLabelStart(c) || (c >= '0' && c <= '9');
}

/// Validates one sample line: name[{label="value",...}] value [timestamp].
bool CheckPromSample(const std::string& line, std::string* error) {
  size_t pos = 0;
  if (pos >= line.size() || !IsPromNameStart(line[pos])) {
    *error = "metric name must start with [a-zA-Z_:]";
    return false;
  }
  while (pos < line.size() && IsPromNameChar(line[pos])) ++pos;

  if (pos < line.size() && line[pos] == '{') {
    ++pos;
    while (pos < line.size() && line[pos] != '}') {
      if (!IsPromLabelStart(line[pos])) {
        *error = "label name must start with [a-zA-Z_]";
        return false;
      }
      while (pos < line.size() && IsPromLabelChar(line[pos])) ++pos;
      if (pos >= line.size() || line[pos] != '=') {
        *error = "expected '=' after label name";
        return false;
      }
      ++pos;
      if (pos >= line.size() || line[pos] != '"') {
        *error = "label value must be quoted";
        return false;
      }
      ++pos;
      while (pos < line.size() && line[pos] != '"') {
        if (line[pos] == '\\') {
          ++pos;
          if (pos >= line.size() ||
              (line[pos] != '\\' && line[pos] != '"' && line[pos] != 'n')) {
            *error = "invalid escape in label value (allowed: \\\\ \\\" \\n)";
            return false;
          }
        }
        ++pos;
      }
      if (pos >= line.size()) {
        *error = "unterminated label value";
        return false;
      }
      ++pos;  // closing '"'
      if (pos < line.size() && line[pos] == ',') ++pos;
    }
    if (pos >= line.size()) {
      *error = "unterminated label set";
      return false;
    }
    ++pos;  // '}'
  }

  if (pos >= line.size() || line[pos] != ' ') {
    *error = "expected space before sample value";
    return false;
  }
  while (pos < line.size() && line[pos] == ' ') ++pos;

  // Value: a float, +Inf, -Inf, or NaN.
  size_t value_end = line.find(' ', pos);
  const std::string value = line.substr(
      pos, value_end == std::string::npos ? std::string::npos
                                          : value_end - pos);
  if (value.empty()) {
    *error = "missing sample value";
    return false;
  }
  if (value != "+Inf" && value != "-Inf" && value != "NaN" &&
      value != "Inf") {
    char* end = nullptr;
    std::strtod(value.c_str(), &end);
    if (end == nullptr || *end != '\0' || end == value.c_str()) {
      *error = "sample value is not a number: " + value;
      return false;
    }
  }
  if (value_end == std::string::npos) return true;

  // Optional integer timestamp (milliseconds).
  pos = value_end;
  while (pos < line.size() && line[pos] == ' ') ++pos;
  if (pos >= line.size()) return true;
  if (line[pos] == '-') ++pos;
  if (pos >= line.size() ||
      !std::isdigit(static_cast<unsigned char>(line[pos]))) {
    *error = "timestamp is not an integer";
    return false;
  }
  while (pos < line.size() &&
         std::isdigit(static_cast<unsigned char>(line[pos]))) {
    ++pos;
  }
  if (pos != line.size()) {
    *error = "trailing content after timestamp";
    return false;
  }
  return true;
}

/// Validates one exposition line (sample or comment).
bool CheckPromLine(const std::string& line, std::string* error) {
  if (line.empty()) return true;
  if (line[0] != '#') return CheckPromSample(line, error);

  // "# HELP name text", "# TYPE name kind", or a free-form comment.
  if (line.rfind("# HELP ", 0) != 0 && line.rfind("# TYPE ", 0) != 0) {
    return true;
  }
  const bool is_type = line.rfind("# TYPE ", 0) == 0;
  size_t pos = 7;
  if (pos >= line.size() || !IsPromNameStart(line[pos])) {
    *error = "HELP/TYPE metric name must start with [a-zA-Z_:]";
    return false;
  }
  size_t name_start = pos;
  while (pos < line.size() && IsPromNameChar(line[pos])) ++pos;
  if (pos == name_start) {
    *error = "missing metric name in HELP/TYPE";
    return false;
  }
  if (is_type) {
    if (pos >= line.size() || line[pos] != ' ') {
      *error = "TYPE line missing kind";
      return false;
    }
    const std::string kind = line.substr(pos + 1);
    if (kind != "counter" && kind != "gauge" && kind != "histogram" &&
        kind != "summary" && kind != "untyped" && kind != "info") {
      *error = "unknown TYPE kind: " + kind;
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool jsonl = false;
  bool prom = false;
  int first_file = 1;
  while (first_file < argc && argv[first_file][0] == '-' &&
         argv[first_file][1] != '\0') {
    const std::string arg = argv[first_file];
    if (arg == "--jsonl") {
      jsonl = true;
    } else if (arg == "--prom") {
      prom = true;
    } else {
      std::cerr << "json_check: unknown option " << arg << "\n";
      return 2;
    }
    ++first_file;
  }
  if (first_file >= argc || (jsonl && prom)) {
    std::cerr << "usage: json_check [--jsonl | --prom] file [file ...]\n";
    return 2;
  }
  int failures = 0;
  for (int i = first_file; i < argc; ++i) {
    std::ifstream in(argv[i]);
    if (!in) {
      std::cerr << argv[i] << ": cannot read file\n";
      ++failures;
      continue;
    }
    if (prom) {
      std::string line;
      size_t lineno = 0;
      size_t samples = 0;
      bool bad = false;
      while (std::getline(in, line)) {
        ++lineno;
        std::string error;
        if (!CheckPromLine(line, &error)) {
          std::cerr << argv[i] << ": line " << lineno
                    << ": invalid exposition: " << error << "\n";
          bad = true;
        } else if (!line.empty() && line[0] != '#') {
          ++samples;
        }
      }
      if (bad) {
        ++failures;
      } else if (samples == 0) {
        std::cerr << argv[i] << ": no samples in exposition\n";
        ++failures;
      } else {
        std::cout << argv[i] << ": ok (" << samples << " samples)\n";
      }
      continue;
    }
    if (jsonl) {
      std::string line;
      size_t lineno = 0;
      size_t values = 0;
      bool bad = false;
      while (std::getline(in, line)) {
        ++lineno;
        if (line.empty()) continue;
        const auto parsed = ldl::ParseJson(line);
        if (!parsed.ok()) {
          std::cerr << argv[i] << ": line " << lineno << ": invalid JSON: "
                    << parsed.status().message() << "\n";
          bad = true;
        } else {
          ++values;
        }
      }
      if (bad) {
        ++failures;
      } else {
        std::cout << argv[i] << ": ok (" << values << " values)\n";
      }
      continue;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const auto parsed = ldl::ParseJson(buffer.str());
    if (!parsed.ok()) {
      std::cerr << argv[i] << ": invalid JSON: " << parsed.status().message()
                << "\n";
      ++failures;
    } else {
      std::cout << argv[i] << ": ok\n";
    }
  }
  return failures > 0 ? 1 : 0;
}
