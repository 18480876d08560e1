#ifndef LDLOPT_OBS_QUERY_LOG_H_
#define LDLOPT_OBS_QUERY_LOG_H_

#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

#include "base/json.h"
#include "base/status.h"

namespace ldl {

/// One structured record per executed query — the unit of the JSONL query
/// log. Everything offline analysis needs to reconstruct what the system
/// did and what it cost: identity (program, query text, adornment), the
/// optimizer's decision (method, plan fingerprint, statistics epoch), the
/// resource profile (bytes/tuples/rounds/checks), the outcome (typed), and
/// the wall-time breakdown.
///
/// The record is flat (scalar fields only); ToJson emits one line,
/// FromJson inverts it exactly (ToJson → FromJson → ToJson is identity).
struct QueryLogRecord {
  // --- identity ---
  std::string program;    ///< source .ldl path ("" when built in-process)
  std::string query;      ///< query goal text, e.g. "anc(john, X)?"
  std::string adornment;  ///< binding pattern of the goal, e.g. "bf"

  // --- plan decision ---
  std::string method;            ///< chosen top-level recursion method
  std::string plan_fingerprint;  ///< stable hash of all plan decisions
  uint64_t stats_epoch = 0;      ///< statistics generation the plan used
  bool prune = false;            ///< reachability pruning was enabled

  // --- outcome ---
  std::string outcome = "ok";        ///< "ok" | lowercased StatusCode name
  std::string error;                 ///< status message when outcome != ok
  std::string answer_fingerprint;    ///< order-independent answer hash
  uint64_t answers = 0;              ///< answer tuple count

  // --- limits in force (0 = unlimited) ---
  uint64_t budget_bytes = 0;
  double deadline_ms = 0;

  // --- resource profile ---
  uint64_t peak_bytes = 0;       ///< peak derived-storage bytes
  uint64_t tuples_examined = 0;
  uint64_t tuples_derived = 0;   ///< rows new to the relation written
  uint64_t fixpoint_rounds = 0;
  uint64_t rule_firings = 0;
  uint64_t cancel_checks = 0;    ///< cooperative check-points hit

  // --- wall-time breakdown (milliseconds) ---
  double optimize_ms = 0;
  double execute_ms = 0;
  double total_ms = 0;

  /// One JSON object on one line (no trailing newline). Keys are emitted
  /// in a fixed order, so equal records serialize identically.
  std::string ToJson() const;
  void WriteJson(JsonWriter& w) const;

  /// Parses a line produced by ToJson (a JSON object). Unknown keys are
  /// skipped whatever their value — old readers keep working when fields
  /// are added. A known key whose value does not fit its field (a sign on
  /// a count, a string for a bool) is an error.
  static Result<QueryLogRecord> FromJson(const std::string& line);

  bool operator==(const QueryLogRecord& other) const = default;
};

/// Append-only JSONL sink for QueryLogRecords. Thread-safe; each Append
/// writes and flushes one line, so a crash loses at most the in-flight
/// record. With no file open, records are kept in memory (tests, and the
/// embedded use where the host process owns persistence).
class QueryLog {
 public:
  QueryLog() = default;

  /// Opens `path` for appending (creating it if needed).
  Status Open(const std::string& path);

  bool is_open() const { return out_.is_open(); }

  /// Stamped into records whose `program` field is empty — callers that
  /// load one program and run many queries set this once.
  void set_default_program(std::string path) {
    default_program_ = std::move(path);
  }

  void Append(QueryLogRecord record);

  size_t size() const;

  /// In-memory copies of every record appended through this object (also
  /// kept when writing to a file; the log is an operational artifact, not
  /// a high-volume data plane).
  std::vector<QueryLogRecord> snapshot() const;

  /// Reads every record of a JSONL file written by this class.
  static Result<std::vector<QueryLogRecord>> ReadFile(const std::string& path);

 private:
  mutable std::mutex mu_;
  std::ofstream out_;
  std::string default_program_;
  std::vector<QueryLogRecord> records_;
};

}  // namespace ldl

#endif  // LDLOPT_OBS_QUERY_LOG_H_
