#include "obs/query_log.h"

#include "base/strings.h"

namespace ldl {

namespace {

/// The record's fields in serialization order: the one list that ToJson
/// and FromJson share. `f(key, field)` is called once per field.
template <typename Record, typename F>
void ForEachField(Record& r, F&& f) {
  f("program", r.program);
  f("query", r.query);
  f("adornment", r.adornment);
  f("method", r.method);
  f("plan_fingerprint", r.plan_fingerprint);
  f("stats_epoch", r.stats_epoch);
  f("prune", r.prune);
  f("outcome", r.outcome);
  f("error", r.error);
  f("answer_fingerprint", r.answer_fingerprint);
  f("answers", r.answers);
  f("budget_bytes", r.budget_bytes);
  f("deadline_ms", r.deadline_ms);
  f("peak_bytes", r.peak_bytes);
  f("tuples_examined", r.tuples_examined);
  f("tuples_derived", r.tuples_derived);
  f("fixpoint_rounds", r.fixpoint_rounds);
  f("rule_firings", r.rule_firings);
  f("cancel_checks", r.cancel_checks);
  f("optimize_ms", r.optimize_ms);
  f("execute_ms", r.execute_ms);
  f("total_ms", r.total_ms);
}

}  // namespace

void QueryLogRecord::WriteJson(JsonWriter& w) const {
  w.BeginObject();
  ForEachField(*this, [&w](const char* key, const auto& v) {
    w.Member(key, v);
  });
  w.EndObject();
}

std::string QueryLogRecord::ToJson() const {
  JsonWriter w;
  WriteJson(w);
  return w.str();
}

Result<QueryLogRecord> QueryLogRecord::FromJson(const std::string& line) {
  auto fail = [](std::string_view why) {
    return Status::InvalidArgument(StrCat("query log line: ", why));
  };
  Result<JsonValue> doc = ParseJson(line);
  if (!doc.ok()) return fail(doc.status().message());
  if (doc->kind != JsonValue::Kind::kObject) return fail("expected an object");
  QueryLogRecord rec;
  for (const auto& [key, value] : doc->members) {
    Status st;
    ForEachField(rec, [&](const char* name, auto& field) {
      if (key == name) st = value.Get(&field);
    });
    if (!st.ok()) return fail(StrCat("\"", key, "\": ", st.message()));
  }
  return rec;
}

Status QueryLog::Open(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  out_.open(path, std::ios::out | std::ios::app);
  if (!out_.is_open()) {
    return Status::InvalidArgument(
        StrCat("cannot open query log for append: ", path));
  }
  return Status::OK();
}

void QueryLog::Append(QueryLogRecord record) {
  std::lock_guard<std::mutex> lock(mu_);
  if (record.program.empty()) record.program = default_program_;
  if (out_.is_open()) {
    out_ << record.ToJson() << "\n";
    out_.flush();
  }
  records_.push_back(std::move(record));
}

size_t QueryLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_.size();
}

std::vector<QueryLogRecord> QueryLog::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_;
}

Result<std::vector<QueryLogRecord>> QueryLog::ReadFile(
    const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) {
    return Status::NotFound(StrCat("cannot open query log: ", path));
  }
  std::vector<QueryLogRecord> out;
  std::string line;
  size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (StripWhitespace(line).empty()) continue;
    auto rec = QueryLogRecord::FromJson(line);
    if (!rec.ok()) {
      return Status::InvalidArgument(StrCat(path, ":", lineno, ": ",
                                            rec.status().message()));
    }
    out.push_back(std::move(rec).value());
  }
  return out;
}

}  // namespace ldl
