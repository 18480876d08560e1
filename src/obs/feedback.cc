#include "obs/feedback.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "base/json.h"
#include "base/strings.h"
#include "obs/calibration.h"

namespace ldl {

namespace {

/// One catalog entry as exported, keyed by its predicate's parts.
struct RawEntry {
  std::string predicate;
  uint64_t arity = 0;
  std::string adornment;
  CatalogEntry entry;
};

/// The entry fields in export order: the one list that ToJson,
/// RenderStatsJson and MergeJson share.
template <typename Entry, typename F>
void ForEachEntryField(Entry& r, F&& f) {
  f("predicate", r.predicate);
  f("arity", r.arity);
  f("adornment", r.adornment);
  f("card", r.entry.card);
  f("weight", r.entry.weight);
  f("observations", r.entry.observations);
  f("first_epoch", r.entry.first_epoch);
  f("last_epoch", r.entry.last_epoch);
}

void WriteEntryFields(JsonWriter& w, const AdornedPredicate& key,
                      const CatalogEntry& e) {
  const RawEntry r{key.pred.name, key.pred.arity, key.adornment.ToString(), e};
  ForEachEntryField(r, [&w](const char* name, const auto& v) {
    w.Member(name, v);
  });
}

}  // namespace

void StatisticsCatalog::Observe(const PredicateId& pred, const Adornment& adn,
                                double card, uint64_t epoch) {
  if (!std::isfinite(card) || card < 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  const AdornedPredicate key{pred, adn};
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    if (entries_.size() >= options_.max_entries) {
      ++dropped_observations_;
      return;
    }
    it = entries_.emplace(key, CatalogEntry{}).first;
    it->second.first_epoch = epoch;
  }
  CatalogEntry& e = it->second;
  const double aged = options_.decay * e.weight;
  e.card = (aged * e.card + card) / (aged + 1.0);
  e.weight = aged + 1.0;
  e.observations += 1;
  e.last_epoch = epoch;
  ++total_observations_;
}

void StatisticsCatalog::ObserveMeasured(const MeasuredStatistics& measured,
                                        uint64_t epoch) {
  for (const auto& [key, card] : measured.Entries()) {
    Observe(key.pred, key.adornment, card, epoch);
  }
}

bool StatisticsCatalog::Lookup(const PredicateId& pred, const Adornment& adn,
                               CatalogEntry* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(AdornedPredicate{pred, adn});
  if (it == entries_.end()) return false;
  *out = it->second;
  return true;
}

size_t StatisticsCatalog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

uint64_t StatisticsCatalog::total_observations() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_observations_;
}

uint64_t StatisticsCatalog::dropped_observations() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_observations_;
}

std::vector<std::pair<AdornedPredicate, CatalogEntry>>
StatisticsCatalog::Entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {entries_.begin(), entries_.end()};
}

MeasuredStatistics StatisticsCatalog::BlendedOverlay(
    const Statistics& stats) const {
  std::lock_guard<std::mutex> lock(mu_);
  MeasuredStatistics overlay;
  for (const auto& [key, e] : entries_) {
    if (e.weight <= 0) continue;
    if (key.adornment.AllArgsFree() && stats.Has(key.pred)) {
      // A real estimate exists: ramp from it toward the measured truth as
      // evidence accumulates, so one noisy observation cannot hijack a
      // well-grounded catalog cardinality.
      const double est = stats.Get(key.pred).cardinality;
      const double blend = e.weight / (e.weight + options_.blend_weight);
      overlay.Set(key.pred, key.adornment,
                  blend * e.card + (1.0 - blend) * est);
    } else if (e.weight >= options_.min_weight) {
      // Adorned bindings and derived predicates have only the default-stats
      // placeholder to "blend" with; the measurement is strictly better.
      overlay.Set(key.pred, key.adornment, e.card);
    }
  }
  return overlay;
}

std::string StatisticsCatalog::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  JsonWriter w;
  w.BeginObject().Member("version", 1).Member("decay", options_.decay);
  w.Key("entries").BeginArray();
  for (const auto& [key, e] : entries_) {
    w.BeginObject();
    WriteEntryFields(w, key, e);
    w.EndObject();
  }
  w.EndArray().EndObject();
  return w.str();
}

Status StatisticsCatalog::MergeJson(const std::string& text) {
  auto fail = [](std::string_view why) {
    return Status::InvalidArgument(StrCat("stats catalog: ", why));
  };
  Result<JsonValue> doc = ParseJson(text);
  if (!doc.ok()) return fail(doc.status().message());
  if (doc->kind != JsonValue::Kind::kObject) return fail("expected an object");
  if (const JsonValue* version = doc->Find("version")) {
    uint64_t v = 0;
    Status st = version->Get(&v);
    if (!st.ok()) return fail(StrCat("\"version\": ", st.message()));
    if (v > 1) return fail(StrCat("unsupported version ", v));
  }
  // "decay" and unknown keys are informational.
  std::vector<RawEntry> raw;
  if (const JsonValue* entries = doc->Find("entries")) {
    if (entries->kind != JsonValue::Kind::kArray) {
      return fail("\"entries\": expected an array");
    }
    for (const JsonValue& item : entries->items) {
      if (item.kind != JsonValue::Kind::kObject) {
        return fail("entry: expected an object");
      }
      RawEntry& r = raw.emplace_back();
      for (const auto& [key, value] : item.members) {
        Status st;
        ForEachEntryField(r, [&](const char* name, auto& field) {
          if (key == name) st = value.Get(&field);
        });
        if (!st.ok()) return fail(StrCat("\"", key, "\": ", st.message()));
      }
    }
  }

  // Validate fully before mutating: an import either applies or doesn't.
  std::vector<std::pair<AdornedPredicate, CatalogEntry>> parsed;
  parsed.reserve(raw.size());
  for (const RawEntry& r : raw) {
    if (r.predicate.empty()) {
      return Status::InvalidArgument("stats catalog: entry without predicate");
    }
    LDL_ASSIGN_OR_RETURN(Adornment adn, Adornment::FromString(r.adornment));
    if (adn.size() != r.arity) {
      return Status::InvalidArgument(
          StrCat("stats catalog: ", r.predicate, "/", r.arity,
                 ": adornment \"", r.adornment, "\" does not match arity"));
    }
    if (!std::isfinite(r.entry.card) || r.entry.card < 0 ||
        !std::isfinite(r.entry.weight) || r.entry.weight < 0) {
      return Status::InvalidArgument(
          StrCat("stats catalog: ", r.predicate, "/", r.arity,
                 ": non-finite or negative card/weight"));
    }
    parsed.emplace_back(
        AdornedPredicate{PredicateId{r.predicate, r.arity}, adn}, r.entry);
  }

  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [key, imported] : parsed) {
    auto it = entries_.find(key);
    if (it == entries_.end()) {
      if (entries_.size() >= options_.max_entries) {
        ++dropped_observations_;
        continue;
      }
      entries_.emplace(key, imported);
      total_observations_ += imported.observations;
      continue;
    }
    // Merge into an existing stream: the resident weight ages one decay
    // step, then the imported evidence folds in at its own weight — an
    // import into an empty slot is an exact copy.
    CatalogEntry& e = it->second;
    const double aged = options_.decay * e.weight;
    const double total = aged + imported.weight;
    if (total > 0) {
      e.card = (aged * e.card + imported.weight * imported.card) / total;
    }
    e.weight = total;
    e.observations += imported.observations;
    e.first_epoch = std::min(e.first_epoch, imported.first_epoch);
    e.last_epoch = std::max(e.last_epoch, imported.last_epoch);
    total_observations_ += imported.observations;
  }
  return Status::OK();
}

Status StatisticsCatalog::ExportFile(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return Status::InvalidArgument(
        StrCat("cannot write stats catalog: ", path));
  }
  out << ToJson() << "\n";
  return Status::OK();
}

Status StatisticsCatalog::ImportFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound(StrCat("cannot read stats catalog: ", path));
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return MergeJson(buffer.str());
}

void StatisticsCatalog::ExportTo(MetricsRegistry* metrics) const {
  if (metrics == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  metrics->gauge("feedback.catalog_entries")
      ->Set(static_cast<double>(entries_.size()));
  metrics->gauge("feedback.observations")
      ->Set(static_cast<double>(total_observations_));
  metrics->gauge("feedback.dropped_observations")
      ->Set(static_cast<double>(dropped_observations_));
}

size_t DriftDetector::Check(const StatisticsCatalog& catalog,
                            Statistics* stats, MetricsRegistry* metrics) {
  if (stats == nullptr) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  double max_q = 1.0;
  std::vector<DriftEvent> tripped;
  for (const auto& [key, e] : catalog.Entries()) {
    // Only hot all-free entries of predicates with *real* statistics can
    // drift: everything else costs through the default-stats placeholder,
    // which is not an estimate the epoch should churn over.
    if (!key.adornment.AllArgsFree()) continue;
    if (e.observations < options_.hot_observations) continue;
    if (!stats->Has(key.pred)) continue;
    const double est = stats->Get(key.pred).cardinality;
    const double q = QError(est, e.card);
    if (q > max_q) max_q = q;
    if (q < options_.drift_q_threshold) continue;
    auto it = tripped_epoch_.find(key);
    if (it != tripped_epoch_.end() && it->second == stats->epoch()) {
      continue;  // already reported against this statistics generation
    }
    DriftEvent event;
    event.key = key;
    event.measured = e.card;
    event.estimated = est;
    event.q_error = q;
    event.old_epoch = stats->epoch();
    tripped.push_back(event);
  }
  last_max_q_ = max_q;
  if (metrics != nullptr) {
    metrics->gauge("feedback.max_q_error")->Set(max_q);
  }
  if (tripped.empty()) return 0;

  // One epoch bump per detection, however many keys diverged: the epoch
  // numbers statistics generations, not individual divergences.
  const uint64_t new_epoch = stats->epoch() + 1;
  stats->set_epoch(new_epoch);
  for (DriftEvent& event : tripped) {
    event.new_epoch = new_epoch;
    tripped_epoch_[event.key] = new_epoch;
    history_.push_back(event);
  }
  if (history_.size() > kMaxHistory) {
    history_.erase(history_.begin(),
                   history_.begin() +
                       static_cast<std::ptrdiff_t>(history_.size() -
                                                   kMaxHistory));
  }
  drift_events_ += tripped.size();
  if (metrics != nullptr) {
    metrics->counter("feedback.drift_events")
        ->Increment(static_cast<uint64_t>(tripped.size()));
  }
  return tripped.size();
}

uint64_t DriftDetector::drift_events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return drift_events_;
}

double DriftDetector::last_max_q_error() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_max_q_;
}

std::vector<DriftEvent> DriftDetector::history() const {
  std::lock_guard<std::mutex> lock(mu_);
  return history_;
}

std::string RenderStatsJson(const StatisticsCatalog* catalog,
                            const DriftDetector* drift,
                            const Statistics* stats) {
  JsonWriter w;
  w.BeginObject();
  if (stats != nullptr) w.Member("stats_epoch", stats->epoch());
  if (drift != nullptr) {
    w.Member("drift_events", drift->drift_events())
        .Member("last_max_q_error", drift->last_max_q_error());
  }
  if (catalog != nullptr) {
    w.Key("catalog")
        .BeginObject()
        .Member("entries", catalog->size())
        .Member("observations", catalog->total_observations())
        .Member("dropped_observations", catalog->dropped_observations())
        .Member("decay", catalog->options().decay)
        .Member("drift_q_threshold", catalog->options().drift_q_threshold)
        .EndObject();
    w.Key("entries").BeginArray();
    for (const auto& [key, e] : catalog->Entries()) {
      w.BeginObject();
      WriteEntryFields(w, key, e);
      if (stats != nullptr && key.adornment.AllArgsFree() &&
          stats->Has(key.pred)) {
        const double est = stats->Get(key.pred).cardinality;
        w.Member("estimate", est).Member("q_error", QError(est, e.card));
      }
      w.EndObject();
    }
    w.EndArray();
    if (stats != nullptr) {
      // Coverage gaps: predicates the statistics know that no query has
      // measured yet — the operator's "what is still flying blind" list.
      w.Key("unobserved").BeginArray();
      for (const PredicateId& pred : stats->Predicates()) {
        CatalogEntry ignored;
        if (catalog->Lookup(pred, Adornment::AllFree(pred.arity), &ignored)) {
          continue;
        }
        w.BeginObject()
            .Member("predicate", pred.name)
            .Member("arity", pred.arity)
            .Member("cardinality", stats->Get(pred).cardinality)
            .EndObject();
      }
      w.EndArray();
    }
  }
  if (drift != nullptr) {
    w.Key("drift_history").BeginArray();
    for (const DriftEvent& event : drift->history()) {
      w.BeginObject()
          .Member("predicate", event.key.pred.name)
          .Member("arity", event.key.pred.arity)
          .Member("adornment", event.key.adornment.ToString())
          .Member("measured", event.measured)
          .Member("estimated", event.estimated)
          .Member("q_error", event.q_error)
          .Member("old_epoch", event.old_epoch)
          .Member("new_epoch", event.new_epoch)
          .EndObject();
    }
    w.EndArray();
  }
  w.EndObject();
  return w.str();
}

}  // namespace ldl
