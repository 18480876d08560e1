#include "obs/metrics.h"

#include <cmath>
#include <sstream>

#include "base/json.h"
#include "base/strings.h"

namespace ldl {

namespace {

/// CAS add for atomic<double> (fetch_add on floating atomics is C++20;
/// this is the portable spelling and compiles to the same loop).
void AtomicAddDouble(std::atomic<double>* a, double v) {
  double cur = a->load(std::memory_order_relaxed);
  while (!a->compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

void AtomicMinDouble(std::atomic<double>* a, double v) {
  double cur = a->load(std::memory_order_relaxed);
  while (v < cur &&
         !a->compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void AtomicMaxDouble(std::atomic<double>* a, double v) {
  double cur = a->load(std::memory_order_relaxed);
  while (v > cur &&
         !a->compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

bool IsCanonicalMetricChar(char c, bool first) {
  if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
      c == ':' || c == '.') {
    return true;
  }
  return !first && c >= '0' && c <= '9';
}

}  // namespace

bool IsCanonicalMetricName(std::string_view name) {
  if (name.empty()) return false;
  for (size_t i = 0; i < name.size(); ++i) {
    if (!IsCanonicalMetricChar(name[i], i == 0)) return false;
  }
  return true;
}

std::string SanitizeMetricName(std::string_view name) {
  std::string out;
  out.reserve(name.size() + 1);
  if (!name.empty() && name[0] >= '0' && name[0] <= '9') out.push_back('_');
  for (char c : name) {
    out.push_back(IsCanonicalMetricChar(c, /*first=*/false) ? c : '_');
  }
  if (out.empty()) out.push_back('_');
  return out;
}

void Histogram::Record(double v) {
  count_.fetch_add(1, std::memory_order_relaxed);
  AtomicAddDouble(&sum_, v);
  AtomicMinDouble(&min_, v);
  AtomicMaxDouble(&max_, v);
  size_t b = 0;
  if (v >= 1) {
    b = static_cast<size_t>(std::log2(v)) + 1;
    if (b >= kBuckets) b = kBuckets - 1;
  }
  buckets_[b].fetch_add(1, std::memory_order_relaxed);
}

double Histogram::percentile(double p) const {
  const uint64_t n = count();
  if (n == 0) return 0;
  const double lo_seen = min_.load(std::memory_order_relaxed);
  const double hi_seen = max_.load(std::memory_order_relaxed);
  if (p <= 0) return lo_seen;
  if (p >= 1) return hi_seen;
  const double target = p * static_cast<double>(n);
  double cum = 0;
  for (size_t b = 0; b < kBuckets; ++b) {
    const uint64_t in_bucket = buckets_[b].load(std::memory_order_relaxed);
    if (in_bucket == 0) continue;
    const double next = cum + static_cast<double>(in_bucket);
    if (target <= next) {
      // Bucket 0 holds [0, 1); bucket b >= 1 holds [2^(b-1), 2^b).
      const double lo = b == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(b) - 1);
      const double hi = std::ldexp(1.0, static_cast<int>(b));
      const double frac = (target - cum) / static_cast<double>(in_bucket);
      const double v = lo + frac * (hi - lo);
      return std::min(std::max(v, lo_seen), hi_seen);
    }
    cum = next;
  }
  return hi_seen;
}

namespace {

/// Hot-path friendly sanitation: canonical names (the overwhelmingly common
/// case — every in-tree site) pass through without allocating; anything
/// else is rewritten into `storage` and viewed from there.
std::string_view CanonicalName(std::string_view name, std::string* storage) {
  if (IsCanonicalMetricName(name)) return name;
  *storage = SanitizeMetricName(name);
  return *storage;
}

}  // namespace

Counter* MetricsRegistry::counter(std::string_view name) {
  std::string sanitized;
  name = CanonicalName(name, &sanitized);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return it->second.get();
}

Gauge* MetricsRegistry::gauge(std::string_view name) {
  std::string sanitized;
  name = CanonicalName(name, &sanitized);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return it->second.get();
}

Histogram* MetricsRegistry::histogram(std::string_view name) {
  std::string sanitized;
  name = CanonicalName(name, &sanitized);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return it->second.get();
}

uint64_t MetricsRegistry::counter_value(std::string_view name) const {
  std::string sanitized;
  name = CanonicalName(name, &sanitized);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second->value();
}

double MetricsRegistry::gauge_value(std::string_view name) const {
  std::string sanitized;
  name = CanonicalName(name, &sanitized);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  return it == gauges_.end() ? 0 : it->second->value();
}

const Histogram* MetricsRegistry::find_histogram(std::string_view name) const {
  std::string sanitized;
  name = CanonicalName(name, &sanitized);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : it->second.get();
}

std::vector<std::pair<std::string, uint64_t>> MetricsRegistry::CounterValues()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, uint64_t>> out;
  out.reserve(counters_.size());
  for (const auto& [name, c] : counters_) out.emplace_back(name, c->value());
  return out;
}

std::vector<std::pair<std::string, double>> MetricsRegistry::GaugeValues()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, double>> out;
  out.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) out.emplace_back(name, g->value());
  return out;
}

std::vector<std::pair<std::string, const Histogram*>>
MetricsRegistry::HistogramEntries() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, const Histogram*>> out;
  out.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) out.emplace_back(name, h.get());
  return out;
}

void MetricsRegistry::WriteJson(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mu_);
  JsonWriter w;
  w.BeginObject().Key("counters").BeginObject();
  for (const auto& [name, c] : counters_) w.Member(name, c->value());
  w.EndObject().Key("gauges").BeginObject();
  for (const auto& [name, g] : gauges_) w.Member(name, g->value());
  w.EndObject().Key("histograms").BeginObject();
  for (const auto& [name, h] : histograms_) {
    w.Key(name)
        .BeginObject()
        .Member("count", h->count())
        .Member("sum", h->sum())
        .Member("min", h->min())
        .Member("max", h->max())
        .Member("p50", h->percentile(0.50))
        .Member("p95", h->percentile(0.95))
        .Member("p99", h->percentile(0.99))
        .EndObject();
  }
  w.EndObject().EndObject();
  os << w.str() << "\n";
}

std::string MetricsRegistry::ToString() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  for (const auto& [name, c] : counters_) {
    os << name << " = " << c->value() << "\n";
  }
  for (const auto& [name, g] : gauges_) {
    os << name << " = " << FormatExactDouble(g->value()) << "\n";
  }
  for (const auto& [name, h] : histograms_) {
    os << name << " = {count=" << h->count()
       << " sum=" << FormatExactDouble(h->sum())
       << " min=" << FormatExactDouble(h->min())
       << " max=" << FormatExactDouble(h->max())
       << " mean=" << FormatExactDouble(h->mean())
       << " p50=" << FormatExactDouble(h->percentile(0.50))
       << " p95=" << FormatExactDouble(h->percentile(0.95))
       << " p99=" << FormatExactDouble(h->percentile(0.99)) << "}\n";
  }
  return os.str();
}

}  // namespace ldl
