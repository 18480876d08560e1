#ifndef LDLOPT_OBS_METRICS_H_
#define LDLOPT_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ldl {

/// True when `name` is already in the registry's canonical form:
/// `[a-zA-Z_:.][a-zA-Z0-9_:.]*` — the Prometheus identifier grammar plus
/// '.', the separator this codebase uses for metric namespaces
/// ("engine.tuples_examined"). The Prometheus encoder maps '.' to '_' at
/// exposition time.
bool IsCanonicalMetricName(std::string_view name);

/// Canonicalizes an arbitrary string into a valid metric name: every
/// character outside the canonical set becomes '_', a leading digit gets a
/// '_' prefix, and an empty name becomes "_". Idempotent; the identity on
/// names that are already canonical.
std::string SanitizeMetricName(std::string_view name);

/// Monotonically increasing count (tuples examined, memo hits, rounds...).
class Counter {
 public:
  void Increment(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-written value (current delta size, chosen fanout...).
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0};
};

/// Streaming summary of an observed distribution: count/sum/min/max plus
/// power-of-two buckets, enough to see the shape of per-round delta sizes
/// or per-call optimization times without storing samples.
///
/// Record() is lock-free: it sits on per-round paths of every query, while
/// the TimeSeriesSampler thread and stats-server scrapes read the same
/// histogram, and queries on different threads may share one registry. A
/// mutex here would make each of them wait on the others. Each field is
/// an independent atomic updated with CAS loops, so concurrent readers see
/// each field exactly but the fields only mutually consistent once writers
/// quiesce — the right trade for monitoring data.
class Histogram {
 public:
  static constexpr size_t kBuckets = 32;  ///< bucket i holds v in [2^i-1, 2^i)

  void Record(double v);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double min() const {
    return count() == 0 ? 0 : min_.load(std::memory_order_relaxed);
  }
  double max() const {
    return count() == 0 ? 0 : max_.load(std::memory_order_relaxed);
  }
  double mean() const {
    uint64_t n = count();
    return n == 0 ? 0 : sum() / static_cast<double>(n);
  }
  uint64_t bucket(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  /// Interpolated percentile estimate, `p` in [0, 1]: walks the log2
  /// buckets to the one containing rank p*count and interpolates linearly
  /// inside it (bucket contents assumed uniform). Clamped to the observed
  /// [min, max], so p=0 is exact min and p=1 exact max; intermediate values
  /// are within a factor of 2 of the true order statistic.
  double percentile(double p) const;

 private:
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0};
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
  std::atomic<uint64_t> buckets_[kBuckets] = {};
};

/// Named registry of counters/gauges/histograms. Lookup takes a lock;
/// instruments themselves are lock-free (counters/gauges) so hot paths can
/// cache the returned pointer, which stays valid for the registry's
/// lifetime.
///
/// Names are sanitized on every create/lookup path (SanitizeMetricName), so
/// an arbitrary caller-supplied string can never produce a metric that the
/// JSON dump or the Prometheus exposition would misrender: "delta size"
/// and "delta_size" are the same instrument, and every rendered surface
/// shows the canonical spelling.
class MetricsRegistry {
 public:
  Counter* counter(std::string_view name);
  Gauge* gauge(std::string_view name);
  Histogram* histogram(std::string_view name);

  /// Value of a counter, 0 when absent (test/report convenience).
  uint64_t counter_value(std::string_view name) const;
  /// Value of a gauge, 0 when absent.
  double gauge_value(std::string_view name) const;
  /// The histogram, or nullptr when absent.
  const Histogram* find_histogram(std::string_view name) const;

  /// Point-in-time copies for encoders and samplers, sorted by name.
  /// Histogram pointers stay valid for the registry's lifetime and are safe
  /// to read concurrently with Record (all fields are atomics).
  std::vector<std::pair<std::string, uint64_t>> CounterValues() const;
  std::vector<std::pair<std::string, double>> GaugeValues() const;
  std::vector<std::pair<std::string, const Histogram*>> HistogramEntries()
      const;

  /// Flat JSON object: {"counters":{...},"gauges":{...},"histograms":{...}}
  /// and a newline.
  void WriteJson(std::ostream& os) const;

  /// Human-readable dump (one metric per line, sorted by name).
  std::string ToString() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace ldl

#endif  // LDLOPT_OBS_METRICS_H_
