#ifndef LDLOPT_OBS_TIMESERIES_H_
#define LDLOPT_OBS_TIMESERIES_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "base/json.h"
#include "obs/metrics.h"
#include "obs/resource.h"

namespace ldl {

/// One sampled point: seconds since the sampler started, and the value.
struct TimeSeriesPoint {
  double t_seconds = 0;
  double value = 0;
};

/// Fixed-capacity ring of points: pushing past capacity overwrites the
/// oldest point, so a long-running process holds a bounded sliding window
/// per series. Not thread-safe on its own — the sampler serializes access
/// under its mutex.
class TimeSeriesRing {
 public:
  explicit TimeSeriesRing(size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {
    points_.reserve(capacity_);
  }

  void Push(double t_seconds, double value) {
    ++total_pushed_;
    if (points_.size() < capacity_) {
      points_.push_back({t_seconds, value});
      return;
    }
    points_[head_] = {t_seconds, value};
    head_ = (head_ + 1) % capacity_;
  }

  size_t capacity() const { return capacity_; }
  size_t size() const { return points_.size(); }
  /// Total Push calls, including overwritten points — size() saturates at
  /// capacity, this does not, so overflow is observable.
  uint64_t total_pushed() const { return total_pushed_; }

  /// Points oldest-first (unwraps the ring).
  std::vector<TimeSeriesPoint> Snapshot() const {
    std::vector<TimeSeriesPoint> out;
    out.reserve(points_.size());
    for (size_t i = 0; i < points_.size(); ++i) {
      out.push_back(points_[(head_ + i) % points_.size()]);
    }
    return out;
  }

 private:
  size_t capacity_;
  size_t head_ = 0;  ///< index of the oldest point once full
  uint64_t total_pushed_ = 0;
  std::vector<TimeSeriesPoint> points_;
};

struct TimeSeriesOptions {
  std::chrono::milliseconds period{1000};  ///< sampling cadence
  size_t capacity = 256;                   ///< points kept per series
  MetricsRegistry* metrics = nullptr;      ///< counters/gauges/histograms
  /// Optional root accountant (a session- or process-level meter): sampled
  /// as resource.current_bytes / peak_bytes / tuples_examined /
  /// tuples_derived series.
  ResourceAccountant* accountant = nullptr;
};

/// Background sampler: a dedicated thread snapshots the metrics registry
/// (counter values, gauge values, histogram count + p50/p99) and the
/// optional accountant into per-series ring buffers every `period`.
///
/// Thread-safety: instrument reads are relaxed atomics (safe against
/// concurrent Record/Increment on query threads — the TSan CI job runs the
/// stats-server test to pin this), registry enumeration takes the registry
/// lock, and the ring map is guarded by the sampler mutex so /statusz can
/// snapshot while the sampler ticks. Start/Stop are idempotent; Stop joins
/// the thread and is prompt (the sleep is a condition-variable wait).
class TimeSeriesSampler {
 public:
  explicit TimeSeriesSampler(TimeSeriesOptions options)
      : options_(options),
        start_(std::chrono::steady_clock::now()) {}

  ~TimeSeriesSampler() { Stop(); }

  TimeSeriesSampler(const TimeSeriesSampler&) = delete;
  TimeSeriesSampler& operator=(const TimeSeriesSampler&) = delete;

  void Start();
  void Stop();
  bool running() const;

  /// One synchronous sampling pass (the loop body; public for tests and
  /// for callers that want a final sample before rendering).
  void SampleOnce();

  uint64_t samples_taken() const;

  /// Copies of every series, oldest point first.
  std::map<std::string, std::vector<TimeSeriesPoint>> Snapshot() const;

  /// {"period_ms":...,"samples":N,"series":{"name":{"t":[...],"v":[...]}}}
  /// — the sparkline payload /statusz embeds.
  void WriteJson(JsonWriter& w) const;

 private:
  void Loop();
  void Record(const std::string& name, double t, double value);

  const TimeSeriesOptions options_;
  const std::chrono::steady_clock::time_point start_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_requested_ = false;
  bool running_ = false;
  uint64_t samples_ = 0;
  std::map<std::string, TimeSeriesRing> series_;
  std::thread thread_;
};

}  // namespace ldl

#endif  // LDLOPT_OBS_TIMESERIES_H_
