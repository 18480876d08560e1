// Tests for the metrics time-series sampler (src/obs/timeseries.h): ring
// overflow/wraparound semantics, the series a sampling pass produces from a
// live registry and accountant, the background thread's lifecycle, and
// sampling concurrent with lock-free instrument updates (the interleaving
// the TSan CI job checks).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <sstream>
#include <thread>

#include "obs/metrics.h"
#include "obs/resource.h"
#include "obs/timeseries.h"

namespace ldl {
namespace {

TEST(TimeSeriesRingTest, FillsToCapacityWithoutWrap) {
  TimeSeriesRing ring(4);
  ring.Push(0.0, 10);
  ring.Push(1.0, 11);
  EXPECT_EQ(ring.size(), 2u);
  EXPECT_EQ(ring.total_pushed(), 2u);
  const auto points = ring.Snapshot();
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0].t_seconds, 0.0);
  EXPECT_EQ(points[0].value, 10);
  EXPECT_EQ(points[1].value, 11);
}

TEST(TimeSeriesRingTest, OverflowDropsOldestKeepsOrder) {
  TimeSeriesRing ring(3);
  for (int i = 0; i < 7; ++i) {
    ring.Push(static_cast<double>(i), 100.0 + i);
  }
  EXPECT_EQ(ring.size(), 3u);          // saturated at capacity
  EXPECT_EQ(ring.total_pushed(), 7u);  // overflow stays observable
  const auto points = ring.Snapshot();
  ASSERT_EQ(points.size(), 3u);
  // The three newest survive, oldest-first.
  EXPECT_EQ(points[0].t_seconds, 4.0);
  EXPECT_EQ(points[1].t_seconds, 5.0);
  EXPECT_EQ(points[2].t_seconds, 6.0);
  EXPECT_EQ(points[2].value, 106.0);
}

TEST(TimeSeriesRingTest, CapacityZeroIsClampedToOne) {
  TimeSeriesRing ring(0);
  EXPECT_EQ(ring.capacity(), 1u);
  ring.Push(0.0, 1);
  ring.Push(1.0, 2);
  const auto points = ring.Snapshot();
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].value, 2);
}

TEST(TimeSeriesSamplerTest, SampleOnceCapturesRegistryAndAccountant) {
  MetricsRegistry metrics;
  metrics.counter("engine.tuples_examined")->Increment(7);
  metrics.gauge("optimizer.memo.size")->Set(2.5);
  metrics.histogram("fixpoint.delta")->Record(4);
  ResourceAccountant accountant;
  accountant.AddBytes(100);
  accountant.AddTuplesExamined(3);

  TimeSeriesOptions options;
  options.metrics = &metrics;
  options.accountant = &accountant;
  TimeSeriesSampler sampler(options);
  sampler.SampleOnce();
  sampler.SampleOnce();

  EXPECT_EQ(sampler.samples_taken(), 2u);
  const auto series = sampler.Snapshot();
  ASSERT_EQ(series.count("engine.tuples_examined"), 1u);
  EXPECT_EQ(series.at("engine.tuples_examined").size(), 2u);
  EXPECT_EQ(series.at("engine.tuples_examined")[0].value, 7.0);
  EXPECT_EQ(series.at("optimizer.memo.size")[0].value, 2.5);
  EXPECT_EQ(series.at("fixpoint.delta.count")[0].value, 1.0);
  ASSERT_EQ(series.count("fixpoint.delta.p50"), 1u);
  ASSERT_EQ(series.count("fixpoint.delta.p99"), 1u);
  EXPECT_EQ(series.at("resource.current_bytes")[0].value, 100.0);
  EXPECT_EQ(series.at("resource.tuples_examined")[0].value, 3.0);
}

TEST(TimeSeriesSamplerTest, SeriesRespectCapacity) {
  MetricsRegistry metrics;
  metrics.counter("c")->Increment();
  TimeSeriesOptions options;
  options.metrics = &metrics;
  options.capacity = 3;
  TimeSeriesSampler sampler(options);
  for (int i = 0; i < 10; ++i) sampler.SampleOnce();
  const auto series = sampler.Snapshot();
  EXPECT_EQ(series.at("c").size(), 3u);
  EXPECT_EQ(sampler.samples_taken(), 10u);
}

TEST(TimeSeriesSamplerTest, BackgroundThreadSamplesAndStops) {
  MetricsRegistry metrics;
  metrics.counter("c")->Increment();
  TimeSeriesOptions options;
  options.metrics = &metrics;
  options.period = std::chrono::milliseconds(5);
  TimeSeriesSampler sampler(options);
  EXPECT_FALSE(sampler.running());
  sampler.Start();
  sampler.Start();  // idempotent
  EXPECT_TRUE(sampler.running());
  // The loop samples immediately, then every 5 ms; two samples arrive well
  // within the deadline even on a loaded machine.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (sampler.samples_taken() < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(sampler.samples_taken(), 2u);
  sampler.Stop();
  sampler.Stop();  // idempotent
  EXPECT_FALSE(sampler.running());
  const uint64_t after_stop = sampler.samples_taken();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(sampler.samples_taken(), after_stop);
}

// The interleaving that matters in production: query threads hammer the
// lock-free instruments while the sampler thread snapshots them. Run under
// TSan in CI; also asserts the sampler sees monotone counter values.
TEST(TimeSeriesSamplerTest, SamplesConcurrentWithInstrumentUpdates) {
  MetricsRegistry metrics;
  Counter* counter = metrics.counter("engine.tuples_examined");
  Histogram* hist = metrics.histogram("fixpoint.delta");
  TimeSeriesOptions options;
  options.metrics = &metrics;
  options.period = std::chrono::milliseconds(1);
  TimeSeriesSampler sampler(options);
  sampler.Start();

  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (int i = 0; i < 20000; ++i) {
      counter->Increment();
      hist->Record(static_cast<double>(i % 100));
    }
    done.store(true);
  });
  while (!done.load()) sampler.SampleOnce();
  writer.join();
  sampler.SampleOnce();
  sampler.Stop();

  const auto series = sampler.Snapshot();
  const auto& points = series.at("engine.tuples_examined");
  ASSERT_FALSE(points.empty());
  for (size_t i = 1; i < points.size(); ++i) {
    EXPECT_LE(points[i - 1].value, points[i].value)
        << "counter series must be monotone";
  }
  EXPECT_EQ(points.back().value, 20000.0);
}

TEST(TimeSeriesSamplerTest, WriteJsonShape) {
  MetricsRegistry metrics;
  metrics.counter("c")->Increment(3);
  TimeSeriesOptions options;
  options.metrics = &metrics;
  options.period = std::chrono::milliseconds(250);
  TimeSeriesSampler sampler(options);
  sampler.SampleOnce();
  JsonWriter w;
  sampler.WriteJson(w);
  const std::string json = w.str();
  EXPECT_NE(json.find("\"period_ms\":250"), std::string::npos);
  EXPECT_NE(json.find("\"samples\":1"), std::string::npos);
  EXPECT_NE(json.find("\"c\":{\"t\":["), std::string::npos);
  EXPECT_NE(json.find("\"v\":[3]"), std::string::npos);
}

}  // namespace
}  // namespace ldl
