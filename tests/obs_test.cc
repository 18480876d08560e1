// Tests for the observability layer (src/obs/): span lifecycle and nesting,
// the zero-allocation disabled path, the metrics registry, and the Chrome
// trace / metrics JSON exports.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <limits>
#include <new>
#include <sstream>
#include <thread>

#include "base/json.h"
#include "obs/context.h"
#include "obs/metrics.h"
#include "obs/search_trace.h"
#include "obs/trace.h"

// Global allocation counter for the zero-allocation tests. Counting is
// process-wide, so the measured block must not run concurrently with other
// allocating threads (true under gtest's single-threaded runner).
static std::atomic<uint64_t> g_allocations{0};

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace ldl {
namespace {

TEST(TracerTest, RecordsSpanWithDuration) {
  Tracer tracer;
  {
    Span span(&tracer, "work", "test");
    span.AddArg("k", "v");
  }
  ASSERT_EQ(tracer.event_count(), 1u);
  TraceEvent event = tracer.snapshot()[0];
  EXPECT_EQ(event.name, "work");
  EXPECT_EQ(event.category, "test");
  ASSERT_EQ(event.args.size(), 1u);
  EXPECT_EQ(event.args[0].first, "k");
  EXPECT_EQ(event.args[0].second, "v");
  EXPECT_GE(event.thread_id, 1u);
}

TEST(TracerTest, NestedSpansAreContainedInParentRange) {
  Tracer tracer;
  {
    Span outer(&tracer, "outer");
    {
      Span inner(&tracer, "inner");
      // A little real work so durations are nonzero-ish but tiny.
      volatile int sink = 0;
      for (int i = 0; i < 1000; ++i) sink += i;
    }
  }
  ASSERT_EQ(tracer.event_count(), 2u);
  auto events = tracer.snapshot();
  // Inner finishes (and records) first.
  const TraceEvent& inner = events[0];
  const TraceEvent& outer = events[1];
  EXPECT_EQ(inner.name, "inner");
  EXPECT_EQ(outer.name, "outer");
  EXPECT_GE(inner.start_us, outer.start_us);
  EXPECT_LE(inner.start_us + inner.duration_us,
            outer.start_us + outer.duration_us);
  EXPECT_LE(inner.duration_us, outer.duration_us);
}

TEST(TracerTest, TimingIsMonotonic) {
  Tracer tracer;
  uint64_t last = tracer.NowMicros();
  for (int i = 0; i < 100; ++i) {
    uint64_t now = tracer.NowMicros();
    EXPECT_GE(now, last);
    last = now;
  }
}

TEST(TracerTest, FinishEndsSpanEarly) {
  Tracer tracer;
  Span span(&tracer, "early");
  span.Finish();
  EXPECT_FALSE(span.active());
  EXPECT_EQ(tracer.event_count(), 1u);
  span.Finish();  // idempotent
  EXPECT_EQ(tracer.event_count(), 1u);
}

TEST(TracerTest, MoveTransfersOwnership) {
  Tracer tracer;
  {
    Span a(&tracer, "moved");
    Span b = std::move(a);
    EXPECT_FALSE(a.active());
    EXPECT_TRUE(b.active());
  }
  // Exactly one event despite two Span objects.
  EXPECT_EQ(tracer.event_count(), 1u);
}

TEST(TracerTest, DisabledTracerRecordsNothing) {
  Tracer tracer;
  tracer.set_enabled(false);
  {
    Span span(&tracer, "skipped");
    EXPECT_FALSE(span.active());
  }
  EXPECT_EQ(tracer.event_count(), 0u);
}

TEST(TracerTest, DisabledPathDoesNotAllocate) {
  Tracer tracer;
  tracer.set_enabled(false);
  TraceContext null_context;  // no tracer, no metrics
  TraceContext disabled{&tracer, nullptr};

  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 100; ++i) {
    Span a(nullptr, "null-tracer");
    a.AddArg("key", "value");
    Span b(&tracer, "disabled-tracer");
    b.AddArg("key", "value");
    b.Finish();
    Span c = null_context.StartSpan("context");
    null_context.Count("counter");
    null_context.Observe("histogram", 1.0);
    null_context.Set("gauge", 1.0);
    Span d = disabled.StartSpan("disabled-context");
  }
  const uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u);
}

TEST(TracerTest, ChromeTraceJsonShape) {
  Tracer tracer;
  {
    Span span(&tracer, "na\"me", "cat");
    span.AddArg("detail", "line1\nline2");
  }
  std::ostringstream os;
  tracer.WriteChromeTrace(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("na\\\"me"), std::string::npos);   // escaped quote
  EXPECT_NE(json.find("line1\\nline2"), std::string::npos);  // escaped \n
  EXPECT_EQ(json.find("line1\nline2"), std::string::npos);  // no raw newline
}

TEST(TracerTest, SpansFromMultipleThreadsGetDistinctIds) {
  Tracer tracer;
  std::thread t1([&] { Span span(&tracer, "t1"); });
  std::thread t2([&] { Span span(&tracer, "t2"); });
  t1.join();
  t2.join();
  auto events = tracer.snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_NE(events[0].thread_id, events[1].thread_id);
}

TEST(MetricsTest, CounterGaugeHistogram) {
  MetricsRegistry registry;
  registry.counter("c")->Increment();
  registry.counter("c")->Increment(4);
  EXPECT_EQ(registry.counter_value("c"), 5u);
  EXPECT_EQ(registry.counter_value("missing"), 0u);

  registry.gauge("g")->Set(2.5);
  EXPECT_DOUBLE_EQ(registry.gauge_value("g"), 2.5);

  Histogram* h = registry.histogram("h");
  h->Record(1);
  h->Record(3);
  h->Record(8);
  EXPECT_EQ(h->count(), 3u);
  EXPECT_DOUBLE_EQ(h->sum(), 12);
  EXPECT_DOUBLE_EQ(h->min(), 1);
  EXPECT_DOUBLE_EQ(h->max(), 8);
  EXPECT_DOUBLE_EQ(h->mean(), 4);
  EXPECT_EQ(registry.find_histogram("h"), h);
  EXPECT_EQ(registry.find_histogram("missing"), nullptr);
}

TEST(MetricsTest, HistogramPercentileBounds) {
  Histogram h;
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 0);  // empty
  for (int v = 1; v <= 100; ++v) h.Record(v);
  EXPECT_DOUBLE_EQ(h.percentile(0), 1);
  EXPECT_DOUBLE_EQ(h.percentile(1), 100);
  // Interpolation inside a log2 bucket is within a factor of 2 of the true
  // order statistic, and percentiles are monotone in p.
  double p50 = h.percentile(0.5);
  EXPECT_GE(p50, 25);
  EXPECT_LE(p50, 100);
  EXPECT_LE(h.percentile(0.25), p50);
  EXPECT_LE(p50, h.percentile(0.95));
}

TEST(MetricsTest, HistogramPercentileSingleValueClampsToObserved) {
  Histogram h;
  for (int i = 0; i < 10; ++i) h.Record(7);
  // The containing bucket is [4, 8) but the observed range is [7, 7]: every
  // percentile must clamp to the one real value.
  for (double p : {0.0, 0.25, 0.5, 0.95, 1.0}) {
    EXPECT_DOUBLE_EQ(h.percentile(p), 7) << "p=" << p;
  }
}

TEST(MetricsTest, HistogramJsonAndTextIncludePercentiles) {
  MetricsRegistry registry;
  registry.histogram("delta")->Record(4);
  std::ostringstream os;
  registry.WriteJson(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
  EXPECT_NE(json.find("\"p95\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
  const std::string text = registry.ToString();
  EXPECT_NE(text.find("p50="), std::string::npos);
  EXPECT_NE(text.find("p95="), std::string::npos);
}

TEST(MetricsTest, RegistryReturnsStablePointers) {
  MetricsRegistry registry;
  Counter* c = registry.counter("stable");
  for (int i = 0; i < 100; ++i) {
    registry.counter("other" + std::to_string(i));
  }
  EXPECT_EQ(registry.counter("stable"), c);
}

TEST(MetricsTest, WriteJsonShape) {
  MetricsRegistry registry;
  registry.counter("engine.tuples")->Increment(7);
  registry.gauge("fanout")->Set(1.5);
  registry.histogram("delta")->Record(4);
  std::ostringstream os;
  registry.WriteJson(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"engine.tuples\":7"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":1"), std::string::npos);
}

// --metrics-json and Prometheus spell a gauge the same exact way; the
// JSON dump used to print 1792300000.25 as 1.7923e+09.
TEST(MetricsTest, WriteJsonGaugeParsesBackExactly) {
  MetricsRegistry registry;
  registry.gauge("process.start_unix_seconds")->Set(1792300000.25);
  registry.gauge("process.resident_bytes")->Set(93931640);
  std::ostringstream os;
  registry.WriteJson(os);
  auto doc = ParseJson(os.str());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const JsonValue* gauges = doc->Find("gauges");
  ASSERT_NE(gauges, nullptr);
  double start = 0, rss = 0;
  ASSERT_TRUE(gauges->Find("process.start_unix_seconds")->Get(&start).ok());
  ASSERT_TRUE(gauges->Find("process.resident_bytes")->Get(&rss).ok());
  EXPECT_EQ(start, 1792300000.25);
  EXPECT_EQ(rss, 93931640);
}

// The text dump (ldl_profile --metrics) spells gauges and histogram
// statistics exactly too; it used to print 1792300000.25 as 1.7923e+09.
TEST(MetricsTest, TextDumpPrintsGaugesExactly) {
  MetricsRegistry registry;
  registry.gauge("process.start_unix_seconds")->Set(1792300000.25);
  registry.histogram("wall_ms")->Record(1792300000.25);
  const std::string text = registry.ToString();
  EXPECT_NE(text.find("process.start_unix_seconds = 1792300000.25\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("sum=1792300000.25 min=1792300000.25 "
                      "max=1792300000.25 mean=1792300000.25"),
            std::string::npos)
      << text;
}

TEST(ContextTest, ActiveAndInert) {
  TraceContext inert;
  EXPECT_FALSE(inert.active());

  Tracer tracer;
  MetricsRegistry metrics;
  TraceContext context{&tracer, &metrics};
  EXPECT_TRUE(context.active());
  {
    Span span = context.StartSpan("spanned", "test");
    EXPECT_TRUE(span.active());
  }
  context.Count("hits", 2);
  context.Observe("sizes", 10);
  context.Set("level", 3);
  EXPECT_EQ(tracer.event_count(), 1u);
  EXPECT_EQ(metrics.counter_value("hits"), 2u);
  EXPECT_EQ(metrics.find_histogram("sizes")->count(), 1u);
  EXPECT_DOUBLE_EQ(metrics.gauge_value("level"), 3);
}

TEST(ContextTest, ExecutionProfileLookup) {
  ExecutionProfile profile;
  int node = 0;
  EXPECT_EQ(profile.Find(&node), nullptr);
  profile.nodes[&node].out_rows = 9;
  ASSERT_NE(profile.Find(&node), nullptr);
  EXPECT_EQ(profile.Find(&node)->out_rows, 9u);
}

TEST(SearchTracerTest, RecordsCandidatesUnderScopes) {
  SearchTracer tracer;
  uint32_t root = tracer.BeginScope("p anc.bf/2");
  tracer.RecordCandidate({1, 0}, 12.5, CandidateDisposition::kKept,
                         "textual order");
  {
    SearchScope inner(&tracer, "rule 0 [bf]");
    tracer.RecordCandidateStep({1}, 2, 99.0,
                               CandidateDisposition::kPrunedBound);
  }
  ASSERT_EQ(tracer.candidates().size(), 2u);
  const SearchCandidate& kept = tracer.candidates()[0];
  EXPECT_EQ(kept.scope, root);
  EXPECT_EQ(tracer.OrderOf(kept), (std::vector<size_t>{1, 0}));
  EXPECT_EQ(tracer.DetailOf(kept), "textual order");
  const SearchCandidate& pruned = tracer.candidates()[1];
  EXPECT_EQ(tracer.OrderOf(pruned), (std::vector<size_t>{1, 2}));
  EXPECT_EQ(tracer.scopes()[pruned.scope].label, "rule 0 [bf]");
  EXPECT_EQ(tracer.scopes()[pruned.scope].parent,
            static_cast<int32_t>(root));
  EXPECT_EQ(tracer.CountDisposition(CandidateDisposition::kKept), 1u);
  EXPECT_EQ(tracer.CountDisposition(CandidateDisposition::kPrunedBound), 1u);
}

TEST(SearchTracerTest, MemoLatticeInternsAndResolvesHits) {
  SearchTracer tracer;
  uint32_t anc = tracer.InternMemoNode("anc.bf/2");
  uint32_t par = tracer.InternMemoNode("par.bf/2");
  EXPECT_EQ(tracer.InternMemoNode("anc.bf/2"), anc);  // interned once
  tracer.SetMemoNode(anc, 15.0, 5.0, true, "counting", "");
  tracer.AddMemoEdge(anc, par);
  tracer.AddMemoEdge(anc, par);  // deduplicated
  ASSERT_EQ(tracer.memo().size(), 2u);
  EXPECT_EQ(tracer.memo()[anc].children, std::vector<uint32_t>{par});
  tracer.MarkWinning("anc.bf/2");
  EXPECT_TRUE(tracer.memo()[anc].winning);
  EXPECT_FALSE(tracer.memo()[par].winning);
  // A memo-hit event carries the node index; the detail resolves to the
  // node's key without the recorder ever building the string again.
  tracer.RecordMemoHit(anc, 15.0);
  ASSERT_EQ(tracer.candidates().size(), 1u);
  EXPECT_EQ(tracer.candidates()[0].disposition,
            CandidateDisposition::kMemoHit);
  EXPECT_EQ(tracer.DetailOf(tracer.candidates()[0]), "anc.bf/2");
}

TEST(SearchTracerTest, CandidateCapCountsDrops) {
  SearchTracer tracer;
  tracer.set_max_candidates(2);
  for (int i = 0; i < 5; ++i) {
    tracer.RecordCandidate({0}, 1.0, CandidateDisposition::kDominated);
  }
  EXPECT_EQ(tracer.candidates().size(), 2u);
  EXPECT_EQ(tracer.dropped_candidates(), 3u);
}

TEST(SearchTracerTest, ClearResetsStateAndBumpsGeneration) {
  SearchTracer tracer;
  tracer.BeginScope("s");
  tracer.RecordCandidate({0}, 1.0, CandidateDisposition::kKept);
  tracer.InternMemoNode("n/1");
  const uint32_t gen = tracer.generation();
  tracer.Clear();
  EXPECT_EQ(tracer.generation(), gen + 1);
  EXPECT_TRUE(tracer.scopes().empty());
  EXPECT_TRUE(tracer.candidates().empty());
  EXPECT_TRUE(tracer.memo().empty());
  // The index was cleared with the nodes: re-interning starts over.
  EXPECT_EQ(tracer.InternMemoNode("n/1"), 0u);
}

TEST(SearchTracerTest, JsonAndDotShape) {
  SearchTracer tracer;
  tracer.BeginScope("p q.bf/2");
  tracer.RecordCandidate({0, 1}, 3.5, CandidateDisposition::kKept, "de\"tail");
  // Unsafe subplans are priced at +inf (§8.2); that must still be JSON.
  tracer.RecordCandidate({1, 0}, std::numeric_limits<double>::infinity(),
                         CandidateDisposition::kPrunedUnsafe);
  uint32_t n = tracer.InternMemoNode("q.bf/2");
  tracer.SetMemoNode(n, 3.5, 2.0, true, "semi-naive", "");
  tracer.MarkWinning("q.bf/2");
  JsonWriter json;
  tracer.WriteJson(json);
  EXPECT_NE(json.str().find("\"scopes\""), std::string::npos);
  EXPECT_NE(json.str().find("\"candidates\""), std::string::npos);
  EXPECT_NE(json.str().find("\"order\":[0,1]"), std::string::npos);
  EXPECT_NE(json.str().find("\"disposition\":\"kept\""), std::string::npos);
  EXPECT_NE(json.str().find("de\\\"tail"), std::string::npos);
  EXPECT_NE(json.str().find("\"cost\":\"inf\""), std::string::npos);
  EXPECT_EQ(json.str().find("\"cost\":inf"), std::string::npos);
  EXPECT_NE(json.str().find("\"memo\""), std::string::npos);
  std::ostringstream dot;
  tracer.WriteDot(dot);
  EXPECT_NE(dot.str().find("digraph memo_lattice"), std::string::npos);
  EXPECT_NE(dot.str().find("lightgoldenrod"), std::string::npos);
}

TEST(SearchTracerTest, DisabledPathDoesNotAllocate) {
  SearchTracer tracer;
  tracer.set_enabled(false);
  // The order vector is the caller's; build it outside the counted block
  // (real call sites pass vectors the search owns anyway).
  const std::vector<size_t> order = {0, 1, 2};
  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 100; ++i) {
    SearchScope null_scope(nullptr, "ignored");
    SearchScope off_scope(&tracer, "ignored");
    tracer.RecordCandidate(order, 1.0, CandidateDisposition::kKept);
    tracer.RecordCandidateStep(order, 3, 1.0,
                               CandidateDisposition::kPrunedBound);
    tracer.RecordMemoHit(0, 1.0);
    tracer.InternMemoNode("q.bf/2");
    tracer.SetMemoNode(0, 1.0, 1.0, true, "m", "n");
    tracer.AddMemoEdge(0, 1);
    tracer.MarkWinning("q.bf/2");
  }
  const uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u);
  EXPECT_TRUE(tracer.candidates().empty());
  EXPECT_TRUE(tracer.scopes().empty());
  EXPECT_TRUE(tracer.memo().empty());
}

TEST(TracerTest, EventBufferIsCappedAndCountsDrops) {
  Tracer tracer;
  tracer.set_max_events(4);
  for (int i = 0; i < 10; ++i) {
    Span span(&tracer, "work");
  }
  // The first max_events spans are kept (the head of the trace is what
  // explains a runaway query); the rest are counted, not stored.
  EXPECT_EQ(tracer.event_count(), 4u);
  EXPECT_EQ(tracer.dropped_events(), 6u);

  std::ostringstream os;
  tracer.WriteChromeTrace(os);
  EXPECT_NE(os.str().find("\"droppedEvents\":6"), std::string::npos);

  tracer.Clear();
  EXPECT_EQ(tracer.event_count(), 0u);
  EXPECT_EQ(tracer.dropped_events(), 0u);
}

TEST(TracerTest, DefaultCapIsLarge) {
  Tracer tracer;
  EXPECT_EQ(tracer.max_events(), 64u * 1024u);
  EXPECT_EQ(tracer.dropped_events(), 0u);
}

TEST(MetricsTest, HistogramConcurrentRecordLosesNothing) {
  Histogram h;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 1; i <= kPerThread; ++i) {
        h.Record(static_cast<double>(t * kPerThread + i));
      }
    });
  }
  for (auto& thread : threads) thread.join();

  // Lock-free CAS recording: every sample lands exactly once in count, sum,
  // min, and max, regardless of interleaving.
  const uint64_t n = kThreads * kPerThread;
  EXPECT_EQ(h.count(), n);
  EXPECT_DOUBLE_EQ(h.sum(), static_cast<double>(n) * (n + 1) / 2);
  EXPECT_DOUBLE_EQ(h.min(), 1);
  EXPECT_DOUBLE_EQ(h.max(), static_cast<double>(n));
  EXPECT_GT(h.percentile(0.5), 0);
}

}  // namespace
}  // namespace ldl
