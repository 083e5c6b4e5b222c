#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/exposition.h"
#include "obs/metrics.h"
#include "obs/query_log.h"
#include "obs/trace.h"

namespace tabular::obs {
namespace {

// ---------------------------------------------------------------------------
// Minimal JSON syntax validator: objects, arrays, strings, numbers and the
// three literals. Enough to prove the exported trace parses back, without
// a JSON library dependency.
class JsonValidator {
 public:
  explicit JsonValidator(std::string_view text) : text_(text) {}

  bool Valid() {
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == text_.size();
  }

 private:
  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Eat(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool Value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': return Object();
      case '[': return Array();
      case '"': return String();
      case 't': return Literal("true");
      case 'f': return Literal("false");
      case 'n': return Literal("null");
      default: return Number();
    }
  }

  bool Literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Eat('}')) return true;
    for (;;) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (!Eat(':')) return false;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Eat('}')) return true;
      if (!Eat(',')) return false;
    }
  }

  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Eat(']')) return true;
    for (;;) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Eat(']')) return true;
      if (!Eat(',')) return false;
    }
  }

  bool String() {
    if (!Eat('"')) return false;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) return false;
        ++pos_;  // Escaped character; \uXXXX hex digits pass as chars.
      }
    }
    return false;
  }

  bool Number() {
    const size_t start = pos_;
    Eat('-');
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
          c == '+' || c == '-') {
        ++pos_;
      } else {
        break;
      }
    }
    return pos_ > start;
  }

  std::string_view text_;
  size_t pos_ = 0;
};

TEST(JsonValidatorTest, AcceptsAndRejects) {
  EXPECT_TRUE(JsonValidator(R"({"a":[1,2.5,-3e4],"b":"x\"y","c":null})")
                  .Valid());
  EXPECT_TRUE(JsonValidator("[]").Valid());
  EXPECT_FALSE(JsonValidator(R"({"a":})").Valid());
  EXPECT_FALSE(JsonValidator(R"({"a":1)").Valid());
  EXPECT_FALSE(JsonValidator(R"([1,2,)").Valid());
  EXPECT_FALSE(JsonValidator(R"("unterminated)").Valid());
}

// ---------------------------------------------------------------------------
// Metrics.

TEST(MetricsTest, CounterAccumulatesAcrossThreads) {
  ResetMetricsForTest();
  Counter& c = GetCounter("test.obs.mt_counter");
  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kAddsPerThread; ++i) c.Add(1);
    });
  }
  for (auto& t : threads) t.join();
  // Exited threads' cells are flushed into the retired sums; the total must
  // be exact.
  EXPECT_EQ(c.Value(), uint64_t{kThreads} * kAddsPerThread);
  EXPECT_EQ(CounterValue("test.obs.mt_counter"),
            uint64_t{kThreads} * kAddsPerThread);
}

TEST(MetricsTest, GetCounterInternsByName) {
  Counter& a = GetCounter("test.obs.interned");
  Counter& b = GetCounter("test.obs.interned");
  EXPECT_EQ(&a, &b);
}

TEST(MetricsTest, MissingCounterReadsZero) {
  EXPECT_EQ(CounterValue("test.obs.never_created"), 0u);
}

TEST(MetricsTest, GaugeSetAndAdd) {
  ResetMetricsForTest();
  Gauge& g = GetGauge("test.obs.gauge");
  g.Set(5);
  g.Add(-2);
  EXPECT_EQ(g.Value(), 3);
}

TEST(MetricsTest, HistogramBucketsByLog2) {
  ResetMetricsForTest();
  Histogram& h = GetHistogram("test.obs.hist");
  h.Record(0);   // bucket 0
  h.Record(1);   // bucket 1
  h.Record(2);   // bucket 2
  h.Record(3);   // bucket 2
  h.Record(16);  // bucket 5
  Histogram::Snapshot s = h.Snap();
  EXPECT_EQ(s.count, 5u);
  EXPECT_EQ(s.sum, 22u);
  EXPECT_EQ(s.buckets[0], 1u);
  EXPECT_EQ(s.buckets[1], 1u);
  EXPECT_EQ(s.buckets[2], 2u);
  EXPECT_EQ(s.buckets[5], 1u);
}

TEST(MetricsTest, OpCountersRecordTriple) {
  ResetMetricsForTest();
  OpCounters counters("test.obs.op");
  counters.Record(10, 4);
  counters.Record(6, 2);
  EXPECT_EQ(CounterValue("test.obs.op.calls"), 2u);
  EXPECT_EQ(CounterValue("test.obs.op.rows_in"), 16u);
  EXPECT_EQ(CounterValue("test.obs.op.rows_out"), 6u);
}

TEST(MetricsTest, SnapshotIsSortedAndJsonParses) {
  ResetMetricsForTest();
  GetCounter("test.obs.zz").Add(1);
  GetCounter("test.obs.aa").Add(2);
  GetGauge("test.obs.gauge2").Set(7);
  GetHistogram("test.obs.hist2").Record(3);
  std::string snap = MetricsSnapshot();
  EXPECT_NE(snap.find("test.obs.aa 2"), std::string::npos);
  EXPECT_NE(snap.find("test.obs.zz 1"), std::string::npos);
  EXPECT_NE(snap.find("test.obs.gauge2 7 (gauge)"), std::string::npos);
  EXPECT_LT(snap.find("test.obs.aa 2"), snap.find("test.obs.zz 1"));
  std::string json = MetricsJson();
  EXPECT_TRUE(JsonValidator(json).Valid()) << json;
  EXPECT_NE(json.find("\"test.obs.aa\":2"), std::string::npos);
}

TEST(MetricsTest, ResetZeroesEverything) {
  GetCounter("test.obs.reset_me").Add(41);
  ResetMetricsForTest();
  EXPECT_EQ(CounterValue("test.obs.reset_me"), 0u);
}

// ---------------------------------------------------------------------------
// Histogram percentiles — the canonical p50/p99 source for the server
// bench and the slow-query gates, so the estimator's edge cases are pinned
// down exactly.

TEST(PercentileTest, EmptySnapshotIsZero) {
  Histogram::Snapshot empty;
  EXPECT_EQ(HistogramPercentile(empty, 0.5), 0.0);
  EXPECT_EQ(HistogramPercentile(empty, 0.99), 0.0);
}

TEST(PercentileTest, ZeroSamplesReportZero) {
  ResetMetricsForTest();
  Histogram& h = GetHistogram("test.obs.pct_zeros");
  h.Record(0);
  h.Record(0);
  EXPECT_EQ(HistogramPercentile(h.Snap(), 0.5), 0.0);
  EXPECT_EQ(HistogramPercentile(h.Snap(), 1.0), 0.0);
}

TEST(PercentileTest, SingleSampleReportsItsBucketUpperEdge) {
  // One sample of 5 lands in bucket 3 = [4, 8); with count 1 every
  // quantile's rank is 1, so interpolation reaches the upper edge.
  ResetMetricsForTest();
  Histogram& h = GetHistogram("test.obs.pct_single");
  h.Record(5);
  EXPECT_EQ(HistogramPercentile(h.Snap(), 0.5), 8.0);
  EXPECT_EQ(HistogramPercentile(h.Snap(), 0.99), 8.0);
}

TEST(PercentileTest, RanksOnBucketBoundariesLandExactly) {
  // Two samples in [1, 2) and two in [2, 4): the median rank exhausts the
  // first bucket, so p50 is exactly the shared boundary 2; p100 exhausts
  // the second, landing on its upper edge 4.
  ResetMetricsForTest();
  Histogram& h = GetHistogram("test.obs.pct_boundary");
  h.Record(1);
  h.Record(1);
  h.Record(2);
  h.Record(3);
  Histogram::Snapshot s = h.Snap();
  EXPECT_EQ(HistogramPercentile(s, 0.5), 2.0);
  EXPECT_EQ(HistogramPercentile(s, 1.0), 4.0);
  // Rank halfway into the second bucket interpolates linearly: 2 + 0.5*2.
  EXPECT_EQ(HistogramPercentile(s, 0.75), 3.0);
}

TEST(PercentileTest, OverflowBucketReportsItsLowerEdge) {
  // Values >= 2^63 land in the last bucket, whose upper edge is unbounded;
  // the estimator reports the lower edge instead of inventing one.
  ResetMetricsForTest();
  Histogram& h = GetHistogram("test.obs.pct_overflow");
  h.Record(UINT64_MAX);
  EXPECT_EQ(HistogramPercentile(h.Snap(), 0.99), std::ldexp(1.0, 63));
}

TEST(PercentileTest, OutOfRangeQuantilesClamp) {
  ResetMetricsForTest();
  Histogram& h = GetHistogram("test.obs.pct_clamp");
  h.Record(1);
  EXPECT_EQ(HistogramPercentile(h.Snap(), -0.5),
            HistogramPercentile(h.Snap(), 0.0));
  EXPECT_EQ(HistogramPercentile(h.Snap(), 2.0),
            HistogramPercentile(h.Snap(), 1.0));
}

TEST(PercentileTest, DeltaIsolatesAWindow) {
  ResetMetricsForTest();
  Histogram& h = GetHistogram("test.obs.pct_delta");
  h.Record(1000);  // pre-window noise
  Histogram::Snapshot before = h.Snap();
  h.Record(5);
  h.Record(5);
  Histogram::Snapshot delta = Histogram::Delta(h.Snap(), before);
  EXPECT_EQ(delta.count, 2u);
  EXPECT_EQ(delta.sum, 10u);
  EXPECT_EQ(HistogramPercentile(delta, 0.99), 8.0);
}

// ---------------------------------------------------------------------------
// Prometheus exposition.

TEST(PrometheusTest, NamesAreSanitizedAndPrefixed) {
  EXPECT_EQ(PrometheusName("server.request.latency"),
            "tabular_server_request_latency");
  EXPECT_EQ(PrometheusName("weird-name with spaces"),
            "tabular_weird_name_with_spaces");
}

TEST(PrometheusTest, RendersAllThreeKinds) {
  ResetMetricsForTest();
  GetCounter("test.obs.prom_counter").Add(7);
  GetGauge("test.obs.prom_gauge").Set(-3);
  Histogram& h = GetHistogram("test.obs.prom_hist");
  h.Record(0);   // bucket 0 → le="0"
  h.Record(1);   // bucket 1 → le="1"
  h.Record(16);  // bucket 5 → le="31"
  const std::string text = RenderPrometheus();
  EXPECT_NE(text.find("# TYPE tabular_test_obs_prom_counter counter"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("tabular_test_obs_prom_counter 7"), std::string::npos);
  EXPECT_NE(text.find("# TYPE tabular_test_obs_prom_gauge gauge"),
            std::string::npos);
  EXPECT_NE(text.find("tabular_test_obs_prom_gauge -3"), std::string::npos);
  // Histogram buckets are cumulative against the log2 upper edges 2^k - 1.
  EXPECT_NE(text.find("# TYPE tabular_test_obs_prom_hist histogram"),
            std::string::npos);
  EXPECT_NE(text.find("tabular_test_obs_prom_hist_bucket{le=\"0\"} 1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("tabular_test_obs_prom_hist_bucket{le=\"1\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("tabular_test_obs_prom_hist_bucket{le=\"31\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("tabular_test_obs_prom_hist_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("tabular_test_obs_prom_hist_sum 17"),
            std::string::npos);
  EXPECT_NE(text.find("tabular_test_obs_prom_hist_count 3"),
            std::string::npos);
}

TEST(PrometheusTest, EveryTypeLinePrecedesItsSamples) {
  ResetMetricsForTest();
  GetCounter("test.obs.prom_order").Add(1);
  GetHistogram("test.obs.prom_order_h").Record(2);
  const std::string text = RenderPrometheus();
  // Structural invariant the scrape validator also enforces: a sample line
  // never appears before its metric's TYPE declaration.
  const size_t type_at =
      text.find("# TYPE tabular_test_obs_prom_order_h histogram");
  const size_t sample_at = text.find("tabular_test_obs_prom_order_h_bucket");
  ASSERT_NE(type_at, std::string::npos);
  ASSERT_NE(sample_at, std::string::npos);
  EXPECT_LT(type_at, sample_at);
}

// ---------------------------------------------------------------------------
// The slow-query log.

QueryLogEntry Entry(uint64_t latency_us, uint64_t session = 1) {
  QueryLogEntry e;
  e.start_ns = latency_us * 1000;
  e.request_id = latency_us;
  e.session_id = session;
  e.program_hash = Fnv1a64("P <- transpose (Sales);");
  e.latency_us = latency_us;
  e.rows_in = 8;
  e.rows_out = 4;
  e.snapshot_version = 3;
  e.rewrites_applied = 2;
  e.cache_hit = true;
  e.ok = true;
  return e;
}

TEST(QueryLogTest, Fnv1a64MatchesReferenceVectors) {
  // Published FNV-1a test vectors; the hash keys cross-run slow-log
  // grepping, so it must never drift.
  EXPECT_EQ(Fnv1a64(""), 14695981039346656037ull);
  EXPECT_EQ(Fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(Fnv1a64("foobar"), 0x85944171f73967e8ull);
}

TEST(QueryLogTest, DisabledByDefaultRecordsNothing) {
  QueryLog log;
  EXPECT_EQ(log.threshold_micros(), QueryLog::kDisabled);
  log.Observe(Entry(1000000));
  EXPECT_EQ(log.recorded(), 0u);
  EXPECT_TRUE(log.Drain().empty());
}

TEST(QueryLogTest, ThresholdFiltersStrictlyFasterRequests) {
  QueryLog log;
  log.set_threshold_micros(100);
  log.Observe(Entry(99));   // below: ignored
  log.Observe(Entry(100));  // at: recorded
  log.Observe(Entry(250));  // above: recorded
  EXPECT_EQ(log.recorded(), 2u);
  auto entries = log.Drain();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].latency_us, 100u);  // oldest first
  EXPECT_EQ(entries[1].latency_us, 250u);
}

TEST(QueryLogTest, DrainRoundTripsEveryField) {
  QueryLog log;
  log.set_threshold_micros(0);
  log.Observe(Entry(42, /*session=*/7));
  auto entries = log.Drain();
  ASSERT_EQ(entries.size(), 1u);
  const QueryLogEntry& e = entries[0];
  EXPECT_EQ(e.start_ns, 42000u);
  EXPECT_EQ(e.request_id, 42u);
  EXPECT_EQ(e.session_id, 7u);
  EXPECT_EQ(e.program_hash, Fnv1a64("P <- transpose (Sales);"));
  EXPECT_EQ(e.latency_us, 42u);
  EXPECT_EQ(e.rows_in, 8u);
  EXPECT_EQ(e.rows_out, 4u);
  EXPECT_EQ(e.snapshot_version, 3u);
  EXPECT_EQ(e.rewrites_applied, 2u);
  EXPECT_TRUE(e.cache_hit);
  EXPECT_TRUE(e.ok);
  // A second drain sees nothing new.
  EXPECT_TRUE(log.Drain().empty());
}

TEST(QueryLogTest, WrapKeepsTheNewestAndCountsTheLost) {
  QueryLog log(8);  // rounds to exactly 8 slots
  EXPECT_EQ(log.capacity(), 8u);
  log.set_threshold_micros(0);
  for (uint64_t i = 0; i < 20; ++i) log.Observe(Entry(i + 1));
  EXPECT_EQ(log.recorded(), 20u);
  auto entries = log.Drain();
  ASSERT_EQ(entries.size(), 8u);  // ring capacity, newest 8, oldest first
  EXPECT_EQ(entries.front().latency_us, 13u);
  EXPECT_EQ(entries.back().latency_us, 20u);
  EXPECT_EQ(log.dropped(), 12u);
}

TEST(QueryLogTest, ConcurrentObserveAndDrainStayCoherent) {
  // Writers race a draining reader. The ring favors never-blocking writers
  // over drain exactness: a drain may skip a slot caught mid-write, so the
  // bound is drained + dropped <= recorded — but nothing is ever invented,
  // and recorded itself is exact.
  QueryLog log(64);
  log.set_threshold_micros(0);
  constexpr int kWriters = 4;
  constexpr uint64_t kPerWriter = 2000;
  std::atomic<bool> stop{false};
  uint64_t drained = 0;
  std::thread drainer([&] {
    while (!stop.load(std::memory_order_acquire)) {
      drained += log.Drain().size();
    }
    drained += log.Drain().size();
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&log] {
      for (uint64_t i = 0; i < kPerWriter; ++i) log.Observe(Entry(i + 1));
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  drainer.join();
  EXPECT_EQ(log.recorded(), kWriters * kPerWriter);
  EXPECT_LE(drained + log.dropped(), kWriters * kPerWriter);
  EXPECT_GT(drained, 0u);
}

// ---------------------------------------------------------------------------
// Tracing.

std::atomic<uint64_t> benchmark_dummy{0};

TEST(TraceTest, DisabledSpansRecordNothing) {
  Tracing::Disable();
  Tracing::Clear();
  { TABULAR_TRACE_SPAN("nothing", "test"); }
  EXPECT_EQ(Tracing::EventCount(), 0u);
}

TEST(TraceTest, SpansFromSeveralThreadsLandInOneRing) {
  Tracing::Clear();
  Tracing::Enable();
  SetCurrentThreadName("obs-test-main");
  {
    TABULAR_TRACE_SPAN("outer", "test");
    std::vector<std::thread> workers;
    for (int w = 0; w < 4; ++w) {
      workers.emplace_back([w] {
        SetCurrentThreadName("obs-test-worker-" + std::to_string(w));
        TABULAR_TRACE_SPAN("inner", "test");
        benchmark_dummy.fetch_add(1, std::memory_order_relaxed);
      });
    }
    for (std::thread& t : workers) t.join();
  }
  Tracing::Disable();
  // The outer span and one inner span per worker landed in the ring, each
  // on its own named thread track.
  const std::string json = Tracing::ToJson();
  EXPECT_TRUE(JsonValidator(json).Valid()) << json;
  EXPECT_NE(json.find("\"outer\""), std::string::npos);
  size_t inner = 0;
  for (size_t p = json.find("\"inner\""); p != std::string::npos;
       p = json.find("\"inner\"", p + 1)) {
    ++inner;
  }
  EXPECT_EQ(inner, 4u);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  EXPECT_NE(json.find("obs-test-main"), std::string::npos);
  for (int w = 0; w < 4; ++w) {
    EXPECT_NE(json.find("obs-test-worker-" + std::to_string(w)),
              std::string::npos);
  }
}

TEST(TraceTest, ConcurrentExportWhileRecordingIsWellFormed) {
  Tracing::Clear();
  Tracing::Enable();
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      TABULAR_TRACE_SPAN("concurrent", "test");
    }
  });
  for (int i = 0; i < 20; ++i) {
    std::string json = Tracing::ToJson();
    EXPECT_TRUE(JsonValidator(json).Valid());
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  Tracing::Disable();
}

TEST(TraceTest, SpanArgsExportUnderTheChromeArgsKey) {
  Tracing::Clear();
  Tracing::Enable();
  {
    TraceSpan span("tagged", "test");
    span.Arg("session", 7);
    span.Arg("request", 42);
  }
  Tracing::Disable();
  const std::string json = Tracing::ToJson();
  EXPECT_TRUE(JsonValidator(json).Valid()) << json;
  // Insertion order is preserved inside the args object.
  EXPECT_NE(json.find("\"args\":{\"session\":7,\"request\":42}"),
            std::string::npos)
      << json;
}

TEST(TraceTest, SpanArgsBeyondTheSlotLimitAreDropped) {
  Tracing::Clear();
  Tracing::Enable();
  {
    TraceSpan span("overtagged", "test");
    static const char* const kNames[] = {"a0", "a1", "a2", "a3",
                                         "a4", "a5", "a6", "a7"};
    for (uint64_t i = 0; i < 8; ++i) span.Arg(kNames[i], i);
  }
  Tracing::Disable();
  const std::string json = Tracing::ToJson();
  EXPECT_TRUE(JsonValidator(json).Valid());
  EXPECT_NE(json.find("\"a5\":5"), std::string::npos);  // slot 6 of 6 kept
  EXPECT_EQ(json.find("\"a6\""), std::string::npos);    // 7th dropped
}

TEST(TraceTest, UntaggedSpansCarryNoArgsKey) {
  Tracing::Clear();
  Tracing::Enable();
  { TABULAR_TRACE_SPAN("plain", "test"); }
  Tracing::Disable();
  const std::string json = Tracing::ToJson();
  // One "args" object total: the thread_name metadata record. The span
  // event itself omits the key entirely when it has no tags.
  size_t count = 0;
  for (size_t at = json.find("\"args\""); at != std::string::npos;
       at = json.find("\"args\"", at + 1)) {
    ++count;
  }
  EXPECT_EQ(count, 1u) << json;
}

TEST(TraceTest, ExportPublishesTheDroppedGauge) {
  ResetMetricsForTest();
  Tracing::Clear();
  Tracing::Enable();
  for (int i = 0; i < (1 << 16) + 300; ++i) {
    TABULAR_TRACE_SPAN("gauge_wrap", "test");
  }
  Tracing::Disable();
  (void)Tracing::ToJson();
  EXPECT_EQ(GetGauge("obs.trace.dropped").Value(),
            static_cast<int64_t>(Tracing::DroppedCount()));
  EXPECT_GE(GetGauge("obs.trace.dropped").Value(), 300);
  Tracing::Clear();
}

TEST(TraceTest, RingOverflowDropsOldestButStaysValid) {
  Tracing::Clear();
  Tracing::Enable();
  // 2^16 slots; overshoot to force a wrap.
  for (int i = 0; i < (1 << 16) + 500; ++i) {
    TABULAR_TRACE_SPAN("wrap", "test");
  }
  Tracing::Disable();
  EXPECT_GE(Tracing::DroppedCount(), 500u);
  EXPECT_EQ(Tracing::EventCount(), size_t{1} << 16);
  EXPECT_TRUE(JsonValidator(Tracing::ToJson()).Valid());
  Tracing::Clear();
  EXPECT_EQ(Tracing::EventCount(), 0u);
  EXPECT_EQ(Tracing::DroppedCount(), 0u);
}

}  // namespace
}  // namespace tabular::obs
