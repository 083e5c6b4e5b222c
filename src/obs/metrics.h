#ifndef TABULAR_OBS_METRICS_H_
#define TABULAR_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tabular::obs {

/// Process-wide registry of named counters, gauges, and histograms.
///
/// Naming scheme: `<layer>.<op>.<what>` with lower_snake segments, e.g.
/// `algebra.group.rows_in`, `server.program_cache.hits`,
/// `io.csv.parse_errors`, `core.symbols_interned`.
///
/// Hot paths use `Counter::Add`, which is wait-free after a thread's first
/// increment: each thread owns a cell block and increments its own relaxed
/// atomic cell; `Value()` aggregates across live blocks plus the retired
/// sums of exited threads. Metric objects are interned and never freed, so
/// references returned by the Get* functions are valid for the process
/// lifetime; cache them in a function-local static at the call site.

/// Monotone event count. `Value()` is eventually consistent while writer
/// threads are mid-increment, exact once they quiesce.
class Counter {
 public:
  void Add(uint64_t delta = 1);
  uint64_t Value() const;
  const std::string& name() const { return name_; }

 private:
  friend class Registry;
  Counter(std::string name, uint32_t id)
      : name_(std::move(name)), id_(id) {}

  std::string name_;
  uint32_t id_;
};

/// Last-written signed value (thread counts, sizes). Not hot-path tuned.
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  const std::string& name() const { return name_; }

 private:
  friend class Registry;
  explicit Gauge(std::string name) : name_(std::move(name)) {}

  std::string name_;
  std::atomic<int64_t> value_{0};
};

/// Log2-bucketed distribution: bucket 0 counts zeros, bucket k ≥ 1 counts
/// values in [2^(k-1), 2^k). Lock-free.
class Histogram {
 public:
  static constexpr size_t kNumBuckets = 65;

  void Record(uint64_t value);

  struct Snapshot {
    uint64_t count = 0;
    uint64_t sum = 0;
    std::array<uint64_t, kNumBuckets> buckets{};
  };
  Snapshot Snap() const;
  /// The recordings that happened between two snapshots of the same
  /// histogram: per-field `after - before`. Benches and the server isolate
  /// one run's distribution from a process-lifetime histogram this way.
  static Snapshot Delta(const Snapshot& after, const Snapshot& before);
  const std::string& name() const { return name_; }

 private:
  friend class Registry;
  explicit Histogram(std::string name) : name_(std::move(name)) {}

  std::string name_;
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
};

/// Finds or creates the metric with `name`. The reference stays valid
/// forever; typical call-site pattern:
///
///   static obs::Counter& rows_in = obs::GetCounter("algebra.group.rows_in");
///   rows_in.Add(rho.height());
Counter& GetCounter(std::string_view name);
Gauge& GetGauge(std::string_view name);
Histogram& GetHistogram(std::string_view name);

/// Current value of the counter named `name`, or 0 when it does not exist
/// (yet). For benches and tests that diff snapshots.
uint64_t CounterValue(std::string_view name);

/// Point-in-time (name, value) views of the whole registry, sorted by
/// name. These feed the renderers (MetricsSnapshot/MetricsJson/
/// RenderPrometheus) and the server's per-request operator-counter deltas.
std::vector<std::pair<std::string, uint64_t>> CounterEntries();
std::vector<std::pair<std::string, int64_t>> GaugeEntries();
std::vector<std::pair<std::string, Histogram::Snapshot>> HistogramEntries();

/// The p-quantile (p in [0, 1]) of a histogram snapshot, estimated by
/// linear interpolation inside the log2 bucket holding the quantile sample
/// (the same convention Prometheus' histogram_quantile uses), so results
/// land exactly on bucket boundaries when ranks do:
///   * empty snapshot → 0
///   * the sample is a zero (bucket 0) → 0
///   * bucket k ≥ 1 interpolates across [2^(k-1), 2^k]; a single-sample
///     histogram therefore reports the *upper* edge of its bucket
///   * the overflow bucket (values ≥ 2^63) reports its lower edge 2^63,
///     since its upper edge is unbounded
double HistogramPercentile(const Histogram::Snapshot& snap, double p);

/// The standard counter triple of a table operator: `<prefix>.calls`,
/// `<prefix>.rows_in`, `<prefix>.rows_out`. Construct once (function-local
/// static) and `Record` per successful application:
///
///   static obs::OpCounters counters("algebra.group");
///   counters.Record(rho.height(), out.height());
class OpCounters {
 public:
  explicit OpCounters(const std::string& prefix)
      : calls_(GetCounter(prefix + ".calls")),
        rows_in_(GetCounter(prefix + ".rows_in")),
        rows_out_(GetCounter(prefix + ".rows_out")) {}

  void Record(uint64_t rows_in, uint64_t rows_out) {
    calls_.Add(1);
    rows_in_.Add(rows_in);
    rows_out_.Add(rows_out);
  }

 private:
  Counter& calls_;
  Counter& rows_in_;
  Counter& rows_out_;
};

/// Human-readable snapshot of every registered metric, sorted by name:
///   algebra.group.calls 3
///   ...
///   server.sessions.active 2 (gauge)
///   io.csv.record_fields count=12 sum=48 (histogram)
std::string MetricsSnapshot();

/// The same snapshot as one JSON object:
///   {"counters":{...},"gauges":{...},"histograms":{"x":{"count":..,
///    "sum":..,"buckets":{"3":5,...}}}}
std::string MetricsJson();

/// Zeroes every registered metric (counter cells of all threads, retired
/// sums, gauges, histogram buckets). Test isolation only; racing resets
/// against live increments loses increments.
void ResetMetricsForTest();

}  // namespace tabular::obs

#endif  // TABULAR_OBS_METRICS_H_
