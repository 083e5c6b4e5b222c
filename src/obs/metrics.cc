#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

namespace tabular::obs {

namespace {
/// Upper bound on distinct counters; ids beyond it share the last cell
/// (counts become merged rather than lost). The library registers ~60.
constexpr size_t kMaxCounters = 512;
}  // namespace

struct ThreadCells;

/// The registry owns every metric object (in deques, so references never
/// move) and tracks the per-thread counter cell blocks. Leaked singleton:
/// thread-local cell blocks of threads still running at exit are destroyed
/// after main()'s statics, so the registry must outlive them. Defined at
/// namespace scope (not anonymous) so the friend declarations in metrics.h
/// resolve to it.
class Registry {
 public:
  static Registry& Instance() {
    static Registry* registry = new Registry();
    return *registry;
  }

  Counter& GetCounter(std::string_view name) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = counters_by_name_.find(std::string(name));
    if (it != counters_by_name_.end()) return *it->second;
    uint32_t id = static_cast<uint32_t>(counters_.size());
    assert(id < kMaxCounters && "counter registry full");
    if (id >= kMaxCounters) id = kMaxCounters - 1;
    counters_.emplace_back(new Counter(std::string(name), id));
    Counter& c = *counters_.back();
    counters_by_name_.emplace(c.name(), &c);
    return c;
  }

  Gauge& GetGauge(std::string_view name) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = gauges_by_name_.find(std::string(name));
    if (it != gauges_by_name_.end()) return *it->second;
    gauges_.emplace_back(new Gauge(std::string(name)));
    Gauge& g = *gauges_.back();
    gauges_by_name_.emplace(g.name(), &g);
    return g;
  }

  Histogram& GetHistogram(std::string_view name) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = histograms_by_name_.find(std::string(name));
    if (it != histograms_by_name_.end()) return *it->second;
    histograms_.emplace_back(new Histogram(std::string(name)));
    Histogram& h = *histograms_.back();
    histograms_by_name_.emplace(h.name(), &h);
    return h;
  }

  void RegisterBlock(ThreadCells* block) {
    std::lock_guard<std::mutex> lock(mutex_);
    blocks_.push_back(block);
  }

  void RetireBlock(ThreadCells* block);

  uint64_t CounterValueLocked(uint32_t id) const;

  uint64_t CounterValue(uint32_t id) const {
    std::lock_guard<std::mutex> lock(mutex_);
    return CounterValueLocked(id);
  }

  uint64_t CounterValueByName(std::string_view name) const {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = counters_by_name_.find(std::string(name));
    if (it == counters_by_name_.end()) return 0;
    return CounterValueLocked(it->second->id_);
  }

  /// Sorted (name, value) views for the renderers.
  std::vector<std::pair<std::string, uint64_t>> CounterEntries() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::pair<std::string, uint64_t>> out;
    out.reserve(counters_by_name_.size());
    for (const auto& [name, counter] : counters_by_name_) {
      out.emplace_back(name, CounterValueLocked(counter->id_));
    }
    return out;
  }

  std::vector<std::pair<std::string, int64_t>> GaugeEntries() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::pair<std::string, int64_t>> out;
    out.reserve(gauges_by_name_.size());
    for (const auto& [name, gauge] : gauges_by_name_) {
      out.emplace_back(name, gauge->Value());
    }
    return out;
  }

  std::vector<std::pair<std::string, Histogram::Snapshot>> HistogramEntries()
      const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::pair<std::string, Histogram::Snapshot>> out;
    out.reserve(histograms_by_name_.size());
    for (const auto& [name, hist] : histograms_by_name_) {
      out.emplace_back(name, hist->Snap());
    }
    return out;
  }

  void Reset();

 private:
  Registry() = default;

  mutable std::mutex mutex_;
  std::deque<std::unique_ptr<Counter>> counters_;
  std::deque<std::unique_ptr<Gauge>> gauges_;
  std::deque<std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, Counter*, std::less<>> counters_by_name_;
  std::map<std::string, Gauge*, std::less<>> gauges_by_name_;
  std::map<std::string, Histogram*, std::less<>> histograms_by_name_;
  std::vector<ThreadCells*> blocks_;
  uint64_t retired_[kMaxCounters] = {};
};

/// Per-thread counter cells. Constructed on a thread's first increment,
/// flushed into the registry's retired sums when the thread exits.
struct ThreadCells {
  std::atomic<uint64_t> cells[kMaxCounters] = {};

  ThreadCells() { Registry::Instance().RegisterBlock(this); }
  ~ThreadCells() { Registry::Instance().RetireBlock(this); }
};

namespace {
ThreadCells& Cells() {
  thread_local ThreadCells cells;
  return cells;
}
}  // namespace

void Registry::RetireBlock(ThreadCells* block) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (size_t i = 0; i < kMaxCounters; ++i) {
    retired_[i] += block->cells[i].load(std::memory_order_relaxed);
  }
  blocks_.erase(std::remove(blocks_.begin(), blocks_.end(), block),
                blocks_.end());
}

uint64_t Registry::CounterValueLocked(uint32_t id) const {
  uint64_t total = retired_[id];
  for (const ThreadCells* block : blocks_) {
    total += block->cells[id].load(std::memory_order_relaxed);
  }
  return total;
}

void Registry::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (uint64_t& v : retired_) v = 0;
  for (ThreadCells* block : blocks_) {
    for (size_t i = 0; i < kMaxCounters; ++i) {
      block->cells[i].store(0, std::memory_order_relaxed);
    }
  }
  for (auto& g : gauges_) g->value_.store(0, std::memory_order_relaxed);
  for (auto& h : histograms_) {
    h->count_.store(0, std::memory_order_relaxed);
    h->sum_.store(0, std::memory_order_relaxed);
    for (auto& b : h->buckets_) b.store(0, std::memory_order_relaxed);
  }
}

namespace {
void AppendJsonString(std::string_view text, std::string* out) {
  out->push_back('"');
  for (char c : text) {
    if (c == '"' || c == '\\') out->push_back('\\');
    out->push_back(c);
  }
  out->push_back('"');
}
}  // namespace

void Counter::Add(uint64_t delta) {
  Cells().cells[id_].fetch_add(delta, std::memory_order_relaxed);
}

uint64_t Counter::Value() const {
  return Registry::Instance().CounterValue(id_);
}

void Histogram::Record(uint64_t value) {
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  buckets_[std::bit_width(value)].fetch_add(1, std::memory_order_relaxed);
}

Histogram::Snapshot Histogram::Snap() const {
  Snapshot s;
  s.count = count_.load(std::memory_order_relaxed);
  s.sum = sum_.load(std::memory_order_relaxed);
  for (size_t i = 0; i < kNumBuckets; ++i) {
    s.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return s;
}

Histogram::Snapshot Histogram::Delta(const Snapshot& after,
                                     const Snapshot& before) {
  Snapshot d;
  d.count = after.count - before.count;
  d.sum = after.sum - before.sum;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    d.buckets[i] = after.buckets[i] - before.buckets[i];
  }
  return d;
}

double HistogramPercentile(const Histogram::Snapshot& snap, double p) {
  if (snap.count == 0) return 0.0;
  if (p < 0.0) p = 0.0;
  if (p > 1.0) p = 1.0;
  // The rank-th smallest recorded value is the quantile sample.
  uint64_t rank = static_cast<uint64_t>(std::ceil(p * snap.count));
  if (rank == 0) rank = 1;
  if (rank > snap.count) rank = snap.count;
  uint64_t cumulative = 0;
  for (size_t k = 0; k < Histogram::kNumBuckets; ++k) {
    if (snap.buckets[k] == 0) continue;
    if (cumulative + snap.buckets[k] < rank) {
      cumulative += snap.buckets[k];
      continue;
    }
    if (k == 0) return 0.0;
    const double lower = std::ldexp(1.0, static_cast<int>(k) - 1);
    if (k == Histogram::kNumBuckets - 1) return lower;  // unbounded above
    const double fraction = static_cast<double>(rank - cumulative) /
                            static_cast<double>(snap.buckets[k]);
    return lower + fraction * lower;  // upper edge = 2 * lower
  }
  return 0.0;  // count said there were samples, buckets disagreed (racing)
}

Counter& GetCounter(std::string_view name) {
  return Registry::Instance().GetCounter(name);
}

Gauge& GetGauge(std::string_view name) {
  return Registry::Instance().GetGauge(name);
}

Histogram& GetHistogram(std::string_view name) {
  return Registry::Instance().GetHistogram(name);
}

uint64_t CounterValue(std::string_view name) {
  return Registry::Instance().CounterValueByName(name);
}

std::vector<std::pair<std::string, uint64_t>> CounterEntries() {
  return Registry::Instance().CounterEntries();
}

std::vector<std::pair<std::string, int64_t>> GaugeEntries() {
  return Registry::Instance().GaugeEntries();
}

std::vector<std::pair<std::string, Histogram::Snapshot>> HistogramEntries() {
  return Registry::Instance().HistogramEntries();
}

std::string MetricsSnapshot() {
  Registry& r = Registry::Instance();
  std::string out;
  for (const auto& [name, value] : r.CounterEntries()) {
    out += name + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, value] : r.GaugeEntries()) {
    out += name + " " + std::to_string(value) + " (gauge)\n";
  }
  for (const auto& [name, snap] : r.HistogramEntries()) {
    out += name + " count=" + std::to_string(snap.count) +
           " sum=" + std::to_string(snap.sum) + " (histogram)\n";
  }
  return out;
}

std::string MetricsJson() {
  Registry& r = Registry::Instance();
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : r.CounterEntries()) {
    if (!first) out.push_back(',');
    first = false;
    AppendJsonString(name, &out);
    out += ":" + std::to_string(value);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : r.GaugeEntries()) {
    if (!first) out.push_back(',');
    first = false;
    AppendJsonString(name, &out);
    out += ":" + std::to_string(value);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, snap] : r.HistogramEntries()) {
    if (!first) out.push_back(',');
    first = false;
    AppendJsonString(name, &out);
    out += ":{\"count\":" + std::to_string(snap.count) +
           ",\"sum\":" + std::to_string(snap.sum) + ",\"buckets\":{";
    bool first_bucket = true;
    for (size_t i = 0; i < Histogram::kNumBuckets; ++i) {
      if (snap.buckets[i] == 0) continue;
      if (!first_bucket) out.push_back(',');
      first_bucket = false;
      out += "\"" + std::to_string(i) +
             "\":" + std::to_string(snap.buckets[i]);
    }
    out += "}}";
  }
  out += "}}";
  return out;
}

void ResetMetricsForTest() { Registry::Instance().Reset(); }

}  // namespace tabular::obs
