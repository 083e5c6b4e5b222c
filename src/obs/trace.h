#ifndef TABULAR_OBS_TRACE_H_
#define TABULAR_OBS_TRACE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace tabular::obs {

/// Process-wide tracing switch and event sink.
///
/// Spans are recorded into a fixed-size lock-free ring buffer (oldest
/// events are overwritten on wrap) and exported as Chrome `trace_event`
/// JSON — loadable in `chrome://tracing` or https://ui.perfetto.dev —
/// with one track per thread, so concurrent tabulard sessions show up as
/// their own rows.
///
/// Tracing is off by default; a disabled `TABULAR_TRACE_SPAN` costs one
/// relaxed atomic load. Enable programmatically with `Tracing::Enable()`
/// or via the `TABULAR_TRACE` environment variable:
///
///   TABULAR_TRACE=1                 enable (export manually)
///   TABULAR_TRACE=fig4.trace.json   enable and write the trace to that
///                                   path at process exit
///   TABULAR_TRACE=0 / unset         disabled
class Tracing {
 public:
  /// True when spans are being recorded. Hot-path check; relaxed load.
  static bool enabled() {
    return enabled_.load(std::memory_order_relaxed);
  }

  static void Enable() { enabled_.store(true, std::memory_order_relaxed); }
  static void Disable() { enabled_.store(false, std::memory_order_relaxed); }

  /// Drops all buffered events (test isolation; not thread-safe against
  /// concurrent span recording).
  static void Clear();

  /// Number of events currently retrievable from the ring.
  static size_t EventCount();

  /// Number of events lost to ring wrap-around since the last Clear.
  static size_t DroppedCount();

  /// Renders all buffered events as Chrome trace JSON (object form with a
  /// "traceEvents" array plus per-thread "thread_name" metadata). Safe to
  /// call while spans are still being recorded: slots caught mid-write are
  /// skipped.
  static std::string ToJson();

  /// Writes `ToJson()` to `path`. Returns false on I/O failure.
  static bool WriteJson(const std::string& path);

 private:
  static std::atomic<bool> enabled_;
};

/// Small dense id of the calling thread (0 = first thread to ask, in
/// practice the main thread). Stable for the thread's lifetime.
uint32_t CurrentThreadId();

/// Names the calling thread's track in exported traces ("tabulard-session").
void SetCurrentThreadName(std::string_view name);

/// Monotonic nanoseconds since the process's trace epoch.
uint64_t TraceNowNs();

/// One numeric tag on a span, exported under the event's Chrome-trace
/// "args" object. `name` must point to static storage (a string literal):
/// the ring stores the pointer, not a copy.
struct SpanArg {
  const char* name = nullptr;
  uint64_t value = 0;
};

/// Span arg slots per ring event. Spans carrying more keep the first ones.
constexpr size_t kMaxSpanArgs = 6;

namespace internal {
/// Records one completed span. `name` and `category` must point to static
/// storage (string literals): the ring stores the pointers, not copies.
/// `args` (up to kMaxSpanArgs) are copied into the slot.
void RecordSpan(const char* name, const char* category, uint64_t start_ns,
                uint64_t dur_ns, const SpanArg* args = nullptr,
                size_t num_args = 0);
}  // namespace internal

/// RAII span: records [construction, destruction) on the calling thread's
/// track when tracing is enabled at construction time. `name`/`category`
/// must be string literals.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name, const char* category = "tabular") {
    if (Tracing::enabled()) {
      name_ = name;
      category_ = category;
      start_ns_ = TraceNowNs();
    }
  }
  ~TraceSpan() {
    if (name_ != nullptr) {
      internal::RecordSpan(name_, category_, start_ns_,
                           TraceNowNs() - start_ns_, args_, num_args_);
    }
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Tags the span: exported as `"args":{"<name>":<value>,...}`. `name`
  /// must be a string literal. Tags beyond kMaxSpanArgs are dropped, as is
  /// everything when tracing was off at construction. The request handler
  /// uses this for session/request/cache/snapshot context.
  void Arg(const char* name, uint64_t value) {
    if (name_ == nullptr || num_args_ >= kMaxSpanArgs) return;
    args_[num_args_++] = SpanArg{name, value};
  }

 private:
  const char* name_ = nullptr;
  const char* category_ = nullptr;
  uint64_t start_ns_ = 0;
  SpanArg args_[kMaxSpanArgs] = {};
  size_t num_args_ = 0;
};

#define TABULAR_OBS_CONCAT_IMPL_(a, b) a##b
#define TABULAR_OBS_CONCAT_(a, b) TABULAR_OBS_CONCAT_IMPL_(a, b)

/// Scoped trace span: TABULAR_TRACE_SPAN("group", "algebra") — the second
/// argument (category) is optional. No-op unless tracing is enabled.
#define TABULAR_TRACE_SPAN(...)                                      \
  ::tabular::obs::TraceSpan TABULAR_OBS_CONCAT_(_tabular_trace_span_, \
                                                __LINE__) {           \
    __VA_ARGS__                                                       \
  }

}  // namespace tabular::obs

#endif  // TABULAR_OBS_TRACE_H_
