#include "obs/trace.h"

#include "obs/metrics.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <vector>

namespace tabular::obs {

namespace {

/// Ring capacity: 2^16 events ≈ 3 MB of slots, enough for several seconds
/// of operator-level spans; older events are overwritten on wrap.
constexpr size_t kRingBits = 16;
constexpr size_t kRingSize = size_t{1} << kRingBits;
constexpr size_t kRingMask = kRingSize - 1;

/// One ring slot, seqlock-style: `seq` is 2*index+1 while the writer fills
/// the fields and 2*index+2 once they are stable. All fields are relaxed
/// atomics so concurrent export reads are race-free (TSan-clean); the
/// acquire/release pairing on `seq` orders them.
struct Slot {
  std::atomic<uint64_t> seq{0};  // 0 = never written.
  std::atomic<const char*> name{nullptr};
  std::atomic<const char*> category{nullptr};
  std::atomic<uint64_t> start_ns{0};
  std::atomic<uint64_t> dur_ns{0};
  std::atomic<uint32_t> tid{0};
  std::atomic<uint32_t> num_args{0};
  std::atomic<const char*> arg_names[kMaxSpanArgs] = {};
  std::atomic<uint64_t> arg_values[kMaxSpanArgs] = {};
};

Slot g_ring[kRingSize];
std::atomic<uint64_t> g_next{0};

std::atomic<uint32_t> g_next_tid{0};

struct ThreadNames {
  std::mutex mutex;
  std::map<uint32_t, std::string> names;

  static ThreadNames& Instance() {
    static ThreadNames* names = new ThreadNames();  // Leaked (thread TLS
    return *names;                                  // may outlive statics).
  }
};

void AppendJsonEscaped(std::string_view text, std::string* out) {
  for (char c : text) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
}

/// Microseconds with nanosecond precision, the unit Chrome tracing expects.
void AppendMicros(uint64_t ns, std::string* out) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu.%03llu",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned long long>(ns % 1000));
  *out += buf;
}

struct ExportedEvent {
  const char* name;
  const char* category;
  uint64_t start_ns;
  uint64_t dur_ns;
  uint32_t tid;
  uint32_t num_args;
  SpanArg args[kMaxSpanArgs];
};

/// Stable snapshot of the ring: skips slots caught mid-write or already
/// overwritten by a later lap.
std::vector<ExportedEvent> SnapshotRing() {
  const uint64_t next = g_next.load(std::memory_order_acquire);
  const uint64_t first = next > kRingSize ? next - kRingSize : 0;
  std::vector<ExportedEvent> events;
  events.reserve(static_cast<size_t>(next - first));
  for (uint64_t i = first; i < next; ++i) {
    Slot& slot = g_ring[i & kRingMask];
    const uint64_t want = 2 * i + 2;
    if (slot.seq.load(std::memory_order_acquire) != want) continue;
    ExportedEvent e;
    e.name = slot.name.load(std::memory_order_relaxed);
    e.category = slot.category.load(std::memory_order_relaxed);
    e.start_ns = slot.start_ns.load(std::memory_order_relaxed);
    e.dur_ns = slot.dur_ns.load(std::memory_order_relaxed);
    e.tid = slot.tid.load(std::memory_order_relaxed);
    e.num_args = slot.num_args.load(std::memory_order_relaxed);
    if (e.num_args > kMaxSpanArgs) e.num_args = kMaxSpanArgs;
    for (uint32_t a = 0; a < e.num_args; ++a) {
      e.args[a].name = slot.arg_names[a].load(std::memory_order_relaxed);
      e.args[a].value = slot.arg_values[a].load(std::memory_order_relaxed);
    }
    // Re-check: if the slot was reused while we copied, drop the copy.
    if (slot.seq.load(std::memory_order_acquire) != want) continue;
    events.push_back(e);
  }
  return events;
}

/// TABULAR_TRACE environment activation, evaluated once at load time. A
/// value that is neither "0" nor "1" is an output path written at exit.
struct EnvActivation {
  EnvActivation() {
    const char* env = std::getenv("TABULAR_TRACE");
    if (env == nullptr || *env == '\0' || std::strcmp(env, "0") == 0) return;
    Tracing::Enable();
    if (std::strcmp(env, "1") != 0) {
      static std::string path;
      path = env;
      std::atexit([] {
        if (!Tracing::WriteJson(path)) {
          std::fprintf(stderr, "tabular: failed to write TABULAR_TRACE=%s\n",
                       path.c_str());
        }
      });
    }
  }
};
EnvActivation g_env_activation;

}  // namespace

std::atomic<bool> Tracing::enabled_{false};

uint64_t TraceNowNs() {
  static const auto epoch = std::chrono::steady_clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch)
          .count());
}

uint32_t CurrentThreadId() {
  thread_local const uint32_t id =
      g_next_tid.fetch_add(1, std::memory_order_relaxed);
  return id;
}

void SetCurrentThreadName(std::string_view name) {
  ThreadNames& tn = ThreadNames::Instance();
  std::lock_guard<std::mutex> lock(tn.mutex);
  tn.names[CurrentThreadId()] = std::string(name);
}

namespace internal {

void RecordSpan(const char* name, const char* category, uint64_t start_ns,
                uint64_t dur_ns, const SpanArg* args, size_t num_args) {
  const uint64_t i = g_next.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = g_ring[i & kRingMask];
  slot.seq.store(2 * i + 1, std::memory_order_release);
  slot.name.store(name, std::memory_order_relaxed);
  slot.category.store(category, std::memory_order_relaxed);
  slot.start_ns.store(start_ns, std::memory_order_relaxed);
  slot.dur_ns.store(dur_ns, std::memory_order_relaxed);
  slot.tid.store(CurrentThreadId(), std::memory_order_relaxed);
  if (num_args > kMaxSpanArgs) num_args = kMaxSpanArgs;
  slot.num_args.store(static_cast<uint32_t>(num_args),
                      std::memory_order_relaxed);
  for (size_t a = 0; a < num_args; ++a) {
    slot.arg_names[a].store(args[a].name, std::memory_order_relaxed);
    slot.arg_values[a].store(args[a].value, std::memory_order_relaxed);
  }
  slot.seq.store(2 * i + 2, std::memory_order_release);
}

}  // namespace internal

void Tracing::Clear() {
  g_next.store(0, std::memory_order_relaxed);
  for (Slot& slot : g_ring) slot.seq.store(0, std::memory_order_relaxed);
}

size_t Tracing::EventCount() {
  const uint64_t next = g_next.load(std::memory_order_relaxed);
  return static_cast<size_t>(next > kRingSize ? kRingSize : next);
}

size_t Tracing::DroppedCount() {
  const uint64_t next = g_next.load(std::memory_order_relaxed);
  return static_cast<size_t>(next > kRingSize ? next - kRingSize : 0);
}

std::string Tracing::ToJson() {
  const std::vector<ExportedEvent> events = SnapshotRing();
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  // One thread_name metadata record per track that has events, so Perfetto
  // labels each thread's row.
  std::map<uint32_t, std::string> track_names;
  {
    ThreadNames& tn = ThreadNames::Instance();
    std::lock_guard<std::mutex> lock(tn.mutex);
    track_names = tn.names;
  }
  std::map<uint32_t, bool> seen;
  for (const ExportedEvent& e : events) seen[e.tid] = true;
  for (const auto& [tid, unused] : seen) {
    std::string name;
    auto it = track_names.find(tid);
    if (it != track_names.end()) {
      name = it->second;
    } else if (tid == 0) {
      name = "main";
    } else {
      name = "thread-" + std::to_string(tid);
    }
    if (!first) out.push_back(',');
    first = false;
    out += "{\"ph\":\"M\",\"pid\":1,\"tid\":" + std::to_string(tid) +
           ",\"name\":\"thread_name\",\"args\":{\"name\":\"";
    AppendJsonEscaped(name, &out);
    out += "\"}}";
  }
  for (const ExportedEvent& e : events) {
    if (!first) out.push_back(',');
    first = false;
    out += "{\"ph\":\"X\",\"pid\":1,\"tid\":" + std::to_string(e.tid) +
           ",\"ts\":";
    AppendMicros(e.start_ns, &out);
    out += ",\"dur\":";
    AppendMicros(e.dur_ns, &out);
    out += ",\"name\":\"";
    AppendJsonEscaped(e.name == nullptr ? "?" : e.name, &out);
    out += "\",\"cat\":\"";
    AppendJsonEscaped(e.category == nullptr ? "?" : e.category, &out);
    out += "\"";
    if (e.num_args > 0) {
      out += ",\"args\":{";
      for (uint32_t a = 0; a < e.num_args; ++a) {
        if (a > 0) out.push_back(',');
        out += "\"";
        AppendJsonEscaped(e.args[a].name == nullptr ? "?" : e.args[a].name,
                          &out);
        out += "\":" + std::to_string(e.args[a].value);
      }
      out += "}";
    }
    out += "}";
  }
  out += "]}";
  // Exporters read this gauge to learn how much of the trace was lost to
  // ring wrap (oldest events overwritten).
  GetGauge("obs.trace.dropped")
      .Set(static_cast<int64_t>(DroppedCount()));
  return out;
}

bool Tracing::WriteJson(const std::string& path) {
  const size_t dropped = DroppedCount();
  if (dropped > 0) {
    std::fprintf(stderr,
                 "tabular: trace ring wrapped; %zu oldest event(s) were "
                 "dropped from the export\n",
                 dropped);
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string json = ToJson();
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const bool closed = std::fclose(f) == 0;
  return written == json.size() && closed;
}

}  // namespace tabular::obs
