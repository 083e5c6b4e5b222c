#include "replay.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <utility>
#include <variant>

#include "analysis/analyzer.h"
#include "analysis/cost.h"
#include "analysis/shape.h"
#include "io/grid_format.h"
#include "lang/interpreter.h"
#include "lang/optimizer.h"
#include "lang/parser.h"
#include "loadgen.h"
#include "obs/metrics.h"
#include "server/program_cache.h"
#include "server/version.h"
#include "server/wire.h"

namespace perfbench {

namespace {

using tabular::core::TabularDatabase;
namespace server = tabular::server;
namespace lang = tabular::lang;
namespace analysis = tabular::analysis;
namespace obs = tabular::obs;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Track 0 is the request timeline. Track 1 holds measurements taken
/// beside it: the cache key and, on a miss, the compile breakdown. They
/// repeat work `ProgramCache::Get` already does on the timeline, so they
/// attribute its time without being counted twice.
constexpr int kTimeline = 0;
constexpr int kBeside = 1;

/// The algebra operators whose time and throughput are reported.
const char* const kReportedOps[] = {"group", "cleanup", "merge", "purge",
                                    "project"};

struct Span {
  std::string name;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t request = 0;
  int parent = -1;
  int track = kTimeline;

  uint64_t duration() const { return end_ns - start_ns; }
};

/// In-memory span recorder; written out once, after the replay.
class Tracer {
 public:
  int Begin(std::string name, uint64_t request, int parent,
            int track = kTimeline) {
    spans_.push_back(Span{std::move(name), NowNs(), 0, request, parent, track});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int id) { spans_[static_cast<size_t>(id)].end_ns = NowNs(); }
  void Add(Span span) { spans_.push_back(std::move(span)); }
  Span& at(int id) { return spans_[static_cast<size_t>(id)]; }
  const std::vector<Span>& spans() const { return spans_; }

  bool WriteChromeJson(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    const uint64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    out << "{\"traceEvents\":[";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char line[256];
      std::snprintf(line, sizeof(line),
                    "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"request\":%llu}}",
                    i == 0 ? "" : ",", s.name.c_str(), s.track,
                    static_cast<double>(s.start_ns - origin) / 1e3,
                    static_cast<double>(s.duration()) / 1e3,
                    static_cast<unsigned long long>(s.request));
      out << line;
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  std::vector<Span> spans_;
};

/// Counts the replay takes at layer boundaries.
struct Tally {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t rewrites_applied = 0;
  uint64_t rewrites_rejected = 0;
  uint64_t rewrites_cost_rejected = 0;
  uint64_t steps = 0;
  uint64_t response_bytes = 0;
  uint64_t copy_rows = 0;
  uint64_t forks = 0;
  uint64_t serial_cutoff_hits = 0;
  std::map<std::string, uint64_t> op_rows_in;
};

/// Registry counters sampled around one call.
class CounterDelta {
 public:
  explicit CounterDelta(std::vector<std::string> names)
      : names_(std::move(names)) {
    for (const std::string& n : names_) before_.push_back(obs::CounterValue(n));
  }
  uint64_t operator[](size_t i) const {
    return obs::CounterValue(names_[i]) - before_[i];
  }

 private:
  std::vector<std::string> names_;
  std::vector<uint64_t> before_;
};

/// Opens a span on construction and closes it on destruction; a no-op
/// without a tracer (the untraced warm-up).
class Scope {
 public:
  Scope(Tracer* tracer, const char* name, uint64_t request, int parent,
        int track = kTimeline)
      : tracer_(tracer),
        id_(tracer == nullptr ? -1
                              : tracer->Begin(name, request, parent, track)) {}
  ~Scope() { Close(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  void Close() {
    if (tracer_ != nullptr && !closed_) tracer_->End(id_);
    closed_ = true;
  }
  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
  bool closed_ = false;
};

/// The in-process stand-in for one tabulard session: the same version
/// store, compiled-program cache and interpreter settings the server uses
/// with its default options.
class Replayer {
 public:
  explicit Replayer(TabularDatabase db) : versions_(std::move(db)) {}

  const server::ProgramCache& cache() const { return cache_; }

  /// One request through every layer, in `Server::HandleRun` order.
  /// Returns "" on success, else the error.
  std::string Handle(const Request& request, uint64_t id, Tracer* tracer,
                     Tally* tally) {
    server::RunRequest sent;
    sent.program = request.program;
    sent.commit = request.commit;
    sent.request_id = id;
    const std::string payload = server::EncodeRunRequest(sent);

    Scope root(tracer, "request", id, -1);
    server::RunRequest req;
    {
      Scope s(tracer, "wire.decode", id, root.id());
      tabular::Status st = server::DecodeRunRequest(payload, &req);
      if (!st.ok()) return st.ToString();
    }
    server::Snapshot snap;
    {
      Scope s(tracer, "version.current", id, root.id());
      snap = versions_.Current();
    }
    bool hit = false;
    std::shared_ptr<const server::CompiledProgram> compiled;
    {
      CounterDelta rewrites({"optimizer.rewrites_applied",
                             "optimizer.rewrites_rejected",
                             "optimizer.rewrites_cost_rejected"});
      Scope s(tracer, "program_cache.get", id, root.id());
      compiled = cache_.Get(req.program, *snap.db, &hit);
      s.Close();
      if (tracer != nullptr) {
        tracer->at(s.id()).name =
            hit ? "program_cache.hit" : "program_cache.miss";
      }
      if (tally != nullptr) {
        ++(hit ? tally->hits : tally->misses);
        tally->rewrites_applied += rewrites[0];
        tally->rewrites_rejected += rewrites[1];
        tally->rewrites_cost_rejected += rewrites[2];
      }
    }
    if (!compiled->front_end.ok()) return compiled->front_end.ToString();

    TabularDatabase work;
    {
      Scope s(tracer, "core.snapshot_copy", id, root.id());
      work = *snap.db;
    }
    if (tally != nullptr) {
      for (const auto& t : snap.db->tables()) tally->copy_rows += t.height();
    }

    lang::InterpreterOptions options;
    options.analyze_first = false;
    options.optimize = false;
    options.profile = true;
    lang::Interpreter interpreter(options);
    std::vector<std::string> counter_names = {
        "exec.parallel.forks", "exec.parallel.serial_cutoff_hits"};
    for (const char* op : kReportedOps) {
      counter_names.push_back(std::string("algebra.") + op + ".rows_in");
    }
    CounterDelta counters(counter_names);
    tabular::Status run;
    uint64_t run_start = 0;
    int run_span = -1;
    {
      Scope s(tracer, "interpreter.run", id, root.id());
      run_span = s.id();
      run_start = NowNs();
      run = interpreter.Run(compiled->executable(), &work);
    }
    if (!run.ok()) return run.ToString();
    if (tally != nullptr) {
      tally->steps += interpreter.steps_executed();
      tally->forks += counters[0];
      tally->serial_cutoff_hits += counters[1];
      for (size_t i = 0; i < std::size(kReportedOps); ++i) {
        tally->op_rows_in[kReportedOps[i]] += counters[i + 2];
      }
    }
    if (tracer != nullptr) {
      StatementSpans(compiled->executable(), interpreter.profile(), run_start,
                     id, run_span, tracer);
    }

    server::RunResponse resp;
    resp.executed_version = snap.version;
    resp.cache_hit = hit;
    resp.steps = interpreter.steps_executed();
    resp.rewrites_applied =
        static_cast<uint32_t>(compiled->optimize_stats.applied);
    resp.rewrites_rejected =
        static_cast<uint32_t>(compiled->optimize_stats.rejected);
    if (req.commit) {
      Scope s(tracer, "version.commit", id, root.id());
      tabular::Result<uint64_t> committed =
          versions_.Commit(snap.version, std::move(work));
      if (!committed.ok()) return committed.status().ToString();
      resp.committed_version = *committed;
    }
    {
      Scope s(tracer, "wire.encode", id, root.id());
      const std::string bytes = server::EncodeRunResponse(resp);
      if (tally != nullptr) tally->response_bytes += bytes.size();
    }
    root.Close();

    // Beside the timeline, after the request span has closed: the cache
    // key and, on a miss, the compile phases, against the same snapshot.
    if (tracer != nullptr) {
      {
        Scope s(tracer, "program_cache.key", id, -1, kBeside);
        (void)server::SchemaFingerprint(*snap.db);
      }
      if (!hit) CompileBreakdown(req.program, *snap.db, id, tracer);
    }
    return "";
  }

 private:
  /// What a miss spent on each compile phase, measured by calling the
  /// phases `ProgramCache::Get` runs, in its order, beside the timeline.
  static void CompileBreakdown(const std::string& text,
                               const TabularDatabase& db, uint64_t id,
                               Tracer* tracer) {
    tabular::Result<lang::Program> parsed = [&] {
      Scope s(tracer, "lang.parser", id, -1, kBeside);
      return lang::ParseProgram(text);
    }();
    if (!parsed.ok()) return;
    analysis::AbstractDatabase coarse;
    {
      Scope s(tracer, "analysis.coarsen", id, -1, kBeside);
      coarse = server::CoarsenedSchema(db);
    }
    {
      Scope s(tracer, "analysis.analyze", id, -1, kBeside);
      analysis::AnalysisResult analyzed =
          analysis::AnalyzeProgram(*parsed, coarse);
      if (analysis::FirstError(analyzed.diagnostics) != nullptr) return;
    }
    lang::Program optimized;
    {
      Scope s(tracer, "lang.optimizer", id, -1, kBeside);
      optimized = lang::OptimizeProgram(*parsed, coarse);
    }
    {
      Scope s(tracer, "analysis.cost", id, -1, kBeside);
      analysis::CostReport cost = analysis::EstimateCost(
          optimized, analysis::AbstractDatabase::FromDatabase(db));
      (void)cost;
    }
  }

  /// One span per top-level statement, laid end to end inside the
  /// interpreter span from the profile's per-statement wall times.
  static void StatementSpans(const lang::Program& program,
                             const obs::ProfileNode& profile,
                             uint64_t run_start, uint64_t id, int parent,
                             Tracer* tracer) {
    uint64_t at = run_start;
    const size_t n =
        std::min(program.statements.size(), profile.children.size());
    for (size_t i = 0; i < n; ++i) {
      const auto& node = program.statements[i].node;
      std::string name = "lang.while";
      if (const auto* a = std::get_if<lang::Assignment>(&node)) {
        name = std::string("algebra.") + lang::OpKindToString(a->op);
      } else if (std::holds_alternative<lang::DropStatement>(node)) {
        name = "lang.drop";
      }
      const uint64_t wall = profile.children[i].wall_ns;
      tracer->Add(Span{std::move(name), at, at + wall, id, parent, kTimeline});
      at += wall;
    }
  }

  server::VersionedDatabase versions_;
  server::ProgramCache cache_;
};

}  // namespace

ReplayResult RunReplay(const Workload& workload, const std::string& tdb_path,
                       size_t requests, const std::string& trace_path) {
  ReplayResult result;
  std::map<std::string, double>& m = result.metrics;

  uint64_t t0 = NowNs();
  tabular::Result<TabularDatabase> loaded =
      tabular::io::LoadDatabaseFile(tdb_path);
  if (!loaded.ok()) {
    result.error = loaded.status().ToString();
    return result;
  }
  m["io.load_s"] = static_cast<double>(NowNs() - t0) / 1e9;
  t0 = NowNs();
  const size_t dump_bytes = tabular::io::SerializeDatabase(*loaded).size();
  m["io.serialize_us"] = static_cast<double>(NowNs() - t0) / 1e3;
  if (dump_bytes == 0) result.error = "empty database dump";

  Replayer replayer(std::move(*loaded));
  for (const Request& request : workload.Warmup()) {
    std::string err = replayer.Handle(request, 0, nullptr, nullptr);
    if (!err.empty() && result.error.empty()) result.error = "warm-up: " + err;
  }
  Tracer tracer;
  Tally tally;
  const uint64_t evictions_before = replayer.cache().evictions();
  for (size_t k = 0; k < requests; ++k) {
    const Request request =
        workload.At(static_cast<int>(k % Workload::kClients),
                    k / Workload::kClients);
    std::string err = replayer.Handle(request, k + 1, &tracer, &tally);
    if (!err.empty() && result.error.empty()) result.error = err;
  }
  if (!trace_path.empty() && !tracer.WriteChromeJson(trace_path) &&
      result.error.empty()) {
    result.error = "cannot write " + trace_path;
  }

  // Sums per span name and track; self time subtracts the children.
  const double n = static_cast<double>(std::max<size_t>(requests, 1));
  std::map<std::string, double> total_us[2];
  std::map<std::string, double> self_us;
  std::vector<double> request_us;
  std::vector<double> child_us(tracer.spans().size(), 0.0);
  for (const Span& s : tracer.spans()) {
    if (s.parent >= 0) {
      child_us[static_cast<size_t>(s.parent)] +=
          static_cast<double>(s.duration()) / 1e3;
    }
  }
  for (size_t i = 0; i < tracer.spans().size(); ++i) {
    const Span& s = tracer.spans()[i];
    const double us = static_cast<double>(s.duration()) / 1e3;
    total_us[s.track][s.name] += us / n;
    if (s.track == kTimeline) self_us[s.name] += (us - child_us[i]) / n;
    if (s.name == "request") request_us.push_back(us);
  }
  auto timeline = [&](const char* name) { return total_us[kTimeline][name]; };
  auto beside = [&](const char* name) { return total_us[kBeside][name]; };

  m["wire.decode_us"] = timeline("wire.decode");
  m["wire.encode_us"] = timeline("wire.encode");
  m["wire.response_bytes"] = static_cast<double>(tally.response_bytes) / n;
  m["version.current_us"] = timeline("version.current");
  m["version.commit_us"] = timeline("version.commit");
  m["program_cache.key_us"] = beside("program_cache.key");
  m["program_cache.hit_us"] = timeline("program_cache.hit");
  m["program_cache.miss_us"] = timeline("program_cache.miss");
  m["program_cache.hit_rate"] =
      tally.hits + tally.misses == 0
          ? 0.0
          : static_cast<double>(tally.hits) /
                static_cast<double>(tally.hits + tally.misses);
  m["program_cache.evictions"] =
      static_cast<double>(replayer.cache().evictions() - evictions_before);
  m["parser.us"] = beside("lang.parser");
  m["analysis.coarsen_us"] = beside("analysis.coarsen");
  m["analysis.analyze_us"] = beside("analysis.analyze");
  m["analysis.cost_us"] = beside("analysis.cost");
  m["optimizer.us"] = beside("lang.optimizer");
  m["optimizer.rewrites_applied"] =
      static_cast<double>(tally.rewrites_applied);
  const uint64_t candidates = tally.rewrites_applied +
                              tally.rewrites_rejected +
                              tally.rewrites_cost_rejected;
  m["optimizer.applied_ratio"] =
      candidates == 0 ? 0.0
                      : static_cast<double>(tally.rewrites_applied) /
                            static_cast<double>(candidates);
  m["core.snapshot_copy_us"] = timeline("core.snapshot_copy");
  m["core.snapshot_copy_rows"] = static_cast<double>(tally.copy_rows) / n;
  m["interpreter.us"] = timeline("interpreter.run");
  m["interpreter.steps"] = static_cast<double>(tally.steps) / n;
  for (const char* op : kReportedOps) {
    const std::string name = std::string("algebra.") + op;
    const double us = timeline(name.c_str());
    m[name + ".us"] = us;
    m[name + ".rows_per_s"] =
        us <= 0 ? 0.0
                : static_cast<double>(tally.op_rows_in[op]) / (us * n / 1e6);
  }
  m["exec.forks"] = static_cast<double>(tally.forks);
  m["exec.fork_ratio"] =
      tally.forks + tally.serial_cutoff_hits == 0
          ? 0.0
          : static_cast<double>(tally.forks) /
                static_cast<double>(tally.forks + tally.serial_cutoff_hits);
  m["replay.request_us"] = timeline("request");

  // Self time per layer, as a share of the mean replayed request.
  double algebra_self = 0;
  for (const auto& [name, us] : self_us) {
    if (name.rfind("algebra.", 0) == 0 || name.rfind("lang.", 0) == 0) {
      algebra_self += us;
    }
  }
  const double mean_request = timeline("request");
  const std::vector<std::pair<std::string, double>> layers = {
      {"server.wire", self_us["wire.decode"] + self_us["wire.encode"]},
      {"server.version",
       self_us["version.current"] + self_us["version.commit"]},
      {"server.program_cache",
       self_us["program_cache.hit"] + self_us["program_cache.miss"]},
      {"core (snapshot copy)", self_us["core.snapshot_copy"]},
      {"lang.interpreter", self_us["interpreter.run"]},
      {"algebra (statements)", algebra_self},
      {"replay loop", self_us["request"]},
  };
  auto share = [&](double us) {
    return mean_request <= 0 ? 0.0 : 100.0 * us / mean_request;
  };
  char line[160];
  std::snprintf(line, sizeof(line),
                "replay: %zu requests, mean %.1f us, median %.1f us", requests,
                mean_request, Percentile(request_us, 0.5));
  result.report.push_back(line);
  for (const auto& [layer, us] : layers) {
    std::snprintf(line, sizeof(line), "  self %-24s %12.1f us %6.1f%%",
                  layer.c_str(), us, share(us));
    result.report.push_back(line);
  }
  for (const char* name : {"program_cache.key", "lang.parser",
                           "analysis.coarsen", "analysis.analyze",
                           "lang.optimizer", "analysis.cost"}) {
    std::snprintf(line, sizeof(line), "  beside %-22s %12.1f us %6.1f%%",
                  name, beside(name), share(beside(name)));
    result.report.push_back(line);
  }
  std::snprintf(
      line, sizeof(line),
      "  shares: copy+key %.1f%%  cache miss %.1f%%  interpreter %.1f%%",
      share(timeline("core.snapshot_copy") + beside("program_cache.key")),
      share(timeline("program_cache.miss")), share(timeline("interpreter.run")));
  result.report.push_back(line);
  return result;
}

}  // namespace perfbench
