// perfbench: the end-to-end tabulard benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --tabulard <path> --work <dir>
//   perfbench --selftest
//
// Generates the workload's database and request stream from the seed,
// starts the real tabulard on it (several times, to time set-up), drives
// two closed-loop client connections for the given seconds, checks every
// output against single-shot runs, and prints the end-to-end metrics. With
// --trace 1 it then replays the same request stream in-process with a span
// around each layer and prints the per-layer metrics instead. The last
// line of standard output is one JSON object with the result.

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "host_probe.h"
#include "io/grid_format.h"
#include "loadgen.h"
#include "oracle.h"
#include "replay.h"
#include "verify.h"
#include "workload.h"

namespace {

using perfbench::Workload;
using perfbench::WorkloadKind;

/// Server starts per run; set-up time is their median. Half of them run
/// before the timed window (the last of those serves it) and half after the
/// oracle, so the median spans the run rather than one moment of it. Each
/// half starts the server at least kMinSetups times and goes on until it
/// has spent kSetupBudgetS, so a small database that starts in
/// milliseconds is timed over many starts.
constexpr int kMinSetups = 5;
constexpr int kMaxSetups = 200;
constexpr double kSetupBudgetS = 1.5;
/// p99_ms is the median, over consecutive blocks of this many operations
/// (by completion time), of each block's p99. Every block has at least 10
/// samples beyond its p99, and a slowdown of the shared host during a few
/// blocks does not move the median, while a tail every block has does.
constexpr size_t kTailBlockOps = 1000;
/// How often the server's resident set is sampled in the window.
constexpr auto kRssSamplePeriod = std::chrono::milliseconds(50);
/// Requests the traced replay times after its warm-up.
constexpr size_t kReplayRequests = 200;

struct Metric {
  const char* name;
  const char* unit;
};

/// The metrics a run reports, by mode; the names and units must match
/// BENCHMARK.json (run.py checks).
constexpr Metric kEndToEnd[] = {
    {"setup_s", "s"},     {"throughput_rps", "ops/s"},
    {"p50_ms", "ms"},     {"rss_mb", "MiB"},
};
constexpr Metric kPerLayer[] = {
    {"wire.encode_us", "us"},
    {"wire.decode_us", "us"},
    {"wire.response_bytes", "bytes"},
    {"core.snapshot_copy_us", "us"},
    {"core.snapshot_copy_rows", "rows"},
    {"program_cache.key_us", "us"},
    {"program_cache.hit_us", "us"},
    {"program_cache.miss_us", "us"},
    {"program_cache.hit_rate", "ratio"},
    {"program_cache.evictions", "count"},
    {"parser.us", "us"},
    {"analysis.coarsen_us", "us"},
    {"analysis.analyze_us", "us"},
    {"analysis.cost_us", "us"},
    {"optimizer.us", "us"},
    {"optimizer.rewrites_applied", "count"},
    {"optimizer.applied_ratio", "ratio"},
    {"interpreter.us", "us"},
    {"interpreter.steps", "count"},
    {"algebra.group.us", "us"},
    {"algebra.group.rows_per_s", "rows/s"},
    {"algebra.cleanup.us", "us"},
    {"algebra.cleanup.rows_per_s", "rows/s"},
    {"algebra.merge.us", "us"},
    {"algebra.merge.rows_per_s", "rows/s"},
    {"algebra.purge.us", "us"},
    {"algebra.purge.rows_per_s", "rows/s"},
    {"algebra.project.us", "us"},
    {"algebra.project.rows_per_s", "rows/s"},
    {"exec.forks", "count"},
    {"exec.fork_ratio", "ratio"},
    {"version.current_us", "us"},
    {"version.commit_us", "us"},
    {"version.conflicts_per_commit", "ratio"},
    {"version.max_conflict_streak", "count"},
    {"version.starved_commits", "count"},
    {"io.load_s", "s"},
    {"io.serialize_us", "us"},
    {"server.request_p50_us", "us"},
    {"server.request_p99_us", "us"},
    {"server.request_mean_us", "us"},
    {"server.unattributed_us", "us"},
    {"replay.request_us", "us"},
    {"write_p50_ms", "ms"},
    {"write_p99_ms", "ms"},
    {"verify.order_mismatches", "count"},
    {"host.probe_us", "us"},
    {"raw.setup_s", "s"},
    {"raw.throughput_rps", "ops/s"},
    {"raw.p50_ms", "ms"},
    {"raw.p99_ms", "ms"},
    {"peak_rss_mb", "MiB"},
    {"p99_ms", "ms"},
};

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string tabulard;
  std::string work = ".";
  bool selftest = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      args->selftest = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    if (flag == "--workload") {
      args->workload = v;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      args->trace = std::strcmp(v, "0") != 0;
    } else if (flag == "--tabulard") {
      args->tabulard = v;
    } else if (flag == "--work") {
      args->work = v;
    } else {
      return false;
    }
  }
  return args->selftest || (!args->workload.empty() &&
                            !args->tabulard.empty() && args->seconds > 0);
}

std::string SelfTests() {
  std::string failure = perfbench::WorkloadSelfTest();
  if (failure.empty()) failure = perfbench::OracleSelfTest();
  return failure;
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::map<std::string, double>& values, bool trace) {
  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  bool first = true;
  auto emit = [&](const Metric& m) {
    auto it = values.find(m.name);
    const double v = it == values.end() ? 0.0 : it->second;
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", m.name, v == v ? v : 0.0, m.unit);
    json += buf;
    first = false;
  };
  if (trace) {
    for (const Metric& m : kPerLayer) emit(m);
  } else {
    for (const Metric& m : kEndToEnd) emit(m);
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> --tabulard <path> --work <dir>\n"
                 "       perfbench --selftest\n");
    return 2;
  }
  const std::string selftest = SelfTests();
  if (!selftest.empty()) {
    std::fprintf(stderr, "perfbench: self-test failed: %s\n",
                 selftest.c_str());
    return 1;
  }
  if (args.selftest) {
    std::printf("perfbench: self-tests passed\n");
    return 0;
  }
  const std::optional<WorkloadKind> kind =
      perfbench::ParseWorkloadKind(args.workload);
  if (!kind) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  const Workload workload(*kind, args.seed);
  const std::string stem =
      args.work + "/" + args.workload + "-" + std::to_string(args.seed);

  // Inputs: tabulard receives only this file and the program texts.
  const tabular::core::TabularDatabase db = workload.Database();
  const std::string tdb = stem + ".tdb";
  tabular::Status saved = tabular::io::SaveDatabaseFile(db, tdb);
  if (!saved.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", saved.ToString().c_str());
    return 1;
  }

  // Every timing below is reported at the probe's reference host speed:
  // it is divided by the host's slowdown over the interval it was measured
  // in (host_probe.h). The summary lines also print the measured values.
  const perfbench::HostProbe probe;
  using ProbeClock = perfbench::HostProbe::Clock;
  perfbench::ServerProcess server;
  std::vector<double> setups;         // measured
  std::vector<double> setups_scaled;  // at the reference speed
  // Leaves the last server it started running.
  auto time_setups = [&] {
    const ProbeClock::time_point round_start = ProbeClock::now();
    const size_t first = setups.size();
    double spent = 0;
    for (int i = 0; i < kMaxSetups; ++i) {
      if (i >= kMinSetups && spent >= kSetupBudgetS) break;
      server.Stop();
      tabular::Result<double> started = server.Start(args.tabulard, tdb);
      if (!started.ok()) {
        std::fprintf(stderr, "perfbench: cannot start tabulard: %s\n",
                     started.status().ToString().c_str());
        return false;
      }
      setups.push_back(*started);
      spent += *started;
    }
    const double slowdown = probe.Slowdown(round_start, ProbeClock::now());
    for (size_t i = first; i < setups.size(); ++i) {
      setups_scaled.push_back(setups[i] / slowdown);
    }
    return true;
  };
  if (!time_setups()) return 1;
  const uint16_t port = server.port();

  // The window's connections also send the warm-up, taking turns, and
  // read the server's counters, so no server session starts or ends between
  // warm-up and window. A tabulard session thread keeps the table chunks it
  // freed in a thread-local freelist and hands them to malloc when it
  // exits. With a separate warm-up connection, the window's resident set
  // held one more 1M-row copy (~96 MiB) in some runs, most likely that
  // session's memory.
  std::vector<tabular::server::Client> clients;
  for (int c = 0; c < Workload::kClients; ++c) {
    tabular::Result<tabular::server::Client> client =
        tabular::server::Client::ConnectTcp("127.0.0.1", port);
    if (!client.ok()) {
      std::fprintf(stderr, "perfbench: %s\n",
                   client.status().ToString().c_str());
      return 1;
    }
    clients.push_back(std::move(*client));
  }
  std::vector<perfbench::CommitRecord> commits;
  const std::vector<perfbench::Request> warmup = workload.Warmup();
  for (size_t i = 0; i < warmup.size(); ++i) {
    const perfbench::Request& r = warmup[i];
    const perfbench::RunOutcome out =
        perfbench::RunWithRetries(clients[i % clients.size()], r);
    if (!out.ok) {
      std::fprintf(stderr, "perfbench: warm-up request failed: %s\n",
                   out.error.c_str());
      return 1;
    }
    if (r.commit) commits.push_back({out.committed_version, r.program});
  }

  tabular::Result<perfbench::ServerCounters> before =
      perfbench::ReadServerCounters(clients[0]);
  perfbench::RssSampler rss(server, kRssSamplePeriod);
  const ProbeClock::time_point window_start = ProbeClock::now();
  const perfbench::LoadResult load =
      perfbench::RunClosedLoop(workload, clients, args.seconds);
  const ProbeClock::time_point window_end = ProbeClock::now();
  const std::vector<double>& rss_samples = rss.Stop();
  const double peak_rss_mb = server.PeakRssMb();
  tabular::Result<perfbench::ServerCounters> after =
      perfbench::ReadServerCounters(clients[0]);
  if (!before.ok() || !after.ok()) {
    std::fprintf(stderr, "perfbench: cannot read server counters\n");
    return 1;
  }

  const double window_slowdown = probe.Slowdown(window_start, window_end);
  const auto window_at = [&](double seconds) {
    return window_start + std::chrono::duration_cast<ProbeClock::duration>(
                              std::chrono::duration<double>(seconds));
  };

  // Operations by completion time, cut into blocks of kTailBlockOps (the
  // remainder joins the last block). Each block's latencies are scaled by
  // the host's slowdown over the block.
  std::vector<const perfbench::OpRecord*> by_end;
  for (const perfbench::OpRecord& op : load.ops) by_end.push_back(&op);
  std::sort(by_end.begin(), by_end.end(),
            [](const perfbench::OpRecord* a, const perfbench::OpRecord* b) {
              return a->end_s < b->end_s;
            });
  const size_t blocks =
      by_end.empty() ? 0 : std::max<size_t>(1, by_end.size() / kTailBlockOps);
  std::vector<double> latencies;
  std::vector<double> latencies_scaled;
  std::vector<double> write_latencies_scaled;
  std::vector<double> block_slowdown;
  std::vector<double> block_p99;
  std::vector<double> block_p99_scaled;
  for (size_t b = 0; b < blocks; ++b) {
    const size_t lo = b * kTailBlockOps;
    const size_t hi = b + 1 == blocks ? by_end.size() : lo + kTailBlockOps;
    const double slowdown = probe.Slowdown(
        window_at(by_end[lo]->end_s - by_end[lo]->latency_ms / 1e3),
        window_at(by_end[hi - 1]->end_s));
    std::vector<double> block;
    for (size_t i = lo; i < hi; ++i) {
      const perfbench::OpRecord& op = *by_end[i];
      block.push_back(op.latency_ms);
      latencies.push_back(op.latency_ms);
      latencies_scaled.push_back(op.latency_ms / slowdown);
      if (op.commit) write_latencies_scaled.push_back(op.latency_ms / slowdown);
    }
    block_slowdown.push_back(slowdown);
    // All operations of a block share its slowdown, so scaling its p99 is
    // scaling its operations.
    block_p99.push_back(perfbench::Percentile(block, 0.99));
    block_p99_scaled.push_back(block_p99.back() / slowdown);
  }

  uint64_t failed_ops = 0;
  uint64_t retries = 0;
  uint32_t max_retries = 0;
  uint64_t starved = 0;
  for (const perfbench::OpRecord& op : load.ops) {
    retries += op.retries;
    max_retries = std::max(max_retries, op.retries);
    starved += op.starved ? 1 : 0;
    if (!op.ok) {
      ++failed_ops;
      continue;
    }
    if (op.commit) {
      commits.push_back({op.committed_version,
                         workload.At(op.client, op.index).program});
    }
  }

  perfbench::OracleTally tally;
  switch (*kind) {
    case WorkloadKind::kHotReadResident:
      perfbench::VerifyReads(workload.ReadPrograms(), db, port,
                             Workload::kClients, &tally);
      break;
    case WorkloadKind::kRestructureCommit: {
      tabular::core::TabularDatabase final_db;
      perfbench::VerifyCommits(commits, db, port, &tally, &final_db);
      perfbench::VerifyReads(workload.ReadPrograms(), final_db, port,
                             Workload::kClients, &tally);
      break;
    }
  }

  perfbench::ReplayResult replay;
  if (args.trace) {
    replay = perfbench::RunReplay(workload, tdb, kReplayRequests,
                                  stem + ".trace.json");
  }
  if (!time_setups()) return 1;
  server.Stop();

  const uint64_t attempted = load.ops.size();
  const uint64_t failed = failed_ops + tally.mismatches;
  const double commits_done =
      static_cast<double>(after->commits - before->commits);
  const tabular::obs::Histogram::Snapshot server_latency =
      tabular::obs::Histogram::Delta(after->request_latency_us,
                                     before->request_latency_us);

  std::map<std::string, double> values;
  // Measured values carry the prefix "raw."; the others are at the
  // reference host speed.
  values["raw.setup_s"] = perfbench::Percentile(setups, 0.5);
  values["setup_s"] = perfbench::Percentile(setups_scaled, 0.5);
  values["raw.throughput_rps"] =
      static_cast<double>(attempted - failed_ops) / load.elapsed_s;
  values["throughput_rps"] = values["raw.throughput_rps"] * window_slowdown;
  values["raw.p50_ms"] = perfbench::Percentile(latencies, 0.5);
  values["p50_ms"] = perfbench::Percentile(latencies_scaled, 0.5);
  values["raw.p99_ms"] = perfbench::Percentile(block_p99, 0.5);
  values["p99_ms"] = perfbench::Percentile(block_p99_scaled, 0.5);
  values["peak_rss_mb"] = peak_rss_mb;
  values["rss_mb"] = perfbench::Percentile(rss_samples, 0.5);
  values["write_p50_ms"] = perfbench::Percentile(write_latencies_scaled, 0.5);
  values["write_p99_ms"] = perfbench::Percentile(write_latencies_scaled, 0.99);
  values["host.probe_us"] = window_slowdown * perfbench::HostProbe::kReferenceUs;
  values["error_rate"] =
      attempted == 0 ? 1.0
                     : static_cast<double>(failed) /
                           static_cast<double>(attempted);
  values["verify.order_mismatches"] =
      static_cast<double>(tally.order_mismatches);
  values["version.conflicts_per_commit"] =
      commits_done == 0 ? 0.0
                        : static_cast<double>(after->conflicts -
                                              before->conflicts) /
                              commits_done;
  values["version.max_conflict_streak"] = max_retries;
  values["version.starved_commits"] = static_cast<double>(starved);
  // The server's histogram has log2 buckets: its p50 and p99 are estimates
  // interpolated inside one bucket. Its sum and count are exact, so the
  // unattributed gap compares means.
  values["server.request_p50_us"] =
      tabular::obs::HistogramPercentile(server_latency, 0.5);
  values["server.request_p99_us"] =
      tabular::obs::HistogramPercentile(server_latency, 0.99);
  values["server.request_mean_us"] =
      server_latency.count == 0
          ? 0.0
          : static_cast<double>(server_latency.sum) /
                static_cast<double>(server_latency.count);
  for (const auto& [name, v] : replay.metrics) values[name] = v;
  if (args.trace) {
    values["server.unattributed_us"] =
        values["server.request_mean_us"] - values["replay.request_us"];
  }

  std::printf("perfbench: workload=%s seed=%llu seconds=%g clients=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              Workload::kClients);
  std::printf("  operations %llu in %.2f s: failed %llu, commit retries "
              "%llu (longest streak %u on one commit, %llu commits took "
              "priority), server commits %.0f\n",
              static_cast<unsigned long long>(attempted), load.elapsed_s,
              static_cast<unsigned long long>(failed_ops),
              static_cast<unsigned long long>(retries), max_retries,
              static_cast<unsigned long long>(starved), commits_done);
  std::printf("  setup: %zu starts, min %.6g s, max %.6g s\n", setups.size(),
              *std::min_element(setups.begin(), setups.end()),
              *std::max_element(setups.begin(), setups.end()));
  std::printf("  host probe: %.6g us in the window (reference %.6g us); "
              "slowdown per block of %zu operations:",
              values["host.probe_us"], perfbench::HostProbe::kReferenceUs,
              kTailBlockOps);
  for (double v : block_slowdown) std::printf(" %.4g", v);
  std::printf("\n");
  if (!rss_samples.empty()) {
    std::printf("  rss_mb over the window: %zu samples, min %.6g, max %.6g\n",
                rss_samples.size(),
                *std::min_element(rss_samples.begin(), rss_samples.end()),
                *std::max_element(rss_samples.begin(), rss_samples.end()));
  }
  std::printf("  p99_ms per block:");
  for (double v : block_p99_scaled) std::printf(" %.6g", v);
  std::printf("\n");
  if (load.ops.size() < kTailBlockOps) {
    std::printf("  note: fewer than %zu operations; the p99 has fewer than "
                "10 samples beyond it\n", kTailBlockOps);
  }
  for (const char* name :
       {"setup_s", "raw.setup_s", "throughput_rps", "raw.throughput_rps",
        "p50_ms", "raw.p50_ms", "p99_ms", "raw.p99_ms", "write_p50_ms",
        "write_p99_ms", "error_rate", "rss_mb", "peak_rss_mb"}) {
    std::printf("  %-18s %.6g\n", name, values[name]);
  }
  std::printf("  verify: %llu checked, %llu mismatches, %llu order-only "
              "(verify.order_mismatches)\n",
              static_cast<unsigned long long>(tally.checked),
              static_cast<unsigned long long>(tally.mismatches),
              static_cast<unsigned long long>(tally.order_mismatches));
  if (!tally.first_failure.empty()) {
    std::printf("  first verification failure: %s\n",
                tally.first_failure.c_str());
  }
  if (!load.first_error.empty()) {
    std::printf("  first error: %s\n", load.first_error.c_str());
  }
  for (const std::string& line : replay.report) std::printf("%s\n", line.c_str());
  if (!replay.error.empty()) {
    std::printf("  replay error: %s\n", replay.error.c_str());
  }

  const bool correct = failed == 0 && attempted > 0 && replay.error.empty();
  PrintResult(correct, attempted, failed, values, args.trace);
  return 0;
}
