#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "workload.h"

namespace perfbench {

struct ReplayResult {
  /// Per-layer metrics (names as in BENCHMARK.json).
  std::map<std::string, double> metrics;
  /// Human-readable self-time breakdown, one line each.
  std::vector<std::string> report;
  /// Non-empty when a replayed request failed.
  std::string error;
};

/// The traced run: replays `requests` requests of `workload`'s stream
/// in-process and single-client (client 0's and client 1's streams
/// interleaved), after the same warm-up the end-to-end run sends. Each
/// request calls the public function of every layer in the order
/// `Server::HandleRun` calls them, with a span around each call; spans are
/// kept in memory and written to `trace_path` as Chrome trace JSON at the
/// end. `tdb_path` is the database file the server was started from.
ReplayResult RunReplay(const Workload& workload, const std::string& tdb_path,
                       size_t requests, const std::string& trace_path);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
