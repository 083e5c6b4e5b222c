#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <sys/types.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/status.h"
#include "obs/metrics.h"
#include "server/client.h"
#include "workload.h"

namespace perfbench {

/// A `tabulard` child process on an ephemeral localhost TCP port. The
/// destructor stops it, so no exit path leaves a server behind.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { Stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Spawns `binary --db <db_path>`, reads the bound port from its banner
  /// and pings until the server answers. Returns the seconds from spawn to
  /// the first successful ping: the database load plus process start.
  tabular::Result<double> Start(const std::string& binary,
                                const std::string& db_path);

  uint16_t port() const { return port_; }

  /// VmHWM (peak resident set) of the server so far, in MiB.
  double PeakRssMb() const { return StatusMb("VmHWM:"); }
  /// VmRSS (resident set) of the server now, in MiB.
  double RssMb() const { return StatusMb("VmRSS:"); }

  /// Asks the server to shut down and waits for the process; kills it if
  /// it has not exited within the drain deadline. Idempotent.
  void Stop();

 private:
  /// A kB field of /proc/<pid>/status, in MiB; 0 if it cannot be read.
  double StatusMb(const char* field) const;

  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  uint16_t port_ = 0;
};

/// Samples a server's resident set (VmRSS) on a thread of its own, every
/// `period` from construction until Stop().
class RssSampler {
 public:
  RssSampler(const ServerProcess& server, std::chrono::milliseconds period);
  ~RssSampler() { Stop(); }
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;

  /// Stops sampling; returns the samples in MiB. Idempotent.
  const std::vector<double>& Stop();

 private:
  std::atomic<bool> stop_{false};
  std::vector<double> samples_;  // written by thread_ until it is joined
  std::thread thread_;
};

/// One completed closed-loop operation.
struct OpRecord {
  int client = 0;
  uint64_t index = 0;
  double latency_ms = 0;  ///< send to final response, conflict retries included
  double end_s = 0;       ///< completion, in seconds since the window opened
  bool commit = false;
  bool ok = false;
  uint32_t retries = 0;
  bool starved = false;  ///< lost kPriorityAfterConflicts races in a row
  uint64_t committed_version = 0;
};

struct LoadResult {
  std::vector<OpRecord> ops;
  double elapsed_s = 0;
  std::string first_error;
};

/// A commit that loses a first-committer-wins race is re-sent until it
/// wins: a retried conflict is not a failure. Only a commit still losing
/// after this many seconds of retries counts as failed. In a closed loop
/// the other clients stop committing when the window ends, so a starved
/// commit wins soon after it; the limit only bounds a run on a server
/// that never accepts a commit.
constexpr double kCommitRetryLimitS = 60.0;

/// First-committer-wins lets a long commit lose to the other client's short
/// commits again and again (see README.md). In the closed loop, a commit
/// that has lost this many races in a row takes priority: the other
/// clients hold their commits until it has won. Reports go on meanwhile.
constexpr uint32_t kPriorityAfterConflicts = 4;

struct RunOutcome {
  bool ok = false;
  uint32_t retries = 0;
  bool starved = false;
  uint64_t committed_version = 0;
  std::string error;
  std::string dump;  ///< the result database when `want_dump`
};

/// Sends `request`, retrying commit conflicts for up to
/// kCommitRetryLimitS seconds.
RunOutcome RunWithRetries(tabular::server::Client& client,
                          const Request& request, bool want_dump = false);

/// Drives the `Workload::kClients` connections in `clients` as closed
/// loops for `seconds`: each sends request i+1 of its stream only after
/// request i completed. Commits are retried as RunWithRetries does, under
/// the priority rule of kPriorityAfterConflicts.
LoadResult RunClosedLoop(const Workload& workload,
                         std::vector<tabular::server::Client>& clients,
                         double seconds);

/// What the server reports about itself (Stats + Metrics requests).
struct ServerCounters {
  uint64_t commits = 0;
  uint64_t conflicts = 0;
  tabular::obs::Histogram::Snapshot request_latency_us;
};

tabular::Result<ServerCounters> ReadServerCounters(
    tabular::server::Client& client);

/// The sample percentile `p` in [0, 1] of `values` with linear
/// interpolation between closest ranks; 0 for an empty sample.
double Percentile(std::vector<double> values, double p);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
