#ifndef TABULAR_SERVER_SERVER_H_
#define TABULAR_SERVER_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/database.h"
#include "core/status.h"
#include "obs/query_log.h"
#include "obs/trace.h"
#include "server/metrics_http.h"
#include "server/program_cache.h"
#include "server/version.h"
#include "server/wire.h"

namespace tabular::server {

struct ServerOptions {
  /// Listen on a unix socket at this path when non-empty; otherwise on
  /// localhost TCP.
  std::string unix_path;
  std::string host = "127.0.0.1";
  /// 0 picks an ephemeral port; read it back with `port()`.
  uint16_t port = 0;
  /// Compiled-program cache size (entries) and front-end behavior.
  ProgramCache::Options cache;
  /// Seconds Shutdown() waits for in-flight requests before force-closing
  /// the remaining connections.
  double drain_seconds = 5.0;
  /// Refuse connections beyond this many concurrent sessions.
  size_t max_sessions = 1024;
  /// Requests at least this slow (wall micros) enter the slow-query log;
  /// `obs::QueryLog::kDisabled` turns the log off. The daemon maps
  /// `--slow-ms` / `TABULAR_SLOW_MS` onto this.
  uint64_t slow_query_micros = 100000;
  /// Prometheus /metrics HTTP port: -1 disables the endpoint, 0 picks an
  /// ephemeral port (read it back with `metrics_port()`).
  int metrics_port = -1;
  /// Static admission control (0 = limit off). When either limit is set,
  /// every Run request's compiled form is costed against its pinned
  /// snapshot before execution: a statically unbounded program, a peak row
  /// estimate above `max_est_rows`, or a peak byte estimate above
  /// `max_est_bytes` is rejected with `StatusCode::kAdmissionRejected`
  /// naming the offending statement. The daemon maps `--max-est-rows` /
  /// `TABULAR_ADMIT_MAX_ROWS` (and the `-bytes` pair) onto these.
  uint64_t max_est_rows = 0;
  uint64_t max_est_bytes = 0;
};

/// Point-in-time server statistics (the Stats request renders these as
/// JSON).
struct ServerStats {
  uint64_t version = 0;
  uint64_t commits = 0;
  uint64_t conflicts = 0;
  uint64_t sessions_active = 0;
  uint64_t sessions_total = 0;
  uint64_t requests = 0;
  uint64_t request_errors = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_evictions = 0;
  uint64_t cache_size = 0;

  std::string ToJson() const;
};

/// `tabulard`'s engine: a concurrent multi-session TA server executing
/// programs under snapshot isolation (see `VersionedDatabase`) with a
/// compiled-program cache (see `ProgramCache`). One thread per session;
/// each request pins the newest version, executes the cached compiled form
/// against a copy that shares the snapshot's immutable tables, and — for
/// commits — installs the result with an atomic first-committer-wins swap.
/// Readers never wait on writers, and a failed program never publishes
/// partial state: the version store only ever receives fully-executed
/// databases.
class Server {
 public:
  /// Binds, listens, and spawns the accept thread.
  static Result<std::unique_ptr<Server>> Start(core::TabularDatabase initial,
                                               ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bound TCP port (0 when listening on a unix socket).
  uint16_t port() const { return port_; }
  /// "unix:<path>" or "<host>:<port>".
  const std::string& endpoint() const { return endpoint_; }
  /// Bound Prometheus /metrics HTTP port; -1 when the endpoint is off.
  int metrics_port() const {
    return metrics_http_ == nullptr ? -1 : metrics_http_->port();
  }

  /// Flags the server to shut down: new connections are refused from this
  /// point on. Non-blocking; safe from any thread, including session
  /// handlers (the Shutdown request) and the daemon's signal-watcher.
  void RequestShutdown();

  /// True once RequestShutdown has been called.
  bool ShutdownRequested() const {
    return shutdown_requested_.load(std::memory_order_acquire);
  }

  /// Blocks until RequestShutdown is called (the daemon's main loop).
  void WaitForShutdownRequest();

  /// Graceful stop: refuses new sessions, drains in-flight requests for up
  /// to `drain_seconds`, force-closes whatever remains, joins every
  /// thread. Implies RequestShutdown; idempotent. Must not be called from
  /// a session thread.
  void Shutdown();

  ServerStats Stats() const;
  const VersionedDatabase& versions() const { return *versions_; }
  ProgramCache& cache() { return cache_; }
  obs::QueryLog& slow_log() { return slow_log_; }

 private:
  Server(ServerOptions options, core::TabularDatabase initial);
  Status Listen();
  void AcceptLoop();
  void SessionLoop(int fd, uint64_t session_id);
  /// One request frame → one response payload. Never fails: protocol and
  /// execution errors become kError payloads. Run requests fill `audit`
  /// (everything but the latency, which the session loop measures) for the
  /// slow-query log.
  std::string HandleRequest(const std::string& payload, uint64_t session_id,
                            obs::QueryLogEntry* audit);
  std::string HandleRun(const std::string& payload, obs::TraceSpan* root,
                        obs::QueryLogEntry* audit);

  ServerOptions options_;
  std::unique_ptr<VersionedDatabase> versions_;
  ProgramCache cache_;
  obs::QueryLog slow_log_;
  std::unique_ptr<MetricsHttpServer> metrics_http_;

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::string endpoint_;
  /// Wakes poll()ers (accept loop, idle sessions) on shutdown.
  int wake_pipe_[2] = {-1, -1};

  std::atomic<bool> shutdown_requested_{false};
  std::atomic<bool> stopped_{false};
  std::atomic<uint64_t> sessions_active_{0};
  std::atomic<uint64_t> sessions_total_{0};
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> request_errors_{0};

  mutable std::mutex mu_;
  std::condition_variable shutdown_cv_;
  std::thread accept_thread_;
  struct SessionSlot {
    std::thread thread;
    int fd = -1;
    bool done = false;
  };
  std::vector<std::unique_ptr<SessionSlot>> sessions_;  // guarded by mu_
};

}  // namespace tabular::server

#endif  // TABULAR_SERVER_SERVER_H_
