// tabulard: the concurrent multi-session tabular-algebra server.
//
// Serves TA programs over the length-prefixed wire protocol of
// src/server/wire.h (localhost TCP or a unix socket) under snapshot
// isolation: every request executes against an immutable database version;
// commits install a new version with an atomic first-committer-wins swap.
// Parsed + analyzed + optimizer-certified programs are cached per
// (program text, schema shape).
//
//   tabulard --db examples/sales.tdb --listen 127.0.0.1:7690
//   tabulard --db examples/sales.tdb --unix /tmp/tabulard.sock
//
// SIGINT/SIGTERM shut down gracefully: new sessions are refused, in-flight
// requests drain (bounded by --drain-seconds), and the process exits 0.

#include <cctype>
#include <cerrno>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <thread>

#include <unistd.h>

#include "core/database.h"
#include "core/status.h"
#include "io/grid_format.h"
#include "server/server.h"

namespace {

constexpr const char* kUsage =
    R"(usage: tabulard [options]

options:
  --db <file>          initial database (grid format; default: empty)
  --listen <host:port> listen on localhost TCP (port 0 = ephemeral)
  --unix <path>        listen on a unix socket instead
  --cache-capacity <n> compiled-program cache entries (default 128)
  --no-optimize        skip the certified rewrite engine when compiling
  --drain-seconds <s>  graceful-shutdown drain deadline (default 5, at
                       most 86400)
  --max-sessions <n>   concurrent session limit (default 1024, at least 1)
  --slow-ms <ms>       slow-query log threshold in milliseconds
                       (default 100, or TABULAR_SLOW_MS; negative disables;
                       drain with `tabular_cli slowlog`)
  --metrics-port <n>   serve Prometheus text format on plain-HTTP
                       GET /metrics at this port (0 = ephemeral; default off)
  --max-est-rows <n>   admission control: reject programs whose static row
                       estimate exceeds n before executing them (default 0 =
                       off, or TABULAR_ADMIT_MAX_ROWS); statically unbounded
                       programs are rejected whenever admission is on
  --max-est-bytes <n>  admission control on the static peak byte estimate
                       (default 0 = off, or TABULAR_ADMIT_MAX_BYTES)
  --quiet              no startup banner
  -h, --help           show this help
)";

// Numeric flags and variables are parsed strictly: a value that does not
// parse exactly, or lies outside its range, fails loudly instead of
// silently becoming 0 (a limit the operator thinks is in force is off, or
// every session is refused) or wrapping (port 70000 binding 4464). Each
// parser prints an error naming the flag or variable and returns false.

// A decimal integer in [0, max].
template <typename T>
bool ParseCount(const char* name, const char* value, uint64_t max,
                const char* what, T* out) {
  errno = 0;
  char* end = nullptr;
  unsigned long long v = 0;
  if (*value >= '0' && *value <= '9') v = std::strtoull(value, &end, 10);
  if (end == nullptr || errno != 0 || *end != '\0' || v > max) {
    std::fprintf(stderr, "tabulard: error: %s '%s' is not %s\n", name, value,
                 what);
    return false;
  }
  *out = static_cast<T>(v);
  return true;
}

// A finite real number in [min, max].
bool ParseReal(const char* name, const char* value, double min, double max,
               const char* what, double* out) {
  errno = 0;
  char* end = nullptr;
  double v = 0;
  if (*value != '\0' && !std::isspace(static_cast<unsigned char>(*value))) {
    v = std::strtod(value, &end);
  }
  if (end == nullptr || errno != 0 || *end != '\0' ||
      !(v >= min && v <= max)) {
    std::fprintf(stderr, "tabulard: error: %s '%s' is not %s\n", name, value,
                 what);
    return false;
  }
  *out = v;
  return true;
}

constexpr double kMaxReal = std::numeric_limits<double>::max();
// One day: far beyond any useful drain, and far inside the clock's range.
constexpr double kMaxDrainSeconds = 86400;

// Signal handling: the handler only writes one byte to a self-pipe
// (async-signal-safe); the main thread blocks on the pipe and runs the
// graceful shutdown outside signal context.
int g_signal_pipe[2] = {-1, -1};

void OnShutdownSignal(int /*sig*/) {
  const char byte = 1;
  ssize_t ignored = ::write(g_signal_pipe[1], &byte, 1);
  (void)ignored;
}

}  // namespace

int main(int argc, char** argv) {
  using tabular::server::Server;
  using tabular::server::ServerOptions;

  ServerOptions options;
  std::string db_path;
  std::string listen = "127.0.0.1:0";
  bool quiet = false;

  // TABULAR_SLOW_MS seeds the slow-query threshold; --slow-ms overrides it.
  auto slow_ms = [&options](const char* name, const char* value) {
    double ms = 0;
    if (!ParseReal(name, value, -kMaxReal, kMaxReal, "a number of ms", &ms)) {
      return false;
    }
    constexpr uint64_t kDisabled = tabular::obs::QueryLog::kDisabled;
    options.slow_query_micros =
        ms < 0 || ms * 1000.0 >= static_cast<double>(kDisabled)
            ? kDisabled
            : static_cast<uint64_t>(ms * 1000.0);
    return true;
  };
  if (const char* env = std::getenv("TABULAR_SLOW_MS");
      env != nullptr && *env != '\0' && !slow_ms("TABULAR_SLOW_MS", env)) {
    return 2;
  }
  // Same pattern for the admission limits: env seeds, flag overrides.
  if (const char* env = std::getenv("TABULAR_ADMIT_MAX_ROWS");
      env != nullptr && *env != '\0' &&
      !ParseCount("TABULAR_ADMIT_MAX_ROWS", env, UINT64_MAX, "a row count",
                  &options.max_est_rows)) {
    return 2;
  }
  if (const char* env = std::getenv("TABULAR_ADMIT_MAX_BYTES");
      env != nullptr && *env != '\0' &&
      !ParseCount("TABULAR_ADMIT_MAX_BYTES", env, UINT64_MAX, "a byte count",
                  &options.max_est_bytes)) {
    return 2;
  }

  auto need_value = [&](int& i, const char* flag) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "tabulard: error: %s requires a value\n", flag);
      return nullptr;
    }
    return argv[++i];
  };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "-h" || arg == "--help") {
      std::fputs(kUsage, stdout);
      return 0;
    } else if (arg == "--db") {
      const char* v = need_value(i, "--db");
      if (v == nullptr) return 2;
      db_path = v;
    } else if (arg == "--listen") {
      const char* v = need_value(i, "--listen");
      if (v == nullptr) return 2;
      listen = v;
    } else if (arg == "--unix") {
      const char* v = need_value(i, "--unix");
      if (v == nullptr) return 2;
      options.unix_path = v;
    } else if (arg == "--cache-capacity") {
      const char* v = need_value(i, "--cache-capacity");
      if (v == nullptr || !ParseCount("--cache-capacity", v, SIZE_MAX,
                                      "an entry count",
                                      &options.cache.capacity)) {
        return 2;
      }
    } else if (arg == "--no-optimize") {
      options.cache.optimize = false;
    } else if (arg == "--drain-seconds") {
      const char* v = need_value(i, "--drain-seconds");
      if (v == nullptr ||
          !ParseReal("--drain-seconds", v, 0, kMaxDrainSeconds,
                     "a number of seconds (0 to 86400)",
                     &options.drain_seconds)) {
        return 2;
      }
    } else if (arg == "--max-sessions") {
      const char* v = need_value(i, "--max-sessions");
      if (v == nullptr || !ParseCount("--max-sessions", v, SIZE_MAX,
                                      "a session count",
                                      &options.max_sessions)) {
        return 2;
      }
      if (options.max_sessions == 0) {
        std::fprintf(stderr,
                     "tabulard: error: --max-sessions 0 refuses every "
                     "session\n");
        return 2;
      }
    } else if (arg == "--slow-ms") {
      const char* v = need_value(i, "--slow-ms");
      if (v == nullptr || !slow_ms("--slow-ms", v)) return 2;
    } else if (arg == "--metrics-port") {
      const char* v = need_value(i, "--metrics-port");
      if (v == nullptr || !ParseCount("--metrics-port", v, 65535,
                                      "a port (0 to 65535)",
                                      &options.metrics_port)) {
        return 2;
      }
    } else if (arg == "--max-est-rows") {
      const char* v = need_value(i, "--max-est-rows");
      if (v == nullptr || !ParseCount("--max-est-rows", v, UINT64_MAX,
                                      "a row count", &options.max_est_rows)) {
        return 2;
      }
    } else if (arg == "--max-est-bytes") {
      const char* v = need_value(i, "--max-est-bytes");
      if (v == nullptr || !ParseCount("--max-est-bytes", v, UINT64_MAX,
                                      "a byte count",
                                      &options.max_est_bytes)) {
        return 2;
      }
    } else if (arg == "--quiet") {
      quiet = true;
    } else {
      std::fprintf(stderr, "tabulard: error: unknown option '%s'\n%s",
                   arg.c_str(), kUsage);
      return 2;
    }
  }

  // --listen is checked even beside --unix, which makes it unused.
  const size_t colon = listen.rfind(':');
  if (colon == std::string::npos || colon == 0) {
    std::fprintf(stderr, "tabulard: error: --listen expects host:port\n");
    return 2;
  }
  uint16_t port = 0;
  if (!ParseCount("--listen port", listen.c_str() + colon + 1, 65535,
                  "a port (0 to 65535)", &port)) {
    return 2;
  }
  if (options.unix_path.empty()) {
    options.host = listen.substr(0, colon);
    options.port = port;
  }

  tabular::core::TabularDatabase db;
  if (!db_path.empty()) {
    auto loaded = tabular::io::LoadDatabaseFile(db_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "tabulard: error: cannot load '%s': %s\n",
                   db_path.c_str(), loaded.status().message().c_str());
      return 2;
    }
    db = std::move(*loaded);
  }

  if (::pipe(g_signal_pipe) != 0) {
    std::perror("tabulard: pipe");
    return 1;
  }
  struct sigaction sa{};
  sa.sa_handler = OnShutdownSignal;
  ::sigemptyset(&sa.sa_mask);
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
  ::signal(SIGPIPE, SIG_IGN);

  auto server = Server::Start(std::move(db), options);
  if (!server.ok()) {
    std::fprintf(stderr, "tabulard: error: %s\n",
                 server.status().message().c_str());
    return 1;
  }
  if (!quiet) {
    std::printf("tabulard: listening on %s (%zu table(s), cache %zu)\n",
                (*server)->endpoint().c_str(),
                (*server)->versions().Current().db->size(),
                options.cache.capacity);
    if ((*server)->metrics_port() >= 0) {
      std::printf("tabulard: metrics on http://%s:%d/metrics\n",
                  options.host.c_str(), (*server)->metrics_port());
    }
    std::fflush(stdout);
  }

  // Block until a shutdown signal or a client Shutdown request, whichever
  // comes first, then drain and exit 0. The signal watcher runs in a
  // helper thread so the Shutdown *request* path needs no signal at all.
  std::thread signal_watcher([&server] {
    char byte;
    while (::read(g_signal_pipe[0], &byte, 1) < 0 && errno == EINTR) {
    }
    (*server)->RequestShutdown();
  });
  (*server)->WaitForShutdownRequest();
  if (!quiet) {
    std::printf("tabulard: draining sessions\n");
    std::fflush(stdout);
  }
  (*server)->Shutdown();
  // Unblock the watcher if shutdown came from a client request.
  OnShutdownSignal(0);
  signal_watcher.join();
  if (!quiet) std::printf("tabulard: bye\n");
  return 0;
}
