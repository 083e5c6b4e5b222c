// tabular_cli: client for a running tabulard server.
//
//   tabular_cli [--connect host:port | --unix path] <command> [args]
//
// commands:
//   ping                   check the server is alive
//   run <program.ta>       execute and commit a new database version
//   query <program.ta>     execute read-only; prints the resulting
//                          database (grid format) to stdout
//   profile <program.ta>   execute read-only with server-side
//                          instrumentation; prints the profile tree and
//                          the per-operator counter deltas
//   dump                   print the current database (grid format)
//   tables                 list table names, one per line
//   stats                  server statistics as JSON
//   metrics                server metrics registry as JSON (Prometheus
//                          text is served by tabulard --metrics-port)
//   slowlog                drain the server's slow-query log
//   shutdown               ask the server to shut down gracefully
//
// Exit codes: 0 success, 1 server-side error, 2 usage/connection failure.

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "server/client.h"

namespace {

constexpr const char* kUsage =
    R"(usage: tabular_cli [--connect host:port | --unix path] <command> [args]

commands: ping, run <program.ta>, query <program.ta>, profile <program.ta>,
dump, tables, stats, metrics, slowlog, shutdown
(default endpoint: --connect 127.0.0.1:7690)
)";

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

// A decimal port in [1, 65535]; anything else (a service name, trailing
// text, a value that would wrap) is rejected rather than dialed.
bool ParsePort(const char* value, uint16_t* out) {
  errno = 0;
  char* end = nullptr;
  unsigned long v = 0;
  if (*value >= '0' && *value <= '9') v = std::strtoul(value, &end, 10);
  if (end == nullptr || errno != 0 || *end != '\0' || v == 0 || v > 65535) {
    return false;
  }
  *out = static_cast<uint16_t>(v);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using tabular::server::Client;
  using tabular::server::RunResponse;

  std::string host = "127.0.0.1";
  uint16_t port = 7690;
  std::string unix_path;
  std::string command;
  std::string command_arg;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "-h" || arg == "--help") {
      std::fputs(kUsage, stdout);
      return 0;
    } else if (arg == "--connect") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "tabular_cli: --connect requires host:port\n");
        return 2;
      }
      const std::string spec = argv[++i];
      const size_t colon = spec.rfind(':');
      if (colon == std::string::npos || colon == 0) {
        std::fprintf(stderr, "tabular_cli: --connect expects host:port\n");
        return 2;
      }
      host = spec.substr(0, colon);
      if (!ParsePort(spec.c_str() + colon + 1, &port)) {
        std::fprintf(stderr,
                     "tabular_cli: --connect port '%s' is not a port "
                     "(1 to 65535)\n",
                     spec.c_str() + colon + 1);
        return 2;
      }
    } else if (arg == "--unix") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "tabular_cli: --unix requires a path\n");
        return 2;
      }
      unix_path = argv[++i];
    } else if (command.empty()) {
      command = arg;
    } else if (command_arg.empty()) {
      command_arg = arg;
    } else {
      std::fprintf(stderr, "tabular_cli: unexpected argument '%s'\n%s",
                   arg.c_str(), kUsage);
      return 2;
    }
  }

  if (command.empty()) {
    std::fprintf(stderr, "tabular_cli: no command given\n%s", kUsage);
    return 2;
  }

  auto connected = unix_path.empty() ? Client::ConnectTcp(host, port)
                                     : Client::ConnectUnix(unix_path);
  if (!connected.ok()) {
    std::fprintf(stderr, "tabular_cli: %s\n",
                 connected.status().message().c_str());
    return 2;
  }
  Client client = std::move(*connected);

  auto fail = [](const tabular::Status& st) {
    std::fprintf(stderr, "tabular_cli: error: %s\n", st.ToString().c_str());
    return 1;
  };

  if (command == "ping") {
    tabular::Status st = client.Ping();
    if (!st.ok()) return fail(st);
    std::printf("pong\n");
    return 0;
  }
  if (command == "run" || command == "query") {
    if (command_arg.empty()) {
      std::fprintf(stderr, "tabular_cli: %s requires a .ta file\n%s",
                   command.c_str(), kUsage);
      return 2;
    }
    std::string program;
    if (!ReadFile(command_arg, &program)) {
      std::fprintf(stderr, "tabular_cli: cannot read '%s'\n",
                   command_arg.c_str());
      return 2;
    }
    const bool commit = command == "run";
    auto result = client.Run(program, commit, /*want_dump=*/!commit);
    if (!result.ok()) return fail(result.status());
    if (commit) {
      std::printf("ok: version %llu -> %llu (%s, %llu step(s), "
                  "%u rewrite(s))\n",
                  static_cast<unsigned long long>(result->executed_version),
                  static_cast<unsigned long long>(result->committed_version),
                  result->cache_hit ? "cache hit" : "compiled",
                  static_cast<unsigned long long>(result->steps),
                  result->rewrites_applied);
    } else {
      std::fputs(result->dump.c_str(), stdout);
    }
    return 0;
  }
  if (command == "profile") {
    if (command_arg.empty()) {
      std::fprintf(stderr, "tabular_cli: profile requires a .ta file\n%s",
                   kUsage);
      return 2;
    }
    std::string program;
    if (!ReadFile(command_arg, &program)) {
      std::fprintf(stderr, "tabular_cli: cannot read '%s'\n",
                   command_arg.c_str());
      return 2;
    }
    auto result = client.Profile(program);
    if (!result.ok()) return fail(result.status());
    std::printf("snapshot version %llu (%s, %llu step(s), %u rewrite(s))\n",
                static_cast<unsigned long long>(result->executed_version),
                result->cache_hit ? "cache hit" : "compiled",
                static_cast<unsigned long long>(result->steps),
                result->rewrites_applied);
    std::fputs(result->profile_text.c_str(), stdout);
    std::printf("counters: %s\n", result->counters_json.c_str());
    return 0;
  }
  if (command == "slowlog") {
    auto log = client.SlowLog();
    if (!log.ok()) return fail(log.status());
    if (log->threshold_micros == tabular::obs::QueryLog::kDisabled) {
      std::printf("slow-query log disabled\n");
    } else {
      std::printf("threshold %llu us, %zu entr%s, %llu dropped\n",
                  static_cast<unsigned long long>(log->threshold_micros),
                  log->entries.size(),
                  log->entries.size() == 1 ? "y" : "ies",
                  static_cast<unsigned long long>(log->dropped));
    }
    for (const tabular::obs::QueryLogEntry& e : log->entries) {
      std::printf("prog=%016llx lat=%lluus session=%llu request=%llu "
                  "snapshot=%llu rows=%llu->%llu rewrites=%u %s %s\n",
                  static_cast<unsigned long long>(e.program_hash),
                  static_cast<unsigned long long>(e.latency_us),
                  static_cast<unsigned long long>(e.session_id),
                  static_cast<unsigned long long>(e.request_id),
                  static_cast<unsigned long long>(e.snapshot_version),
                  static_cast<unsigned long long>(e.rows_in),
                  static_cast<unsigned long long>(e.rows_out),
                  e.rewrites_applied, e.cache_hit ? "hit" : "miss",
                  e.ok ? "ok" : "error");
    }
    return 0;
  }
  if (command == "dump") {
    auto dump = client.DumpDatabase();
    if (!dump.ok()) return fail(dump.status());
    std::fputs(dump->database.c_str(), stdout);
    return 0;
  }
  if (command == "tables") {
    auto tables = client.Tables();
    if (!tables.ok()) return fail(tables.status());
    std::fputs(tables->c_str(), stdout);
    return 0;
  }
  if (command == "stats") {
    auto stats = client.Stats();
    if (!stats.ok()) return fail(stats.status());
    std::printf("%s\n", stats->c_str());
    return 0;
  }
  if (command == "metrics") {
    if (!command_arg.empty()) {
      std::fprintf(stderr, "tabular_cli: metrics takes no argument\n%s",
                   kUsage);
      return 2;
    }
    auto metrics = client.Metrics();
    if (!metrics.ok()) return fail(metrics.status());
    std::printf("%s\n", metrics->c_str());
    return 0;
  }
  if (command == "shutdown") {
    tabular::Status st = client.Shutdown();
    if (!st.ok()) return fail(st);
    std::printf("shutting down\n");
    return 0;
  }
  std::fprintf(stderr, "tabular_cli: unknown command '%s'\n%s",
               command.c_str(), kUsage);
  return 2;
}
