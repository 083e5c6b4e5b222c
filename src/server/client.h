#ifndef TABULAR_SERVER_CLIENT_H_
#define TABULAR_SERVER_CLIENT_H_

#include <cstdint>
#include <memory>
#include <string>

#include "core/status.h"
#include "server/wire.h"

namespace tabular::server {

/// Blocking client for one `tabulard` session: a connected socket plus
/// request/response framing. One outstanding request at a time; a Client
/// is not thread-safe (use one per thread, as the bench does).
class Client {
 public:
  static Result<Client> ConnectTcp(const std::string& host, uint16_t port);
  static Result<Client> ConnectUnix(const std::string& path);

  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  ~Client();

  /// Liveness check (an empty-body ping answered with an empty kOk).
  Status Ping();

  /// Executes `program` on the server. With `commit` (the default) the
  /// result becomes the new current version; without it the run is a
  /// read-only query against the pinned snapshot. Server-side failures
  /// (parse, analysis, runtime, commit conflict) come back as the error
  /// Status with the server's code. Each run carries a client-assigned
  /// request id (a session-local counter) that the server's trace spans
  /// and slow-log entries echo back.
  Result<RunResponse> Run(const std::string& program, bool commit = true,
                          bool want_dump = false);

  /// Run with server-side instrumentation: the response carries the
  /// rendered profile tree and the per-operator counter deltas as JSON.
  Result<RunResponse> Profile(const std::string& program,
                              bool commit = false);

  /// The current database in grid format, plus its version.
  struct Dump {
    uint64_t version = 0;
    std::string database;
  };
  Result<Dump> DumpDatabase();

  /// Newline-separated table names of the current version.
  Result<std::string> Tables();
  /// Server statistics as JSON (see ServerStats::ToJson).
  Result<std::string> Stats();
  /// The server's obs metrics registry as JSON.
  Result<std::string> Metrics();
  /// Drains the server's slow-query log.
  Result<SlowLogResponse> SlowLog();
  /// Asks the server to shut down gracefully (it still answers this).
  Status Shutdown();

  void Close();
  bool connected() const { return fd_ >= 0; }

 private:
  explicit Client(int fd) : fd_(fd) {}
  /// Sends `payload` and reads one response payload.
  Result<std::string> RoundTrip(const std::string& payload);
  /// Decodes a bare-Ok-or-error response.
  Status ExpectOk(const std::string& payload);
  /// Turns a kError payload into its Status.
  static Status ErrorStatus(const std::string& payload);
  Result<RunResponse> RunInternal(const std::string& program, bool commit,
                                  bool want_dump, bool profile);

  int fd_ = -1;
  uint64_t next_request_id_ = 1;
};

}  // namespace tabular::server

#endif  // TABULAR_SERVER_CLIENT_H_
