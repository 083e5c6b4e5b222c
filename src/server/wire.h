#ifndef TABULAR_SERVER_WIRE_H_
#define TABULAR_SERVER_WIRE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/status.h"
#include "obs/query_log.h"

namespace tabular::server {

/// The `tabulard` wire protocol: length-prefixed binary frames over a
/// byte stream (localhost TCP or a unix socket).
///
///   frame   := u32le payload_length, payload
///   payload := u8 message_type, body
///
/// The framing layer is payload-agnostic: `payload_length` may be any value
/// in [0, `kMaxFramePayload`], and a zero-length frame round-trips through
/// `WriteFrame`/`ReadFrame` symmetrically (both sides used to disagree on
/// whether an empty frame was legal). A larger prefix is rejected before
/// any allocation (a 4-byte frame must not commandeer 4 GiB of buffer).
/// The *message* layer is stricter: a conforming payload starts with its
/// type byte, so decoders and the request dispatcher reject empty payloads
/// as a parse error. Integers are little-endian; strings are u32le length +
/// bytes. Requests flow client → server; every request yields exactly one
/// `kOk` or `kError` response.

constexpr uint32_t kMaxFramePayload = 64u << 20;  // 64 MiB

enum class MsgType : uint8_t {
  // Requests.
  kPing = 1,      ///< body: empty                 → Ok: empty
  kRun = 2,       ///< body: RunRequest            → Ok: RunResponse
  kDump = 3,      ///< body: empty                 → Ok: u64 version, str db
  kTables = 4,    ///< body: empty                 → Ok: str (one name/line)
  kStats = 5,     ///< body: empty                 → Ok: str JSON
  kMetrics = 6,   ///< body: empty                 → Ok: str JSON
  kShutdown = 7,  ///< body: empty                 → Ok: empty; server drains
  kSlowLog = 8,   ///< body: empty                 → Ok: SlowLogResponse

  // Responses.
  kOk = 64,
  kError = 65,
};

/// Execute a TA program on the server.
struct RunRequest {
  std::string program;    ///< surface-syntax program text
  bool commit = true;     ///< install the result as a new version
  bool want_dump = false; ///< return the resulting database's grid text
  bool profile = false;   ///< run instrumented; response carries the profile
  uint64_t request_id = 0;  ///< client-assigned id (0: none; not sent)
};

struct RunResponse {
  uint64_t executed_version = 0;   ///< snapshot the program ran against
  uint64_t committed_version = 0;  ///< new version, 0 when not committed
  bool cache_hit = false;          ///< compiled form served from cache
  uint64_t steps = 0;              ///< interpreter instantiations
  uint32_t rewrites_applied = 0;   ///< certified rewrites in the cached form
  uint32_t rewrites_rejected = 0;
  std::string dump;                ///< grid text when `want_dump`, else ""
  bool has_profile = false;        ///< trailing profile extension present
  std::string profile_text;        ///< obs::RenderProfile tree
  std::string counters_json;       ///< per-operator OpCounters deltas (JSON)
};

/// kOk answer to kSlowLog: the slow-query ring drained oldest-first.
struct SlowLogResponse {
  uint64_t threshold_micros = 0;  ///< obs::QueryLog::kDisabled when off
  uint64_t dropped = 0;           ///< entries lost to ring wrap, ever
  std::vector<obs::QueryLogEntry> entries;
};

struct ErrorResponse {
  StatusCode code = StatusCode::kInternal;
  std::string message;
};

// -- Body encoding -----------------------------------------------------------

void PutU8(std::string* out, uint8_t v);
void PutU32(std::string* out, uint32_t v);
void PutU64(std::string* out, uint64_t v);
void PutString(std::string* out, std::string_view s);

/// Sequential reader over a payload body; every getter fails with
/// `kParseError` on truncation instead of reading past the end.
class WireCursor {
 public:
  explicit WireCursor(std::string_view data) : data_(data) {}

  Status GetU8(uint8_t* v);
  Status GetU32(uint32_t* v);
  Status GetU64(uint64_t* v);
  Status GetString(std::string* s);
  bool AtEnd() const { return pos_ == data_.size(); }
  /// kParseError unless the whole body was consumed (trailing garbage).
  Status ExpectEnd() const;

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

/// Full payloads (type byte + body). Decoders check the type byte.
///
/// Per-request options cost nothing when unused: a request id rides behind
/// its run-flag bit, and the profile is a trailing response extension
/// emitted only when the request asked for it, so a plain run's request
/// and response carry no bytes for either.
std::string EncodeRunRequest(const RunRequest& req);
Status DecodeRunRequest(std::string_view payload, RunRequest* req);
std::string EncodeRunResponse(const RunResponse& resp);
Status DecodeRunResponse(std::string_view payload, RunResponse* resp);
std::string EncodeSlowLogResponse(const SlowLogResponse& resp);
Status DecodeSlowLogResponse(std::string_view payload, SlowLogResponse* resp);
std::string EncodeError(const ErrorResponse& err);
Status DecodeError(std::string_view payload, ErrorResponse* err);
/// kOk with a raw string body (Dump/Tables/Stats/Metrics responses).
std::string EncodeOkString(std::string_view body);
/// An empty kOk (Ping/Shutdown responses).
std::string EncodeOkEmpty();
/// A bodyless request payload (Ping, Dump, Tables, Stats, Metrics,
/// Shutdown).
std::string EncodeBareRequest(MsgType type);

// -- Framed stream I/O -------------------------------------------------------

/// Writes one frame (length prefix + payload) to `fd`, handling partial
/// writes and EINTR; SIGPIPE is suppressed (MSG_NOSIGNAL on sockets).
Status WriteFrame(int fd, std::string_view payload);

/// Reads one frame's payload from `fd`.
///   * nullopt            — clean EOF at a frame boundary (peer closed)
///   * kParseError        — truncated prefix/payload or oversized length
///   * kInternal          — socket error
Result<std::optional<std::string>> ReadFrame(int fd);

}  // namespace tabular::server

#endif  // TABULAR_SERVER_WIRE_H_
