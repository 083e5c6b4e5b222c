#include "server/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace tabular::server {

Result<Client> Client::ConnectTcp(const std::string& host, uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Status::Internal(std::string("socket failed: ") +
                            std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad host: " + host);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status st = Status::Internal("connect to " + host + ":" +
                                 std::to_string(port) + " failed: " +
                                 std::strerror(errno));
    ::close(fd);
    return st;
  }
  return Client(fd);
}

Result<Client> Client::ConnectUnix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("unix socket path too long: " + path);
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Status::Internal(std::string("socket failed: ") +
                            std::strerror(errno));
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status st = Status::Internal("connect to " + path + " failed: " +
                                 std::strerror(errno));
    ::close(fd);
    return st;
  }
  return Client(fd);
}

Client::Client(Client&& other) noexcept
    : fd_(other.fd_), next_request_id_(other.next_request_id_) {
  other.fd_ = -1;
}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    next_request_id_ = other.next_request_id_;
    other.fd_ = -1;
  }
  return *this;
}

Client::~Client() { Close(); }

void Client::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status Client::ErrorStatus(const std::string& payload) {
  ErrorResponse err;
  TABULAR_RETURN_NOT_OK(DecodeError(payload, &err));
  return Status(err.code, err.message);
}

Result<std::string> Client::RoundTrip(const std::string& payload) {
  if (fd_ < 0) return Status::Internal("client is not connected");
  const Status sent = WriteFrame(fd_, payload);
  // An oversized payload was never sent, so no answer can come.
  if (sent.code() == StatusCode::kInvalidArgument) return sent;
  // A failed send still reads: a server refusing the session writes an
  // error frame and closes, so the request can meet a closed or reset
  // socket while that frame waits unread.
  Result<std::optional<std::string>> frame = ReadFrame(fd_);
  if (!frame.ok()) return sent.ok() ? frame.status() : sent;
  if (!frame->has_value()) {
    return sent.ok() ? Status::Internal("server closed the connection") : sent;
  }
  return std::move(**frame);
}

Status Client::ExpectOk(const std::string& payload) {
  if (payload.empty()) return Status::ParseError("empty response");
  if (payload[0] == static_cast<char>(MsgType::kOk)) return Status::OK();
  return ErrorStatus(payload);
}

Status Client::Ping() {
  TABULAR_ASSIGN_OR_RETURN(
      std::string resp, RoundTrip(EncodeBareRequest(MsgType::kPing)));
  return ExpectOk(resp);
}

Result<RunResponse> Client::RunInternal(const std::string& program,
                                        bool commit, bool want_dump,
                                        bool profile) {
  RunRequest req;
  req.program = program;
  req.commit = commit;
  req.want_dump = want_dump;
  req.profile = profile;
  req.request_id = next_request_id_++;
  TABULAR_ASSIGN_OR_RETURN(std::string resp,
                           RoundTrip(EncodeRunRequest(req)));
  if (!resp.empty() && resp[0] == static_cast<char>(MsgType::kError)) {
    return ErrorStatus(resp);
  }
  RunResponse out;
  TABULAR_RETURN_NOT_OK(DecodeRunResponse(resp, &out));
  return out;
}

Result<RunResponse> Client::Run(const std::string& program, bool commit,
                                bool want_dump) {
  return RunInternal(program, commit, want_dump, /*profile=*/false);
}

Result<RunResponse> Client::Profile(const std::string& program,
                                    bool commit) {
  return RunInternal(program, commit, /*want_dump=*/false,
                     /*profile=*/true);
}

Result<Client::Dump> Client::DumpDatabase() {
  TABULAR_ASSIGN_OR_RETURN(
      std::string resp, RoundTrip(EncodeBareRequest(MsgType::kDump)));
  if (!resp.empty() && resp[0] == static_cast<char>(MsgType::kError)) {
    return ErrorStatus(resp);
  }
  WireCursor cur(resp);
  uint8_t type = 0;
  TABULAR_RETURN_NOT_OK(cur.GetU8(&type));
  Dump dump;
  TABULAR_RETURN_NOT_OK(cur.GetU64(&dump.version));
  TABULAR_RETURN_NOT_OK(cur.GetString(&dump.database));
  TABULAR_RETURN_NOT_OK(cur.ExpectEnd());
  return dump;
}

namespace {

Result<std::string> DecodeOkString(const std::string& payload) {
  WireCursor cur(payload);
  uint8_t type = 0;
  TABULAR_RETURN_NOT_OK(cur.GetU8(&type));
  std::string body;
  TABULAR_RETURN_NOT_OK(cur.GetString(&body));
  TABULAR_RETURN_NOT_OK(cur.ExpectEnd());
  return body;
}

}  // namespace

Result<std::string> Client::Tables() {
  TABULAR_ASSIGN_OR_RETURN(
      std::string resp, RoundTrip(EncodeBareRequest(MsgType::kTables)));
  if (!resp.empty() && resp[0] == static_cast<char>(MsgType::kError)) {
    return ErrorStatus(resp);
  }
  return DecodeOkString(resp);
}

Result<std::string> Client::Stats() {
  TABULAR_ASSIGN_OR_RETURN(
      std::string resp, RoundTrip(EncodeBareRequest(MsgType::kStats)));
  if (!resp.empty() && resp[0] == static_cast<char>(MsgType::kError)) {
    return ErrorStatus(resp);
  }
  return DecodeOkString(resp);
}

Result<std::string> Client::Metrics() {
  TABULAR_ASSIGN_OR_RETURN(
      std::string resp, RoundTrip(EncodeBareRequest(MsgType::kMetrics)));
  if (!resp.empty() && resp[0] == static_cast<char>(MsgType::kError)) {
    return ErrorStatus(resp);
  }
  return DecodeOkString(resp);
}

Result<SlowLogResponse> Client::SlowLog() {
  TABULAR_ASSIGN_OR_RETURN(
      std::string resp, RoundTrip(EncodeBareRequest(MsgType::kSlowLog)));
  if (!resp.empty() && resp[0] == static_cast<char>(MsgType::kError)) {
    return ErrorStatus(resp);
  }
  SlowLogResponse out;
  TABULAR_RETURN_NOT_OK(DecodeSlowLogResponse(resp, &out));
  return out;
}

Status Client::Shutdown() {
  TABULAR_ASSIGN_OR_RETURN(
      std::string resp, RoundTrip(EncodeBareRequest(MsgType::kShutdown)));
  return ExpectOk(resp);
}

}  // namespace tabular::server
