#include "server/wire.h"

#include <cerrno>
#include <cstring>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

namespace tabular::server {

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutString(std::string* out, std::string_view s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

Status WireCursor::GetU8(uint8_t* v) {
  if (pos_ + 1 > data_.size()) {
    return Status::ParseError("truncated frame body (u8)");
  }
  *v = static_cast<uint8_t>(data_[pos_++]);
  return Status::OK();
}

Status WireCursor::GetU32(uint32_t* v) {
  if (pos_ + 4 > data_.size()) {
    return Status::ParseError("truncated frame body (u32)");
  }
  uint32_t r = 0;
  for (int i = 0; i < 4; ++i) {
    r |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 4;
  *v = r;
  return Status::OK();
}

Status WireCursor::GetU64(uint64_t* v) {
  if (pos_ + 8 > data_.size()) {
    return Status::ParseError("truncated frame body (u64)");
  }
  uint64_t r = 0;
  for (int i = 0; i < 8; ++i) {
    r |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 8;
  *v = r;
  return Status::OK();
}

Status WireCursor::GetString(std::string* s) {
  uint32_t len = 0;
  TABULAR_RETURN_NOT_OK(GetU32(&len));
  if (pos_ + len > data_.size()) {
    return Status::ParseError("truncated frame body (string of " +
                              std::to_string(len) + " bytes)");
  }
  s->assign(data_.substr(pos_, len));
  pos_ += len;
  return Status::OK();
}

Status WireCursor::ExpectEnd() const {
  if (pos_ != data_.size()) {
    return Status::ParseError(std::to_string(data_.size() - pos_) +
                              " trailing byte(s) after message body");
  }
  return Status::OK();
}

namespace {

Status ExpectType(WireCursor* cur, MsgType want) {
  uint8_t type = 0;
  TABULAR_RETURN_NOT_OK(cur->GetU8(&type));
  if (type != static_cast<uint8_t>(want)) {
    return Status::ParseError("unexpected message type " +
                              std::to_string(type));
  }
  return Status::OK();
}

constexpr uint8_t kFlagCommit = 1;
constexpr uint8_t kFlagWantDump = 2;
constexpr uint8_t kFlagProfile = 4;
constexpr uint8_t kFlagRequestId = 8;
constexpr uint8_t kKnownRunFlags =
    kFlagCommit | kFlagWantDump | kFlagProfile | kFlagRequestId;

/// Marker byte introducing the optional RunResponse profile extension.
constexpr uint8_t kRunRespProfileExt = 1;

}  // namespace

std::string EncodeRunRequest(const RunRequest& req) {
  std::string out;
  PutU8(&out, static_cast<uint8_t>(MsgType::kRun));
  uint8_t flags = 0;
  if (req.commit) flags |= kFlagCommit;
  if (req.want_dump) flags |= kFlagWantDump;
  if (req.profile) flags |= kFlagProfile;
  if (req.request_id != 0) flags |= kFlagRequestId;
  PutU8(&out, flags);
  PutString(&out, req.program);
  if (req.request_id != 0) PutU64(&out, req.request_id);
  return out;
}

Status DecodeRunRequest(std::string_view payload, RunRequest* req) {
  WireCursor cur(payload);
  TABULAR_RETURN_NOT_OK(ExpectType(&cur, MsgType::kRun));
  uint8_t flags = 0;
  TABULAR_RETURN_NOT_OK(cur.GetU8(&flags));
  if ((flags & ~kKnownRunFlags) != 0) {
    return Status::ParseError("unknown run flags " + std::to_string(flags));
  }
  req->commit = (flags & kFlagCommit) != 0;
  req->want_dump = (flags & kFlagWantDump) != 0;
  req->profile = (flags & kFlagProfile) != 0;
  TABULAR_RETURN_NOT_OK(cur.GetString(&req->program));
  req->request_id = 0;
  if ((flags & kFlagRequestId) != 0) {
    TABULAR_RETURN_NOT_OK(cur.GetU64(&req->request_id));
  }
  return cur.ExpectEnd();
}

std::string EncodeRunResponse(const RunResponse& resp) {
  std::string out;
  PutU8(&out, static_cast<uint8_t>(MsgType::kOk));
  PutU64(&out, resp.executed_version);
  PutU64(&out, resp.committed_version);
  PutU8(&out, resp.cache_hit ? 1 : 0);
  PutU64(&out, resp.steps);
  PutU32(&out, resp.rewrites_applied);
  PutU32(&out, resp.rewrites_rejected);
  PutString(&out, resp.dump);
  // The profile extension trails the body behind a marker byte and is
  // only emitted when the request carried kFlagProfile, so a plain run's
  // response has no profile bytes at all.
  if (resp.has_profile) {
    PutU8(&out, kRunRespProfileExt);
    PutString(&out, resp.profile_text);
    PutString(&out, resp.counters_json);
  }
  return out;
}

Status DecodeRunResponse(std::string_view payload, RunResponse* resp) {
  WireCursor cur(payload);
  TABULAR_RETURN_NOT_OK(ExpectType(&cur, MsgType::kOk));
  TABULAR_RETURN_NOT_OK(cur.GetU64(&resp->executed_version));
  TABULAR_RETURN_NOT_OK(cur.GetU64(&resp->committed_version));
  uint8_t hit = 0;
  TABULAR_RETURN_NOT_OK(cur.GetU8(&hit));
  resp->cache_hit = hit != 0;
  TABULAR_RETURN_NOT_OK(cur.GetU64(&resp->steps));
  TABULAR_RETURN_NOT_OK(cur.GetU32(&resp->rewrites_applied));
  TABULAR_RETURN_NOT_OK(cur.GetU32(&resp->rewrites_rejected));
  TABULAR_RETURN_NOT_OK(cur.GetString(&resp->dump));
  resp->has_profile = false;
  resp->profile_text.clear();
  resp->counters_json.clear();
  if (!cur.AtEnd()) {
    uint8_t marker = 0;
    TABULAR_RETURN_NOT_OK(cur.GetU8(&marker));
    if (marker != kRunRespProfileExt) {
      return Status::ParseError("unknown run response extension " +
                                std::to_string(marker));
    }
    resp->has_profile = true;
    TABULAR_RETURN_NOT_OK(cur.GetString(&resp->profile_text));
    TABULAR_RETURN_NOT_OK(cur.GetString(&resp->counters_json));
  }
  return cur.ExpectEnd();
}

std::string EncodeSlowLogResponse(const SlowLogResponse& resp) {
  std::string out;
  PutU8(&out, static_cast<uint8_t>(MsgType::kOk));
  PutU64(&out, resp.threshold_micros);
  PutU64(&out, resp.dropped);
  PutU32(&out, static_cast<uint32_t>(resp.entries.size()));
  for (const obs::QueryLogEntry& e : resp.entries) {
    PutU64(&out, e.start_ns);
    PutU64(&out, e.request_id);
    PutU64(&out, e.session_id);
    PutU64(&out, e.program_hash);
    PutU64(&out, e.latency_us);
    PutU64(&out, e.rows_in);
    PutU64(&out, e.rows_out);
    PutU64(&out, e.snapshot_version);
    PutU32(&out, e.rewrites_applied);
    PutU8(&out, e.cache_hit ? 1 : 0);
    PutU8(&out, e.ok ? 1 : 0);
  }
  return out;
}

Status DecodeSlowLogResponse(std::string_view payload,
                             SlowLogResponse* resp) {
  WireCursor cur(payload);
  TABULAR_RETURN_NOT_OK(ExpectType(&cur, MsgType::kOk));
  TABULAR_RETURN_NOT_OK(cur.GetU64(&resp->threshold_micros));
  TABULAR_RETURN_NOT_OK(cur.GetU64(&resp->dropped));
  uint32_t count = 0;
  TABULAR_RETURN_NOT_OK(cur.GetU32(&count));
  // Each entry is at least 66 body bytes; a count that cannot fit in the
  // remaining payload is rejected before the reserve.
  if (count > kMaxFramePayload / 66) {
    return Status::ParseError("slow log entry count " +
                              std::to_string(count) + " out of range");
  }
  resp->entries.clear();
  resp->entries.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    obs::QueryLogEntry e;
    TABULAR_RETURN_NOT_OK(cur.GetU64(&e.start_ns));
    TABULAR_RETURN_NOT_OK(cur.GetU64(&e.request_id));
    TABULAR_RETURN_NOT_OK(cur.GetU64(&e.session_id));
    TABULAR_RETURN_NOT_OK(cur.GetU64(&e.program_hash));
    TABULAR_RETURN_NOT_OK(cur.GetU64(&e.latency_us));
    TABULAR_RETURN_NOT_OK(cur.GetU64(&e.rows_in));
    TABULAR_RETURN_NOT_OK(cur.GetU64(&e.rows_out));
    TABULAR_RETURN_NOT_OK(cur.GetU64(&e.snapshot_version));
    TABULAR_RETURN_NOT_OK(cur.GetU32(&e.rewrites_applied));
    uint8_t cache_hit = 0;
    uint8_t ok = 0;
    TABULAR_RETURN_NOT_OK(cur.GetU8(&cache_hit));
    TABULAR_RETURN_NOT_OK(cur.GetU8(&ok));
    e.cache_hit = cache_hit != 0;
    e.ok = ok != 0;
    resp->entries.push_back(e);
  }
  return cur.ExpectEnd();
}

std::string EncodeError(const ErrorResponse& err) {
  std::string out;
  PutU8(&out, static_cast<uint8_t>(MsgType::kError));
  PutU8(&out, static_cast<uint8_t>(err.code));
  PutString(&out, err.message);
  return out;
}

Status DecodeError(std::string_view payload, ErrorResponse* err) {
  WireCursor cur(payload);
  TABULAR_RETURN_NOT_OK(ExpectType(&cur, MsgType::kError));
  uint8_t code = 0;
  TABULAR_RETURN_NOT_OK(cur.GetU8(&code));
  if (code > static_cast<uint8_t>(StatusCode::kAdmissionRejected)) {
    return Status::ParseError("unknown status code " + std::to_string(code));
  }
  err->code = static_cast<StatusCode>(code);
  TABULAR_RETURN_NOT_OK(cur.GetString(&err->message));
  return cur.ExpectEnd();
}

std::string EncodeOkString(std::string_view body) {
  std::string out;
  PutU8(&out, static_cast<uint8_t>(MsgType::kOk));
  PutString(&out, body);
  return out;
}

std::string EncodeOkEmpty() {
  std::string out;
  PutU8(&out, static_cast<uint8_t>(MsgType::kOk));
  return out;
}

std::string EncodeBareRequest(MsgType type) {
  std::string out;
  PutU8(&out, static_cast<uint8_t>(type));
  return out;
}

namespace {

/// write(2) the whole buffer, retrying short writes and EINTR. Sockets get
/// send(MSG_NOSIGNAL) so a dead peer yields EPIPE instead of SIGPIPE.
Status WriteAll(int fd, const char* data, size_t len) {
  size_t off = 0;
  while (off < len) {
    ssize_t n = ::send(fd, data + off, len - off, MSG_NOSIGNAL);
    if (n < 0 && errno == ENOTSOCK) {
      n = ::write(fd, data + off, len - off);
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(std::string("write failed: ") +
                              std::strerror(errno));
    }
    off += static_cast<size_t>(n);
  }
  return Status::OK();
}

/// Reads exactly `len` bytes. `*eof` is set when the peer closed before
/// the first byte; a close mid-buffer is a truncation error.
Status ReadExact(int fd, char* data, size_t len, bool* eof) {
  *eof = false;
  size_t off = 0;
  while (off < len) {
    ssize_t n = ::read(fd, data + off, len - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(std::string("read failed: ") +
                              std::strerror(errno));
    }
    if (n == 0) {
      if (off == 0) {
        *eof = true;
        return Status::OK();
      }
      return Status::ParseError("connection closed mid-frame (got " +
                                std::to_string(off) + " of " +
                                std::to_string(len) + " bytes)");
    }
    off += static_cast<size_t>(n);
  }
  return Status::OK();
}

}  // namespace

Status WriteFrame(int fd, std::string_view payload) {
  if (payload.size() > kMaxFramePayload) {
    return Status::InvalidArgument("frame payload of " +
                                   std::to_string(payload.size()) +
                                   " bytes out of range");
  }
  std::string buf;
  buf.reserve(4 + payload.size());
  PutU32(&buf, static_cast<uint32_t>(payload.size()));
  buf.append(payload);
  return WriteAll(fd, buf.data(), buf.size());
}

Result<std::optional<std::string>> ReadFrame(int fd) {
  char prefix[4];
  bool eof = false;
  TABULAR_RETURN_NOT_OK(ReadExact(fd, prefix, sizeof(prefix), &eof));
  if (eof) return std::optional<std::string>(std::nullopt);
  uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<uint32_t>(static_cast<uint8_t>(prefix[i])) << (8 * i);
  }
  if (len > kMaxFramePayload) {
    return Status::ParseError("frame length " + std::to_string(len) +
                              " out of range (max " +
                              std::to_string(kMaxFramePayload) + ")");
  }
  if (len == 0) return std::optional<std::string>(std::string());
  std::string payload(len, '\0');
  TABULAR_RETURN_NOT_OK(ReadExact(fd, payload.data(), len, &eof));
  if (eof) {
    return Status::ParseError("connection closed between prefix and payload");
  }
  return std::optional<std::string>(std::move(payload));
}

}  // namespace tabular::server
