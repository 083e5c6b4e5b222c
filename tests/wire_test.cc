// The tabulard wire protocol: encode/decode round trips, cursor
// truncation behavior, framed stream I/O over a socketpair, and a
// deterministic malformed-frame fuzz — a hostile peer must produce clean
// kParseError statuses, never a crash or an oversized allocation.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <string>
#include <thread>

#include "core/status.h"
#include "server/wire.h"

namespace tabular::server {
namespace {

// -- Primitive round trips ---------------------------------------------------

TEST(WireCursorTest, PrimitivesRoundTrip) {
  std::string buf;
  PutU8(&buf, 0xAB);
  PutU32(&buf, 0xDEADBEEF);
  PutU64(&buf, 0x0123456789ABCDEFull);
  PutString(&buf, "hello \0 world");

  WireCursor cursor(buf);
  uint8_t u8 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  std::string s;
  ASSERT_TRUE(cursor.GetU8(&u8).ok());
  ASSERT_TRUE(cursor.GetU32(&u32).ok());
  ASSERT_TRUE(cursor.GetU64(&u64).ok());
  ASSERT_TRUE(cursor.GetString(&s).ok());
  EXPECT_EQ(u8, 0xAB);
  EXPECT_EQ(u32, 0xDEADBEEFu);
  EXPECT_EQ(u64, 0x0123456789ABCDEFull);
  EXPECT_EQ(s, "hello ");  // string_view literal stops at the NUL
  EXPECT_TRUE(cursor.AtEnd());
  EXPECT_TRUE(cursor.ExpectEnd().ok());
}

TEST(WireCursorTest, EncodingIsLittleEndian) {
  std::string buf;
  PutU32(&buf, 0x01020304);
  ASSERT_EQ(buf.size(), 4u);
  EXPECT_EQ(static_cast<uint8_t>(buf[0]), 0x04);
  EXPECT_EQ(static_cast<uint8_t>(buf[3]), 0x01);
}

TEST(WireCursorTest, TruncationIsAParseErrorNotARead) {
  std::string buf;
  PutU32(&buf, 7);
  buf.resize(2);  // half a u32
  WireCursor cursor(buf);
  uint32_t v = 0;
  Status st = cursor.GetU32(&v);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kParseError);
}

TEST(WireCursorTest, StringLengthBeyondBufferIsAParseError) {
  std::string buf;
  PutU32(&buf, 1000);  // claims 1000 bytes, provides 3
  buf += "abc";
  WireCursor cursor(buf);
  std::string s;
  Status st = cursor.GetString(&s);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kParseError);
}

TEST(WireCursorTest, TrailingGarbageFailsExpectEnd) {
  std::string buf;
  PutU8(&buf, 1);
  buf += "extra";
  WireCursor cursor(buf);
  uint8_t v = 0;
  ASSERT_TRUE(cursor.GetU8(&v).ok());
  EXPECT_FALSE(cursor.AtEnd());
  Status st = cursor.ExpectEnd();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kParseError);
}

// -- Message round trips -----------------------------------------------------

TEST(WireMessageTest, RunRequestRoundTrip) {
  RunRequest req;
  req.program = "T <- transpose (Sales);\n";
  req.commit = false;
  req.want_dump = true;
  RunRequest out;
  ASSERT_TRUE(DecodeRunRequest(EncodeRunRequest(req), &out).ok());
  EXPECT_EQ(out.program, req.program);
  EXPECT_EQ(out.commit, false);
  EXPECT_EQ(out.want_dump, true);
}

TEST(WireMessageTest, RunRequestUnknownFlagRejected) {
  RunRequest req;
  req.program = "p";
  std::string payload = EncodeRunRequest(req);
  // The flags byte follows the type byte; set an undefined bit.
  payload[1] = static_cast<char>(payload[1] | 0x80);
  RunRequest out;
  Status st = DecodeRunRequest(payload, &out);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kParseError);
}

TEST(WireMessageTest, RunRequestWrongTypeByteRejected) {
  std::string payload = EncodeBareRequest(MsgType::kPing);
  RunRequest out;
  EXPECT_FALSE(DecodeRunRequest(payload, &out).ok());
}

TEST(WireMessageTest, RunResponseRoundTrip) {
  RunResponse resp;
  resp.executed_version = 41;
  resp.committed_version = 42;
  resp.cache_hit = true;
  resp.steps = 17;
  resp.rewrites_applied = 3;
  resp.rewrites_rejected = 1;
  resp.dump = "!T | !A\n#  | 1\n";
  RunResponse out;
  ASSERT_TRUE(DecodeRunResponse(EncodeRunResponse(resp), &out).ok());
  EXPECT_EQ(out.executed_version, 41u);
  EXPECT_EQ(out.committed_version, 42u);
  EXPECT_TRUE(out.cache_hit);
  EXPECT_EQ(out.steps, 17u);
  EXPECT_EQ(out.rewrites_applied, 3u);
  EXPECT_EQ(out.rewrites_rejected, 1u);
  EXPECT_EQ(out.dump, resp.dump);
}

// -- Request-scoped extensions ---------------------------------------------

TEST(WireMessageTest, RunRequestProfileAndRequestIdRoundTrip) {
  RunRequest req;
  req.program = "T <- group by {Region} on {Sold} (Sales);";
  req.commit = false;
  req.want_dump = true;
  req.profile = true;
  req.request_id = 0xABCDEF0123456789ull;
  RunRequest out;
  ASSERT_TRUE(DecodeRunRequest(EncodeRunRequest(req), &out).ok());
  EXPECT_EQ(out.program, req.program);
  EXPECT_FALSE(out.commit);
  EXPECT_TRUE(out.want_dump);
  EXPECT_TRUE(out.profile);
  EXPECT_EQ(out.request_id, req.request_id);
}

TEST(WireMessageTest, DefaultRunRequestEncodesByteIdenticallyToItsGolden) {
  // A run with no profile and no request id is exactly: type byte, flags
  // byte, program string. The per-request options add no bytes when unused.
  RunRequest req;
  req.program = "T <- transpose (Sales);";
  req.commit = true;
  req.want_dump = false;
  std::string golden;
  PutU8(&golden, static_cast<uint8_t>(MsgType::kRun));
  PutU8(&golden, 0x01);  // kFlagCommit only
  PutString(&golden, req.program);
  EXPECT_EQ(EncodeRunRequest(req), golden);
}

TEST(WireMessageTest, RunRequestIdWithoutItsFlagIsTrailingGarbage) {
  // The trailing id is read only when the flag bit says so; a stray extra
  // u64 without the bit must fail ExpectEnd, not be silently consumed.
  RunRequest req;
  req.program = "p";
  std::string payload = EncodeRunRequest(req);
  PutU64(&payload, 7);
  RunRequest out;
  Status st = DecodeRunRequest(payload, &out);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kParseError);
}

TEST(WireMessageTest, RunResponseProfileExtensionRoundTrips) {
  RunResponse resp;
  resp.executed_version = 3;
  resp.steps = 5;
  resp.has_profile = true;
  resp.profile_text = "├─ [1] T <- transpose (Sales);  inst=1 in=2x4\n";
  resp.counters_json = R"({"algebra.transpose.calls":1})";
  RunResponse out;
  ASSERT_TRUE(DecodeRunResponse(EncodeRunResponse(resp), &out).ok());
  EXPECT_TRUE(out.has_profile);
  EXPECT_EQ(out.profile_text, resp.profile_text);
  EXPECT_EQ(out.counters_json, resp.counters_json);
}

TEST(WireMessageTest, ProfilelessRunResponseEncodesByteIdenticallyToItsGolden) {
  RunResponse resp;
  resp.executed_version = 41;
  resp.committed_version = 42;
  resp.cache_hit = true;
  resp.steps = 17;
  resp.rewrites_applied = 3;
  resp.rewrites_rejected = 1;
  resp.dump = "!T | !A\n";
  std::string golden;
  PutU8(&golden, static_cast<uint8_t>(MsgType::kOk));
  PutU64(&golden, 41);
  PutU64(&golden, 42);
  PutU8(&golden, 1);
  PutU64(&golden, 17);
  PutU32(&golden, 3);
  PutU32(&golden, 1);
  PutString(&golden, resp.dump);
  EXPECT_EQ(EncodeRunResponse(resp), golden);
}

TEST(WireMessageTest, UnknownRunResponseExtensionMarkerRejected) {
  RunResponse resp;
  resp.executed_version = 1;
  std::string payload = EncodeRunResponse(resp);
  payload.push_back(0x7F);  // not kRunRespProfileExt
  RunResponse out;
  Status st = DecodeRunResponse(payload, &out);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kParseError);
}

TEST(WireMessageTest, DecodeClearsStaleProfileFields) {
  RunResponse with;
  with.has_profile = true;
  with.profile_text = "tree";
  with.counters_json = "{}";
  RunResponse out;
  ASSERT_TRUE(DecodeRunResponse(EncodeRunResponse(with), &out).ok());
  // Re-decode a profile-less payload into the same struct: the extension
  // fields must reset, not leak the previous response's profile.
  ASSERT_TRUE(DecodeRunResponse(EncodeRunResponse(RunResponse{}), &out).ok());
  EXPECT_FALSE(out.has_profile);
  EXPECT_TRUE(out.profile_text.empty());
  EXPECT_TRUE(out.counters_json.empty());
}

obs::QueryLogEntry SlowEntry(uint64_t latency_us) {
  obs::QueryLogEntry e;
  e.start_ns = 123456789;
  e.request_id = 9;
  e.session_id = 2;
  e.program_hash = obs::Fnv1a64("T <- transpose (Sales);");
  e.latency_us = latency_us;
  e.rows_in = 8;
  e.rows_out = 4;
  e.snapshot_version = 5;
  e.rewrites_applied = 1;
  e.cache_hit = true;
  e.ok = false;
  return e;
}

TEST(WireMessageTest, SlowLogResponseRoundTripsEveryField) {
  SlowLogResponse resp;
  resp.threshold_micros = 100000;
  resp.dropped = 3;
  resp.entries.push_back(SlowEntry(150000));
  resp.entries.push_back(SlowEntry(2000000));
  SlowLogResponse out;
  ASSERT_TRUE(DecodeSlowLogResponse(EncodeSlowLogResponse(resp), &out).ok());
  EXPECT_EQ(out.threshold_micros, 100000u);
  EXPECT_EQ(out.dropped, 3u);
  ASSERT_EQ(out.entries.size(), 2u);
  const obs::QueryLogEntry& e = out.entries[0];
  EXPECT_EQ(e.start_ns, 123456789u);
  EXPECT_EQ(e.request_id, 9u);
  EXPECT_EQ(e.session_id, 2u);
  EXPECT_EQ(e.program_hash, obs::Fnv1a64("T <- transpose (Sales);"));
  EXPECT_EQ(e.latency_us, 150000u);
  EXPECT_EQ(e.rows_in, 8u);
  EXPECT_EQ(e.rows_out, 4u);
  EXPECT_EQ(e.snapshot_version, 5u);
  EXPECT_EQ(e.rewrites_applied, 1u);
  EXPECT_TRUE(e.cache_hit);
  EXPECT_FALSE(e.ok);
  EXPECT_EQ(out.entries[1].latency_us, 2000000u);
}

TEST(WireMessageTest, SlowLogEntryCountBeyondTheFrameCapRejected) {
  // A hostile count must be rejected before the reserve, not after an
  // attempted multi-gigabyte allocation.
  std::string payload;
  PutU8(&payload, static_cast<uint8_t>(MsgType::kOk));
  PutU64(&payload, 0);           // threshold
  PutU64(&payload, 0);           // dropped
  PutU32(&payload, 0xFFFFFFFF);  // entry count
  SlowLogResponse out;
  Status st = DecodeSlowLogResponse(payload, &out);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kParseError);
}

TEST(WireMessageTest, TruncatedPayloadsAreParseErrors) {
  // Every strict prefix of every extended message, fed to every decoder:
  // the only outcomes are a clean decode (a prefix can be a valid shorter
  // message — a run response cut before its profile extension) or
  // kParseError. Never a crash, never a partial read reported as success
  // by the message's own decoder.
  RunRequest run;
  run.program = "T <- transpose (Sales);";
  run.profile = true;
  run.request_id = 77;
  SlowLogResponse slow;
  slow.threshold_micros = 10;
  slow.entries.push_back(SlowEntry(11));
  RunResponse prof;
  prof.has_profile = true;
  prof.profile_text = "tree";
  prof.counters_json = "{}";
  const std::string payloads[] = {
      EncodeRunRequest(run),
      EncodeSlowLogResponse(slow),
      EncodeRunResponse(prof),
  };
  for (const std::string& payload : payloads) {
    for (size_t cut = 1; cut < payload.size(); ++cut) {
      const std::string prefix = payload.substr(0, cut);
      RunRequest out_run;
      RunResponse out_resp;
      SlowLogResponse out_slow;
      for (Status st : {DecodeRunRequest(prefix, &out_run),
                        DecodeSlowLogResponse(prefix, &out_slow),
                        DecodeRunResponse(prefix, &out_resp)}) {
        if (!st.ok()) {
          EXPECT_EQ(st.code(), StatusCode::kParseError) << "cut=" << cut;
        }
      }
    }
  }
}

TEST(WireMessageTest, ErrorRoundTripPreservesCode) {
  ErrorResponse err;
  err.code = StatusCode::kUndefined;
  err.message = "commit conflict: base version 3 is no longer current";
  ErrorResponse out;
  ASSERT_TRUE(DecodeError(EncodeError(err), &out).ok());
  EXPECT_EQ(out.code, StatusCode::kUndefined);
  EXPECT_EQ(out.message, err.message);
}

TEST(WireMessageTest, AdmissionRejectedRoundTripsAsTheLastKnownCode) {
  ErrorResponse err;
  err.code = StatusCode::kAdmissionRejected;
  err.message = "statement 1: estimated rows 4 exceed limit 3";
  const std::string payload = EncodeError(err);
  ErrorResponse out;
  ASSERT_TRUE(DecodeError(payload, &out).ok());
  EXPECT_EQ(out.code, StatusCode::kAdmissionRejected);
  EXPECT_EQ(out.message, err.message);

  // One past the last status code is a parse error, not a wild cast.
  std::string bumped = payload;
  bumped[1] =
      static_cast<char>(static_cast<uint8_t>(StatusCode::kAdmissionRejected) +
                        1);
  Status st = DecodeError(bumped, &out);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  EXPECT_NE(st.message().find("unknown status code"), std::string::npos);
}

TEST(WireMessageTest, TruncatedAdmissionErrorIsAParseError) {
  ErrorResponse err;
  err.code = StatusCode::kAdmissionRejected;
  err.message = "statement 2: statically unbounded resource use";
  const std::string payload = EncodeError(err);
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    ErrorResponse out;
    Status st = DecodeError(payload.substr(0, cut), &out);
    ASSERT_FALSE(st.ok()) << "cut=" << cut;
    EXPECT_EQ(st.code(), StatusCode::kParseError) << "cut=" << cut;
  }
}

TEST(WireMessageTest, TruncatedRunRequestBodyIsAParseError) {
  std::string payload = EncodeRunRequest(RunRequest{"program text", true, false});
  for (size_t cut = 1; cut < payload.size(); ++cut) {
    RunRequest out;
    Status st = DecodeRunRequest(payload.substr(0, cut), &out);
    ASSERT_FALSE(st.ok()) << "cut=" << cut;
    EXPECT_EQ(st.code(), StatusCode::kParseError) << "cut=" << cut;
  }
}

// -- Framed stream I/O -------------------------------------------------------

struct SocketPair {
  int a = -1, b = -1;
  SocketPair() {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a = fds[0];
    b = fds[1];
  }
  ~SocketPair() {
    if (a >= 0) ::close(a);
    if (b >= 0) ::close(b);
  }
  void CloseA() {
    ::close(a);
    a = -1;
  }
};

TEST(WireFrameTest, FramesRoundTripInOrder) {
  SocketPair sp;
  ASSERT_TRUE(WriteFrame(sp.a, "first").ok());
  ASSERT_TRUE(WriteFrame(sp.a, std::string(100000, 'x')).ok());
  auto f1 = ReadFrame(sp.b);
  ASSERT_TRUE(f1.ok()) << f1.status().ToString();
  ASSERT_TRUE(f1->has_value());
  EXPECT_EQ(**f1, "first");
  auto f2 = ReadFrame(sp.b);
  ASSERT_TRUE(f2.ok());
  ASSERT_TRUE(f2->has_value());
  EXPECT_EQ((*f2)->size(), 100000u);
}

TEST(WireFrameTest, CleanCloseAtBoundaryIsEof) {
  SocketPair sp;
  ASSERT_TRUE(WriteFrame(sp.a, "only").ok());
  sp.CloseA();
  auto f1 = ReadFrame(sp.b);
  ASSERT_TRUE(f1.ok());
  ASSERT_TRUE(f1->has_value());
  auto f2 = ReadFrame(sp.b);
  ASSERT_TRUE(f2.ok()) << f2.status().ToString();
  EXPECT_FALSE(f2->has_value());  // clean EOF, not an error
}

TEST(WireFrameTest, TruncatedLengthPrefixIsAParseError) {
  SocketPair sp;
  const char two[] = {0x10, 0x00};
  ASSERT_EQ(::write(sp.a, two, 2), 2);
  sp.CloseA();
  auto f = ReadFrame(sp.b);
  ASSERT_FALSE(f.ok());
  EXPECT_EQ(f.status().code(), StatusCode::kParseError);
}

TEST(WireFrameTest, TruncatedPayloadIsAParseError) {
  SocketPair sp;
  std::string partial;
  PutU32(&partial, 10);  // promises 10 payload bytes
  partial += "abc";      // delivers 3
  ASSERT_EQ(::write(sp.a, partial.data(), partial.size()),
            static_cast<ssize_t>(partial.size()));
  sp.CloseA();
  auto f = ReadFrame(sp.b);
  ASSERT_FALSE(f.ok());
  EXPECT_EQ(f.status().code(), StatusCode::kParseError);
}

TEST(WireFrameTest, OversizedLengthPrefixRejectedBeforeAllocation) {
  SocketPair sp;
  std::string prefix;
  PutU32(&prefix, kMaxFramePayload + 1);
  ASSERT_EQ(::write(sp.a, prefix.data(), prefix.size()), 4);
  auto f = ReadFrame(sp.b);
  ASSERT_FALSE(f.ok());
  EXPECT_EQ(f.status().code(), StatusCode::kParseError);
}

TEST(WireFrameTest, ZeroLengthFrameRoundTripsSymmetrically) {
  // The framing layer is payload-agnostic: an empty frame is well-formed on
  // both sides (the writer used to reject what the reader also rejected,
  // with different status codes — now both accept). Rejecting empty
  // *messages* is the dispatcher's job, not the framer's.
  SocketPair sp;
  ASSERT_TRUE(WriteFrame(sp.a, "").ok());
  ASSERT_TRUE(WriteFrame(sp.a, "after").ok());
  auto f1 = ReadFrame(sp.b);
  ASSERT_TRUE(f1.ok()) << f1.status().ToString();
  ASSERT_TRUE(f1->has_value());
  EXPECT_EQ(**f1, "");
  auto f2 = ReadFrame(sp.b);  // stream stays in sync after an empty frame
  ASSERT_TRUE(f2.ok());
  ASSERT_TRUE(f2->has_value());
  EXPECT_EQ(**f2, "after");
}

TEST(WireFrameTest, MaxPayloadBoundaryFrameRoundTrips) {
  // Exactly kMaxFramePayload is legal; one byte more is rejected by the
  // writer before anything hits the wire.
  SocketPair sp;
  const std::string big(kMaxFramePayload, 'm');
  std::thread writer([&] { EXPECT_TRUE(WriteFrame(sp.a, big).ok()); });
  auto f = ReadFrame(sp.b);
  writer.join();
  ASSERT_TRUE(f.ok()) << f.status().ToString();
  ASSERT_TRUE(f->has_value());
  EXPECT_EQ((*f)->size(), static_cast<size_t>(kMaxFramePayload));
  EXPECT_EQ((*f)->front(), 'm');
  EXPECT_EQ((*f)->back(), 'm');

  Status st = WriteFrame(sp.a, std::string(kMaxFramePayload + 1, 'x'));
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

// -- Malformed-byte fuzz -----------------------------------------------------

/// Deterministic LCG so failures reproduce; no global RNG state.
class Lcg {
 public:
  explicit Lcg(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    state_ = state_ * 6364136223846793005ull + 1442695040888963407ull;
    return state_ >> 33;
  }

 private:
  uint64_t state_;
};

TEST(WireFuzzTest, RandomBytesNeverCrashReadFrame) {
  Lcg rng(0xF00D);
  for (int round = 0; round < 200; ++round) {
    SocketPair sp;
    std::string junk;
    // Seeded corpus: the boundary frames that used to be mis-handled —
    // an empty frame (len == 0, now well-formed) and an exactly-64MiB
    // length prefix with a truncated payload — each followed by random
    // bytes. Remaining rounds are pure random junk.
    if (round == 0) {
      PutU32(&junk, 0);
    } else if (round == 1) {
      PutU32(&junk, kMaxFramePayload);
      junk += "short";
    }
    const size_t len = rng.Next() % 64;
    for (size_t i = 0; i < len; ++i) {
      junk.push_back(static_cast<char>(rng.Next() & 0xFF));
    }
    if (!junk.empty()) {
      ASSERT_EQ(::write(sp.a, junk.data(), junk.size()),
                static_cast<ssize_t>(junk.size()));
    }
    sp.CloseA();
    // Drain the stream: every outcome must be a clean EOF, a parse error,
    // or a well-formed frame — never a crash or hang.
    for (int frames = 0; frames < 8; ++frames) {
      auto f = ReadFrame(sp.b);
      if (!f.ok()) {
        EXPECT_EQ(f.status().code(), StatusCode::kParseError)
            << f.status().ToString();
        break;
      }
      if (!f->has_value()) break;  // clean EOF
    }
  }
}

TEST(WireFuzzTest, RandomPayloadsNeverCrashDecoders) {
  Lcg rng(0xBEEF);
  for (int round = 0; round < 500; ++round) {
    const size_t len = rng.Next() % 48;
    std::string payload;
    for (size_t i = 0; i < len; ++i) {
      payload.push_back(static_cast<char>(rng.Next() & 0xFF));
    }
    RunRequest req;
    RunResponse resp;
    ErrorResponse err;
    SlowLogResponse slow;
    // Decoders must return a Status, never crash; contents are unchecked.
    (void)DecodeRunRequest(payload, &req);
    (void)DecodeRunResponse(payload, &resp);
    (void)DecodeError(payload, &err);
    (void)DecodeSlowLogResponse(payload, &slow);
  }
}

}  // namespace
}  // namespace tabular::server
