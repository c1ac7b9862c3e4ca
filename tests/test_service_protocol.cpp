// Malformed-frame sweep and codec tests for the service wire protocol.
//
// The sweep drives a live server over raw sockets with hostile inputs —
// truncated length prefixes, oversized declared lengths, unknown tags,
// mid-frame disconnects — and requires a typed error frame or a clean
// close every time: the daemon must never crash, hang, or allocate from a
// length field.

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/service/client.hpp"
#include "src/service/protocol.hpp"
#include "src/service/server.hpp"
#include "src/util/socket.hpp"
#include "src/util/temp_file.hpp"

namespace satproof::service {
namespace {

// ------------------------------------------------------------------ codec

TEST(ServiceCodec, IntegerHelpersRoundTrip) {
  std::vector<std::uint8_t> buf;
  append_u32le(buf, 0xDEADBEEFu);
  append_u64le(buf, 0x0123456789ABCDEFull);
  ASSERT_EQ(buf.size(), 12u);
  EXPECT_EQ(buf[0], 0xEF);  // little-endian
  EXPECT_EQ(read_u32le(buf.data()), 0xDEADBEEFu);
  EXPECT_EQ(read_u64le(buf.data() + 4), 0x0123456789ABCDEFull);
}

TEST(ServiceCodec, SubmitHeaderRoundTrip) {
  SubmitHeader h;
  h.backend = 3;
  h.flags = kSubmitFlagWait;
  h.timeout_ms = 1500;
  h.jobs = 4;
  const auto payload = encode_submit_header(h);
  SubmitHeader back;
  ASSERT_TRUE(decode_submit_header(payload, back));
  EXPECT_EQ(back.backend, h.backend);
  EXPECT_EQ(back.flags, h.flags);
  EXPECT_EQ(back.timeout_ms, h.timeout_ms);
  EXPECT_EQ(back.jobs, h.jobs);
}

TEST(ServiceCodec, SubmitHeaderRejectsWrongSize) {
  SubmitHeader out;
  const std::vector<std::uint8_t> short_payload(3, 0);
  EXPECT_FALSE(decode_submit_header(short_payload, out));
  const std::vector<std::uint8_t> long_payload(11, 0);
  EXPECT_FALSE(decode_submit_header(long_payload, out));
}

TEST(ServiceCodec, ErrorRoundTrip) {
  const auto payload =
      encode_error(ErrorCode::kUnknownTag, "tag 0x7f means nothing");
  ErrorCode code;
  std::string message;
  ASSERT_TRUE(decode_error(payload, code, message));
  EXPECT_EQ(code, ErrorCode::kUnknownTag);
  EXPECT_EQ(message, "tag 0x7f means nothing");
}

TEST(ServiceCodec, ErrorRejectsEmptyPayload) {
  ErrorCode code;
  std::string message;
  EXPECT_FALSE(decode_error(std::vector<std::uint8_t>{}, code, message));
}

TEST(ServiceCodec, ResultRoundTrip) {
  const auto payload = encode_result(JobStatus::kOk, 42, "VERIFIED",
                                     "{\"ok\":true}");
  JobStatus status;
  std::uint64_t job_id = 0;
  std::string verdict, json;
  ASSERT_TRUE(decode_result(payload, status, job_id, verdict, json));
  EXPECT_EQ(status, JobStatus::kOk);
  EXPECT_EQ(job_id, 42u);
  EXPECT_EQ(verdict, "VERIFIED");
  EXPECT_EQ(json, "{\"ok\":true}");
}

TEST(ServiceCodec, ResultRejectsTruncatedPayload) {
  auto payload = encode_result(JobStatus::kCheckFailed, 7, "nope", "{}");
  payload.resize(payload.size() - 3);  // cut into the JSON tail is fine...
  JobStatus status;
  std::uint64_t job_id = 0;
  std::string verdict, json;
  // ...but cutting into the verdict declared by its length field is not.
  payload.resize(10);
  EXPECT_FALSE(decode_result(payload, status, job_id, verdict, json));
}

TEST(ServiceCodec, NamesAreStable) {
  EXPECT_STREQ(error_code_name(ErrorCode::kOversizedFrame),
               "oversized frame");
  EXPECT_STREQ(job_status_name(JobStatus::kTimeout), "timeout");
}

// --------------------------------------------------------- framed socket IO

/// A connected (client, server) TCP socket pair on loopback.
struct SocketPair {
  util::Socket client;
  util::Socket server;

  SocketPair() {
    util::Socket listener = util::listen_tcp_localhost(0);
    client = util::connect_tcp_localhost(util::local_port(listener));
    server = util::accept_connection(listener);
  }
};

TEST(ServiceFrameIo, WriteThenReadRoundTrips) {
  SocketPair pair;
  const std::string payload = "hello frames";
  ASSERT_TRUE(write_frame(pair.client, FrameTag::kCnfData, payload));
  Frame frame;
  ASSERT_EQ(read_frame(pair.server, frame), ReadStatus::kFrame);
  EXPECT_EQ(frame.tag, FrameTag::kCnfData);
  EXPECT_EQ(std::string(frame.payload.begin(), frame.payload.end()), payload);
}

TEST(ServiceFrameIo, EmptyPayloadFrame) {
  SocketPair pair;
  ASSERT_TRUE(write_frame(pair.client, FrameTag::kStats));
  Frame frame;
  ASSERT_EQ(read_frame(pair.server, frame), ReadStatus::kFrame);
  EXPECT_EQ(frame.tag, FrameTag::kStats);
  EXPECT_TRUE(frame.payload.empty());
}

TEST(ServiceFrameIo, OrderlyCloseReadsAsClosed) {
  SocketPair pair;
  pair.client.close();
  Frame frame;
  EXPECT_EQ(read_frame(pair.server, frame), ReadStatus::kClosed);
}

TEST(ServiceFrameIo, PartialHeaderReadsAsTruncated) {
  SocketPair pair;
  const std::uint8_t partial[2] = {0x01, 0xFF};
  ASSERT_TRUE(pair.client.send_all(partial, sizeof partial));
  pair.client.close();
  Frame frame;
  EXPECT_EQ(read_frame(pair.server, frame), ReadStatus::kTruncated);
}

TEST(ServiceFrameIo, OversizedDeclaredLengthIsRejectedUnread) {
  SocketPair pair;
  // Declare far more than the cap; send no payload at all. The reader must
  // reject from the header alone without trying to allocate or read it.
  std::vector<std::uint8_t> header;
  header.push_back(static_cast<std::uint8_t>(FrameTag::kCnfData));
  append_u32le(header, kMaxFramePayload + 1);
  ASSERT_TRUE(pair.client.send_all(header.data(), header.size()));
  Frame frame;
  EXPECT_EQ(read_frame(pair.server, frame), ReadStatus::kOversized);
}

TEST(ServiceFrameIo, CustomCapApplies) {
  SocketPair pair;
  ASSERT_TRUE(write_frame(pair.client, FrameTag::kCnfData,
                          std::string(128, 'x')));
  Frame frame;
  EXPECT_EQ(read_frame(pair.server, frame, /*max_payload=*/64),
            ReadStatus::kOversized);
}

// ------------------------------------------------------- live-server sweep

class ServiceProtocolSweep : public ::testing::Test {
 protected:
  void SetUp() override {
    ServerOptions opts;
    opts.unix_socket_path = socket_file_.path().string();
    opts.workers = 1;
    // A hostile client that stalls should be dropped quickly, not pin a
    // connection thread for the default 30 s.
    opts.idle_timeout_ms = 500;
    server_.emplace(opts);
    server_->start();
  }

  void TearDown() override { server_->drain_and_wait(); }

  util::Socket connect_raw() {
    return util::connect_unix(socket_file_.path().string());
  }

  /// Expects a kError frame with `code`, then connection close.
  void expect_error_then_close(util::Socket& sock, ErrorCode code) {
    Frame frame;
    ASSERT_EQ(read_frame(sock, frame), ReadStatus::kFrame);
    ASSERT_EQ(frame.tag, FrameTag::kError);
    ErrorCode got;
    std::string message;
    ASSERT_TRUE(decode_error(frame.payload, got, message));
    EXPECT_EQ(got, code) << message;
    EXPECT_EQ(read_frame(sock, frame), ReadStatus::kClosed);
  }

  /// The server must still answer a well-formed stats request after abuse.
  void expect_still_alive() {
    Client client = Client::connect_unix(socket_file_.path().string());
    std::string error;
    const std::string json = client.stats_json(&error);
    ASSERT_FALSE(json.empty()) << error;
    EXPECT_NE(json.find("\"satproofd_malformed_frames_total\""),
              std::string::npos);
  }

  util::TempFile socket_file_{"svc-proto-sock"};
  std::optional<Server> server_;
};

TEST_F(ServiceProtocolSweep, TruncatedLengthPrefixClosesCleanly) {
  {
    util::Socket sock = connect_raw();
    const std::uint8_t bytes[3] = {0x01, 0x0A, 0x00};  // header cut short
    ASSERT_TRUE(sock.send_all(bytes, sizeof bytes));
  }  // disconnect mid-header
  expect_still_alive();
}

TEST_F(ServiceProtocolSweep, MidFrameDisconnectClosesCleanly) {
  {
    util::Socket sock = connect_raw();
    std::vector<std::uint8_t> bytes;
    bytes.push_back(static_cast<std::uint8_t>(FrameTag::kCnfData));
    append_u32le(bytes, 1000);          // declare 1000 payload bytes...
    bytes.resize(bytes.size() + 10);    // ...deliver only 10
    ASSERT_TRUE(sock.send_all(bytes.data(), bytes.size()));
  }  // disconnect mid-payload
  expect_still_alive();
  EXPECT_NE(server_->metrics_json().find(
                "\"satproofd_malformed_frames_total\":"),
            std::string::npos);
}

TEST_F(ServiceProtocolSweep, OversizedDeclaredLengthGetsTypedError) {
  util::Socket sock = connect_raw();
  std::vector<std::uint8_t> header;
  header.push_back(static_cast<std::uint8_t>(FrameTag::kTraceData));
  append_u32le(header, 0xFFFFFFFFu);
  ASSERT_TRUE(sock.send_all(header.data(), header.size()));
  expect_error_then_close(sock, ErrorCode::kOversizedFrame);
  expect_still_alive();
}

TEST_F(ServiceProtocolSweep, UnknownTagGetsTypedError) {
  util::Socket sock = connect_raw();
  const std::uint8_t header[5] = {0x7F, 0, 0, 0, 0};
  ASSERT_TRUE(sock.send_all(header, sizeof header));
  expect_error_then_close(sock, ErrorCode::kUnknownTag);
  expect_still_alive();
}

TEST_F(ServiceProtocolSweep, DataChunkBeforeSubmitIsAViolation) {
  util::Socket sock = connect_raw();
  ASSERT_TRUE(write_frame(sock, FrameTag::kCnfData, std::string("p cnf")));
  expect_error_then_close(sock, ErrorCode::kProtocolViolation);
  expect_still_alive();
}

TEST_F(ServiceProtocolSweep, SubmitEndWithoutSubmitIsAViolation) {
  util::Socket sock = connect_raw();
  ASSERT_TRUE(write_frame(sock, FrameTag::kSubmitEnd));
  expect_error_then_close(sock, ErrorCode::kProtocolViolation);
}

TEST_F(ServiceProtocolSweep, MalformedSubmitHeaderGetsTypedError) {
  util::Socket sock = connect_raw();
  ASSERT_TRUE(write_frame(sock, FrameTag::kSubmit, std::string("xyz")));
  expect_error_then_close(sock, ErrorCode::kMalformedFrame);
}

TEST_F(ServiceProtocolSweep, UnknownBackendIdIsABadRequest) {
  util::Socket sock = connect_raw();
  SubmitHeader header;
  header.backend = 0x30;  // far outside service::Backend
  const auto payload = encode_submit_header(header);
  ASSERT_TRUE(write_frame(sock, FrameTag::kSubmit, payload));
  expect_error_then_close(sock, ErrorCode::kBadRequest);
}

TEST_F(ServiceProtocolSweep, StatsDuringUploadIsAViolation) {
  util::Socket sock = connect_raw();
  const auto payload = encode_submit_header(SubmitHeader{});
  ASSERT_TRUE(write_frame(sock, FrameTag::kSubmit, payload));
  ASSERT_TRUE(write_frame(sock, FrameTag::kStats));
  expect_error_then_close(sock, ErrorCode::kProtocolViolation);
}

TEST_F(ServiceProtocolSweep, RawStatsRequestAnswersJson) {
  util::Socket sock = connect_raw();
  ASSERT_TRUE(write_frame(sock, FrameTag::kStats));
  Frame frame;
  ASSERT_EQ(read_frame(sock, frame), ReadStatus::kFrame);
  ASSERT_EQ(frame.tag, FrameTag::kStatsJson);
  const std::string json(frame.payload.begin(), frame.payload.end());
  EXPECT_NE(json.find("\"satproofd_jobs_accepted_total\""), std::string::npos);
  EXPECT_NE(json.find("\"satproofd_backend_jobs_completed_total{"),
            std::string::npos);
}

TEST_F(ServiceProtocolSweep, AbuseBarrageNeverKillsTheServer) {
  // A little fuzz-ish barrage of bad openings; every one must resolve to a
  // typed error or a clean close, and the server must survive them all.
  const std::vector<std::vector<std::uint8_t>> openings = {
      {0x00},                                  // lone unknown tag byte
      {0x01, 0xFF, 0xFF},                      // truncated length
      {0x7E, 0x00, 0x00, 0x00, 0x00},          // unknown tag, empty payload
      {0x04, 0x04, 0x00, 0x00, 0x00},          // SUBMIT_END claiming payload
      {0x83, 0x00, 0x00, 0x00, 0x00},          // server-only tag from client
  };
  for (const auto& bytes : openings) {
    util::Socket sock = connect_raw();
    ASSERT_TRUE(sock.send_all(bytes.data(), bytes.size()));
    // Whatever comes back, it must terminate: an error frame, a truncated
    // read, or a clean close — never a hang (the idle timeout bounds it).
    Frame frame;
    (void)read_frame(sock, frame);
  }
  expect_still_alive();
}

}  // namespace
}  // namespace satproof::service
