#include "src/service/client.hpp"

#include <filesystem>
#include <fstream>
#include <system_error>
#include <vector>

namespace satproof::service {

Client Client::connect_unix(const std::string& socket_path) {
  return Client(util::connect_unix(socket_path));
}

Client Client::connect_tcp(std::uint16_t port) {
  return Client(util::connect_tcp_localhost(port));
}

bool Client::send_file(const std::string& path, FrameTag tag) {
  std::ifstream in(path, std::ios::in | std::ios::binary);
  if (!in) return false;
  std::vector<std::uint8_t> buf(kChunkBytes);
  for (;;) {
    in.read(reinterpret_cast<char*>(buf.data()),
            static_cast<std::streamsize>(buf.size()));
    const std::streamsize got = in.gcount();
    if (got <= 0) break;
    if (!write_frame(sock_, tag,
                     std::span<const std::uint8_t>(
                         buf.data(), static_cast<std::size_t>(got)))) {
      return false;
    }
    if (in.eof()) break;
  }
  return in.eof() || in.good();
}

Client::SubmitReply Client::submit(const std::string& cnf_path,
                                   const std::string& trace_path,
                                   Backend backend, bool wait, unsigned jobs,
                                   std::uint32_t timeout_ms, bool certify) {
  SubmitReply reply;

  SubmitHeader header;
  header.backend = static_cast<std::uint8_t>(backend);
  header.flags = wait ? kSubmitFlagWait : 0;
  if (certify) header.flags |= kSubmitFlagCertify;
  header.timeout_ms = timeout_ms;
  header.jobs = jobs;
  // Declare the upload size up front so the server can pick a priority
  // lane before the bytes arrive. Unreadable files declare 0; the server
  // falls back to the measured upload size (and the send fails below).
  std::error_code ec;
  const auto cnf_bytes = std::filesystem::file_size(cnf_path, ec);
  if (!ec) header.declared_bytes += cnf_bytes;
  const auto trace_bytes = std::filesystem::file_size(trace_path, ec);
  if (!ec) header.declared_bytes += trace_bytes;

  if (!write_frame(sock_, FrameTag::kSubmit, encode_submit_header(header))) {
    reply.error = "transport error sending submit header";
    return reply;
  }
  if (!send_file(cnf_path, FrameTag::kCnfData)) {
    reply.error = "cannot read or send " + cnf_path;
    return reply;
  }
  if (!send_file(trace_path, FrameTag::kTraceData)) {
    reply.error = "cannot read or send " + trace_path;
    return reply;
  }
  if (!write_frame(sock_, FrameTag::kSubmitEnd)) {
    reply.error = "transport error finishing submit";
    return reply;
  }

  Frame frame;
  if (read_frame(sock_, frame) != ReadStatus::kFrame) {
    reply.error = "connection lost waiting for the submit reply";
    return reply;
  }
  switch (frame.tag) {
    case FrameTag::kBusy:
      reply.transport_ok = true;
      reply.busy = true;
      reply.error = "server busy: job queue is full";
      return reply;
    case FrameTag::kError: {
      ErrorCode code = ErrorCode::kMalformedFrame;
      std::string message;
      decode_error(frame.payload, code, message);
      reply.error = std::string(error_code_name(code)) + ": " + message;
      return reply;
    }
    case FrameTag::kAccepted:
      if (frame.payload.size() != 8) {
        reply.error = "malformed ACCEPTED frame";
        return reply;
      }
      reply.transport_ok = true;
      reply.accepted = true;
      reply.job_id = read_u64le(frame.payload.data());
      break;
    default:
      reply.error = "unexpected reply tag";
      return reply;
  }

  if (!wait) return reply;

  if (read_frame(sock_, frame) != ReadStatus::kFrame ||
      frame.tag != FrameTag::kResult) {
    reply.error = "connection lost waiting for the job result";
    reply.transport_ok = false;
    return reply;
  }
  std::uint64_t result_id = 0;
  if (!decode_result(frame.payload, reply.status, result_id, reply.verdict,
                     reply.result_json) ||
      result_id != reply.job_id) {
    reply.error = "malformed RESULT frame";
    reply.transport_ok = false;
    return reply;
  }
  reply.have_result = true;

  // An ok certify result is always followed by its RESULT_CERT frame (a
  // certified run that could not produce a certificate is not ok).
  if (certify && reply.status == JobStatus::kOk) {
    if (read_frame(sock_, frame) != ReadStatus::kFrame ||
        frame.tag != FrameTag::kResultCert) {
      reply.error = "connection lost waiting for the certificate";
      reply.transport_ok = false;
      return reply;
    }
    std::uint64_t cert_id = 0;
    bool binary_format = false;
    if (!decode_result_cert(frame.payload, cert_id, binary_format,
                            reply.certificate) ||
        cert_id != reply.job_id) {
      reply.error = "malformed RESULT_CERT frame";
      reply.transport_ok = false;
      return reply;
    }
    reply.have_certificate = true;
  }
  return reply;
}

std::string Client::stats_json(std::string* error) {
  return stats(FrameTag::kStats, FrameTag::kStatsJson, error);
}

std::string Client::stats_prometheus(std::string* error) {
  return stats(FrameTag::kStatsProm, FrameTag::kStatsPromText, error);
}

std::string Client::stats(FrameTag request, FrameTag reply,
                          std::string* error) {
  if (!write_frame(sock_, request)) {
    if (error != nullptr) *error = "transport error sending stats request";
    return "";
  }
  Frame frame;
  if (read_frame(sock_, frame) != ReadStatus::kFrame || frame.tag != reply) {
    if (error != nullptr) *error = "connection lost waiting for stats";
    return "";
  }
  return std::string(frame.payload.begin(), frame.payload.end());
}

}  // namespace satproof::service
