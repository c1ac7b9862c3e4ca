#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/util/socket.hpp"

namespace satproof::service {

/// Wire protocol of the proof-checking service (`satproof serve`).
///
/// Every message is one *frame*:
///
///     offset  size  field
///     0       1     tag        (FrameTag)
///     1       4     length     (u32, little-endian, payload bytes)
///     5       len   payload
///
/// A declared length above kMaxFramePayload is rejected before any payload
/// byte is read — a client cannot make the server allocate from a length
/// field. Multi-byte integers inside payloads are little-endian.
///
/// Conversation shape (client speaks first, one conversation per frame
/// exchange; a connection may carry any number of them sequentially):
///
///   submit:  kSubmit header, then any number of kCnfData / kTraceData
///            chunks (the server streams them straight to temp files),
///            then kSubmitEnd. Server replies kAccepted{job id} or kBusy.
///            If the header's wait flag is set, one kResult frame follows
///            when the job finishes.
///   stats:   kStats with empty payload; server replies kStatsJson.
///            kStatsProm requests the same snapshot in Prometheus text
///            exposition format; server replies kStatsPromText.
///
/// Any protocol violation gets a typed kError frame (when the transport
/// still works) followed by connection close; the server never crashes or
/// hangs on malformed input (tests/test_service_protocol.cpp sweeps this).

inline constexpr std::uint32_t kMaxFramePayload = 64u << 20;  // 64 MiB
inline constexpr std::size_t kFrameHeaderBytes = 5;

enum class FrameTag : std::uint8_t {
  // client -> server
  kSubmit = 0x01,     ///< SubmitHeader payload
  kCnfData = 0x02,    ///< raw DIMACS bytes (chunk)
  kTraceData = 0x03,  ///< raw trace/DRUP-proof bytes (chunk)
  kSubmitEnd = 0x04,  ///< empty payload; enqueue the job
  kStats = 0x05,      ///< empty payload; request a metrics snapshot
  kStatsProm = 0x06,  ///< empty payload; request Prometheus exposition

  // server -> client
  kAccepted = 0x81,   ///< u64 job id
  kBusy = 0x82,       ///< u32 queue capacity: queue full, job dropped
  kResult = 0x83,     ///< ResultHeader + verdict + JSON (see below)
  kStatsJson = 0x84,  ///< UTF-8 JSON document
  kError = 0x85,      ///< u8 ErrorCode + UTF-8 message
  kStatsPromText = 0x86,  ///< UTF-8 Prometheus text exposition
  /// u64 job id, u8 format (0 text, 1 binary), u32 cert length, cert
  /// bytes. Sent right after kResult for jobs submitted with
  /// kSubmitFlagCertify | kSubmitFlagWait and a successful certified
  /// check; clients that never set the certify flag never see it.
  kResultCert = 0x87,
};

enum class ErrorCode : std::uint8_t {
  kMalformedFrame = 1,     ///< undecodable payload for the tag
  kOversizedFrame = 2,     ///< declared length > kMaxFramePayload
  kUnknownTag = 3,         ///< tag byte outside the protocol
  kProtocolViolation = 4,  ///< valid frame at the wrong time
  kDraining = 5,           ///< server is shutting down; job refused
  kBadRequest = 6,         ///< semantically invalid submit header
};

/// Job completion status carried in a kResult frame.
enum class JobStatus : std::uint8_t {
  kOk = 0,           ///< proof verified
  kCheckFailed = 1,  ///< checker rejected the proof (verdict has details)
  kError = 2,        ///< job could not run (unreadable CNF, bad trace, ...)
  kTimeout = 3,      ///< wall-clock deadline exceeded
};

/// kSubmit payload. Encoded as 18 bytes; a legacy 10-byte header (without
/// the trailing declared_bytes field) still decodes, with declared_bytes
/// taken as 0 ("unknown").
struct SubmitHeader {
  std::uint8_t backend = 0;      ///< service::Backend
  std::uint8_t flags = 0;        ///< kSubmitFlagWait
  std::uint32_t timeout_ms = 0;  ///< wall-clock budget; 0 = server default
  std::uint32_t jobs = 0;        ///< parallel-backend workers; 0 = default
  /// Total upload size (CNF + trace bytes) the client intends to stream;
  /// 0 = unknown. The server picks the job's priority lane from it — an
  /// honest multi-MB declaration queues behind nothing but other bulk
  /// jobs, while small jobs overtake. A dishonest 0/low declaration is
  /// corrected from the actually-ingested byte count at enqueue time.
  std::uint64_t declared_bytes = 0;
};

inline constexpr std::uint8_t kSubmitFlagWait = 0x01;
/// Request an LRAT certificate of the replay (df/hybrid/window backends;
/// requires kSubmitFlagWait — the certificate arrives as a kResultCert
/// frame after the kResult). Unknown to pre-certification servers' flag
/// validation era: the bit is simply ignored by legacy peers.
inline constexpr std::uint8_t kSubmitFlagCertify = 0x02;

/// One decoded frame.
struct Frame {
  FrameTag tag = FrameTag::kError;
  std::vector<std::uint8_t> payload;
};

/// Outcome of read_frame.
enum class ReadStatus {
  kFrame,      ///< `out` holds a complete frame
  kClosed,     ///< orderly close before any byte of a new frame
  kTruncated,  ///< disconnect/timeout mid-frame
  kOversized,  ///< declared payload length exceeds the cap
};

// --- little-endian integer helpers (shared by server, client, tests) ----
void append_u32le(std::vector<std::uint8_t>& out, std::uint32_t v);
void append_u64le(std::vector<std::uint8_t>& out, std::uint64_t v);
std::uint32_t read_u32le(const std::uint8_t* p);
std::uint64_t read_u64le(const std::uint8_t* p);

// --- payload codecs -----------------------------------------------------
std::vector<std::uint8_t> encode_submit_header(const SubmitHeader& h);
/// False when the payload is not exactly a SubmitHeader.
bool decode_submit_header(std::span<const std::uint8_t> payload,
                          SubmitHeader& out);

/// kError payload: code byte + message bytes.
std::vector<std::uint8_t> encode_error(ErrorCode code,
                                       std::string_view message);
bool decode_error(std::span<const std::uint8_t> payload, ErrorCode& code,
                  std::string& message);

/// kResult payload: u8 status, u64 job id, u32 verdict length, verdict
/// bytes, then the JSON document (remaining bytes).
std::vector<std::uint8_t> encode_result(JobStatus status, std::uint64_t job_id,
                                        std::string_view verdict,
                                        std::string_view json);
bool decode_result(std::span<const std::uint8_t> payload, JobStatus& status,
                   std::uint64_t& job_id, std::string& verdict,
                   std::string& json);

/// kResultCert payload: u64 job id, u8 format (0 = text LRAT, 1 = binary
/// GRIT-style), u32 certificate length, certificate bytes.
std::vector<std::uint8_t> encode_result_cert(std::uint64_t job_id,
                                             bool binary_format,
                                             std::string_view cert);
bool decode_result_cert(std::span<const std::uint8_t> payload,
                        std::uint64_t& job_id, bool& binary_format,
                        std::string& cert);

// --- framed socket I/O --------------------------------------------------

/// Writes one frame; returns false on a transport error.
bool write_frame(util::Socket& sock, FrameTag tag,
                 std::span<const std::uint8_t> payload);
bool write_frame(util::Socket& sock, FrameTag tag, std::string_view payload);
/// Empty-payload shorthand.
bool write_frame(util::Socket& sock, FrameTag tag);

/// Reads one frame. On kOversized the header has been consumed but no
/// payload byte (the connection is unusable afterwards — close it).
ReadStatus read_frame(util::Socket& sock, Frame& out,
                      std::uint32_t max_payload = kMaxFramePayload);

// --- incremental decoding (event-loop server) ---------------------------

/// Reassembles frames from arbitrarily fragmented byte input — the
/// non-blocking ingest loop feeds it whatever recv() returned, so a
/// client trickling one byte per write (or a slowloris upload) costs
/// buffer space, never a blocked thread.
class FrameDecoder {
 public:
  explicit FrameDecoder(std::uint32_t max_payload = kMaxFramePayload)
      : max_payload_(max_payload) {}

  enum class Result {
    kNeedMore,   ///< no complete frame buffered yet
    kFrame,      ///< `out` holds the next frame
    kOversized,  ///< declared length > max_payload; stop feeding
  };

  /// Appends `n` raw bytes to the reassembly buffer.
  void feed(const std::uint8_t* data, std::size_t n);

  /// Extracts the next complete frame, if any. Call in a loop until it
  /// stops returning kFrame — one feed() can complete several frames.
  Result next(Frame& out);

  /// True while a frame header or payload is partially buffered — a
  /// disconnect now is a mid-frame truncation, not an orderly close.
  /// (Assumes the caller drains next() until kNeedMore after every feed.)
  [[nodiscard]] bool mid_frame() const { return buffered_bytes() > 0; }

  /// Bytes currently buffered (partial frame data).
  [[nodiscard]] std::size_t buffered_bytes() const {
    return buf_.size() - consumed_;
  }

 private:
  std::uint32_t max_payload_;
  std::vector<std::uint8_t> buf_;
  std::size_t consumed_ = 0;  ///< prefix of buf_ already handed out
};

/// Human-readable names for diagnostics and tests.
const char* error_code_name(ErrorCode code);
const char* job_status_name(JobStatus status);

}  // namespace satproof::service
