#pragma once

#include <cstdint>
#include <string>

#include "src/service/protocol.hpp"
#include "src/service/run_check.hpp"
#include "src/util/socket.hpp"

namespace satproof::service {

/// Client half of the service protocol: connects, streams a CNF + trace
/// pair in frames, and decodes the reply. One Client may submit any number
/// of jobs sequentially over its connection.
class Client {
 public:
  /// Connect helpers; both throw std::runtime_error on failure.
  static Client connect_unix(const std::string& socket_path);
  static Client connect_tcp(std::uint16_t port);

  /// Upload chunk size; exposed so tests can cover multi-chunk uploads
  /// without gigantic fixtures.
  static constexpr std::size_t kChunkBytes = 256 * 1024;

  struct SubmitReply {
    bool transport_ok = false;  ///< frames flowed both ways
    bool accepted = false;      ///< server enqueued the job
    bool busy = false;          ///< rejected with BUSY (queue full)
    std::uint64_t job_id = 0;
    std::string error;  ///< transport/protocol/typed-error description

    /// Filled only for wait-mode submits.
    bool have_result = false;
    JobStatus status = JobStatus::kError;
    std::string verdict;
    std::string result_json;

    /// Filled for certify submits whose result was ok: the text LRAT
    /// certificate bytes from the RESULT_CERT frame.
    bool have_certificate = false;
    std::string certificate;
  };

  /// Submits one job. With `wait`, blocks until the server delivers the
  /// result frame. With `certify` (requires `wait`; df, parallel, hybrid
  /// or window), asks for an LRAT certificate and reads the RESULT_CERT
  /// frame that follows an ok result. Transport errors come back in the
  /// reply (never thrown).
  SubmitReply submit(const std::string& cnf_path,
                     const std::string& trace_path, Backend backend,
                     bool wait, unsigned jobs = 0,
                     std::uint32_t timeout_ms = 0, bool certify = false);

  /// Requests a metrics snapshot, as JSON or as Prometheus text
  /// exposition; empty string + `error` filled on failure.
  std::string stats_json(std::string* error = nullptr);
  std::string stats_prometheus(std::string* error = nullptr);

  /// Raw socket access for protocol tests.
  [[nodiscard]] util::Socket& socket() { return sock_; }

 private:
  explicit Client(util::Socket sock) : sock_(std::move(sock)) {}

  /// Streams a file as data frames of `tag`; false on I/O failure.
  bool send_file(const std::string& path, FrameTag tag);
  /// Sends a bodyless stats `request` and returns the `reply` payload.
  std::string stats(FrameTag request, FrameTag reply, std::string* error);

  util::Socket sock_;
};

}  // namespace satproof::service
