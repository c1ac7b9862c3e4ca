#include "src/service/server.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "src/cert/kernel.hpp"
#include "src/obs/trace.hpp"
#include "src/util/view_streambuf.hpp"

namespace satproof::service {

namespace {

using Clock = std::chrono::steady_clock;

// EventPoller keys of the non-connection descriptors; connections get
// keys starting at Server::next_conn_key_ (16).
constexpr std::uint64_t kKeyUnixListener = 0;
constexpr std::uint64_t kKeyTcpListener = 1;
constexpr std::uint64_t kKeyDrainPipe = 2;
constexpr std::uint64_t kKeyCompletionPipe = 3;

/// Serializes one frame to its wire form (header + payload).
std::vector<std::uint8_t> make_wire_frame(
    FrameTag tag, std::span<const std::uint8_t> payload) {
  std::vector<std::uint8_t> out;
  out.reserve(kFrameHeaderBytes + payload.size());
  out.push_back(static_cast<std::uint8_t>(tag));
  append_u32le(out, static_cast<std::uint32_t>(payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

}  // namespace

/// Per-connection upload in progress: the job header plus the temp files
/// the CNF and trace chunks stream into. Chunks hit disk immediately — the
/// server never holds more of an upload in memory than one frame.
struct UploadState {
  bool active = false;
  SubmitHeader header;
  std::uint64_t ingest_start_us = 0;
  std::uint64_t streamed_bytes = 0;  ///< CNF + trace bytes received so far
  std::optional<util::TempFile> cnf_file;
  std::optional<util::TempFile> trace_file;
  std::ofstream cnf_out;
  std::ofstream trace_out;

  void begin(const SubmitHeader& h) {
    header = h;
    ingest_start_us = obs::now_us();
    streamed_bytes = 0;
    cnf_file.emplace("svc-cnf");
    trace_file.emplace("svc-trace");
    cnf_out.open(cnf_file->path(), std::ios::out | std::ios::binary);
    trace_out.open(trace_file->path(), std::ios::out | std::ios::binary);
    active = true;
  }

  void reset() {
    active = false;
    cnf_out.close();
    trace_out.close();
    cnf_file.reset();
    trace_file.reset();
  }
};

/// One live client connection, owned exclusively by the I/O thread. No
/// thread, no lock: all state transitions happen on the event loop, and a
/// connection that closes is destroyed on the spot (prompt reaping — dead
/// handles never accumulate waiting for the next accept).
struct Server::Connection {
  std::uint64_t key = 0;
  util::Socket sock;
  FrameDecoder decoder;
  UploadState upload;

  /// Bytes queued for the peer, sent as the socket accepts them;
  /// [out_off, outbuf.size()) is the unsent suffix.
  std::vector<std::uint8_t> outbuf;
  std::size_t out_off = 0;

  /// A wait-mode job is in flight: reads are paused (the blocking server
  /// equally read nothing while parked on the ticket) and the idle sweep
  /// leaves the connection alone until the result is delivered.
  bool waiting_result = false;
  /// Close once outbuf drains (protocol error already queued, or EOF).
  bool close_after_flush = false;
  /// Peer half-closed; never re-enable read interest.
  bool saw_eof = false;

  // Current poller interest, to skip redundant modify() syscalls.
  bool poll_read = true;
  bool poll_write = false;

  std::uint64_t last_activity_us = 0;

  [[nodiscard]] bool has_unsent() const { return out_off < outbuf.size(); }
};

ServerMetrics::ServerMetrics(obs::MetricsRegistry& r,
                             std::function<SchedulerSnapshot()> scheduler)
    : connections(r.counter("satproofd_connections_total",
                            "Client connections accepted.")),
      malformed_frames(r.counter("satproofd_malformed_frames_total",
                                 "Protocol frames rejected as malformed.")),
      accepted(r.counter("satproofd_jobs_accepted_total",
                         "Jobs admitted to the queue.")),
      rejected_busy(r.counter("satproofd_jobs_rejected_busy_total",
                              "Jobs rejected with BUSY backpressure.")),
      completed(r.counter("satproofd_jobs_completed_total",
                          "Jobs that delivered a verdict.")),
      failed(r.counter("satproofd_jobs_failed_total",
                       "Jobs whose verdict was not ok.")),
      timed_out(r.counter("satproofd_jobs_timed_out_total",
                          "Jobs cancelled at their wall-clock deadline.")),
      slow_jobs(r.counter("satproofd_slow_jobs_total",
                          "Jobs exceeding the --slow-job-ms threshold.")),
      certified(r.counter(
          "satproofd_certified_total",
          "Certificates verified by the trusted kernel post-check.")),
      certify_failed(r.counter(
          "satproofd_certify_failed_total",
          "Certificates REJECTED by the trusted kernel post-check.")) {
  r.register_gauge("satproofd_arena_peak_bytes",
                   "Largest clause-arena peak observed over completed jobs.",
                   [this] { return static_cast<double>(arena_peak_bytes_); });
  // The scheduler's values: one snapshot per render feeds every family,
  // so the queue and worker series of one scrape read one sample.
  r.before_snapshot(
      [this, scheduler = std::move(scheduler)] { scheduler_ = scheduler(); });
  const auto gauge = [&](const char* name, const char* help,
                         std::size_t SchedulerSnapshot::*field) {
    r.register_gauge(name, help, [this, field] {
      return static_cast<double>(scheduler_.*field);
    });
  };
  gauge("satproofd_queue_depth", "Jobs waiting in the queue.",
        &SchedulerSnapshot::queue_depth);
  gauge("satproofd_queue_capacity", "Configured queue capacity.",
        &SchedulerSnapshot::queue_capacity);
  gauge("satproofd_running_jobs", "Jobs currently executing.",
        &SchedulerSnapshot::running_jobs);
  gauge("satproofd_workers", "Checker worker threads (one clause arena each).",
        &SchedulerSnapshot::workers);
  for (const Lane lane : {Lane::kFast, Lane::kBulk}) {
    lane_enqueued_[static_cast<std::size_t>(lane)] =
        &r.counter("satproofd_lane_jobs_enqueued_total",
                   "Jobs admitted, by priority lane.",
                   {{"lane", lane == Lane::kFast ? "fast" : "bulk"}});
  }
  // Every backend's series exist from the start, zeros included.
  for (std::uint8_t b = 0; b < kNumBackends; ++b) {
    const obs::Labels l{{"backend", backend_name(static_cast<Backend>(b))}};
    backends_[b] = {
        &r.counter("satproofd_backend_jobs_completed_total",
                   "Jobs completed, by checker backend.", l),
        &r.counter("satproofd_backend_jobs_failed_total",
                   "Jobs with a non-ok verdict, by checker backend.", l),
        &r.counter("satproofd_backend_jobs_timed_out_total",
                   "Jobs timed out, by checker backend.", l),
        &r.histogram("satproofd_job_seconds",
                     "Wall time of completed jobs in seconds, by checker "
                     "backend.",
                     l)};
  }
}

void ServerMetrics::record_completed(Backend backend, double seconds, bool ok,
                                     std::size_t arena_peak_bytes) {
  BackendSeries& s = backends_[static_cast<std::size_t>(backend)];
  completed.inc();
  s.completed->inc();
  if (!ok) {
    failed.inc();
    s.failed->inc();
  }
  s.seconds->observe(seconds);
  std::size_t peak = arena_peak_bytes_.load(std::memory_order_relaxed);
  while (peak < arena_peak_bytes &&
         !arena_peak_bytes_.compare_exchange_weak(
             peak, arena_peak_bytes, std::memory_order_relaxed)) {
  }
}

void ServerMetrics::record_timeout(Backend backend) {
  timed_out.inc();
  backends_[static_cast<std::size_t>(backend)].timed_out->inc();
}

void ServerMetrics::record_accepted(Lane lane) {
  accepted.inc();
  lane_enqueued_[static_cast<std::size_t>(lane)]->inc();
}

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      worker_count_(options_.workers != 0
                        ? options_.workers
                        : std::max(1u, std::thread::hardware_concurrency())),
      queue_(options_.queue_capacity == 0 ? 1 : options_.queue_capacity),
      metrics_(registry_, [this] {
        return SchedulerSnapshot{queue_.depth(), queue_.capacity(),
                                 running_jobs_.load(), worker_count_};
      }) {}

Server::~Server() {
  bool need_drain = false;
  {
    std::lock_guard lock(state_mutex_);
    need_drain = started_ && !drained_;
  }
  if (need_drain) drain_and_wait();
}

void Server::start() {
  if (options_.unix_socket_path.empty() && !options_.enable_tcp) {
    throw std::runtime_error(
        "server needs at least one transport (unix socket or tcp)");
  }
  if (!options_.unix_socket_path.empty()) {
    unix_listener_ = util::listen_unix(options_.unix_socket_path);
    unix_listener_.set_nonblocking();
  }
  if (options_.enable_tcp) {
    tcp_listener_ = util::listen_tcp_localhost(options_.tcp_port);
    tcp_listener_.set_nonblocking();
    tcp_port_ = util::local_port(tcp_listener_);
  }

  poller_ = std::make_unique<util::EventPoller>();
  if (unix_listener_.valid()) {
    poller_->add(unix_listener_.fd(), kKeyUnixListener, true, false);
  }
  if (tcp_listener_.valid()) {
    poller_->add(tcp_listener_.fd(), kKeyTcpListener, true, false);
  }
  poller_->add(wake_pipe_.read_fd, kKeyDrainPipe, true, false);
  poller_->add(completion_pipe_.read_fd, kKeyCompletionPipe, true, false);

  {
    std::lock_guard lock(state_mutex_);
    started_ = true;
  }
  workers_.reserve(worker_count_);
  for (unsigned w = 0; w < worker_count_; ++w) {
    workers_.emplace_back([this] { worker_main(); });
  }
  io_thread_ = std::jthread([this] { io_loop(); });
}

void Server::wait_until_drained() {
  std::unique_lock lock(state_mutex_);
  if (!started_) return;
  state_cv_.wait(lock, [this] { return drained_; });
}

void Server::drain_and_wait() {
  request_drain();
  wait_until_drained();
}

std::string Server::metrics_json() const {
  return obs::render_json({&registry_, &obs::MetricsRegistry::instance()});
}

std::string Server::metrics_prometheus() const {
  return obs::render_prometheus(
      {&registry_, &obs::MetricsRegistry::instance()});
}

// ----------------------------------------------------------------------
// I/O thread
// ----------------------------------------------------------------------

void Server::io_loop() {
  std::vector<util::PollEvent> events;
  for (;;) {
    int timeout_ms = -1;
    if (options_.idle_timeout_ms > 0) {
      timeout_ms = static_cast<int>(
          std::clamp(options_.idle_timeout_ms / 4, 25u, 1000u));
    }
    if (draining_.load()) {
      timeout_ms = timeout_ms < 0 ? 100 : std::min(timeout_ms, 100);
    }

    poller_->wait(timeout_ms, events);
    const std::uint64_t now = obs::now_us();

    for (const util::PollEvent& ev : events) {
      switch (ev.key) {
        case kKeyUnixListener:
          accept_ready(unix_listener_);
          break;
        case kKeyTcpListener:
          accept_ready(tcp_listener_);
          break;
        case kKeyDrainPipe:
          wake_pipe_.drain();
          begin_drain();
          break;
        case kKeyCompletionPipe:
          deliver_completions();
          break;
        default:
          on_connection_event(ev, now);
          break;
      }
    }

    if (options_.idle_timeout_ms > 0) sweep_idle(now);
    if (draining_.load() && drain_complete()) break;
  }

  // Every admitted job has completed and flushed; surviving connections
  // (idle peers, half-done uploads) are cut off now, as the blocking
  // server did by joining their threads.
  conns_.clear();
  workers_.clear();  // jthread destructors join; pop_blocking returned

  {
    std::lock_guard lock(state_mutex_);
    drained_ = true;
  }
  state_cv_.notify_all();
}

void Server::begin_drain() {
  if (draining_.exchange(true)) return;
  if (unix_listener_.valid()) {
    poller_->remove(unix_listener_.fd());
    unix_listener_.close();
  }
  if (tcp_listener_.valid()) {
    poller_->remove(tcp_listener_.fd());
    tcp_listener_.close();
  }
  if (!options_.unix_socket_path.empty()) {
    std::error_code ec;
    std::filesystem::remove(options_.unix_socket_path, ec);
  }
  // Stop admissions. Workers keep draining already-queued jobs; a late
  // SUBMIT_END sees kClosed and is answered with a DRAINING error.
  queue_.close();
}

bool Server::drain_complete() const {
  if (pending_jobs_ > 0) return false;
  for (const auto& [key, conn] : conns_) {
    (void)key;
    if (conn->has_unsent()) return false;
  }
  return true;
}

void Server::accept_ready(util::Socket& listener) {
  if (!listener.valid()) return;
  for (;;) {
    util::Socket conn = util::accept_connection(listener);
    if (!conn.valid()) break;  // EAGAIN: accepted everything pending
    conn.set_nonblocking();
    metrics_.connections.inc();
    auto c = std::make_unique<Connection>();
    c->key = next_conn_key_++;
    c->sock = std::move(conn);
    c->last_activity_us = obs::now_us();
    poller_->add(c->sock.fd(), c->key, true, false);
    conns_.emplace(c->key, std::move(c));
  }
}

void Server::destroy_connection(std::uint64_t key) {
  auto it = conns_.find(key);
  if (it == conns_.end()) return;
  poller_->remove(it->second->sock.fd());
  conns_.erase(it);
}

void Server::queue_output(Connection& conn, FrameTag tag,
                          std::span<const std::uint8_t> payload) {
  const std::vector<std::uint8_t> wire = make_wire_frame(tag, payload);
  conn.outbuf.insert(conn.outbuf.end(), wire.begin(), wire.end());
}

/// Sends as much of outbuf as the socket takes. Leaves the rest for the
/// next writable event. Throws nothing; a hard send error marks the
/// connection for destruction via close_after_flush + cleared buffer.
void Server::flush_output(Connection& conn) {
  while (conn.has_unsent()) {
    const std::ptrdiff_t k = conn.sock.send_nonblocking(
        conn.outbuf.data() + conn.out_off, conn.outbuf.size() - conn.out_off);
    if (k == util::Socket::kIoError) {
      // Peer is gone; drop whatever we had for it.
      conn.outbuf.clear();
      conn.out_off = 0;
      conn.close_after_flush = true;
      return;
    }
    if (k == 0) break;  // kernel buffer full; wait for writable
    conn.out_off += static_cast<std::size_t>(k);
  }
  if (!conn.has_unsent()) {
    conn.outbuf.clear();
    conn.out_off = 0;
  }
}

void Server::on_connection_event(const util::PollEvent& ev,
                                 std::uint64_t now_us) {
  auto it = conns_.find(ev.key);
  if (it == conns_.end()) return;  // destroyed earlier in this batch
  Connection& conn = *it->second;

  if (ev.error && conn.waiting_result) {
    // Peer died while its job runs. Error events are reported regardless
    // of interest, so reap now instead of spinning until the completion
    // arrives; deliver_completions drops results for vanished clients.
    if (conn.decoder.mid_frame()) metrics_.malformed_frames.inc();
    destroy_connection(ev.key);
    return;
  }

  if (ev.writable) flush_output(conn);

  const bool want_read =
      !conn.waiting_result && !conn.close_after_flush && !conn.saw_eof;
  if ((ev.readable || ev.error) && want_read) {
    std::uint8_t buf[64 * 1024];
    for (;;) {
      const std::ptrdiff_t k = conn.sock.recv_nonblocking(buf, sizeof(buf));
      if (k > 0) {
        conn.last_activity_us = now_us;
        conn.decoder.feed(buf, static_cast<std::size_t>(k));
        process_buffered_frames(conn);
        if (conn.waiting_result || conn.close_after_flush) break;
        continue;
      }
      if (k == util::Socket::kWouldBlock) break;
      // EOF or hard error. Partial frame bytes at disconnect are the
      // mid-frame truncation the malformed-frame counter tracks.
      if (conn.decoder.mid_frame()) metrics_.malformed_frames.inc();
      conn.saw_eof = true;
      conn.close_after_flush = true;
      break;
    }
  }

  flush_output(conn);
  if (conn.close_after_flush && !conn.has_unsent() && !conn.waiting_result) {
    destroy_connection(ev.key);
    return;
  }

  const bool read_interest =
      !conn.waiting_result && !conn.close_after_flush && !conn.saw_eof;
  const bool write_interest = conn.has_unsent();
  if (read_interest != conn.poll_read || write_interest != conn.poll_write) {
    conn.poll_read = read_interest;
    conn.poll_write = write_interest;
    poller_->modify(conn.sock.fd(), read_interest, write_interest);
  }
}

void Server::process_buffered_frames(Connection& conn) {
  Frame frame;
  for (;;) {
    if (conn.waiting_result || conn.close_after_flush) return;
    const FrameDecoder::Result r = conn.decoder.next(frame);
    if (r == FrameDecoder::Result::kNeedMore) return;
    if (r == FrameDecoder::Result::kOversized) {
      metrics_.malformed_frames.inc();
      queue_output(conn, FrameTag::kError,
                   encode_error(ErrorCode::kOversizedFrame,
                                "declared frame length exceeds the cap"));
      conn.close_after_flush = true;
      return;
    }
    if (!handle_frame(conn, frame)) {
      conn.close_after_flush = true;
      return;
    }
  }
}

bool Server::handle_frame(Connection& conn, Frame& frame) {
  UploadState& upload = conn.upload;
  const auto protocol_error = [&](ErrorCode code, std::string_view msg) {
    metrics_.malformed_frames.inc();
    queue_output(conn, FrameTag::kError, encode_error(code, msg));
    return false;
  };

  switch (frame.tag) {
    case FrameTag::kSubmit: {
      if (upload.active) {
        return protocol_error(ErrorCode::kProtocolViolation,
                              "SUBMIT while an upload is in progress");
      }
      SubmitHeader header;
      if (!decode_submit_header(frame.payload, header)) {
        return protocol_error(ErrorCode::kMalformedFrame,
                              "SUBMIT payload is not a submit header");
      }
      if (header.backend >= kNumBackends) {
        return protocol_error(ErrorCode::kBadRequest,
                              "unknown backend id " +
                                  std::to_string(header.backend));
      }
      if ((header.flags & kSubmitFlagCertify) != 0) {
        if (!can_certify(static_cast<Backend>(header.backend))) {
          return protocol_error(
              ErrorCode::kBadRequest,
              "certificate emission requires the df, parallel, hybrid or "
              "window backend");
        }
        if ((header.flags & kSubmitFlagWait) == 0) {
          // A certificate only travels on the result path; fire-and-forget
          // certify jobs would do the work and drop the bytes.
          return protocol_error(ErrorCode::kBadRequest,
                                "certify requires the wait flag");
        }
      }
      upload.begin(header);
      return true;
    }

    case FrameTag::kCnfData:
    case FrameTag::kTraceData: {
      if (!upload.active) {
        return protocol_error(ErrorCode::kProtocolViolation,
                              "data chunk outside an upload");
      }
      std::ofstream& out = frame.tag == FrameTag::kCnfData ? upload.cnf_out
                                                           : upload.trace_out;
      if (!frame.payload.empty()) {
        out.write(reinterpret_cast<const char*>(frame.payload.data()),
                  static_cast<std::streamsize>(frame.payload.size()));
        upload.streamed_bytes += frame.payload.size();
      }
      return true;
    }

    case FrameTag::kSubmitEnd: {
      if (!upload.active) {
        return protocol_error(ErrorCode::kProtocolViolation,
                              "SUBMIT_END without a submit");
      }
      upload.cnf_out.close();
      upload.trace_out.close();

      JobRequest request;
      request.id = next_job_id_.fetch_add(1);
      request.backend = static_cast<Backend>(upload.header.backend);
      request.jobs = upload.header.jobs;
      request.timeout_ms = upload.header.timeout_ms != 0
                               ? upload.header.timeout_ms
                               : options_.default_timeout_ms;
      request.certify = (upload.header.flags & kSubmitFlagCertify) != 0;
      request.cnf_file = std::move(*upload.cnf_file);
      request.trace_file = std::move(*upload.trace_file);
      request.enqueued_at = Clock::now();
      request.ingest_us = obs::now_us() - upload.ingest_start_us;
      obs::emit("ingest", upload.ingest_start_us, request.ingest_us);
      const std::uint64_t job_id = request.id;
      const bool wait = (upload.header.flags & kSubmitFlagWait) != 0;
      const bool certify = request.certify;
      // Lane: trust the declaration when it is honest, the measured
      // upload when it is absent or understated.
      const std::uint64_t effective_bytes =
          std::max(upload.header.declared_bytes, upload.streamed_bytes);
      upload.reset();

      QueuedJob job;
      job.request = std::move(request);
      job.lane = lane_for_bytes(effective_bytes);
      const std::uint64_t conn_key = conn.key;
      job.on_done = [this, conn_key, job_id, wait, certify](
                        JobOutcome outcome, bool timed_out) {
        CompletionMsg msg;
        msg.conn_key = conn_key;
        if (wait) {
          const JobStatus status = timed_out          ? JobStatus::kTimeout
                                   : outcome.ok       ? JobStatus::kOk
                                                      : JobStatus::kCheckFailed;
          obs::Span respond_span("respond");
          msg.frame = make_wire_frame(
              FrameTag::kResult,
              encode_result(status, job_id, verdict_line(outcome),
                            outcome_json(outcome)));
          if (certify && status == JobStatus::kOk &&
              !outcome.certificate.empty()) {
            // Two frames in one completion: the client reads kResult, then
            // its certificate. msg.frame is raw wire bytes, so frames
            // concatenate; legacy non-certify clients never reach here.
            const std::vector<std::uint8_t> cert_frame = make_wire_frame(
                FrameTag::kResultCert,
                encode_result_cert(job_id, /*binary_format=*/false,
                                   outcome.certificate));
            msg.frame.insert(msg.frame.end(), cert_frame.begin(),
                             cert_frame.end());
          }
        }
        {
          std::lock_guard lock(completions_mutex_);
          completions_.push_back(std::move(msg));
        }
        completion_pipe_.notify();
      };

      const Lane lane = job.lane;
      const JobQueue::EnqueueResult res = queue_.try_enqueue(std::move(job));

      if (res == JobQueue::EnqueueResult::kClosed) {
        queue_output(conn, FrameTag::kError,
                     encode_error(ErrorCode::kDraining,
                                  "server is draining; job refused"));
        return false;
      }
      if (res == JobQueue::EnqueueResult::kFull) {
        metrics_.rejected_busy.inc();
        std::vector<std::uint8_t> payload;
        append_u32le(payload, static_cast<std::uint32_t>(queue_.capacity()));
        queue_output(conn, FrameTag::kBusy, payload);
        return true;  // connection stays usable
      }

      metrics_.record_accepted(lane);
      ++pending_jobs_;
      std::vector<std::uint8_t> payload;
      append_u64le(payload, job_id);
      queue_output(conn, FrameTag::kAccepted, payload);
      if (wait) {
        // Pause reads until the worker's result frame is delivered; the
        // client is parked in read_frame anyway, and pipelined frames
        // stay buffered in the decoder / kernel until then.
        conn.waiting_result = true;
      }
      return true;
    }

    case FrameTag::kStats:
    case FrameTag::kStatsProm: {
      const bool prom = frame.tag == FrameTag::kStatsProm;
      if (upload.active) {
        return protocol_error(ErrorCode::kProtocolViolation,
                              prom ? "STATS_PROM during an upload"
                                   : "STATS during an upload");
      }
      const std::string text = prom ? metrics_prometheus() : metrics_json();
      queue_output(conn,
                   prom ? FrameTag::kStatsPromText : FrameTag::kStatsJson,
                   std::span<const std::uint8_t>(
                       reinterpret_cast<const std::uint8_t*>(text.data()),
                       text.size()));
      return true;
    }

    default:
      return protocol_error(ErrorCode::kUnknownTag,
                            "unknown frame tag " +
                                std::to_string(static_cast<unsigned>(
                                    static_cast<std::uint8_t>(frame.tag))));
  }
}

void Server::deliver_completions() {
  completion_pipe_.drain();
  std::vector<CompletionMsg> msgs;
  {
    std::lock_guard lock(completions_mutex_);
    msgs.swap(completions_);
  }
  for (CompletionMsg& msg : msgs) {
    if (pending_jobs_ > 0) --pending_jobs_;
    auto it = conns_.find(msg.conn_key);
    if (it == conns_.end()) continue;  // client vanished; drop the result
    Connection& conn = *it->second;
    if (!msg.frame.empty()) {
      conn.outbuf.insert(conn.outbuf.end(), msg.frame.begin(),
                         msg.frame.end());
    }
    conn.waiting_result = false;
    conn.last_activity_us = obs::now_us();
    // Frames the client pipelined behind the wait-mode submit were left
    // in the decoder; resume them now that the result is on its way.
    process_buffered_frames(conn);
    flush_output(conn);
    if (conn.close_after_flush && !conn.has_unsent() &&
        !conn.waiting_result) {
      destroy_connection(msg.conn_key);
      continue;
    }
    const bool read_interest =
        !conn.waiting_result && !conn.close_after_flush && !conn.saw_eof;
    const bool write_interest = conn.has_unsent();
    if (read_interest != conn.poll_read ||
        write_interest != conn.poll_write) {
      conn.poll_read = read_interest;
      conn.poll_write = write_interest;
      poller_->modify(conn.sock.fd(), read_interest, write_interest);
    }
  }
}

void Server::sweep_idle(std::uint64_t now_us) {
  const std::uint64_t limit_us =
      static_cast<std::uint64_t>(options_.idle_timeout_ms) * 1000;
  for (auto it = conns_.begin(); it != conns_.end();) {
    Connection& conn = *it->second;
    // last_activity_us can postdate now_us (stamped later in the same
    // event batch), so compare saturating — never unsigned-underflow.
    if (conn.waiting_result || conn.last_activity_us >= now_us ||
        now_us - conn.last_activity_us <= limit_us) {
      ++it;
      continue;
    }
    // Stalled peer. Partial frame bytes make it a truncation (the
    // blocking server's SO_RCVTIMEO path counted exactly this case).
    if (conn.decoder.mid_frame()) metrics_.malformed_frames.inc();
    poller_->remove(conn.sock.fd());
    it = conns_.erase(it);
  }
}

// ----------------------------------------------------------------------
// Worker pool
// ----------------------------------------------------------------------

void Server::worker_main() {
  // One arena per worker, reused across every job this worker runs:
  // concurrent checks never contend on clause allocation, and steady
  // traffic recycles chunk memory instead of round-tripping malloc.
  util::ClauseArena arena;
  while (auto job = queue_.pop_blocking()) {
    execute_job(std::move(*job), arena);
  }
}

void Server::execute_job(QueuedJob job, util::ClauseArena& arena) {
  JobRequest request = std::move(job.request);
  running_jobs_.fetch_add(1);
  const auto start = Clock::now();
  const bool has_deadline = request.timeout_ms > 0;
  const auto deadline =
      request.enqueued_at + std::chrono::milliseconds(request.timeout_ms);

  // Per-job span profile. Only collected when --slow-job-ms is set; the
  // collector is thread-local, so spans from the parallel backend's pool
  // threads land in the global trace sink (if any) but not in this tree.
  const bool profile = options_.slow_job_ms > 0;
  obs::SpanTreeCollector collector;
  if (profile) {
    obs::set_thread_collector(&collector);
    if (request.ingest_us > 0) {
      collector.add_leaf("ingest", 0, request.ingest_us);
    }
    const auto wait_us = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            start - request.enqueued_at)
            .count());
    collector.add_leaf("queue_wait", obs::now_us() - wait_us, wait_us);
  }

  JobOutcome outcome;
  bool timed_out = false;
  if (has_deadline && start >= deadline) {
    // Expired while queued: fail fast without burning a checker run.
    outcome.backend = request.backend;
    outcome.ok = false;
    outcome.error = "job timed out waiting in the queue";
    timed_out = true;
  } else {
    obs::Span run_span("run");
    if (request.certify) {
      // Certify into memory; the bytes ship in the RESULT_CERT frame.
      std::ostringstream cert_sink;
      CertOptions cert;
      cert.sink = &cert_sink;
      outcome = run_check(request.cnf_file.path().string(),
                          request.trace_file.path().string(), request.backend,
                          request.jobs, &arena, cert,
                          options_.mem_limit_bytes);
      outcome.certificate = std::move(cert_sink).str();
      if (options_.certify && outcome.ok) {
        // Trusted-kernel post-check: re-verify the certificate against the
        // original CNF before reporting success.
        obs::Span kern_span("kernel_verify");
        std::ifstream cnf_in(request.cnf_file.path(),
                             std::ios::in | std::ios::binary);
        // The kernel reads the certificate in place, not from a copy.
        util::ViewStreambuf cert_buf(outcome.certificate);
        std::istream cert_in(&cert_buf);
        const kern::VerifyResult kv = kern::verify_lrat(cnf_in, cert_in);
        (kv.verified ? metrics_.certified : metrics_.certify_failed).inc();
        if (!kv.verified) {
          outcome.ok = false;
          outcome.error = "kernel rejected certificate at line " +
                          std::to_string(kv.line) + ": " + kv.error;
          outcome.certificate.clear();
        }
      }
    } else {
      outcome = run_check(request.cnf_file.path().string(),
                          request.trace_file.path().string(), request.backend,
                          request.jobs, &arena, {}, options_.mem_limit_bytes);
    }
    run_span.finish();
    if (has_deadline && Clock::now() > deadline) {
      // Soft timeout: checking is not preemptible, so an overlong job is
      // reported as timed out after the fact (docs/SERVICE.md).
      timed_out = true;
    }
  }
  const double seconds =
      std::chrono::duration<double>(Clock::now() - start).count();

  if (profile) {
    obs::set_thread_collector(nullptr);
    if (seconds * 1e3 > static_cast<double>(options_.slow_job_ms)) {
      metrics_.slow_jobs.inc();
      // One buffered write so concurrent workers' dumps don't interleave.
      std::string dump = "SLOW-JOB: id=" + std::to_string(request.id) +
                         " backend=" + backend_name(outcome.backend) +
                         " wall_ms=" + std::to_string(seconds * 1e3) +
                         " threshold_ms=" +
                         std::to_string(options_.slow_job_ms) + "\n" +
                         collector.render();
      std::fputs(dump.c_str(), stderr);
    }
  }

  // Attribute to the backend that actually ran: the per-job memory cap
  // may have run a df/hybrid request as window (outcome.backend tracks
  // it; for jobs that expired in the queue it is still the requested one).
  if (timed_out) {
    metrics_.record_timeout(outcome.backend);
  } else {
    metrics_.record_completed(outcome.backend, seconds, outcome.ok,
                              outcome.stats.arena_peak_bytes);
  }
  running_jobs_.fetch_sub(1);
  // The dump (if any) is already on stderr: the result frame the client
  // sees is always preceded by its slow-job report.
  if (job.on_done) job.on_done(std::move(outcome), timed_out);
}

}  // namespace satproof::service
