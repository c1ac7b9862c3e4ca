// End-to-end tests for satproofd: an in-process server, real sockets, real
// CNF/trace files, all five checking backends, and verdicts that must be
// byte-identical to direct run_check() calls.

#include <gtest/gtest.h>

#include <chrono>
#include <limits>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/cert/kernel.hpp"
#include "src/obs/metrics.hpp"
#include "src/service/client.hpp"
#include "src/service/protocol.hpp"
#include "src/service/run_check.hpp"
#include "src/service/server.hpp"
#include "src/util/socket.hpp"
#include "src/util/temp_file.hpp"
#include "tools/cli.hpp"

namespace satproof::service {
namespace {

int run_cli_quiet(const std::vector<std::string>& args) {
  std::ostringstream out, err;
  return cli::run_cli(args, out, err);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::in | std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// `series value` lines of a Prometheus exposition, in order.
std::vector<std::pair<std::string, double>> prometheus_series(
    const std::string& text) {
  std::vector<std::pair<std::string, double>> out;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    const auto space = line.rfind(' ');
    if (line.empty() || line[0] == '#' || space == std::string::npos) continue;
    out.emplace_back(line.substr(0, space),
                     std::strtod(line.c_str() + space + 1, nullptr));
  }
  return out;
}

std::map<std::string, double> prometheus_samples(const std::string& text) {
  std::map<std::string, double> out;
  for (const auto& [key, value] : prometheus_series(text)) out[key] = value;
  return out;
}

/// The stats JSON: one flat object of series keys (`\"` and `\\`
/// escapes) to numbers.
std::map<std::string, double> json_samples(const std::string& json) {
  std::map<std::string, double> out;
  EXPECT_TRUE(json.size() >= 2 && json.front() == '{' && json.back() == '}')
      << json;
  std::size_t i = 1;
  while (i + 1 < json.size()) {
    if (out.size() > 0 && json[i++] != ',') break;
    if (json[i++] != '"') break;
    std::string key;
    for (; i < json.size() && json[i] != '"'; ++i) {
      if (json[i] == '\\') ++i;
      key += json[i];
    }
    if (json.compare(i, 2, "\":") != 0) break;
    char* end = nullptr;
    out[key] = std::strtod(json.c_str() + i + 2, &end);
    i = static_cast<std::size_t>(end - json.c_str());
  }
  EXPECT_EQ(i + 1, json.size()) << "JSON not parsed past offset " << i;
  return out;
}

/// Shared on-disk fixtures: solved once for the whole suite.
struct Fixtures {
  util::TempFile php4_cnf{"svc-php4-cnf"};
  util::TempFile php4_trace{"svc-php4-trace"};
  util::TempFile php4_btrace{"svc-php4-btrace"};
  util::TempFile php4_drup{"svc-php4-drup"};
  util::TempFile php8_cnf{"svc-php8-cnf"};
  util::TempFile php8_trace{"svc-php8-trace"};
  util::TempFile sat_cnf{"svc-sat-cnf"};
  util::TempFile garbage_trace{"svc-garbage"};
  util::TempFile empty_drup{"svc-empty-drup"};

  std::string php4() const { return php4_cnf.path().string(); }
  std::string trace4() const { return php4_trace.path().string(); }
  std::string btrace4() const { return php4_btrace.path().string(); }
  std::string drup4() const { return php4_drup.path().string(); }
  std::string php8() const { return php8_cnf.path().string(); }
  std::string trace8() const { return php8_trace.path().string(); }

  Fixtures() {
    if (run_cli_quiet({"gen", "php", "4", "-o", php4()}) != 0 ||
        run_cli_quiet({"gen", "php", "8", "-o", php8()}) != 0) {
      throw std::runtime_error("fixture generation failed");
    }
    if (run_cli_quiet({"solve", php4(), "--trace", trace4(), "--drup",
                       drup4()}) != cli::kExitUnsat ||
        run_cli_quiet({"solve", php4(), "--trace", btrace4(), "--binary"}) !=
            cli::kExitUnsat ||
        run_cli_quiet({"solve", php8(), "--trace", trace8()}) !=
            cli::kExitUnsat) {
      throw std::runtime_error("fixture solving failed");
    }
    std::ofstream(sat_cnf.path()) << "p cnf 2 2\n1 2 0\n-1 0\n";
    std::ofstream(garbage_trace.path()) << "this is not a trace\n";
    std::ofstream(empty_drup.path()) << "";
  }
};

class ServiceE2E : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    if (fx_ == nullptr) fx_ = new Fixtures();
  }
  // Intentionally leaked at process exit; fixtures are plain temp files.

  /// Starts a fresh server on a unique unix socket.
  void start_server(ServerOptions opts = {}) {
    opts.unix_socket_path = socket_file_.path().string();
    if (opts.workers == 0) opts.workers = 1;
    server_.emplace(std::move(opts));
    server_->start();
  }

  Client connect() {
    return Client::connect_unix(socket_file_.path().string());
  }

  void TearDown() override {
    if (server_) server_->drain_and_wait();
  }

  static Fixtures* fx_;
  util::TempFile socket_file_{"svc-e2e-sock"};
  std::optional<Server> server_;
};

Fixtures* ServiceE2E::fx_ = nullptr;

TEST_F(ServiceE2E, AllBackendsMatchDirectRunCheck) {
  start_server();
  for (int b = 0; b < static_cast<int>(kNumBackends); ++b) {
    const Backend backend = static_cast<Backend>(b);
    const std::string trace =
        backend == Backend::kDrup ? fx_->drup4() : fx_->trace4();

    const JobOutcome direct = run_check(fx_->php4(), trace, backend);
    ASSERT_TRUE(direct.ok) << backend_name(backend) << ": " << direct.error;

    Client client = connect();
    const Client::SubmitReply reply =
        client.submit(fx_->php4(), trace, backend, /*wait=*/true);
    ASSERT_TRUE(reply.transport_ok) << reply.error;
    ASSERT_TRUE(reply.accepted);
    ASSERT_TRUE(reply.have_result);
    EXPECT_EQ(reply.status, JobStatus::kOk) << backend_name(backend);
    // The service verdict must be byte-identical to a direct call: the
    // daemon adds scheduling, never a different answer.
    EXPECT_EQ(reply.verdict, verdict_line(direct)) << backend_name(backend);
    EXPECT_EQ(reply.result_json, outcome_json(direct))
        << backend_name(backend);
  }
}

// satproofd serves RUP through run_check like every other backend: the
// verdict line and JSON of a submitted job equal a direct call's, binary
// traces included.
TEST_F(ServiceE2E, RupBackendMatchesDirectRunCheck) {
  start_server();
  for (const std::string& trace : {fx_->trace4(), fx_->btrace4()}) {
    const JobOutcome direct = run_check(fx_->php4(), trace, Backend::kRup);
    ASSERT_TRUE(direct.ok) << direct.error;
    EXPECT_EQ(verdict_line(direct).rfind("VERIFIED (RUP): ", 0), 0u)
        << verdict_line(direct);
    EXPECT_GT(direct.drup_clauses_checked, 0u);

    Client client = connect();
    const Client::SubmitReply reply =
        client.submit(fx_->php4(), trace, Backend::kRup, /*wait=*/true);
    ASSERT_TRUE(reply.transport_ok) << reply.error;
    ASSERT_TRUE(reply.have_result);
    EXPECT_EQ(reply.status, JobStatus::kOk);
    EXPECT_EQ(reply.verdict, verdict_line(direct));
    EXPECT_EQ(reply.result_json, outcome_json(direct));
  }
}

TEST_F(ServiceE2E, BinaryTraceIsAutoDetected) {
  start_server();
  const JobOutcome direct =
      run_check(fx_->php4(), fx_->btrace4(), Backend::kDf);
  ASSERT_TRUE(direct.ok) << direct.error;

  Client client = connect();
  const Client::SubmitReply reply =
      client.submit(fx_->php4(), fx_->btrace4(), Backend::kDf, true);
  ASSERT_TRUE(reply.transport_ok) << reply.error;
  EXPECT_EQ(reply.status, JobStatus::kOk);
  EXPECT_EQ(reply.verdict, verdict_line(direct));
}

TEST_F(ServiceE2E, CorruptTraceFailsCleanly) {
  start_server();
  Client client = connect();
  const Client::SubmitReply reply = client.submit(
      fx_->php4(), fx_->garbage_trace.path().string(), Backend::kDf, true);
  ASSERT_TRUE(reply.transport_ok) << reply.error;
  ASSERT_TRUE(reply.have_result);
  EXPECT_EQ(reply.status, JobStatus::kCheckFailed);
  EXPECT_EQ(reply.verdict.rfind("CHECK FAILED:", 0), 0u) << reply.verdict;
  EXPECT_NE(server_->metrics_json().find("\"satproofd_jobs_failed_total\":1"),
            std::string::npos);
}

TEST_F(ServiceE2E, SatFormulaCannotBeProvenUnsat) {
  start_server();
  Client client = connect();
  const Client::SubmitReply reply =
      client.submit(fx_->sat_cnf.path().string(),
                    fx_->empty_drup.path().string(), Backend::kDrup, true);
  ASSERT_TRUE(reply.transport_ok) << reply.error;
  EXPECT_EQ(reply.status, JobStatus::kCheckFailed);
  EXPECT_EQ(reply.verdict.rfind("CHECK FAILED:", 0), 0u) << reply.verdict;
}

TEST_F(ServiceE2E, OneConnectionCanCarryManyJobs) {
  start_server();
  Client client = connect();
  for (int round = 0; round < 3; ++round) {
    const Client::SubmitReply reply =
        client.submit(fx_->php4(), fx_->trace4(), Backend::kDf, true);
    ASSERT_TRUE(reply.transport_ok) << reply.error;
    EXPECT_EQ(reply.status, JobStatus::kOk);
  }
  EXPECT_NE(server_->metrics_json().find(
                "\"satproofd_jobs_completed_total\":3"),
            std::string::npos);
}

TEST_F(ServiceE2E, ConcurrentClientsAllVerify) {
  ServerOptions opts;
  opts.workers = 2;
  start_server(opts);
  const Backend backends[4] = {Backend::kDf, Backend::kBf, Backend::kHybrid,
                               Backend::kParallel};
  std::vector<std::thread> threads;
  std::vector<Client::SubmitReply> replies(4);
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([this, i, &backends, &replies] {
      Client client = connect();
      replies[i] =
          client.submit(fx_->php4(), fx_->trace4(), backends[i], true);
    });
  }
  for (auto& t : threads) t.join();
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(replies[i].transport_ok) << replies[i].error;
    EXPECT_EQ(replies[i].status, JobStatus::kOk)
        << backend_name(backends[i]);
    const JobOutcome direct =
        run_check(fx_->php4(), fx_->trace4(), backends[i]);
    EXPECT_EQ(replies[i].verdict, verdict_line(direct));
  }
  EXPECT_NE(server_->metrics_json().find(
                "\"satproofd_jobs_completed_total\":4"),
            std::string::npos);
}

TEST_F(ServiceE2E, QueueFullAnswersBusyAndConnectionSurvives) {
  ServerOptions opts;
  opts.workers = 1;
  opts.queue_capacity = 1;
  start_server(opts);

  // Pipeline a burst of slow jobs over one raw connection: with one worker
  // and a one-slot queue, the tail of the burst must hit BUSY while the
  // head is still checking. Retry the whole burst a few times so a slow
  // machine can't make this flaky.
  const std::string cnf_bytes = read_file(fx_->php8());
  const std::string trace_bytes = read_file(fx_->trace8());
  int busy = 0, accepted = 0;
  for (int attempt = 0; attempt < 5 && busy == 0; ++attempt) {
    util::Socket sock =
        util::connect_unix(socket_file_.path().string());
    const int kBurst = 6;
    SubmitHeader header;  // df backend, no wait
    for (int i = 0; i < kBurst; ++i) {
      ASSERT_TRUE(
          write_frame(sock, FrameTag::kSubmit, encode_submit_header(header)));
      ASSERT_TRUE(write_frame(sock, FrameTag::kCnfData, cnf_bytes));
      ASSERT_TRUE(write_frame(sock, FrameTag::kTraceData, trace_bytes));
      ASSERT_TRUE(write_frame(sock, FrameTag::kSubmitEnd));
    }
    for (int i = 0; i < kBurst; ++i) {
      Frame frame;
      ASSERT_EQ(read_frame(sock, frame), ReadStatus::kFrame);
      if (frame.tag == FrameTag::kBusy) {
        ++busy;
        ASSERT_EQ(frame.payload.size(), 4u);
        EXPECT_EQ(read_u32le(frame.payload.data()), 1u);  // queue capacity
      } else {
        ASSERT_EQ(frame.tag, FrameTag::kAccepted);
        ++accepted;
      }
    }
  }
  EXPECT_GE(busy, 1);
  EXPECT_GE(accepted, 1);
  std::ostringstream expected;
  expected << "\"satproofd_jobs_rejected_busy_total\":" << busy;
  EXPECT_NE(server_->metrics_json().find(expected.str()), std::string::npos);
}

TEST_F(ServiceE2E, OverlongJobIsReportedAsTimeout) {
  start_server();
  Client client = connect();
  // A 1 ms budget that a php8 replay cannot possibly meet. Checkers are
  // not preemptible, so this is a *soft* timeout: the job completes and is
  // then reported as timed out (docs/SERVICE.md).
  const Client::SubmitReply reply =
      client.submit(fx_->php8(), fx_->trace8(), Backend::kDf, true,
                    /*jobs=*/0, /*timeout_ms=*/1);
  ASSERT_TRUE(reply.transport_ok) << reply.error;
  ASSERT_TRUE(reply.have_result);
  EXPECT_EQ(reply.status, JobStatus::kTimeout);
  EXPECT_NE(server_->metrics_json().find(
                "\"satproofd_jobs_timed_out_total\":1"),
            std::string::npos);
}

TEST_F(ServiceE2E, StatsReplyMatchesServerSnapshot) {
  start_server();
  Client client = connect();
  const Client::SubmitReply reply =
      client.submit(fx_->php4(), fx_->trace4(), Backend::kBf, true);
  ASSERT_TRUE(reply.transport_ok) << reply.error;

  std::string error;
  const std::string json = client.stats_json(&error);
  ASSERT_FALSE(json.empty()) << error;
  // Quiescent server: the protocol reply and the in-process snapshot are
  // the same serializer over the same counters.
  EXPECT_EQ(json, server_->metrics_json());
  EXPECT_NE(json.find("\"satproofd_jobs_accepted_total\":1"),
            std::string::npos);
  EXPECT_NE(json.find("\"satproofd_backend_jobs_completed_total"
                      "{backend=\\\"bf\\\"}\":1"),
            std::string::npos);
  EXPECT_NE(json.find("\"satproofd_arena_peak_bytes\":"), std::string::npos);
}

TEST_F(ServiceE2E, PrometheusStatsAreWellFormedAndCountJobs) {
  start_server();
  Client client = connect();
  const Client::SubmitReply reply =
      client.submit(fx_->php4(), fx_->trace4(), Backend::kHybrid, true);
  ASSERT_TRUE(reply.transport_ok) << reply.error;

  std::string error;
  const std::string text = client.stats_prometheus(&error);
  ASSERT_FALSE(text.empty()) << error;
  EXPECT_EQ(text, server_->metrics_prometheus());
  EXPECT_NE(text.find("# TYPE satproofd_jobs_completed_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("satproofd_jobs_completed_total 1"), std::string::npos);
  EXPECT_NE(
      text.find("satproofd_backend_jobs_completed_total{backend=\"hybrid\"} 1"),
      std::string::npos);
  EXPECT_NE(text.find("satproofd_queue_depth 0"), std::string::npos);
  EXPECT_NE(text.find("satproof_resolutions_total"), std::string::npos);
}

TEST_F(ServiceE2E, SlowJobDumpsExactlyOneSpanTree) {
  ServerOptions opts;
  opts.slow_job_ms = 1;  // a php8 replay always takes longer than 1 ms
  start_server(opts);
  Client client = connect();

  ::testing::internal::CaptureStderr();
  const Client::SubmitReply reply =
      client.submit(fx_->php8(), fx_->trace8(), Backend::kDf, true);
  // The dump is written by the worker before the ticket completes, so it
  // is fully captured once the wait-mode result frame has arrived.
  const std::string captured = ::testing::internal::GetCapturedStderr();

  ASSERT_TRUE(reply.transport_ok) << reply.error;
  EXPECT_EQ(reply.status, JobStatus::kOk);
  std::size_t dumps = 0;
  for (std::size_t pos = captured.find("SLOW-JOB:"); pos != std::string::npos;
       pos = captured.find("SLOW-JOB:", pos + 1)) {
    ++dumps;
  }
  EXPECT_EQ(dumps, 1u) << captured;
  EXPECT_NE(captured.find("backend=df"), std::string::npos);
  // The tree includes the service stages and the checker stages.
  EXPECT_NE(captured.find("queue_wait"), std::string::npos);
  EXPECT_NE(captured.find("run"), std::string::npos);
  EXPECT_NE(captured.find("  check"), std::string::npos);
  EXPECT_NE(captured.find("    parse"), std::string::npos);
  EXPECT_NE(captured.find("    replay"), std::string::npos);
  EXPECT_NE(server_->metrics_json().find("\"satproofd_slow_jobs_total\":1"),
            std::string::npos);
  EXPECT_NE(server_->metrics_prometheus().find("satproofd_slow_jobs_total 1"),
            std::string::npos);
}

TEST_F(ServiceE2E, TcpTransportWorks) {
  ServerOptions opts;
  opts.enable_tcp = true;  // ephemeral port
  start_server(opts);
  ASSERT_NE(server_->tcp_port(), 0);
  Client client = Client::connect_tcp(server_->tcp_port());
  const Client::SubmitReply reply =
      client.submit(fx_->php4(), fx_->trace4(), Backend::kDf, true);
  ASSERT_TRUE(reply.transport_ok) << reply.error;
  EXPECT_EQ(reply.status, JobStatus::kOk);
}

TEST_F(ServiceE2E, DrainFinishesAcceptedJobsThenRefusesNewOnes) {
  start_server();
  {
    Client client = connect();
    const Client::SubmitReply reply =
        client.submit(fx_->php8(), fx_->trace8(), Backend::kDf,
                      /*wait=*/false);
    ASSERT_TRUE(reply.transport_ok) << reply.error;
    ASSERT_TRUE(reply.accepted);
  }
  server_->drain_and_wait();
  // The accepted job ran to completion during the drain...
  const std::string json = server_->metrics_json();
  EXPECT_NE(json.find("\"satproofd_jobs_accepted_total\":1"),
            std::string::npos);
  EXPECT_NE(json.find("\"satproofd_jobs_completed_total\":1"),
            std::string::npos);
  // ...and the listener is gone: the socket file has been removed.
  EXPECT_THROW(Client::connect_unix(socket_file_.path().string()),
               std::runtime_error);
}

TEST_F(ServiceE2E, WaitModeResultSurvivesAConcurrentDrain) {
  start_server();
  Client client = connect();
  std::thread drainer([this] { server_->drain_and_wait(); });
  // Even if the drain wins the race, a job admitted before the queue
  // closes must still deliver its result frame; one admitted after is
  // refused with a typed DRAINING error. Both are clean outcomes.
  const Client::SubmitReply reply =
      client.submit(fx_->php4(), fx_->trace4(), Backend::kDf, true);
  drainer.join();
  if (reply.accepted) {
    EXPECT_TRUE(reply.have_result);
    EXPECT_EQ(reply.status, JobStatus::kOk);
  } else {
    EXPECT_FALSE(reply.transport_ok);
  }
}

TEST_F(ServiceE2E, SlowUploaderCannotStallOtherClients) {
  // Slowloris: one client trickles a SUBMIT upload byte by byte and never
  // finishes. Under the old thread-per-connection server this pinned a
  // thread; under the event loop it must cost only a buffer, and an
  // ordinary client submitted meanwhile must complete promptly.
  start_server();
  util::Socket slow = util::connect_unix(socket_file_.path().string());
  SubmitHeader header;
  const std::vector<std::uint8_t> submit_payload =
      encode_submit_header(header);
  std::vector<std::uint8_t> wire;
  wire.push_back(static_cast<std::uint8_t>(FrameTag::kSubmit));
  append_u32le(wire, static_cast<std::uint32_t>(submit_payload.size()));
  wire.insert(wire.end(), submit_payload.begin(), submit_payload.end());
  // Trickle the first few bytes only, leaving the frame forever unfinished.
  for (std::size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(slow.send_all(&wire[i], 1));
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  Client client = connect();
  const Client::SubmitReply reply =
      client.submit(fx_->php4(), fx_->trace4(), Backend::kDf, true);
  ASSERT_TRUE(reply.transport_ok) << reply.error;
  ASSERT_TRUE(reply.have_result);
  EXPECT_EQ(reply.status, JobStatus::kOk);

  // Keep trickling: the stalled connection is still alive and still slow,
  // and the server still answers everyone else.
  ASSERT_TRUE(slow.send_all(&wire[3], 1));
  std::string error;
  EXPECT_FALSE(client.stats_json(&error).empty()) << error;
}

TEST_F(ServiceE2E, ClosedConnectionsAreReapedWithoutNewAccepts) {
  // A wave of short-lived connections must be reaped promptly by the
  // event loop itself — not parked until the next accept, as the old
  // reap-on-accept scheme did. The follow-up client is only connected
  // after the wave is fully closed, so it cannot be the trigger.
  start_server();
  for (int i = 0; i < 32; ++i) {
    util::Socket sock = util::connect_unix(socket_file_.path().string());
    ASSERT_TRUE(write_frame(sock, FrameTag::kStats));
    Frame frame;
    ASSERT_EQ(read_frame(sock, frame), ReadStatus::kFrame);
    ASSERT_EQ(frame.tag, FrameTag::kStatsJson);
  }
  Client client = connect();
  std::string error;
  const std::string json = client.stats_json(&error);
  ASSERT_FALSE(json.empty()) << error;
  EXPECT_NE(json.find("\"satproofd_connections_total\":33"), std::string::npos);
}

TEST_F(ServiceE2E, MultiWorkerServerMatchesDirectVerdicts) {
  // Four workers, concurrent mixed-backend jobs: which worker takes a job
  // (and with it which recycled clause arena) must never change a verdict.
  ServerOptions opts;
  opts.workers = 4;
  start_server(opts);
  ASSERT_EQ(server_->worker_count(), 4u);

  constexpr int kClients = 8;
  const Backend backends[4] = {Backend::kDf, Backend::kBf, Backend::kHybrid,
                               Backend::kParallel};
  std::vector<std::thread> threads;
  std::vector<Client::SubmitReply> replies(kClients);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([this, i, &backends, &replies] {
      Client client = connect();
      replies[i] = client.submit(fx_->php4(), fx_->trace4(),
                                 backends[i % 4], true);
    });
  }
  for (auto& t : threads) t.join();
  for (int i = 0; i < kClients; ++i) {
    ASSERT_TRUE(replies[i].transport_ok) << replies[i].error;
    EXPECT_EQ(replies[i].status, JobStatus::kOk);
    const JobOutcome direct =
        run_check(fx_->php4(), fx_->trace4(), backends[i % 4]);
    EXPECT_EQ(replies[i].verdict, verdict_line(direct));
  }
  const std::string json = server_->metrics_json();
  EXPECT_NE(json.find("\"satproofd_jobs_completed_total\":8"),
            std::string::npos);
  EXPECT_NE(json.find("\"satproofd_workers\":4"), std::string::npos);
}

TEST_F(ServiceE2E, CertifySubmitReturnsKernelVerifiableCertificate) {
  ServerOptions opts;
  opts.certify = true;  // server re-verifies with the trusted kernel
  start_server(opts);

  for (const Backend backend : {Backend::kDf, Backend::kHybrid}) {
    Client client = connect();
    const Client::SubmitReply reply =
        client.submit(fx_->php4(), fx_->trace4(), backend, /*wait=*/true,
                      /*jobs=*/0, /*timeout_ms=*/0, /*certify=*/true);
    ASSERT_TRUE(reply.transport_ok) << reply.error;
    ASSERT_EQ(reply.status, JobStatus::kOk) << reply.verdict;
    ASSERT_TRUE(reply.have_certificate);
    ASSERT_FALSE(reply.certificate.empty());

    // The shipped certificate must re-verify independently.
    std::ifstream cnf_in(fx_->php4());
    std::istringstream cert_in(reply.certificate);
    const kern::VerifyResult kv = kern::verify_lrat(cnf_in, cert_in);
    EXPECT_TRUE(kv.verified) << "line " << kv.line << ": " << kv.error;
  }

  // Both post-checks passed and were counted.
  const std::string prom = server_->metrics_prometheus();
  EXPECT_NE(prom.find("satproofd_certified_total 2"), std::string::npos);
  EXPECT_NE(prom.find("satproofd_certify_failed_total 0"),
            std::string::npos);
}

TEST_F(ServiceE2E, CertifiedSubmitUnderMemLimitRunsWindowAndVerifies) {
  // A budget the php8 trace exceeds six times over: the df request runs
  // as window at that budget, certificate included.
  const std::uint64_t trace_bytes = read_file(fx_->trace8()).size();
  ServerOptions opts;
  opts.certify = true;
  opts.mem_limit_bytes = static_cast<std::size_t>(trace_bytes);
  start_server(opts);
  Client client = connect();
  const Client::SubmitReply reply =
      client.submit(fx_->php8(), fx_->trace8(), Backend::kDf, /*wait=*/true,
                    /*jobs=*/0, /*timeout_ms=*/0, /*certify=*/true);
  ASSERT_TRUE(reply.transport_ok) << reply.error;
  ASSERT_EQ(reply.status, JobStatus::kOk) << reply.verdict;
  EXPECT_NE(reply.result_json.find("\"backend\":\"window\""),
            std::string::npos)
      << reply.result_json;
  ASSERT_TRUE(reply.have_certificate);
  std::ifstream cnf_in(fx_->php8());
  std::istringstream cert_in(reply.certificate);
  const kern::VerifyResult kv = kern::verify_lrat(cnf_in, cert_in);
  EXPECT_TRUE(kv.verified) << "line " << kv.line << ": " << kv.error;
}

TEST_F(ServiceE2E, CertifyWithWrongBackendOrWithoutWaitIsBadRequest) {
  start_server();
  for (const bool with_wait : {true, false}) {
    Client client = connect();
    SubmitHeader header;
    header.backend =
        static_cast<std::uint8_t>(with_wait ? Backend::kDrup : Backend::kDf);
    header.flags = kSubmitFlagCertify;
    if (with_wait) header.flags |= kSubmitFlagWait;
    ASSERT_TRUE(write_frame(client.socket(), FrameTag::kSubmit,
                            encode_submit_header(header)));
    Frame frame;
    ASSERT_EQ(read_frame(client.socket(), frame), ReadStatus::kFrame);
    ASSERT_EQ(frame.tag, FrameTag::kError);
    ErrorCode code = ErrorCode::kMalformedFrame;
    std::string message;
    ASSERT_TRUE(decode_error(frame.payload, code, message));
    EXPECT_EQ(code, ErrorCode::kBadRequest) << message;
  }
}

TEST_F(ServiceE2E, LegacyClientsNeverSeeCertFrames) {
  // A plain wait-mode submit on a --certify server: exactly one RESULT
  // frame, no RESULT_CERT, and the connection stays usable.
  ServerOptions opts;
  opts.certify = true;
  start_server(opts);
  Client client = connect();
  const Client::SubmitReply first =
      client.submit(fx_->php4(), fx_->trace4(), Backend::kDf, /*wait=*/true);
  ASSERT_TRUE(first.transport_ok) << first.error;
  EXPECT_EQ(first.status, JobStatus::kOk);
  EXPECT_FALSE(first.have_certificate);
  // Were a stray cert frame queued, this next exchange would desync.
  const Client::SubmitReply second =
      client.submit(fx_->php4(), fx_->trace4(), Backend::kDf, /*wait=*/true);
  ASSERT_TRUE(second.transport_ok) << second.error;
  EXPECT_EQ(second.status, JobStatus::kOk);
}

TEST_F(ServiceE2E, OutcomeStatsAreCheckStatsJson) {
  // One serialiser: outcome_json's "stats" object is check_stats_json.
  for (const Backend backend : {Backend::kDf, Backend::kWindow}) {
    const JobOutcome direct = run_check(fx_->php4(), fx_->trace4(), backend);
    ASSERT_TRUE(direct.ok) << direct.error;
    const std::string json = outcome_json(direct);
    const std::size_t begin = json.find("\"stats\":");
    ASSERT_NE(begin, std::string::npos) << json;
    const std::size_t first = begin + 8;
    const std::string stats =
        json.substr(first, json.find('}', first) + 1 - first);
    EXPECT_EQ(stats, check_stats_json(direct.stats)) << backend_name(backend);
  }
  // bf collects no core, so its stats carry no core size to misread.
  const JobOutcome bf = run_check(fx_->php4(), fx_->trace4(), Backend::kBf);
  ASSERT_TRUE(bf.ok) << bf.error;
  EXPECT_NE(outcome_json(bf).find("\"stats\":{"), std::string::npos);
  EXPECT_EQ(outcome_json(bf).find("core_original_clauses"), std::string::npos);
  // RUP computes none of the replay counters: neither document has them.
  const JobOutcome rup = run_check(fx_->php4(), fx_->trace4(), Backend::kRup);
  ASSERT_TRUE(rup.ok) << rup.error;
  EXPECT_EQ(outcome_json(rup).find("\"stats\""), std::string::npos);
  EXPECT_EQ(check_stats_json(rup).rfind("{\"rup\":{\"clauses_checked\":", 0),
            0u)
      << check_stats_json(rup);
  EXPECT_EQ(check_stats_json(rup).find("total_derivations"), std::string::npos);
}

TEST_F(ServiceE2E, CountersObeyConservationLawsAfterDrain) {
  ServerOptions opts;
  opts.certify = true;
  opts.workers = 2;
  start_server(opts);
  struct Job {
    std::string cnf;
    std::string trace;
    Backend backend;
    std::uint32_t timeout_ms;
    bool certify;
    JobStatus expected;
  };
  const std::string garbage = fx_->garbage_trace.path().string();
  const Job jobs[] = {
      {fx_->php4(), fx_->trace4(), Backend::kDf, 0, false, JobStatus::kOk},
      {fx_->php4(), fx_->trace4(), Backend::kBf, 0, false, JobStatus::kOk},
      {fx_->php4(), garbage, Backend::kDf, 0, false, JobStatus::kCheckFailed},
      // A 1 ms budget a php8 replay cannot meet: a soft timeout.
      {fx_->php8(), fx_->trace8(), Backend::kDf, 1, false, JobStatus::kTimeout},
      {fx_->php4(), fx_->trace4(), Backend::kDf, 0, true, JobStatus::kOk},
      {fx_->php4(), fx_->trace4(), Backend::kHybrid, 0, true, JobStatus::kOk},
  };
  Client client = connect();
  for (const Job& job : jobs) {
    const Client::SubmitReply reply =
        client.submit(job.cnf, job.trace, job.backend, /*wait=*/true,
                      /*jobs=*/0, job.timeout_ms, job.certify);
    ASSERT_TRUE(reply.transport_ok) << reply.error;
    EXPECT_EQ(reply.status, job.expected) << reply.verdict;
  }
  server_->drain_and_wait();

  const std::string text = server_->metrics_prometheus();
  std::map<std::string, double> s = prometheus_samples(text);
  const double accepted = s["satproofd_jobs_accepted_total"];
  const double completed = s["satproofd_jobs_completed_total"];
  const double failed = s["satproofd_jobs_failed_total"];
  const double timed_out = s["satproofd_jobs_timed_out_total"];
  EXPECT_EQ(accepted, 6);
  EXPECT_EQ(accepted, completed + timed_out);
  EXPECT_EQ(accepted,
            s["satproofd_lane_jobs_enqueued_total{lane=\"fast\"}"] +
                s["satproofd_lane_jobs_enqueued_total{lane=\"bulk\"}"]);
  EXPECT_LE(failed, completed);
  EXPECT_EQ(failed, 1);
  EXPECT_EQ(timed_out, 1);
  EXPECT_EQ(s["satproofd_certified_total"] +
                s["satproofd_certify_failed_total"],
            2);

  double by_backend[3] = {0, 0, 0};
  for (std::uint8_t b = 0; b < kNumBackends; ++b) {
    const std::string label =
        std::string("{backend=\"") + backend_name(static_cast<Backend>(b)) +
        "\"}";
    const double done = s["satproofd_backend_jobs_completed_total" + label];
    by_backend[0] += done;
    by_backend[1] += s["satproofd_backend_jobs_failed_total" + label];
    by_backend[2] += s["satproofd_backend_jobs_timed_out_total" + label];
    EXPECT_EQ(s["satproofd_job_seconds_count" + label], done) << label;

    // Buckets in exposition order: cumulative, ending in +Inf == _count.
    const std::string bucket_prefix = "satproofd_job_seconds_bucket" +
                                      label.substr(0, label.size() - 1) + ",";
    std::vector<std::pair<std::string, double>> buckets;
    for (const auto& sample : prometheus_series(text)) {
      if (sample.first.rfind(bucket_prefix, 0) == 0) buckets.push_back(sample);
    }
    ASSERT_EQ(buckets.size(), obs::Histogram::kBuckets) << label;
    for (std::size_t i = 1; i < buckets.size(); ++i) {
      EXPECT_LE(buckets[i - 1].second, buckets[i].second) << buckets[i].first;
    }
    EXPECT_EQ(buckets.back().first, bucket_prefix + "le=\"+Inf\"}");
    EXPECT_EQ(buckets.back().second, done) << label;
  }
  EXPECT_EQ(by_backend[0], completed);
  EXPECT_EQ(by_backend[1], failed);
  EXPECT_EQ(by_backend[2], timed_out);
}

TEST_F(ServiceE2E, UploadsOfAMebibyteRunOnTheBulkLane) {
  start_server();
  const auto samples = [&] {
    return prometheus_samples(server_->metrics_prometheus());
  };
  const std::string bulk = "satproofd_lane_jobs_enqueued_total{lane=\"bulk\"}";
  const std::string fast = "satproofd_lane_jobs_enqueued_total{lane=\"fast\"}";
  // A small job declares its real size and takes the fast lane.
  Client client = connect();
  ASSERT_EQ(client.submit(fx_->php4(), fx_->trace4(), Backend::kDf, true)
                .status,
            JobStatus::kOk);
  EXPECT_EQ(samples()[fast], 1);

  // php4 padded past the bulk threshold with comment lines.
  std::string padded;
  const std::string comment = "c " + std::string(78, 'x') + "\n";
  while (padded.size() < kBulkLaneThresholdBytes) padded += comment;
  padded += read_file(fx_->php4());
  struct Upload {
    const char* what;
    std::uint64_t declared_bytes;
    std::string cnf;
  };
  const Upload uploads[] = {
      {"declared", kBulkLaneThresholdBytes, read_file(fx_->php4())},
      {"measured", 0, padded},
  };
  const std::string trace = read_file(fx_->trace4());
  for (const Upload& u : uploads) {
    const double bulk_before = samples()[bulk];
    util::Socket sock = util::connect_unix(socket_file_.path().string());
    SubmitHeader header;
    header.flags = kSubmitFlagWait;
    header.declared_bytes = u.declared_bytes;
    ASSERT_TRUE(
        write_frame(sock, FrameTag::kSubmit, encode_submit_header(header)));
    ASSERT_TRUE(write_frame(sock, FrameTag::kCnfData, u.cnf));
    ASSERT_TRUE(write_frame(sock, FrameTag::kTraceData, trace));
    ASSERT_TRUE(write_frame(sock, FrameTag::kSubmitEnd));
    Frame frame;
    ASSERT_EQ(read_frame(sock, frame), ReadStatus::kFrame);
    ASSERT_EQ(frame.tag, FrameTag::kAccepted) << u.what;
    ASSERT_EQ(read_frame(sock, frame), ReadStatus::kFrame);
    ASSERT_EQ(frame.tag, FrameTag::kResult) << u.what;
    JobStatus status = JobStatus::kCheckFailed;
    std::uint64_t id = 0;
    std::string verdict, json;
    ASSERT_TRUE(decode_result(frame.payload, status, id, verdict, json));
    EXPECT_EQ(status, JobStatus::kOk) << u.what << ": " << verdict;
    EXPECT_EQ(samples()[bulk], bulk_before + 1) << u.what;
  }
  server_->drain_and_wait();
  std::map<std::string, double> s = samples();
  EXPECT_EQ(s[bulk], 2);
  EXPECT_EQ(s[fast], 1);
  EXPECT_EQ(s[fast] + s[bulk], s["satproofd_jobs_accepted_total"]);
}

TEST_F(ServiceE2E, JsonAndPrometheusCarryTheSameSamples) {
  ServerOptions opts;
  opts.workers = 2;
  start_server(opts);
  Client client = connect();
  for (const Backend backend : {Backend::kDf, Backend::kHybrid}) {
    const Client::SubmitReply reply =
        client.submit(fx_->php4(), fx_->trace4(), backend, true);
    ASSERT_TRUE(reply.transport_ok) << reply.error;
  }
  server_->drain_and_wait();  // quiescent: the two renders see one state
  const std::map<std::string, double> json =
      json_samples(server_->metrics_json());
  const std::map<std::string, double> prom =
      prometheus_samples(server_->metrics_prometheus());
  EXPECT_EQ(json, prom);
  EXPECT_EQ(json.at("satproofd_jobs_completed_total"), 2);
  EXPECT_EQ(json.at("satproofd_job_seconds_count{backend=\"hybrid\"}"), 1);
}

// Every series of the exposition before the histogram existed, values
// dropped: the p99 gauge `satproofd_backend_latency_p99_ms{backend}` is
// the only one satproofd_job_seconds replaced. The per-worker families
// `satproofd_worker_queue_depth{worker,lane}` and
// `satproofd_worker_steals_total{worker}` went with the sharded queue,
// and `satproofd_workers` names the clause arena in place of the shard.
constexpr const char* kParentSeries = R"(
# HELP satproofd_connections_total Client connections accepted.
# TYPE satproofd_connections_total counter
satproofd_connections_total
# HELP satproofd_malformed_frames_total Protocol frames rejected as malformed.
# TYPE satproofd_malformed_frames_total counter
satproofd_malformed_frames_total
# HELP satproofd_jobs_accepted_total Jobs admitted to the queue.
# TYPE satproofd_jobs_accepted_total counter
satproofd_jobs_accepted_total
# HELP satproofd_jobs_rejected_busy_total Jobs rejected with BUSY backpressure.
# TYPE satproofd_jobs_rejected_busy_total counter
satproofd_jobs_rejected_busy_total
# HELP satproofd_jobs_completed_total Jobs that delivered a verdict.
# TYPE satproofd_jobs_completed_total counter
satproofd_jobs_completed_total
# HELP satproofd_jobs_failed_total Jobs whose verdict was not ok.
# TYPE satproofd_jobs_failed_total counter
satproofd_jobs_failed_total
# HELP satproofd_jobs_timed_out_total Jobs cancelled at their wall-clock deadline.
# TYPE satproofd_jobs_timed_out_total counter
satproofd_jobs_timed_out_total
# HELP satproofd_slow_jobs_total Jobs exceeding the --slow-job-ms threshold.
# TYPE satproofd_slow_jobs_total counter
satproofd_slow_jobs_total
# HELP satproofd_certified_total Certificates verified by the trusted kernel post-check.
# TYPE satproofd_certified_total counter
satproofd_certified_total
# HELP satproofd_certify_failed_total Certificates REJECTED by the trusted kernel post-check.
# TYPE satproofd_certify_failed_total counter
satproofd_certify_failed_total
# HELP satproofd_arena_peak_bytes Largest clause-arena peak observed over completed jobs.
# TYPE satproofd_arena_peak_bytes gauge
satproofd_arena_peak_bytes
# HELP satproofd_queue_depth Jobs waiting in the queue.
# TYPE satproofd_queue_depth gauge
satproofd_queue_depth
# HELP satproofd_queue_capacity Configured queue capacity.
# TYPE satproofd_queue_capacity gauge
satproofd_queue_capacity
# HELP satproofd_running_jobs Jobs currently executing.
# TYPE satproofd_running_jobs gauge
satproofd_running_jobs
# HELP satproofd_workers Checker worker threads (one clause arena each).
# TYPE satproofd_workers gauge
satproofd_workers
# HELP satproofd_lane_jobs_enqueued_total Jobs admitted, by priority lane.
# TYPE satproofd_lane_jobs_enqueued_total counter
satproofd_lane_jobs_enqueued_total{lane="fast"}
satproofd_lane_jobs_enqueued_total{lane="bulk"}
# HELP satproofd_backend_jobs_completed_total Jobs completed, by checker backend.
# TYPE satproofd_backend_jobs_completed_total counter
satproofd_backend_jobs_completed_total{backend="df"}
satproofd_backend_jobs_completed_total{backend="bf"}
satproofd_backend_jobs_completed_total{backend="hybrid"}
satproofd_backend_jobs_completed_total{backend="parallel"}
satproofd_backend_jobs_completed_total{backend="drup"}
satproofd_backend_jobs_completed_total{backend="window"}
# HELP satproofd_backend_jobs_failed_total Jobs with a non-ok verdict, by checker backend.
# TYPE satproofd_backend_jobs_failed_total counter
satproofd_backend_jobs_failed_total{backend="df"}
satproofd_backend_jobs_failed_total{backend="bf"}
satproofd_backend_jobs_failed_total{backend="hybrid"}
satproofd_backend_jobs_failed_total{backend="parallel"}
satproofd_backend_jobs_failed_total{backend="drup"}
satproofd_backend_jobs_failed_total{backend="window"}
# HELP satproofd_backend_jobs_timed_out_total Jobs timed out, by checker backend.
# TYPE satproofd_backend_jobs_timed_out_total counter
satproofd_backend_jobs_timed_out_total{backend="df"}
satproofd_backend_jobs_timed_out_total{backend="bf"}
satproofd_backend_jobs_timed_out_total{backend="hybrid"}
satproofd_backend_jobs_timed_out_total{backend="parallel"}
satproofd_backend_jobs_timed_out_total{backend="drup"}
satproofd_backend_jobs_timed_out_total{backend="window"}
# HELP satproof_derivations_total Trace derivation records processed by checker runs.
# TYPE satproof_derivations_total counter
satproof_derivations_total
# HELP satproof_clauses_built_total Clauses materialized while replaying resolution proofs.
# TYPE satproof_clauses_built_total counter
satproof_clauses_built_total
# HELP satproof_resolutions_total Pairwise resolution operations performed by checker runs.
# TYPE satproof_resolutions_total counter
satproof_resolutions_total
# HELP satproof_arena_allocated_bytes_total Bytes handed out by clause arenas across checker runs.
# TYPE satproof_arena_allocated_bytes_total counter
satproof_arena_allocated_bytes_total
# HELP satproof_drup_propagations_total Unit propagations performed by DRUP (RUP) checks.
# TYPE satproof_drup_propagations_total counter
satproof_drup_propagations_total
# HELP satproof_checks_total Proof-check runs completed.
# TYPE satproof_checks_total counter
satproof_checks_total
)";

TEST(ServiceMetrics, ParentSeriesKeepTheirNamesLabelsAndHelp) {
  ServerOptions opts;
  opts.workers = 2;
  const Server server(opts);  // never started: no sockets, no threads
  (void)obs::CheckerCounters::get();
  const std::string text = server.metrics_prometheus();

  std::set<std::string> seen;  // header lines, and series without values
  std::set<std::string> families;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("# TYPE ", 0) == 0) {
      families.insert(line.substr(7, line.find(' ', 7) - 7));
    }
    seen.insert(line[0] == '#' ? line : line.substr(0, line.rfind(' ')));
  }
  std::set<std::string> parent_families;
  std::istringstream parent(kParentSeries);
  for (std::string line; std::getline(parent, line);) {
    if (line.empty()) continue;
    EXPECT_EQ(seen.count(line), 1u) << line;
    if (line.rfind("# TYPE ", 0) == 0) {
      parent_families.insert(line.substr(7, line.find(' ', 7) - 7));
    }
  }
  parent_families.insert("satproofd_job_seconds");
  EXPECT_EQ(families, parent_families);
}

// The budget picks df while the trace is at most a sixth of it, window
// beyond that; the division keeps sizes near UINT64_MAX from overflowing.
// With no budget, df below 64 MiB and hybrid from 64 MiB up.
TEST(BudgetSelection, PicksDfOrWindow) {
  constexpr std::uint64_t kMax64 = std::numeric_limits<std::uint64_t>::max();
  constexpr std::size_t kMaxSize = std::numeric_limits<std::size_t>::max();
  constexpr std::uint64_t k64M = 64ull << 20;
  struct Row {
    std::uint64_t trace_bytes;
    std::size_t mem_limit;
    Backend expected;
  };
  const Row rows[] = {
      {0, 0, Backend::kDf},
      {kMax64, 0, Backend::kHybrid},  // no cap, past 64 MiB
      {k64M - 1, 0, Backend::kDf},
      {k64M, 0, Backend::kHybrid},
      {k64M - 1, 6 * k64M - 1, Backend::kDf},  // a sixth of the cap
      {k64M, 6 * k64M - 1, Backend::kWindow},
      {k64M - 1, 6 * k64M, Backend::kDf},
      {k64M, 6 * k64M, Backend::kDf},
      {k64M - 1, 1u << 20, Backend::kWindow},
      {k64M, 1u << 20, Backend::kWindow},
      {0, 600, Backend::kDf},
      {100, 600, Backend::kDf},  // exactly a sixth
      {101, 600, Backend::kWindow},
      {300, 600, Backend::kWindow},
      {100, 605, Backend::kDf},      // the sixth rounds down
      {101, 605, Backend::kWindow},
      {0, 5, Backend::kDf},
      {1, 5, Backend::kWindow},
      {kMaxSize / 6, kMaxSize, Backend::kDf},
      {kMaxSize / 6 + 1, kMaxSize, Backend::kWindow},
      {kMax64, kMaxSize, Backend::kWindow},
      {kMax64, 1u << 20, Backend::kWindow},
  };
  for (const Row& row : rows) {
    EXPECT_EQ(select_backend_for_budget(row.trace_bytes, row.mem_limit),
              row.expected)
        << row.trace_bytes << " bytes under " << row.mem_limit;
  }
}

}  // namespace
}  // namespace satproof::service
