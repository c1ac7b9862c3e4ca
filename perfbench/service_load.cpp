#include "service_load.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <thread>

#include "src/service/client.hpp"
#include "src/service/job_queue.hpp"
#include "src/service/server.hpp"

namespace perfbench {

namespace service = satproof::service;

namespace {

constexpr unsigned kWorkers = 2;
constexpr unsigned kConnections = 4;  // the host's hardware threads

struct Job {
  std::size_t pair = 0;
  bool certify = false;
};

/// `name{labels}` -> value for every sample line of a Prometheus text
/// exposition.
std::map<std::string, double> prometheus_samples(const std::string& text) {
  std::map<std::string, double> out;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    const auto space = line.rfind(' ');
    if (line.empty() || line[0] == '#' || space == std::string::npos) continue;
    out[line.substr(0, space)] = std::strtod(line.c_str() + space + 1, nullptr);
  }
  return out;
}

/// One round holds every check pair four times; the fourth copy of each
/// fast-lane pair (upload below the bulk-lane threshold) is a certify
/// job, so certification competes with plain checks on the fast lane and
/// the bulk lane carries the largest traces as df jobs. Within each copy the
/// pairs alternate large and small trace, so heavy jobs are spread out;
/// the seed rotates where the stream starts. Every seed thus sends the
/// same mix in near-identical windows, and only the instances differ.
std::vector<Job> job_round(const Corpus& corpus, std::uint64_t seed) {
  std::vector<std::size_t> by_size(corpus.check.size());
  for (std::size_t i = 0; i < by_size.size(); ++i) by_size[i] = i;
  std::stable_sort(by_size.begin(), by_size.end(), [&](auto a, auto b) {
    return corpus.check[a].trace_bytes > corpus.check[b].trace_bytes;
  });
  std::vector<std::size_t> spread;
  for (std::size_t lo = 0, hi = by_size.size(); lo < hi;) {
    spread.push_back(by_size[lo++]);
    if (lo < hi) spread.push_back(by_size[--hi]);
  }
  std::vector<Job> jobs;
  for (int copy = 0; copy < 4; ++copy) {
    for (const std::size_t i : spread) {
      const Pair& p = corpus.check[i];
      jobs.push_back({i, copy == 3 && p.cnf_bytes + p.trace_bytes <
                                          service::kBulkLaneThresholdBytes});
    }
  }
  std::rotate(jobs.begin(), jobs.begin() + static_cast<std::ptrdiff_t>(
                                               seed % jobs.size()),
              jobs.end());
  return jobs;
}

/// What one connection saw.
struct ConnResult {
  std::vector<std::string> failures;
  std::uint64_t completed = 0;
  Clock::time_point last_done{};
  std::vector<double> latency_ms;
  std::vector<double> lag_ms;
  std::vector<double> direct_ms;
  struct Sent {
    std::size_t pair;
    Clock::time_point start, end;
  };
  std::vector<Sent> sent;
};

class Harness {
 public:
  Harness(const Corpus& corpus, const std::vector<std::string>& df_lines,
          const std::vector<std::string>& certify_lines,
          const std::vector<double>& df_s,
          const std::vector<double>& certify_s, const ServiceOptions& options,
          Tally& tally, SpanLog& spans)
      : corpus_(corpus), df_lines_(df_lines), certify_lines_(certify_lines),
        df_s_(df_s), certify_s_(certify_s), options_(options), tally_(tally),
        spans_(spans), round_(job_round(corpus, options.seed)) {}

  [[nodiscard]] std::size_t round_size() const { return round_.size(); }

  /// Each of kConnections threads submits jobs 0..count-1 in stream
  /// order, job i not before `due(i)`.
  template <class DueFn>
  std::vector<ConnResult> drive(const std::string& socket, std::size_t count,
                                DueFn due) {
    std::atomic<std::size_t> next{0};
    std::vector<ConnResult> results(kConnections);
    {
      std::vector<std::jthread> threads;
      for (unsigned c = 0; c < kConnections; ++c) {
        threads.emplace_back([&, c] {
          ConnResult& r = results[c];
          try {
            auto client = service::Client::connect_unix(socket);
            for (;;) {
              const std::size_t i = next.fetch_add(1);
              if (i >= count) break;
              const Clock::time_point due_at = due(i);
              std::this_thread::sleep_until(due_at);
              submit(client, i, due_at, r);
            }
          } catch (const std::exception& e) {
            r.failures.push_back(std::string("connection: ") + e.what());
          }
        });
      }
    }
    return results;
  }

  void submit(service::Client& client, std::size_t i, Clock::time_point due,
              ConnResult& r) {
    const Job job = round_[i % round_.size()];
    const Pair& p = corpus_.check[job.pair];
    const auto start = Clock::now();
    const auto reply = client.submit(p.cnf, p.trace, service::Backend::kDf,
                                     /*wait=*/true, 0, 0, job.certify);
    const auto done = Clock::now();
    const std::string& want =
        job.certify ? certify_lines_[job.pair] : df_lines_[job.pair];
    if (!reply.have_result || reply.verdict != want ||
        job.certify != reply.have_certificate) {
      r.failures.push_back("job " + std::to_string(i) + " on " + p.name +
                           ": got '" + reply.verdict + reply.error +
                           "', want '" + want + "'");
      return;
    }
    ++r.completed;
    r.last_done = done;
    r.latency_ms.push_back(seconds_between(due, done) * 1e3);
    r.lag_ms.push_back(seconds_between(due, start) * 1e3);
    r.direct_ms.push_back(
        (job.certify ? certify_s_[job.pair] : df_s_[job.pair]) * 1e3);
    r.sent.push_back({job.pair, start, done});
  }

  /// Starts a server, runs `phase` against it, drains it and checks its
  /// counters. Returns the server's Prometheus samples after the drain.
  template <class Phase>
  std::map<std::string, double> with_server(const char* stage, Phase phase) {
    const std::string socket = options_.dir + "/satproofd.sock";
    service::ServerOptions so;
    so.unix_socket_path = socket;
    so.workers = kWorkers;
    so.certify = true;  // kernel post-check of every certificate
    service::Server server(so);
    server.start();
    const std::vector<ConnResult> results = phase(socket);

    std::uint64_t completed = 0;
    for (const ConnResult& r : results) {
      completed += r.completed;
      for (const std::string& f : r.failures) {
        tally_.check(false, std::string(stage) + ": " + f);
      }
      for (const auto& s : r.sent) {
        spans_.record("service.submit", stage, corpus_.check[s.pair].name,
                      corpus_.check[s.pair].cnf_bytes +
                          corpus_.check[s.pair].trace_bytes,
                      s.start, s.end);
      }
    }
    tally_.check(completed > 0, std::string(stage) + ": no job completed");
    // Every completed reply above was already checked against run_check.
    tally_.passed(completed);

    server.drain_and_wait();
    auto stats = prometheus_samples(server.metrics_prometheus());

    // Conservation after the drain: every admitted job is accounted for,
    // none failed, and the server left no socket or spooled upload behind.
    const double accepted = stats["satproofd_jobs_accepted_total"];
    const double done = stats["satproofd_jobs_completed_total"];
    const double failed = stats["satproofd_jobs_failed_total"];
    const double timed_out = stats["satproofd_jobs_timed_out_total"];
    tally_.check(accepted == done + failed + timed_out && failed == 0 &&
                     done == static_cast<double>(completed),
                 std::string(stage) + ": accepted != completed + failed + "
                                      "timed_out, or failures");
    std::error_code ec;
    tally_.check(!std::filesystem::exists(socket, ec),
                 std::string(stage) + ": socket left behind");
    std::size_t leftovers = 0;
    for (const auto& entry :
         std::filesystem::directory_iterator(options_.dir, ec)) {
      (void)entry;
      ++leftovers;
    }
    tally_.check(leftovers == 0,
                 std::string(stage) + ": temp files left behind");
    return stats;
  }

 private:
  const Corpus& corpus_;
  const std::vector<std::string>& df_lines_;
  const std::vector<std::string>& certify_lines_;
  const std::vector<double>& df_s_;
  const std::vector<double>& certify_s_;
  const ServiceOptions& options_;
  Tally& tally_;
  SpanLog& spans_;
  std::vector<Job> round_;
};

}  // namespace

ServiceWindow run_service_window(const Corpus& corpus,
                                 const std::vector<std::string>& df_lines,
                                 const std::vector<std::string>& certify_lines,
                                 const std::vector<double>& df_s,
                                 const std::vector<double>& certify_s,
                                 const ServiceOptions& options, Tally& tally,
                                 SpanLog& spans) {
  Harness h(corpus, df_lines, certify_lines, df_s, certify_s, options, tally,
            spans);
  ServiceWindow run;

  // Closed loop: each connection sends its next job when the last
  // returns; whole rounds, so every window does the same work.
  h.with_server("svc_closed", [&](const std::string& socket) {
    const auto start = Clock::now();
    auto results = h.drive(socket, options.closed_rounds * h.round_size(),
                           [&](std::size_t) { return start; });
    std::uint64_t completed = 0;
    Clock::time_point last = start;
    for (const ConnResult& r : results) {
      completed += r.completed;
      last = std::max(last, r.last_done);
    }
    run.closed_jobs = completed;
    run.closed_s = seconds_between(start, last);
    return results;
  });

  // Open loop: job i is due at start + i / rate whatever the server does;
  // a job that waits for a free connection is late, and its latency
  // counts from when it was due.
  auto stats = h.with_server("svc_open", [&](const std::string& socket) {
    const auto start = Clock::now() + std::chrono::milliseconds(20);
    const double rate = corpus.open_loop_rate;
    auto results = h.drive(socket, options.open_rounds * h.round_size(),
                           [&](std::size_t i) {
      return start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(
                             static_cast<double>(i) / rate));
    });
    for (const ConnResult& r : results) {
      run.latency_ms.insert(run.latency_ms.end(), r.latency_ms.begin(),
                            r.latency_ms.end());
      run.lag_ms.insert(run.lag_ms.end(), r.lag_ms.begin(), r.lag_ms.end());
      run.direct_ms.insert(run.direct_ms.end(), r.direct_ms.begin(),
                           r.direct_ms.end());
    }
    return results;
  });

  for (const auto& [key, value] : stats) {
    if (key.rfind("satproofd_worker_steals_total{", 0) == 0) {
      run.steals += value;
    }
  }
  const std::string lane = "satproofd_lane_jobs_enqueued_total{lane=";
  const double fast = stats[lane + "\"fast\"}"];
  const double bulk = stats[lane + "\"bulk\"}"];
  run.bulk_share = fast + bulk > 0 ? bulk / (fast + bulk) : 0;
  return run;
}

}  // namespace perfbench
