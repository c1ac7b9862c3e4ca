#include "util.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t i = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

double tail_percentile(std::size_t samples) {
  if (samples == 0) return 50;
  const double p = 100.0 * (1.0 - 10.0 / static_cast<double>(samples));
  return std::clamp(std::floor(p * 10) / 10, 50.0, 99.0);
}

void Tally::check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    if (failed_ <= 20) std::cerr << "perfbench: FAILED: " << what << "\n";
  }
}

namespace {

/// Span timestamps count from program start.
const Clock::time_point g_epoch = Clock::now();

std::uint64_t micros_since_epoch(Clock::time_point t) {
  using std::chrono::microseconds;
  return t < g_epoch
             ? 0
             : static_cast<std::uint64_t>(
                   std::chrono::duration_cast<microseconds>(t - g_epoch)
                       .count());
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

}  // namespace

void SpanLog::record(const std::string& name, const std::string& stage,
                     const std::string& row, std::uint64_t bytes,
                     Clock::time_point start, Clock::time_point end) {
  if (!enabled_) return;
  Event e;
  e.name = name;
  e.stage = stage;
  e.row = row;
  e.bytes = bytes;
  e.pass = pass_;
  e.start_us = micros_since_epoch(start);
  e.dur_us = micros_since_epoch(end) - e.start_us;
  e.seconds = seconds_between(start, end);
  events_.push_back(std::move(e));
}

std::vector<double> SpanLog::per_pass_seconds(const std::string& name,
                                              const std::string& stage) const {
  std::map<int, double> sums;
  for (const Event& e : events_) {
    if (e.name == name && (stage.empty() || e.stage == stage)) {
      sums[e.pass] += e.seconds;
    }
  }
  std::vector<double> out;
  for (const auto& [pass, s] : sums) out.push_back(s);
  return out;
}

std::string SpanLog::chrome_json(const std::string& workload,
                                 const std::string& library_events,
                                 const std::string& other_data) const {
  std::ostringstream out;
  out << "{\"otherData\":" << other_data << ",\"traceEvents\":[";
  bool first = true;
  for (const Event& e : events_) {
    if (!first) out << ",\n";
    first = false;
    out << "{\"name\":\"" << json_escape(e.name) << "\",\"ph\":\"X\",\"ts\":"
        << e.start_us << ",\"dur\":" << e.dur_us
        << ",\"pid\":1,\"tid\":1,\"args\":{\"layer\":\""
        << json_escape(e.name.substr(0, e.name.find('.')))
        << "\",\"stage\":\"" << json_escape(e.stage) << "\",\"workload\":\""
        << json_escape(workload) << "\",\"row\":\"" << json_escape(e.row)
        << "\",\"bytes\":" << e.bytes << ",\"pass\":" << e.pass << "}}";
  }
  if (!library_events.empty()) {
    if (!first) out << ",\n";
    out << library_events;
  }
  out << "]}\n";
  return out.str();
}

std::uint64_t file_size(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) throw std::runtime_error("cannot open " + path);
  return static_cast<std::uint64_t>(in.tellg());
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

bool run_process(const std::vector<std::string>& argv, std::string* out) {
  std::vector<char*> args;
  for (const std::string& a : argv) {
    args.push_back(const_cast<char*>(a.c_str()));
  }
  args.push_back(nullptr);
  int fds[2] = {-1, -1};
  if (out != nullptr && ::pipe(fds) != 0) return false;
  std::cout.flush();
  std::cerr.flush();
  const pid_t pid = ::fork();
  if (pid < 0) {
    if (out != nullptr) {
      ::close(fds[0]);
      ::close(fds[1]);
    }
    return false;
  }
  if (pid == 0) {
    if (out != nullptr) {
      ::dup2(fds[1], STDOUT_FILENO);
      ::close(fds[0]);
      ::close(fds[1]);
    }
    ::execv(args[0], args.data());
    ::_exit(127);
  }
  if (out != nullptr) {
    ::close(fds[1]);
    char buf[4096];
    for (ssize_t r; (r = ::read(fds[0], buf, sizeof buf)) != 0;) {
      if (r < 0) {
        if (errno == EINTR) continue;
        break;
      }
      out->append(buf, static_cast<std::size_t>(r));
    }
    ::close(fds[0]);
  }
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) return false;
  }
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

std::uint64_t own_peak_rss() {
  std::ifstream in("/proc/self/status");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stoull(line.substr(6)) * 1024;  // reported in kB
    }
  }
  return 0;
}

}  // namespace perfbench
