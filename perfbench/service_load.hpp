#pragma once

// satproofd under load: an in-process server on a unix socket, fed from
// this process over a fixed number of connections. One window is a closed
// loop (throughput) and then an open loop at the corpus's fixed rate
// (latency, timed from each job's due time), each on a fresh server. Both
// send whole rounds of the job stream: every check pair four times, the
// fourth copy of each fast-lane pair as a certify job. A run measures
// several windows spread over its length and pools them.

#include <string>
#include <vector>

#include "corpus.hpp"
#include "util.hpp"

namespace perfbench {

struct ServiceOptions {
  std::size_t closed_rounds = 1;  ///< per window: closed-loop rounds
  std::size_t open_rounds = 1;    ///< per window: open-loop rounds
  std::uint64_t seed = 0;
  std::string dir;  ///< socket directory; also where uploads are spooled
};

/// What one window measured.
struct ServiceWindow {
  std::uint64_t closed_jobs = 0;    ///< closed loop: jobs completed
  double closed_s = 0;              ///< closed loop: first send to last reply
  std::vector<double> latency_ms;   ///< open loop, from due time to reply
  std::vector<double> lag_ms;       ///< open loop, due time to send
  /// Direct (in-process, no service) time of each open-loop job: df, or
  /// df + LRAT + kernel for certify jobs, as the server runs them.
  std::vector<double> direct_ms;
  double steals = 0;      ///< open loop
  double bulk_share = 0;  ///< open loop
};

/// Runs one window: both phases. `df_lines` / `certify_lines` are the direct
/// run_check verdict lines per check pair that every reply must equal;
/// `df_s` / `certify_s` the direct times per check pair.
ServiceWindow run_service_window(const Corpus& corpus,
                                 const std::vector<std::string>& df_lines,
                                 const std::vector<std::string>& certify_lines,
                                 const std::vector<double>& df_s,
                                 const std::vector<double>& certify_s,
                                 const ServiceOptions& options, Tally& tally,
                                 SpanLog& spans);

}  // namespace perfbench
