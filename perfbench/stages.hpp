#pragma once

// The benchmark's stages over one corpus. A timed pass goes through the
// public entry points a user calls (service::run_check, Solver,
// kern::verify_lrat); a layer pass calls each layer directly on a parsed
// formula so the traced run can attribute time to cnf, trace, checker,
// cert and solver.

#include <map>
#include <string>
#include <vector>

#include "corpus.hpp"
#include "util.hpp"

namespace perfbench {

/// Metric name -> value.
using Values = std::map<std::string, double>;

class Stages {
 public:
  /// `scratch` is a directory for per-pass outputs (traces, certificates).
  Stages(const Corpus& corpus, Tally& tally, SpanLog& spans,
         std::string scratch);

  /// One pass of every end-to-end stage: pipeline_s, check_{df,bf,hybrid,
  /// window,parallel,drup}_s and certify_s, each summed over its rows,
  /// and every row's share under "<stage>_s/<row>".
  /// The first pass also records the reference verdicts the service's
  /// replies are compared against.
  Values run_pass();

  /// Peak RSS of run_check df and window on the corpus's RSS pair, each
  /// in a child process, minus a no-op child's: df_rss_mb, window_rss_mb.
  Values run_rss();

  /// One traced pass of direct layer calls (times land in the SpanLog);
  /// returns the layers' work counts (resolutions, bytes, ...).
  Values run_layers();

  /// Reference verdict lines per check pair, from the first run_pass().
  [[nodiscard]] const std::vector<std::string>& df_lines() const {
    return df_lines_;
  }
  [[nodiscard]] const std::vector<std::string>& certify_lines() const {
    return certify_lines_;
  }
  /// Per check pair: the last pass's df and certify seconds.
  [[nodiscard]] const std::vector<double>& df_seconds() const {
    return df_seconds_;
  }
  [[nodiscard]] const std::vector<double>& certify_seconds() const {
    return certify_seconds_;
  }

 private:
  const Corpus& corpus_;
  Tally& tally_;
  SpanLog& spans_;
  std::string scratch_;
  std::vector<std::string> df_lines_;
  std::vector<std::string> certify_lines_;
  std::vector<double> df_seconds_;
  std::vector<double> certify_seconds_;
};

/// Body of a `--rss-probe BACKEND CNF TRACE BUDGET` child: runs one
/// check ("noop" runs none) and prints its own peak RSS in bytes; exit
/// code 0 iff the check verified.
int rss_probe(const std::string& backend, const std::string& cnf,
              const std::string& trace, std::size_t window_budget);

}  // namespace perfbench
