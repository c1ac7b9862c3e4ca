#pragma once

#include "src/checker/depth_first.hpp"

namespace satproof::checker {

/// Older spellings of the depth-first checker on `jobs` lanes, kept so
/// that callers written against the former parallel backend still build.
/// New code calls check_depth_first with DepthFirstOptions::jobs.
using ParallelOptions = DepthFirstOptions;

[[nodiscard]] inline CheckResult check_parallel(
    const Formula& f, trace::TraceReader& reader,
    const ParallelOptions& options = {}) {
  return check_depth_first(f, reader, options);
}

}  // namespace satproof::checker
