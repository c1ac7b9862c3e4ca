#pragma once

#include "src/checker/common.hpp"
#include "src/checker/use_count.hpp"

namespace satproof::checker {

/// Options for the breadth-first checker.
struct BreadthFirstOptions {
  /// Where the use counts live. The paper's low-memory variant keeps them
  /// in a temporary file (Section 3.3); in-memory is the fast default.
  UseCountMode use_counts = UseCountMode::InMemory;

  /// When non-zero, the counting pass is split into multiple passes over
  /// the trace, each counting only uses of learned clauses whose ordinal
  /// falls in one `count_range`-sized ID range — the paper's "we may also
  /// need to break the first pass into several passes so that we can count
  /// the number of usages of the clauses in one range at a time". Zero
  /// counts everything in a single pass.
  std::uint64_t count_range = 0;

  /// The workspace the check runs in; null means the calling thread's
  /// (see DepthFirstOptions::memory).
  CheckMemory* memory = nullptr;
};

/// Breadth-first proof checking (paper Section 3.3).
///
/// Traverses the learned clauses in the order they were generated (the
/// order they appear in the trace), building every one of them, and deletes
/// a clause from memory as soon as its last use as a resolve source is
/// behind. A first pass over the trace computes each clause's use count;
/// the final conflicting clause and the antecedents of level-0 variables
/// are pinned so they survive until the empty-clause derivation.
///
/// Slower than depth-first (everything is built, and the trace is read
/// twice) but with a bounded clause window: the checker never holds more
/// clauses than the solver did when it produced the trace, so — as the
/// paper argues — if the solver finished in a given memory budget, the
/// checker finishes too.
[[nodiscard]] CheckResult check_breadth_first(
    const Formula& f, trace::TraceReader& reader,
    const BreadthFirstOptions& options = {});

}  // namespace satproof::checker
