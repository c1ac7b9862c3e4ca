#pragma once

#include "src/checker/window.hpp"

namespace satproof::checker {

/// Hybrid proof checking: the window-shifting checker with no memory
/// budget, so one window holds the whole derivation structure. It builds
/// exactly the depth-first checker's clauses with breadth-first's
/// use-count release (see check_window), decoding the trace once.
[[nodiscard]] inline CheckResult check_hybrid(const Formula& f,
                                              trace::TraceReader& reader) {
  WindowOptions options;
  options.mem_limit_bytes = 0;
  return check_window(f, reader, options);
}

}  // namespace satproof::checker
