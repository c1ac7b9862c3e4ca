// Reproduces Table 1 of the paper: per-instance statistics of the solver
// with trace generation turned off and on.
//
// Paper columns: Instance Name | Num. Variables | Orig. Num. Clauses |
// Num. Learned Clauses | Runtime Trace Off (s) | Runtime Trace On (s) |
// Trace Gen. Overhead.
//
// The paper measures 1.7-12% overhead, smaller on harder instances. The
// trace-on configuration writes the human-readable ASCII format to a real
// file, as zchaff did.

#include <algorithm>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>

#include "src/encode/suite.hpp"
#include "src/obs/trace.hpp"
#include "src/solver/solver.hpp"
#include "src/trace/ascii.hpp"
#include "src/util/table.hpp"
#include "src/util/temp_file.hpp"
#include "src/util/timer.hpp"

int main(int argc, char** argv) {
  using namespace satproof;

  // --trace-out FILE: record per-instance solve spans under an
  // obs::TraceSession and write the Chrome-trace JSON artifact.
  std::string trace_out_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_out_path = argv[++i];
    } else {
      std::cerr << "usage: table1_trace_overhead [--trace-out FILE]\n";
      return 1;
    }
  }
  std::optional<obs::TraceSession> trace_session;
  if (!trace_out_path.empty()) trace_session.emplace();

  util::Table table({"Instance", "Family", "Num. Vars", "Orig. Cls",
                     "Learned Cls", "Trace Off (s)", "Trace On (s)",
                     "Overhead"});

  // Best of three runs per configuration: at generated-suite scale the
  // per-instance runtimes are milliseconds to seconds, so one-shot timing
  // would be dominated by scheduler noise (the paper's instances ran for
  // minutes, where a single measurement suffices). The two configurations
  // alternate run by run (off, on, off, on, ...), so drift of the host
  // over a row's runs falls on both sides instead of reading as overhead.
  constexpr int kRuns = 3;

  double total_off = 0.0, total_on = 0.0;
  for (const auto& inst : encode::unsat_suite(encode::SuiteScale::Standard)) {
    double secs_off = 1e100;
    double secs_on = 1e100;
    std::uint64_t learned = 0;
    for (int run = 0; run < kRuns; ++run) {
      {
        // Trace off: exactly the plain solver.
        obs::Span span("solve_trace_off");
        solver::Solver off;
        off.add_formula(inst.formula);
        util::Timer t_off;
        if (off.solve() != solver::SolveResult::Unsatisfiable) {
          std::cerr << "FATAL: " << inst.name << " not UNSAT\n";
          return 1;
        }
        secs_off = std::min(secs_off, t_off.elapsed_seconds());
      }
      {
        // Trace on: ASCII trace to a real file.
        obs::Span span("solve_trace_on");
        util::TempFile trace_file("table1-trace");
        std::ofstream out(trace_file.path());
        trace::AsciiTraceWriter writer(out);
        solver::Solver on;
        on.add_formula(inst.formula);
        on.set_trace_writer(&writer);
        util::Timer t_on;
        if (on.solve() != solver::SolveResult::Unsatisfiable) {
          std::cerr << "FATAL: " << inst.name << " not UNSAT with trace\n";
          return 1;
        }
        secs_on = std::min(secs_on, t_on.elapsed_seconds());
        learned = on.stats().learned_clauses;
      }
    }

    total_off += secs_off;
    total_on += secs_on;
    table.add_row({inst.name, inst.family,
                   std::to_string(inst.formula.num_vars()),
                   std::to_string(inst.formula.num_clauses()),
                   std::to_string(learned), util::format_double(secs_off, 3),
                   util::format_double(secs_on, 3),
                   util::format_percent(secs_on - secs_off, secs_off)});
  }

  std::cout << "Table 1: zchaff-style solver with trace generation off/on\n"
            << "(paper: 1.7-12% overhead, smaller on harder instances)\n\n"
            << table.to_string() << "\nTotal: trace off "
            << util::format_double(total_off, 2) << "s, trace on "
            << util::format_double(total_on, 2) << "s, overall overhead "
            << util::format_percent(total_on - total_off, total_off) << "\n";

  if (trace_session) {
    obs::flush_this_thread();
    if (!trace_session->sink().write_file(trace_out_path)) {
      std::cerr << "FATAL: cannot write trace " << trace_out_path << "\n";
      return 1;
    }
    std::cout << "Chrome trace written to " << trace_out_path << "\n";
  }
  return 0;
}
