// Sequential vs parallel proof checking on the bundled UNSAT suite:
// wall-clock for the depth-first checker on its default single lane and
// on 1, 2 and 4 lanes (`DepthFirstOptions::jobs`), plus the speedup of 4
// lanes over one. Checking — not solving — is the throughput bottleneck
// at scale, so this is the number the lanes exist to move. Every run also
// cross-checks that the core on lanes is byte-identical to the
// single-lane core.
//
// Note: speedup tracks the machine. On a single-hardware-thread host the
// multi-lane rows measure pure scheduling overhead (expect ~1.0x or
// below). On the suite's CDCL proofs most of the work lies in the trail
// antecedents' cones, which the checker builds as one round on its
// lanes, so the larger rows (php9, tseitin4x5, clique9_c8, miter_mult6)
// gain most; rows whose rounds are small run on the calling thread.

#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "src/checker/depth_first.hpp"
#include "src/encode/suite.hpp"
#include "src/solver/solver.hpp"
#include "src/trace/memory.hpp"
#include "src/util/json.hpp"
#include "src/util/table.hpp"
#include "src/util/timer.hpp"

namespace {

/// One measured instance, kept for the optional JSON dump.
struct Row {
  std::string name;
  std::size_t derivations = 0;
  std::size_t built = 0;
  double df_seconds = 0.0;
  double par_seconds[3] = {0.0, 0.0, 0.0};
};

}  // namespace

int main(int argc, char** argv) {
  using namespace satproof;

  // --quick: the small suite, for CI smoke runs where the point is that
  // the harness works, not the absolute numbers. --json FILE writes the
  // measurements for tools/bench_compare.py.
  bool quick = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::cerr << "usage: parallel_speedup [--quick] [--json FILE]\n";
      return 2;
    }
  }

  util::Table table({"Instance", "Derivs", "Built", "DF (s)",
                     "Par j=1 (s)", "Par j=2 (s)", "Par j=4 (s)",
                     "Speedup j=4"});

  const encode::SuiteScale scale =
      quick ? encode::SuiteScale::Small : encode::SuiteScale::Standard;
  std::vector<Row> rows;
  for (const auto& inst : encode::unsat_suite(scale)) {
    trace::MemoryTraceWriter writer;
    solver::Solver s;
    s.add_formula(inst.formula);
    s.set_trace_writer(&writer);
    if (s.solve() != solver::SolveResult::Unsatisfiable) {
      std::cerr << "FATAL: " << inst.name << " not UNSAT\n";
      return 1;
    }
    const trace::MemoryTrace t = writer.take();

    checker::CheckResult df;
    double df_secs = 0.0;
    {
      trace::MemoryTraceReader reader(t);
      util::Timer timer;
      df = checker::check_depth_first(inst.formula, reader);
      df_secs = timer.elapsed_seconds();
      if (!df.ok) {
        std::cerr << "FATAL: depth-first check failed on " << inst.name
                  << ": " << df.error << "\n";
        return 1;
      }
    }

    double par_secs[3] = {0.0, 0.0, 0.0};
    const unsigned jobs_grid[3] = {1, 2, 4};
    for (int j = 0; j < 3; ++j) {
      trace::MemoryTraceReader reader(t);
      checker::DepthFirstOptions opts;
      opts.jobs = jobs_grid[j];
      util::Timer timer;
      const checker::CheckResult par =
          checker::check_depth_first(inst.formula, reader, opts);
      par_secs[j] = timer.elapsed_seconds();
      if (!par.ok) {
        std::cerr << "FATAL: parallel check failed on " << inst.name << ": "
                  << par.error << "\n";
        return 1;
      }
      if (par.core != df.core) {
        std::cerr << "FATAL: parallel core differs from depth-first on "
                  << inst.name << " at jobs=" << jobs_grid[j] << "\n";
        return 1;
      }
    }

    table.add_row({inst.name, std::to_string(df.stats.total_derivations),
                   std::to_string(df.stats.clauses_built),
                   util::format_double(df_secs, 3),
                   util::format_double(par_secs[0], 3),
                   util::format_double(par_secs[1], 3),
                   util::format_double(par_secs[2], 3),
                   util::format_double(
                       par_secs[2] > 0.0 ? df_secs / par_secs[2] : 0.0, 2)});
    Row row;
    row.name = inst.name;
    row.derivations = df.stats.total_derivations;
    row.built = df.stats.clauses_built;
    row.df_seconds = df_secs;
    for (int j = 0; j < 3; ++j) row.par_seconds[j] = par_secs[j];
    rows.push_back(std::move(row));
  }

  std::cout << "Parallel checking vs sequential depth-first\n"
            << "(hardware threads on this host: "
            << std::thread::hardware_concurrency() << ")\n\n"
            << table.to_string();

  if (json_path.empty()) return 0;

  double tot_df = 0.0, tot_par[3] = {0.0, 0.0, 0.0};
  for (const Row& r : rows) {
    tot_df += r.df_seconds;
    for (int j = 0; j < 3; ++j) tot_par[j] += r.par_seconds[j];
  }
  util::JsonWriter w;
  w.begin_object();
  w.key("bench");
  w.value("parallel_speedup");
  w.key("quick");
  w.value(quick);
  w.key("suite");
  w.value(quick ? "small" : "standard");
  w.key("hardware_threads");
  w.value(static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  w.key("instances");
  w.begin_array();
  for (const Row& r : rows) {
    w.begin_object();
    w.key("name");
    w.value(r.name);
    w.key("derivations");
    w.value(static_cast<std::uint64_t>(r.derivations));
    w.key("clauses_built");
    w.value(static_cast<std::uint64_t>(r.built));
    w.key("df_seconds");
    w.value(r.df_seconds);
    w.key("par1_seconds");
    w.value(r.par_seconds[0]);
    w.key("par2_seconds");
    w.value(r.par_seconds[1]);
    w.key("par4_seconds");
    w.value(r.par_seconds[2]);
    w.end_object();
  }
  w.end_array();
  w.key("totals");
  w.begin_object();
  w.key("df_seconds");
  w.value(tot_df);
  w.key("par1_seconds");
  w.value(tot_par[0]);
  w.key("par2_seconds");
  w.value(tot_par[1]);
  w.key("par4_seconds");
  w.value(tot_par[2]);
  w.end_object();
  w.end_object();
  std::ofstream js(json_path);
  if (!js) {
    std::cerr << "FATAL: cannot open " << json_path << "\n";
    return 1;
  }
  js << w.take() << "\n";
  std::cout << "\nJSON written to " << json_path << "\n";
  return 0;
}
