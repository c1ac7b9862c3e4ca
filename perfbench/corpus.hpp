#pragma once

// Workload inputs. Set-up generates every input file from the seed; the
// stages afterwards see only the files, as a user of the CLI or of
// satproofd would.

#include <cstdint>
#include <string>
#include <vector>

#include "src/cnf/formula.hpp"

namespace perfbench {

/// One (CNF, trace) checking job, plus its DRUP proof when it has one.
struct Pair {
  std::string name;
  std::string cnf;
  std::string trace;
  std::string drup;  ///< "" when the row has no DRUP proof
  std::uint64_t cnf_bytes = 0;
  std::uint64_t trace_bytes = 0;
  std::uint64_t trace_hash = 0;  ///< FNV-1a of the trace bytes
};

struct Corpus {
  /// Pairs the checker, certify, RSS and service stages run on.
  std::vector<Pair> check;
  /// Rows the solve -> check -> certify pipeline and DRUP stages run on;
  /// `trace` is the reference solver trace the pipeline must reproduce.
  std::vector<Pair> solve;
  std::size_t rss_index = 0;      ///< check pair the RSS probes run on
  std::size_t window_budget = 0;  ///< window backend memory budget, bytes
  double open_loop_rate = 0;      ///< service open-loop jobs per second
  /// Service rounds (every check pair four times) per service window.
  std::size_t closed_rounds = 1;
  std::size_t open_rounds = 1;
};

/// Generates the inputs of `workload` for `seed` into the empty directory
/// `dir`. `gen_bigtrace` is the path of the ladder-trace generator.
/// Throws std::runtime_error for an unknown workload or when an input
/// cannot be produced.
[[nodiscard]] Corpus set_up(const std::string& workload, std::uint64_t seed,
                            const std::string& dir,
                            const std::string& gen_bigtrace);

struct SolveOutcome {
  bool unsat = false;
  std::uint64_t conflicts = 0;
};

/// Solves `f`, streaming a binary trace to `trace_path` ("" = tracing
/// off) and a DRUP proof to `drup_path` ("" = none).
[[nodiscard]] SolveOutcome solve_to_files(const satproof::Formula& f,
                                          const std::string& trace_path,
                                          const std::string& drup_path);

[[nodiscard]] std::uint64_t fnv1a_file(const std::string& path);

}  // namespace perfbench
