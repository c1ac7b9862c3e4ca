#include "corpus.hpp"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <functional>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "src/cnf/dimacs.hpp"
#include "src/encode/fpga_routing.hpp"
#include "src/encode/parity.hpp"
#include "src/encode/planning.hpp"
#include "src/encode/suite.hpp"
#include "src/solver/solver.hpp"
#include "src/trace/binary.hpp"
#include "src/trace/drup.hpp"
#include "util.hpp"

namespace perfbench {

using satproof::Formula;
namespace encode = satproof::encode;

namespace {

/// Seed of a seeded row: a splitmix64 mix of the committed constant and
/// the run's seed. Every seeded family is UNSAT for any seed (bound one
/// below the BFS optimum, a planted congestion point, an odd total
/// Tseitin charge); the default seed 0 keeps the committed constants.
std::uint64_t row_seed(std::uint64_t committed, std::uint64_t seed) {
  if (seed == 0) return committed;
  std::uint64_t z = committed ^ (seed * 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// blocks_world_random(blocks, -1, ...) for `seed`, drawn again until its
/// plan length matches the committed instance's: the formula's size is a
/// function of blocks and steps alone, so every seed solves and checks a
/// same-sized instance instead of one 2-4x smaller or larger.
Formula blocks_world_row(unsigned blocks, std::uint64_t committed,
                         std::uint64_t seed) {
  auto committed_inst = encode::blocks_world_random(blocks, -1, committed);
  if (seed == 0) return std::move(committed_inst.formula);
  for (std::uint64_t attempt = 0; attempt < 256; ++attempt) {
    auto inst = encode::blocks_world_random(
        blocks, -1, row_seed(committed, seed * 257 + attempt));
    if (inst.steps == committed_inst.steps) return std::move(inst.formula);
  }
  return std::move(committed_inst.formula);
}

/// A row of unsat_suite(SuiteScale::Standard) whose generator takes a
/// seed; `build(0)` must reproduce the committed row.
struct SeededRow {
  const char* name;
  std::function<Formula(std::uint64_t seed)> build;
};

const std::vector<SeededRow>& seeded_rows() {
  static const std::vector<SeededRow> rows = {
      {"bw_rand7",
       [](std::uint64_t s) { return blocks_world_row(7, 3301, s); }},
      {"bw_rand8",
       [](std::uint64_t s) { return blocks_world_row(8, 9907, s); }},
      {"fpga_route_16x7",
       [](std::uint64_t s) {
         return encode::fpga_routing(16, 7, 24, row_seed(7001, s));
       }},
      {"tseitin3x5",
       [](std::uint64_t s) {
         return encode::tseitin_torus(3, 5, row_seed(11027, s));
       }},
      {"tseitin4x5",
       [](std::uint64_t s) {
         return encode::tseitin_torus(4, 5, row_seed(40499, s));
       }},
  };
  return rows;
}

std::string dimacs_text(const Formula& f) {
  std::ostringstream out;
  satproof::dimacs::write(out, f);
  return out.str();
}

/// `row` of the committed suite as drawn for `seed`: the row itself at
/// seed 0 or when its generator takes no seed, else the seeded rebuild.
/// Throws when the rebuild no longer reproduces the committed row.
Formula row_for_seed(const encode::NamedInstance& row, std::uint64_t seed) {
  const auto& seeded = seeded_rows();
  const auto it =
      std::find_if(seeded.begin(), seeded.end(),
                   [&](const auto& r) { return row.name == r.name; });
  if (seed == 0 || it == seeded.end()) return row.formula;
  if (dimacs_text(it->build(0)) != dimacs_text(row.formula)) {
    throw std::runtime_error("seeded rebuild is out of step with "
                             "unsat_suite(Standard)");
  }
  return it->build(seed);
}

void fill_sizes(Pair& p) {
  p.cnf_bytes = file_size(p.cnf);
  p.trace_bytes = file_size(p.trace);
  p.trace_hash = fnv1a_file(p.trace);
}

Corpus set_up_suite(std::uint64_t seed, const std::string& dir) {
  const std::vector<encode::NamedInstance> rows =
      encode::unsat_suite(encode::SuiteScale::Standard);
  for (const SeededRow& r : seeded_rows()) {
    if (std::none_of(rows.begin(), rows.end(),
                     [&](const auto& row) { return row.name == r.name; })) {
      throw std::runtime_error(std::string("unsat_suite(Standard) has no ") +
                               r.name + " row");
    }
  }
  // The pipeline and DRUP stages run on the nine rows up to miter_mult6:
  // the last three hold ~80% of the suite's solve time and php9 alone ~60%
  // of its DRUP time.
  const auto last_solved =
      std::find_if(rows.begin(), rows.end(),
                   [](const auto& r) { return r.name == "miter_mult6"; });
  if (last_solved == rows.end()) {
    throw std::runtime_error("unsat_suite(Standard) has no miter_mult6 row");
  }
  const auto solve_rows =
      static_cast<std::size_t>(last_solved - rows.begin()) + 1;
  std::vector<Pair> pairs(rows.size());
  std::vector<std::string> errors;
  std::mutex errors_mutex;
  // Rows are independent: solve them on four threads, hardest (last)
  // first so the tail does not serialise behind php9.
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (std::size_t k; (k = next.fetch_add(1)) < rows.size();) {
      const std::size_t i = rows.size() - 1 - k;
      Pair& p = pairs[i];
      p.name = rows[i].name;
      p.cnf = dir + "/" + p.name + ".cnf";
      p.trace = dir + "/" + p.name + ".trace";
      if (i < solve_rows) p.drup = dir + "/" + p.name + ".drup";
      try {
        const Formula f = row_for_seed(rows[i], seed);
        satproof::dimacs::write_file(p.cnf, f);
        if (!solve_to_files(f, p.trace, p.drup).unsat) {
          throw std::runtime_error("not UNSAT");
        }
        fill_sizes(p);
      } catch (const std::exception& e) {
        std::lock_guard lock(errors_mutex);
        errors.push_back(p.name + ": " + e.what());
      }
    }
  };
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < 4; ++t) threads.emplace_back(worker);
  }
  if (!errors.empty()) throw std::runtime_error("suite set-up: " + errors[0]);

  Corpus c;
  c.check = pairs;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (i < solve_rows) c.solve.push_back(pairs[i]);
    if (pairs[i].trace_bytes > pairs[c.rss_index].trace_bytes) c.rss_index = i;
  }
  c.window_budget = 4u << 20;  // table2_checkers' budget
  c.open_loop_rate = 16;  // about a third of what 2 workers sustain
  c.closed_rounds = 2;    // 96 jobs, ~2 s
  c.open_rounds = 1;      // 48 jobs, 3 s
  return c;
}

Corpus set_up_bigtrace(std::uint64_t seed, const std::string& dir,
                       const std::string& gen_bigtrace) {
  Pair big;
  big.name = "ladder";
  big.cnf = dir + "/ladder.cnf";
  big.trace = dir + "/ladder.trace";
  // 64 ladders of 1024 rungs: a 16 MiB trace of ~85k derivations and
  // ~5.5M binary-clause resolutions, all reachable from the final
  // conflict. Wide enough that the parallel backend's wavefronts hold 64
  // chains each (4 ladders would serialise it), and a ~2 MB formula so
  // replay, not DIMACS parsing, dominates. Small enough for eight
  // iterations in a run.
  if (!run_process({gen_bigtrace, "-o", big.cnf, "-t", big.trace,
                    "--target-bytes", "16M", "--ladders", "64", "--vars",
                    "1024", "--seed", std::to_string(seed)})) {
    throw std::runtime_error("gen_bigtrace failed");
  }
  const Formula f = satproof::dimacs::parse_file(big.cnf);
  fill_sizes(big);

  // The solver refutes the ladder formula by level-0 propagation alone;
  // its trace and DRUP proof feed the pipeline and DRUP stages.
  Pair solved = big;
  solved.trace = dir + "/ladder.solver.trace";
  solved.drup = dir + "/ladder.drup";
  if (!solve_to_files(f, solved.trace, solved.drup).unsat) {
    throw std::runtime_error("bigtrace set-up: ladder formula not UNSAT");
  }
  fill_sizes(solved);

  Corpus c;
  c.check = {big};
  c.solve = {solved};
  c.window_budget = 2u << 20;  // 8x smaller than the trace
  c.open_loop_rate = 3;  // about half what 2 workers sustain
  c.closed_rounds = 2;   // 8 jobs, ~1.4 s
  c.open_rounds = 1;     // 4 jobs, ~1.6 s
  return c;
}

}  // namespace

Corpus set_up(const std::string& workload, std::uint64_t seed,
              const std::string& dir, const std::string& gen_bigtrace) {
  std::filesystem::create_directories(dir);
  if (workload == "suite") return set_up_suite(seed, dir);
  if (workload == "bigtrace") return set_up_bigtrace(seed, dir, gen_bigtrace);
  throw std::runtime_error("unknown workload '" + workload + "'");
}

SolveOutcome solve_to_files(const Formula& f, const std::string& trace_path,
                            const std::string& drup_path) {
  satproof::solver::Solver solver;
  solver.add_formula(f);
  std::ofstream trace_out;
  std::ofstream drup_out;
  std::optional<satproof::trace::BinaryTraceWriter> trace_writer;
  std::optional<satproof::trace::DrupWriter> drup_writer;
  if (!trace_path.empty()) {
    trace_out.open(trace_path, std::ios::binary | std::ios::trunc);
    trace_writer.emplace(trace_out);
    solver.set_trace_writer(&*trace_writer);
  }
  if (!drup_path.empty()) {
    drup_out.open(drup_path, std::ios::trunc);
    drup_writer.emplace(drup_out);
    solver.set_drup_writer(&*drup_writer);
  }
  SolveOutcome out;
  out.unsat = solver.solve() == satproof::solver::SolveResult::Unsatisfiable;
  out.conflicts = solver.stats().conflicts;
  trace_out.close();
  drup_out.close();
  if ((!trace_path.empty() && !trace_out) ||
      (!drup_path.empty() && !drup_out)) {
    throw std::runtime_error("write failed under " + trace_path);
  }
  return out;
}

std::uint64_t fnv1a_file(const std::string& path) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : read_file(path)) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
  }
  return h;
}

}  // namespace perfbench
