#include "tools/cli.hpp"

#include <atomic>
#include <cctype>
#include <csignal>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <ostream>
#include <sstream>

#include "src/bmc/counter.hpp"
#include "src/bmc/rotator.hpp"
#include "src/bmc/unroll.hpp"
#include "src/checker/breadth_first.hpp"
#include "src/checker/depth_first.hpp"
#include "src/checker/drup.hpp"
#include "src/circuit/tseitin.hpp"
#include "src/cnf/dimacs.hpp"
#include "src/obs/trace.hpp"
#include "src/cnf/model.hpp"
#include "src/core/unsat_core.hpp"
#include "src/encode/coloring.hpp"
#include "src/encode/fpga_routing.hpp"
#include "src/encode/parity.hpp"
#include "src/encode/pigeonhole.hpp"
#include "src/encode/planning.hpp"
#include "src/encode/random_ksat.hpp"
#include "src/proof/export.hpp"
#include "src/proof/interpolant.hpp"
#include "src/proof/proof_dag.hpp"
#include "src/proof/trim.hpp"
#include "src/service/client.hpp"
#include "src/service/run_check.hpp"
#include "src/service/server.hpp"
#include "src/simplify/pipeline.hpp"
#include "src/solver/solver.hpp"
#include "src/trace/ascii.hpp"
#include "src/trace/binary.hpp"
#include "src/trace/drup.hpp"
#include "src/trace/memory.hpp"
#include "src/util/timer.hpp"

namespace satproof::cli {

namespace {

constexpr const char* kHelp = R"(satproof — SAT solving with independently checkable proofs
(Zhang & Malik, "Validating SAT Solvers Using an Independent
 Resolution-Based Checker", DATE 2003)

usage:
  satproof solve <file.cnf> [options]
      --trace FILE     write the resolution trace (ASCII; --binary for binary)
      --binary         binary trace format
      --check MODE     validate an UNSAT answer in-process:
                       df | bf | parallel | both (parallel is df on
                       all hardware threads)
      --jobs N         lanes for the df check (default: 1; for --check
                       parallel, all hardware threads)
      --core FILE      write the unsatisfiable core as DIMACS
      --minimal-core   shrink the core to a set-minimal one first
      --proof-dot FILE write the proof DAG in graphviz format
      --tracecheck FILE write the proof in tracecheck format
      --model          print the satisfying assignment on SAT
      --stats          print solver statistics
      --assume "LITS"  solve under assumptions (DIMACS literals, e.g. "1 -3");
                       on UNSAT the failed subset is reported, and the trace
                       proves the formula refutes it
      --simplify       SatELite-style preprocessing (subsume / strengthen /
                       eliminate); the trace still checks against the input
                       formula. Not combinable with --assume.
      --minimize       conflict-clause minimization
      --luby           Luby restart schedule
      --no-restarts    disable restarts
      --no-deletion    disable learned-clause deletion
      --budget N       give up after N conflicts
      --drup FILE      also emit a DRUP proof (modern literal-based format)
      --trace-out FILE write a Chrome-trace JSON profile of the run (open
                       in chrome://tracing or Perfetto; docs/OBSERVABILITY.md)
      exit code: 10 SAT, 20 UNSAT, 0 unknown, 1 error

  satproof check <file.cnf> <trace-file> [--checker=MODE] [--jobs=N] [--binary]
                 [--mem-limit=N] [--stats] [--trace-out FILE]
      replay a trace against the formula; exit 0 iff the proof is valid.
      --checker picks the backend: df (default) depth-first resolution
      replay, building independent sub-proofs on --jobs lanes (default
      1; identical verdict, core and stats at any count); parallel is df
      on all hardware threads unless --jobs says otherwise; bf
      breadth-first; hybrid the window replay with no budget (df's
      clauses, bf's use-count release, one trace decode); rup
      cross-validates every derived clause of df's proof DAG by reverse
      unit propagation instead of replaying resolutions; drup
      forward-checks a DRUP proof given as the trace file (rup and drup
      on --jobs workers, default all hardware threads, same verdict at
      any count); window replays the trace in budget-sized windows under
      --mem-limit (verdict, core and stats identical to df at a fraction
      of the memory); auto picks df for small traces and the
      memory-light hybrid for large ones (the selection is recorded in
      the --stats=json "backend" field).
      --mem-limit=N caps checker memory (K/M/G suffixes accepted): it is
      the window and hybrid backends' budget, steers --checker=auto by
      the budget and trace size, and runs df/hybrid requests that would
      not fit as window (see docs/CHECKERS.md). The
      flags --bf, --hybrid and --rup remain as shorthands. --stats
      appends a line with clause-arena traffic (bytes
      allocated/recycled/peak) and total peak checker memory;
      --stats=json emits the same counters as one JSON object (the same
      serializer the service stats reply uses) plus a final "backend" key
      naming the backend that actually ran. Binary traces are detected
      automatically; --binary stays accepted.
      --trace-out FILE writes a Chrome-trace JSON profile with the
      checker's stage spans (parse/index/replay/...).

  satproof export-lrat <file.cnf> <trace-file> -o cert.lrat
                       [--checker=df|parallel|hybrid|window|auto]
                       [--binary-cert] [--mem-limit=N]
      replay the trace (df by default) and stream a hint-annotated LRAT
      certificate of unsatisfiability to the output file; exit 0 iff the
      check passed and the certificate was written. parallel is df on
      all hardware threads; its certificate is the same bytes as df's.
      --binary-cert emits
      the compact binary GRIT-style variant instead of text. --mem-limit
      caps replay memory exactly as for check (window's budget; df and
      hybrid requests that would not fit run as window). Re-verify
      with the independent trusted kernel:  satproof-kern <file.cnf>
      <cert.lrat>  (see docs/CERTIFICATES.md).

  satproof serve (--socket PATH | --tcp PORT | both) [options]
      run satproofd, the batch proof-checking daemon (see docs/SERVICE.md)
      --socket PATH    listen on a unix-domain socket (first-class)
      --tcp PORT       also listen on 127.0.0.1:PORT (0 = ephemeral)
      --workers N      checker worker threads, one clause arena each
                       (default: all hardware threads)
      --queue N        pending-job capacity before BUSY (default 64)
      --timeout-ms N   default per-job wall-clock budget (0 = unlimited)
      --idle-timeout-ms N  drop connections silent this long (default 30000)
      --slow-job-ms N  dump a span-tree profile to stderr for any job
                       slower than N ms (0 = off, the default)
      --mem-limit N    per-worker checker memory cap in bytes (K/M/G
                       suffixes accepted): df/hybrid jobs that would not
                       fit run on the window-shifting backend, certified
                       jobs included, so one huge upload cannot OOM a
                       worker (0 = no cap, the default)
      --certify        re-verify every certified job's LRAT output with
                       the trusted kernel before replying (counted in the
                       satproofd_certified_total metrics)
      SIGTERM/SIGINT drain gracefully: running jobs finish, new work is
      refused, then the daemon prints its job totals and exits 0.

  satproof submit <file.cnf> <trace-file> (--socket PATH | --tcp PORT)
                  [--backend=MODE] [--jobs N] [--wait] [--timeout-ms N]
                  [--certify [--cert-out FILE]]
      submit one checking job to a running daemon. --backend picks
      df | bf | hybrid | parallel | drup | window | rup (default df; drup
      treats the trace argument as a DRUP proof; window replays under
      the daemon's --mem-limit budget). --wait blocks for the verdict and
      exits 0 iff the proof checked out. --certify (df/parallel/hybrid/
      window, implies --wait) asks the daemon for an LRAT certificate,
      delivered in a RESULT_CERT frame; --cert-out saves it to a file.

  satproof stats (--socket PATH | --tcp PORT) [--format=json|prometheus]
      print a running daemon's metrics snapshot (JSON by default;
      --format=prometheus emits Prometheus text exposition)

  satproof core <file.cnf> [--minimal] [--iterations N] [-o FILE]
      extract (and optionally minimize) an unsatisfiable core

  satproof drup <file.cnf> <proof.drup> [check options]
      forward-check a DRUP proof by reverse unit propagation; the same as
      satproof check --checker=drup

  satproof interpolate <file.cnf> --split N [-o FILE.dot]
      solve (UNSAT expected), then derive a Craig interpolant between
      A = clauses [0, N) and B = the rest (McMillan's system); verifies
      both defining properties with the solver and optionally writes the
      interpolant circuit as graphviz

  satproof trim <trace-in> <trace-out> [--binary]
      drop trace derivations unreachable from the final conflict; the
      trimmed trace checks against the same formula

  satproof gen <family> <params...> -o FILE    generate a benchmark CNF
      php H                     pigeonhole, H holes
      tseitin R C SEED          parity contradiction on an RxC torus
      ksat N M K SEED           random k-SAT
      routing NETS TRACKS COLS SEED   congested FPGA channel
      bw BLOCKS DELTA SEED      blocks world, bound = optimal+DELTA
      coloring N COLORS         clique coloring
      rotator WIDTH K           BMC of the one-hot rotator, bound K
      counter WIDTH BAD K       BMC of the gated counter, bound K

  satproof help
)";

/// Thrown for user-facing argument/IO errors.
class CliError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Scoped --trace-out support: installs an obs::TraceSession for the
/// command's lifetime and writes the Chrome-trace JSON file at scope exit
/// (on every return path, including errors).
class ScopedTraceOut {
 public:
  ScopedTraceOut(const std::optional<std::string>& path, std::ostream& err)
      : err_(err) {
    if (path) {
      path_ = *path;
      session_.emplace();
    }
  }

  ~ScopedTraceOut() {
    if (!session_) return;
    const std::shared_ptr<obs::TraceSink> sink = session_->sink_ptr();
    session_.reset();  // flushes this thread and uninstalls the sink
    if (!sink->write_file(path_)) {
      err_ << "error: cannot write trace file " << path_ << "\n";
    }
  }

  ScopedTraceOut(const ScopedTraceOut&) = delete;
  ScopedTraceOut& operator=(const ScopedTraceOut&) = delete;

 private:
  std::ostream& err_;
  std::string path_;
  std::optional<obs::TraceSession> session_;
};

std::uint64_t parse_u64(const std::string& s, const char* what) {
  try {
    std::size_t pos = 0;
    const unsigned long long v = std::stoull(s, &pos);
    if (pos != s.size()) throw std::invalid_argument(s);
    return v;
  } catch (const std::exception&) {
    throw CliError(std::string("expected a number for ") + what + ", got '" +
                   s + "'");
  }
}

/// Byte count with an optional K/M/G suffix (powers of 1024), e.g.
/// "256M", "4G", "65536". Case-insensitive; a trailing "B"/"iB" is
/// accepted ("256MiB").
std::uint64_t parse_byte_size(const std::string& s, const char* what) {
  std::size_t pos = 0;
  unsigned long long v = 0;
  try {
    v = std::stoull(s, &pos);
  } catch (const std::exception&) {
    pos = 0;
  }
  std::string suffix = s.substr(pos);
  for (char& c : suffix) c = static_cast<char>(std::tolower(c));
  std::uint64_t shift = 0;
  if (suffix == "k" || suffix == "kb" || suffix == "kib") shift = 10;
  else if (suffix == "m" || suffix == "mb" || suffix == "mib") shift = 20;
  else if (suffix == "g" || suffix == "gb" || suffix == "gib") shift = 30;
  else if (!suffix.empty() || pos == 0) {
    throw CliError(std::string("expected a byte size for ") + what +
                   " (e.g. 268435456, 256M, 4G), got '" + s + "'");
  }
  if (shift != 0 && v > (std::numeric_limits<std::uint64_t>::max() >> shift)) {
    throw CliError(std::string("byte size for ") + what + " overflows: '" +
                   s + "'");
  }
  return static_cast<std::uint64_t>(v) << shift;
}

std::int64_t parse_i64(const std::string& s, const char* what) {
  try {
    std::size_t pos = 0;
    const long long v = std::stoll(s, &pos);
    if (pos != s.size()) throw std::invalid_argument(s);
    return v;
  } catch (const std::exception&) {
    throw CliError(std::string("expected a number for ") + what + ", got '" +
                   s + "'");
  }
}

/// Simple option cursor over the argument vector.
class Args {
 public:
  explicit Args(std::vector<std::string> args) : args_(std::move(args)) {}

  [[nodiscard]] bool empty() const { return pos_ >= args_.size(); }

  std::string next(const char* what) {
    if (empty()) throw CliError(std::string("missing ") + what);
    return args_[pos_++];
  }

  /// Consumes `flag` if present anywhere in the remaining args.
  bool take_flag(const std::string& flag) {
    for (std::size_t i = pos_; i < args_.size(); ++i) {
      if (args_[i] == flag) {
        args_.erase(args_.begin() + static_cast<std::ptrdiff_t>(i));
        return true;
      }
    }
    return false;
  }

  /// Consumes `--opt VALUE` or `--opt=VALUE` if present; returns the value.
  std::optional<std::string> take_option(const std::string& opt) {
    for (std::size_t i = pos_; i < args_.size(); ++i) {
      if (args_[i] == opt) {
        if (i + 1 >= args_.size()) {
          throw CliError("option " + opt + " needs a value");
        }
        std::string value = args_[i + 1];
        args_.erase(args_.begin() + static_cast<std::ptrdiff_t>(i),
                    args_.begin() + static_cast<std::ptrdiff_t>(i) + 2);
        return value;
      }
      if (args_[i].size() > opt.size() + 1 &&
          args_[i].compare(0, opt.size(), opt) == 0 &&
          args_[i][opt.size()] == '=') {
        std::string value = args_[i].substr(opt.size() + 1);
        args_.erase(args_.begin() + static_cast<std::ptrdiff_t>(i));
        return value;
      }
    }
    return std::nullopt;
  }

  void expect_done() {
    if (!empty()) throw CliError("unexpected argument '" + args_[pos_] + "'");
  }

 private:
  std::vector<std::string> args_;
  std::size_t pos_ = 0;
};

/// `--mem-limit N` / `--mem-limit=N` (K/M/G suffixes accepted); 0 when
/// absent.
std::size_t take_mem_limit(Args& args) {
  const auto v = args.take_option("--mem-limit");
  if (!v) return 0;
  const auto bytes =
      static_cast<std::size_t>(parse_byte_size(*v, "--mem-limit"));
  if (bytes == 0) throw CliError("--mem-limit must be non-zero");
  return bytes;
}

/// `--jobs N` / `--jobs=N`, at least 1; 0 when absent.
unsigned take_jobs(Args& args) {
  const auto v = args.take_option("--jobs");
  if (!v) return 0;
  const auto jobs = static_cast<unsigned>(parse_u64(*v, "--jobs"));
  if (jobs == 0) throw CliError("--jobs must be at least 1");
  return jobs;
}

/// The backend `mode` names for check and export-lrat: `auto` picks from
/// the trace size and the budget (select_backend_for_budget, which
/// run_check re-applies to explicit df/hybrid requests), and df on more
/// than one lane is parallel.
service::Backend resolve_backend(const std::string& mode,
                                 const std::string& trace_path,
                                 std::size_t mem_limit, unsigned jobs) {
  const service::Backend backend =
      mode == "auto" ? service::select_backend_for_budget(
                           service::trace_file_bytes(trace_path), mem_limit)
                     : *service::backend_from_name(mode);
  return backend == service::Backend::kDf && jobs > 1
             ? service::Backend::kParallel
             : backend;
}

void write_formula_file(const std::string& path, const Formula& f,
                        const std::string& comment) {
  dimacs::write_file(path, f, comment);
}

std::unique_ptr<trace::TraceReader> open_trace_reader(std::ifstream& in,
                                                      bool binary) {
  if (binary) return std::make_unique<trace::BinaryTraceReader>(in);
  return std::make_unique<trace::AsciiTraceReader>(in);
}

// ----------------------------------------------------------------- solve

int cmd_solve(Args args, std::ostream& out, std::ostream& err) {
  solver::SolverOptions opts;
  const bool simplify_wanted = args.take_flag("--simplify");
  if (args.take_flag("--minimize")) opts.minimize_learned = true;
  if (args.take_flag("--luby")) {
    opts.restart_schedule = solver::SolverOptions::RestartSchedule::Luby;
  }
  if (args.take_flag("--no-restarts")) opts.enable_restarts = false;
  if (args.take_flag("--no-deletion")) opts.enable_clause_deletion = false;
  if (const auto v = args.take_option("--budget")) {
    opts.conflict_budget = parse_u64(*v, "--budget");
  }
  const bool binary = args.take_flag("--binary");
  const auto trace_path = args.take_option("--trace");
  const auto check_mode = args.take_option("--check");
  const unsigned jobs = take_jobs(args);
  const auto core_path = args.take_option("--core");
  const bool minimal_core_wanted = args.take_flag("--minimal-core");
  const auto dot_path = args.take_option("--proof-dot");
  const auto tracecheck_path = args.take_option("--tracecheck");
  const bool want_stats = args.take_flag("--stats");
  const bool want_model = args.take_flag("--model");
  const auto drup_path = args.take_option("--drup");
  const auto trace_out_path = args.take_option("--trace-out");
  std::vector<Lit> assumptions;
  if (const auto a = args.take_option("--assume")) {
    std::istringstream as(*a);
    std::int64_t d = 0;
    while (as >> d) {
      if (d == 0) throw CliError("--assume literals must be non-zero");
      assumptions.push_back(Lit::from_dimacs(d));
    }
    if (!as.eof()) throw CliError("--assume expects DIMACS literals");
    if (assumptions.empty()) throw CliError("--assume got no literals");
  }
  const std::string cnf_path = args.next("CNF file");
  args.expect_done();
  ScopedTraceOut scoped_trace(trace_out_path, err);

  if (check_mode && *check_mode != "df" && *check_mode != "bf" &&
      *check_mode != "parallel" && *check_mode != "both") {
    throw CliError("--check expects df, bf, parallel or both");
  }

  const Formula f = dimacs::parse_file(cnf_path);
  out << "c " << cnf_path << ": " << f.num_vars() << " vars, "
      << f.num_clauses() << " clauses\n";

  // The in-memory trace feeds checking/core/proof work; an optional file
  // trace is written simultaneously.
  trace::MemoryTraceWriter memory_writer;
  std::ofstream trace_out;
  std::unique_ptr<trace::TraceWriter> file_writer;
  struct Tee final : trace::TraceWriter {
    trace::TraceWriter* a = nullptr;
    trace::TraceWriter* b = nullptr;
    void begin(Var v, ClauseId o) override {
      a->begin(v, o);
      if (b != nullptr) b->begin(v, o);
    }
    void derivation(ClauseId id, std::span<const ClauseId> s) override {
      a->derivation(id, s);
      if (b != nullptr) b->derivation(id, s);
    }
    void final_conflict(ClauseId id) override {
      a->final_conflict(id);
      if (b != nullptr) b->final_conflict(id);
    }
    void level0(Var v, bool val, ClauseId ante) override {
      a->level0(v, val, ante);
      if (b != nullptr) b->level0(v, val, ante);
    }
    void assumption(Var v, bool val) override {
      a->assumption(v, val);
      if (b != nullptr) b->assumption(v, val);
    }
    void end() override {
      a->end();
      if (b != nullptr) b->end();
    }
  } tee;
  tee.a = &memory_writer;
  if (trace_path) {
    trace_out.open(*trace_path,
                   binary ? std::ios::out | std::ios::binary : std::ios::out);
    if (!trace_out) throw CliError("cannot open trace file " + *trace_path);
    if (binary) {
      file_writer = std::make_unique<trace::BinaryTraceWriter>(trace_out);
    } else {
      file_writer = std::make_unique<trace::AsciiTraceWriter>(trace_out);
    }
    tee.b = file_writer.get();
  }

  solver::SolveResult res = solver::SolveResult::Unknown;
  Model model;
  std::vector<Lit> failed_assumptions;
  util::Timer timer;
  if (simplify_wanted) {
    if (!assumptions.empty()) {
      throw CliError("--simplify cannot be combined with --assume");
    }
    if (drup_path) {
      throw CliError("--simplify cannot be combined with --drup");
    }
    const simplify::SimplifiedSolveResult pres =
        simplify::solve_simplified(f, opts, {}, &tee);
    res = pres.result;
    model = pres.model;
    const auto& ps = pres.preprocess_stats;
    out << "c preprocessing: " << ps.eliminated_vars
        << " vars eliminated, " << ps.subsumed << " subsumed, "
        << ps.strengthened << " strengthened, " << ps.resolvents_added
        << " resolvents\n";
    if (want_stats) {
      const auto& st = pres.solver_stats;
      out << "c time " << timer.elapsed_seconds() << "s, decisions "
          << st.decisions << ", conflicts " << st.conflicts << ", learned "
          << st.learned_clauses << "\n";
    }
  } else {
    solver::Solver solver(opts);
    solver.add_formula(f);
    solver.set_trace_writer(&tee);
    std::ofstream drup_out;
    std::unique_ptr<trace::DrupWriter> drup_writer;
    if (drup_path) {
      drup_out.open(*drup_path);
      if (!drup_out) throw CliError("cannot open DRUP file " + *drup_path);
      drup_writer = std::make_unique<trace::DrupWriter>(drup_out);
      solver.set_drup_writer(drup_writer.get());
    }
    res = solver.solve(assumptions);
    if (res == solver::SolveResult::Satisfiable) model = solver.model();
    failed_assumptions = solver.failed_assumptions();
    if (want_stats) {
      const auto& st = solver.stats();
      out << "c time " << timer.elapsed_seconds() << "s, decisions "
          << st.decisions << ", conflicts " << st.conflicts
          << ", propagations " << st.propagations << ", learned "
          << st.learned_clauses << ", deleted " << st.deleted_clauses
          << ", restarts " << st.restarts << ", minimized-lits "
          << st.minimized_literals << "\n";
    }
  }

  if (res == solver::SolveResult::Satisfiable) {
    out << "s SATISFIABLE\n";
    if (!satisfies(f, model)) {
      err << "INTERNAL ERROR: model verification failed\n";
      return kExitError;
    }
    out << "c model verified\n";
    if (want_model) {
      out << "v ";
      for (Var v = 0; v < f.num_vars(); ++v) {
        out << (model[v] == LBool::True ? static_cast<std::int64_t>(v) + 1
                                        : -(static_cast<std::int64_t>(v) + 1))
            << ' ';
      }
      out << "0\n";
    }
    return kExitSat;
  }
  if (res == solver::SolveResult::Unknown) {
    out << "s UNKNOWN\n";
    return kExitUnknown;
  }

  out << "s UNSATISFIABLE\n";
  if (!failed_assumptions.empty()) {
    out << "c failed assumptions:";
    for (const Lit l : failed_assumptions) {
      out << ' ' << l.to_dimacs();
    }
    out << "\n";
  } else if (!assumptions.empty()) {
    out << "c unsatisfiable regardless of the assumptions\n";
  }
  const trace::MemoryTrace t = memory_writer.take();

  std::optional<checker::CheckResult> df_result;
  if (check_mode && *check_mode != "bf") {
    // parallel is df on --jobs lanes, all hardware threads by default.
    const bool parallel = *check_mode == "parallel";
    const char* name = parallel ? "parallel" : "depth-first";
    trace::MemoryTraceReader reader(t);
    util::Timer ct;
    checker::DepthFirstOptions dopts;
    dopts.jobs = jobs != 0 ? jobs : parallel ? 0 : 1;
    df_result = checker::check_depth_first(f, reader, dopts);
    if (!df_result->ok) {
      err << "PROOF CHECK FAILED (" << name << "): " << df_result->error
          << "\n";
      return kExitError;
    }
    out << "c " << name << " check ok in " << ct.elapsed_seconds() << "s ("
        << df_result->stats.clauses_built << "/"
        << df_result->stats.total_derivations << " clauses built)\n";
  }
  if (check_mode && (*check_mode == "bf" || *check_mode == "both")) {
    trace::MemoryTraceReader reader(t);
    util::Timer ct;
    const checker::CheckResult bf = checker::check_breadth_first(f, reader);
    if (!bf.ok) {
      err << "PROOF CHECK FAILED (breadth-first): " << bf.error << "\n";
      return kExitError;
    }
    out << "c breadth-first check ok in " << ct.elapsed_seconds() << "s\n";
  }
  if (core_path) {
    std::vector<ClauseId> ids;
    if (minimal_core_wanted) {
      const core::MinimalCore mc = core::minimal_core(f, opts);
      if (!mc.ok) throw CliError("core minimization failed: " + mc.error);
      ids = mc.core_ids;
      out << "c minimal core: " << ids.size() << " clauses ("
          << mc.solver_calls << " solver calls)\n";
    } else {
      if (!df_result) {
        trace::MemoryTraceReader reader(t);
        df_result = checker::check_depth_first(f, reader);
        if (!df_result->ok) {
          throw CliError("core extraction failed: " + df_result->error);
        }
      }
      ids = df_result->core;
      out << "c proof core: " << ids.size() << " clauses\n";
    }
    write_formula_file(*core_path, f.subformula(ids),
                       "unsatisfiable core of " + cnf_path);
  }

  if (dot_path || tracecheck_path) {
    trace::MemoryTraceReader reader(t);
    const proof::ProofDag dag = proof::extract_proof(f, reader);
    const proof::ProofStats st = proof::compute_stats(dag);
    out << "c proof DAG: " << st.leaves << " leaves, " << st.derived
        << " derived, depth " << st.depth << ", " << st.resolutions
        << " resolutions\n";
    if (dot_path) {
      std::ofstream dot(*dot_path);
      if (!dot) throw CliError("cannot open " + *dot_path);
      proof::write_dot(dot, dag);
    }
    if (tracecheck_path) {
      std::ofstream tc(*tracecheck_path);
      if (!tc) throw CliError("cannot open " + *tracecheck_path);
      proof::write_tracecheck(tc, dag);
    }
  }
  return kExitUnsat;
}

// ----------------------------------------------------------------- check

int cmd_check(Args args, std::ostream& out, std::ostream& err) {
  const bool use_bf = args.take_flag("--bf");
  const bool use_hybrid = args.take_flag("--hybrid");
  const bool use_rup = args.take_flag("--rup");
  (void)args.take_flag("--binary");  // accepted; run_check reads the magic
  bool want_stats = args.take_flag("--stats");
  bool stats_json = false;
  if (const auto v = args.take_option("--stats")) {
    if (*v != "json") throw CliError("--stats only supports --stats=json");
    want_stats = true;
    stats_json = true;
  }
  const auto checker_opt = args.take_option("--checker");
  const auto trace_out_path = args.take_option("--trace-out");
  const unsigned jobs = take_jobs(args);
  const std::size_t mem_limit = take_mem_limit(args);
  const std::string cnf_path = args.next("CNF file");
  const std::string trace_path = args.next("trace file");
  args.expect_done();
  ScopedTraceOut scoped_trace(trace_out_path, err);
  if (use_bf + use_hybrid + use_rup + checker_opt.has_value() > 1) {
    throw CliError("pick at most one of --checker, --bf, --hybrid, --rup");
  }
  std::string mode = use_bf       ? "bf"
                     : use_hybrid ? "hybrid"
                     : use_rup    ? "rup"
                                  : checker_opt.value_or("df");
  if (mode != "auto" && !service::backend_from_name(mode)) {
    throw CliError(
        "--checker expects df, bf, hybrid, rup, drup, parallel, window or "
        "auto");
  }
  if (mem_limit != 0 && (mode == "rup" || mode == "drup")) {
    throw CliError("--mem-limit does not apply to the " + mode + " checker");
  }

  util::Timer timer;
  // Every backend goes through the same dispatch as the service daemon,
  // so a CLI verdict and a `satproof submit` verdict come from one code path.
  // Binary traces are detected by their magic; --binary stays accepted as a
  // no-op for compatibility.
  const service::Backend backend =
      resolve_backend(mode, trace_path, mem_limit, jobs);
  const service::JobOutcome result = service::run_check(
      cnf_path, trace_path, backend, jobs, nullptr, {}, mem_limit);
  if (result.ok) {
    if (backend == service::Backend::kDrup) {
      out << "VERIFIED (DRUP): " << result.drup_clauses_checked
          << " clauses, " << result.drup_deletions << " deletions, "
          << result.drup_propagations << " propagations, "
          << timer.elapsed_seconds() << "s\n";
    } else if (backend == service::Backend::kRup) {
      out << "VERIFIED (RUP): " << result.drup_clauses_checked
          << " derived clauses re-derived by unit propagation ("
          << result.drup_propagations << " propagations, "
          << timer.elapsed_seconds() << "s)\n";
    } else if (result.failed_assumption_clause.empty()) {
      out << "VERIFIED: valid resolution proof of unsatisfiability ("
          << result.stats.resolutions << " resolutions, "
          << timer.elapsed_seconds() << "s)\n";
    } else {
      out << "VERIFIED: the formula refutes the assumption subset { ";
      for (const Lit l : result.failed_assumption_clause) {
        out << (~l).to_dimacs() << ' ';
      }
      out << "} (" << result.stats.resolutions << " resolutions, "
          << timer.elapsed_seconds() << "s)\n";
    }
    if (stats_json) {
      // The backend field reports what actually ran, so `--checker=auto`
      // records accurate certificate/stats provenance.
      out << service::check_stats_json(result) << "\n";
    } else if (want_stats && (backend == service::Backend::kDrup ||
                              backend == service::Backend::kRup)) {
      out << "stats: " << result.drup_clauses_checked
          << " clauses checked, " << result.drup_deletions << " deletions, "
          << result.drup_propagations << " propagations\n";
    } else if (want_stats) {
      const checker::CheckStats& st = result.stats;
      out << "stats: arena " << st.arena_allocated_bytes
          << " bytes allocated, " << st.arena_recycled_bytes
          << " recycled, " << st.arena_peak_bytes << " peak; "
          << st.peak_mem_bytes << " bytes peak total\n";
    }
    return 0;
  }
  err << "CHECK FAILED: " << result.error << "\n";
  return kExitError;
}

// ----------------------------------------------------------- export-lrat

int cmd_export_lrat(Args args, std::ostream& out, std::ostream& err) {
  const auto out_path = args.take_option("-o");
  if (!out_path) throw CliError("export-lrat requires -o FILE");
  const bool binary_cert = args.take_flag("--binary-cert");
  std::string mode = "df";
  if (const auto v = args.take_option("--checker")) {
    const auto b = service::backend_from_name(*v);
    if (*v != "auto" && !(b && service::can_certify(*b))) {
      throw CliError(
          "export-lrat --checker expects df, parallel, hybrid, window or "
          "auto");
    }
    mode = *v;
  }
  const auto trace_out_path = args.take_option("--trace-out");
  const std::size_t mem_limit = take_mem_limit(args);
  const std::string cnf_path = args.next("CNF file");
  const std::string trace_path = args.next("trace file");
  args.expect_done();
  ScopedTraceOut scoped_trace(trace_out_path, err);

  const service::Backend backend =
      resolve_backend(mode, trace_path, mem_limit, 1);
  std::ofstream cert_out(*out_path, binary_cert
                                        ? std::ios::out | std::ios::binary
                                        : std::ios::out);
  if (!cert_out) throw CliError("cannot open certificate file " + *out_path);

  util::Timer timer;
  service::CertOptions copts;
  copts.sink = &cert_out;
  copts.binary = binary_cert;
  const service::JobOutcome result = service::run_check(
      cnf_path, trace_path, backend, 0, nullptr, copts, mem_limit);
  if (!result.ok) {
    err << "EXPORT FAILED: " << result.error << "\n";
    return kExitError;
  }
  out << "exported LRAT certificate (" << service::backend_name(result.backend)
      << " replay): " << result.cert_additions << " additions, "
      << result.cert_deletions << " deletions -> " << *out_path << " ("
      << timer.elapsed_seconds() << "s)\n"
      << "verify independently with: satproof-kern " << cnf_path << " "
      << *out_path << "\n";
  return 0;
}

// ------------------------------------------------------------------ core

int cmd_core(Args args, std::ostream& out, std::ostream&) {
  const bool minimal = args.take_flag("--minimal");
  std::size_t iterations = 30;
  if (const auto v = args.take_option("--iterations")) {
    iterations = parse_u64(*v, "--iterations");
  }
  const auto out_path = args.take_option("-o");
  const std::string cnf_path = args.next("CNF file");
  args.expect_done();

  const Formula f = dimacs::parse_file(cnf_path);
  Formula result_core;
  if (minimal) {
    const core::MinimalCore mc = core::minimal_core(f);
    if (!mc.ok) throw CliError(mc.error);
    out << "minimal core: " << mc.core_ids.size() << " of "
        << f.num_clauses() << " clauses (" << mc.solver_calls
        << " solver calls)\n";
    result_core = mc.core;
  } else {
    const core::CoreIteration it = core::iterate_core(f, iterations);
    if (!it.ok) throw CliError(it.error);
    out << "core sizes:";
    for (const auto& step : it.steps) out << ' ' << step.num_clauses;
    out << (it.fixed_point ? " (fixed point)\n" : " (iteration cap)\n");
    result_core = it.final_core;
  }
  if (out_path) {
    write_formula_file(*out_path, result_core,
                       "unsatisfiable core of " + cnf_path);
    out << "core written to " << *out_path << "\n";
  }
  return 0;
}

// ----------------------------------------------------------------- serve

/// Server the signal handler drains; set only while `serve` is running.
std::atomic<service::Server*> g_signal_server{nullptr};

extern "C" void satproof_handle_drain_signal(int) {
  service::Server* server = g_signal_server.load(std::memory_order_acquire);
  if (server != nullptr) server->notify_drain_from_signal();
}

int cmd_serve(Args args, std::ostream& out, std::ostream&) {
  service::ServerOptions opts;
  if (const auto v = args.take_option("--socket")) opts.unix_socket_path = *v;
  if (const auto v = args.take_option("--tcp")) {
    opts.enable_tcp = true;
    opts.tcp_port = static_cast<std::uint16_t>(parse_u64(*v, "--tcp"));
  }
  if (const auto v = args.take_option("--workers")) {
    opts.workers = static_cast<unsigned>(parse_u64(*v, "--workers"));
    if (opts.workers == 0) throw CliError("--workers must be at least 1");
  }
  if (const auto v = args.take_option("--queue")) {
    opts.queue_capacity = parse_u64(*v, "--queue");
    if (opts.queue_capacity == 0) throw CliError("--queue must be at least 1");
  }
  if (const auto v = args.take_option("--timeout-ms")) {
    opts.default_timeout_ms =
        static_cast<std::uint32_t>(parse_u64(*v, "--timeout-ms"));
  }
  if (const auto v = args.take_option("--idle-timeout-ms")) {
    opts.idle_timeout_ms =
        static_cast<std::uint32_t>(parse_u64(*v, "--idle-timeout-ms"));
  }
  if (const auto v = args.take_option("--slow-job-ms")) {
    opts.slow_job_ms = static_cast<std::uint32_t>(parse_u64(*v, "--slow-job-ms"));
  }
  opts.mem_limit_bytes = take_mem_limit(args);
  opts.certify = args.take_flag("--certify");
  args.expect_done();
  if (opts.unix_socket_path.empty() && !opts.enable_tcp) {
    throw CliError("serve needs --socket PATH and/or --tcp PORT");
  }

  service::Server server(opts);
  server.start();
  out << "c satproofd listening";
  if (!opts.unix_socket_path.empty()) {
    out << " on " << opts.unix_socket_path;
  }
  if (opts.enable_tcp) out << " (tcp 127.0.0.1:" << server.tcp_port() << ")";
  out << ", " << server.worker_count() << " workers, queue "
      << opts.queue_capacity << "\n";
  out.flush();

  g_signal_server.store(&server, std::memory_order_release);
  std::signal(SIGTERM, &satproof_handle_drain_signal);
  std::signal(SIGINT, &satproof_handle_drain_signal);
  server.wait_until_drained();
  std::signal(SIGTERM, SIG_DFL);
  std::signal(SIGINT, SIG_DFL);
  g_signal_server.store(nullptr, std::memory_order_release);

  const service::ServerMetrics& m = server.metrics();
  out << "c satproofd drained: " << m.accepted.value() << " accepted, "
      << m.completed.value() << " completed, " << m.failed.value()
      << " failed, " << m.timed_out.value() << " timed out, "
      << m.certified.value() << " certified\n";
  return 0;
}

// ---------------------------------------------------------------- submit

service::Client connect_client(Args& args) {
  const auto socket_path = args.take_option("--socket");
  const auto tcp_port = args.take_option("--tcp");
  if (socket_path.has_value() == tcp_port.has_value()) {
    throw CliError("pick exactly one of --socket PATH or --tcp PORT");
  }
  if (socket_path) return service::Client::connect_unix(*socket_path);
  return service::Client::connect_tcp(
      static_cast<std::uint16_t>(parse_u64(*tcp_port, "--tcp")));
}

int cmd_submit(Args args, std::ostream& out, std::ostream& err) {
  service::Backend backend = service::Backend::kDf;
  if (const auto v = args.take_option("--backend")) {
    const auto parsed = service::backend_from_name(*v);
    if (!parsed) {
      throw CliError(
          "--backend expects df, bf, hybrid, parallel, drup, window or rup");
    }
    backend = *parsed;
  }
  unsigned jobs = 0;
  if (const auto v = args.take_option("--jobs")) {
    jobs = static_cast<unsigned>(parse_u64(*v, "--jobs"));
  }
  std::uint32_t timeout_ms = 0;
  if (const auto v = args.take_option("--timeout-ms")) {
    timeout_ms = static_cast<std::uint32_t>(parse_u64(*v, "--timeout-ms"));
  }
  bool wait = args.take_flag("--wait");
  const bool certify = args.take_flag("--certify");
  const auto cert_out_path = args.take_option("--cert-out");
  if (certify) wait = true;  // the certificate rides the result path
  if (cert_out_path && !certify) {
    throw CliError("--cert-out requires --certify");
  }
  service::Client client = connect_client(args);
  const std::string cnf_path = args.next("CNF file");
  const std::string trace_path = args.next("trace file");
  args.expect_done();

  const service::Client::SubmitReply reply = client.submit(
      cnf_path, trace_path, backend, wait, jobs, timeout_ms, certify);
  if (!reply.transport_ok) {
    err << "error: " << reply.error << "\n";
    return kExitError;
  }
  if (reply.busy) {
    err << "BUSY: job queue is full, retry later\n";
    return kExitError;
  }
  if (!reply.accepted) {
    err << "REJECTED: " << reply.error << "\n";
    return kExitError;
  }
  out << "job " << reply.job_id << " accepted\n";
  if (!wait) return 0;
  if (!reply.have_result) {
    err << "error: connection closed before the result arrived\n";
    return kExitError;
  }
  if (reply.status == service::JobStatus::kOk) {
    out << reply.verdict << "\n";
    if (certify) {
      if (!reply.have_certificate) {
        err << "error: ok certify result arrived without a certificate\n";
        return kExitError;
      }
      if (cert_out_path) {
        std::ofstream cert_file(*cert_out_path,
                                std::ios::out | std::ios::binary);
        cert_file.write(reply.certificate.data(),
                        static_cast<std::streamsize>(
                            reply.certificate.size()));
        if (!cert_file) {
          err << "error: cannot write " << *cert_out_path << "\n";
          return kExitError;
        }
        out << "certificate: " << reply.certificate.size() << " bytes -> "
            << *cert_out_path << "\n";
      } else {
        out << "certificate: " << reply.certificate.size()
            << " bytes (use --cert-out FILE to save)\n";
      }
    }
    return 0;
  }
  err << reply.verdict << "\n";
  return kExitError;
}

int cmd_stats(Args args, std::ostream& out, std::ostream& err) {
  std::string format = "json";
  if (const auto v = args.take_option("--format")) {
    if (*v != "json" && *v != "prometheus") {
      throw CliError("--format expects json or prometheus");
    }
    format = *v;
  }
  service::Client client = connect_client(args);
  args.expect_done();
  std::string error;
  const std::string body = format == "prometheus"
                               ? client.stats_prometheus(&error)
                               : client.stats_json(&error);
  if (body.empty()) {
    err << "error: " << error << "\n";
    return kExitError;
  }
  out << body;
  if (format == "json") out << "\n";
  return 0;
}

// ------------------------------------------------------------ interpolate

int cmd_interpolate(Args args, std::ostream& out, std::ostream& err) {
  const auto split_opt = args.take_option("--split");
  if (!split_opt) throw CliError("interpolate requires --split N");
  const auto out_path = args.take_option("-o");
  const std::string cnf_path = args.next("CNF file");
  args.expect_done();

  const Formula f = dimacs::parse_file(cnf_path);
  const std::uint64_t split = parse_u64(*split_opt, "--split");
  if (split > f.num_clauses()) {
    throw CliError("--split exceeds the clause count");
  }
  std::vector<bool> in_a(f.num_clauses(), false);
  for (ClauseId id = 0; id < split; ++id) in_a[id] = true;

  solver::Solver s;
  s.add_formula(f);
  trace::MemoryTraceWriter w;
  s.set_trace_writer(&w);
  if (s.solve() != solver::SolveResult::Unsatisfiable) {
    err << "formula is not unsatisfiable; no interpolant exists\n";
    return kExitError;
  }
  const trace::MemoryTrace t = w.take();
  trace::MemoryTraceReader reader(t);
  const proof::ProofDag dag = proof::extract_proof(f, reader);
  const proof::Interpolant itp = proof::mcmillan_interpolant(f, dag, in_a);
  out << "interpolant: " << itp.netlist.num_wires() << " wires over "
      << itp.bindings.size() << " shared variables\n";

  // Verify both defining properties before reporting success.
  std::vector<ClauseId> a_ids, b_ids;
  for (ClauseId id = 0; id < f.num_clauses(); ++id) {
    (in_a[id] ? a_ids : b_ids).push_back(id);
  }
  {
    Formula q = f.subformula(a_ids);
    const auto var_of = circuit::tseitin_into(q, itp.netlist, itp.bindings);
    q.add_clause({Lit::neg(var_of[itp.output])});
    solver::Solver check;
    check.add_formula(q);
    if (check.solve() != solver::SolveResult::Unsatisfiable) {
      err << "INTERNAL ERROR: A does not imply the interpolant\n";
      return kExitError;
    }
  }
  {
    Formula q = f.subformula(b_ids);
    if (f.num_vars() > 0) q.ensure_var(f.num_vars() - 1);
    const auto var_of = circuit::tseitin_into(q, itp.netlist, itp.bindings);
    q.add_clause({Lit::pos(var_of[itp.output])});
    solver::Solver check;
    check.add_formula(q);
    if (check.solve() != solver::SolveResult::Unsatisfiable) {
      err << "INTERNAL ERROR: interpolant does not refute B\n";
      return kExitError;
    }
  }
  out << "verified: A implies I, and I refutes B\n";

  if (out_path) {
    // Render the interpolant circuit by wrapping it in a tiny proof-free
    // netlist dump: reuse the dot exporter via a one-node DAG is overkill;
    // emit a simple gate-level dot directly.
    std::ofstream dot(*out_path);
    if (!dot) throw CliError("cannot open " + *out_path);
    dot << "digraph interpolant {\n  rankdir=BT;\n";
    for (circuit::Wire wire = 0; wire < itp.netlist.num_wires(); ++wire) {
      const circuit::Gate& g = itp.netlist.gate(wire);
      const char* label = "?";
      switch (g.kind) {
        case circuit::GateKind::Input: label = "in"; break;
        case circuit::GateKind::ConstFalse: label = "0"; break;
        case circuit::GateKind::ConstTrue: label = "1"; break;
        case circuit::GateKind::Not: label = "NOT"; break;
        case circuit::GateKind::And: label = "AND"; break;
        case circuit::GateKind::Or: label = "OR"; break;
        case circuit::GateKind::Xor: label = "XOR"; break;
        case circuit::GateKind::Mux: label = "MUX"; break;
      }
      dot << "  w" << wire << " [label=\"" << label << "\"];\n";
      for (const circuit::Wire fanin : {g.a, g.b, g.c}) {
        if (fanin != circuit::kInvalidWire) {
          dot << "  w" << fanin << " -> w" << wire << ";\n";
        }
      }
    }
    dot << "  out [shape=doublecircle];\n  w" << itp.output
        << " -> out;\n}\n";
    out << "interpolant circuit written to " << *out_path << "\n";
  }
  return 0;
}

// ------------------------------------------------------------------ trim

int cmd_trim(Args args, std::ostream& out, std::ostream&) {
  const bool binary = args.take_flag("--binary");
  const std::string in_path = args.next("input trace");
  const std::string out_path = args.next("output trace");
  args.expect_done();

  std::ifstream in(in_path,
                   binary ? std::ios::in | std::ios::binary : std::ios::in);
  if (!in) throw CliError("cannot open trace file " + in_path);
  const auto reader = open_trace_reader(in, binary);

  std::ofstream out_file(out_path, binary ? std::ios::out | std::ios::binary
                                          : std::ios::out);
  if (!out_file) throw CliError("cannot open output file " + out_path);
  std::unique_ptr<trace::TraceWriter> writer;
  if (binary) {
    writer = std::make_unique<trace::BinaryTraceWriter>(out_file);
  } else {
    writer = std::make_unique<trace::AsciiTraceWriter>(out_file);
  }

  const proof::TrimStats stats = proof::trim_trace(*reader, *writer);
  out << "trimmed " << stats.derivations_before << " -> "
      << stats.derivations_after << " derivations ("
      << (stats.derivations_before == 0
              ? 100.0
              : 100.0 * static_cast<double>(stats.derivations_after) /
                    static_cast<double>(stats.derivations_before))
      << "% kept) -> " << out_path << "\n";
  return 0;
}

// ------------------------------------------------------------------- gen

int cmd_gen(Args args, std::ostream& out, std::ostream&) {
  const auto out_path = args.take_option("-o");
  if (!out_path) throw CliError("gen requires -o FILE");
  const std::string family = args.next("family");

  Formula f;
  std::string description = family;
  if (family == "php") {
    const auto holes = parse_u64(args.next("holes"), "holes");
    f = encode::pigeonhole(static_cast<unsigned>(holes));
  } else if (family == "tseitin") {
    const auto rows = parse_u64(args.next("rows"), "rows");
    const auto cols = parse_u64(args.next("cols"), "cols");
    const auto seed = parse_u64(args.next("seed"), "seed");
    f = encode::tseitin_torus(static_cast<unsigned>(rows),
                              static_cast<unsigned>(cols), seed);
  } else if (family == "ksat") {
    const auto n = parse_u64(args.next("n"), "n");
    const auto m = parse_u64(args.next("m"), "m");
    const auto k = parse_u64(args.next("k"), "k");
    const auto seed = parse_u64(args.next("seed"), "seed");
    f = encode::random_ksat(static_cast<unsigned>(n),
                            static_cast<unsigned>(m),
                            static_cast<unsigned>(k), seed);
  } else if (family == "routing") {
    const auto nets = parse_u64(args.next("nets"), "nets");
    const auto tracks = parse_u64(args.next("tracks"), "tracks");
    const auto cols = parse_u64(args.next("cols"), "cols");
    const auto seed = parse_u64(args.next("seed"), "seed");
    f = encode::fpga_routing(static_cast<unsigned>(nets),
                             static_cast<unsigned>(tracks),
                             static_cast<unsigned>(cols), seed);
  } else if (family == "bw") {
    const auto blocks = parse_u64(args.next("blocks"), "blocks");
    const auto delta = parse_i64(args.next("delta"), "delta");
    const auto seed = parse_u64(args.next("seed"), "seed");
    const auto inst = encode::blocks_world_random(
        static_cast<unsigned>(blocks), static_cast<int>(delta), seed);
    f = inst.formula;
    description += " (optimal " + std::to_string(inst.optimal_steps) +
                   ", bound " + std::to_string(inst.steps) + ")";
  } else if (family == "coloring") {
    const auto n = parse_u64(args.next("n"), "n");
    const auto colors = parse_u64(args.next("colors"), "colors");
    f = encode::clique_coloring(static_cast<unsigned>(n),
                                static_cast<unsigned>(colors));
  } else if (family == "rotator") {
    const auto width = parse_u64(args.next("width"), "width");
    const auto k = parse_u64(args.next("k"), "k");
    f = bmc::unroll(bmc::make_rotator(static_cast<unsigned>(width)),
                    static_cast<unsigned>(k));
  } else if (family == "counter") {
    const auto width = parse_u64(args.next("width"), "width");
    const auto bad = parse_u64(args.next("bad"), "bad");
    const auto k = parse_u64(args.next("k"), "k");
    f = bmc::unroll(bmc::make_counter(static_cast<unsigned>(width), bad),
                    static_cast<unsigned>(k));
  } else {
    throw CliError("unknown family '" + family + "' (see satproof help)");
  }
  args.expect_done();

  write_formula_file(*out_path, f, "satproof gen " + description);
  out << "wrote " << family << " instance: " << f.num_vars() << " vars, "
      << f.num_clauses() << " clauses -> " << *out_path << "\n";
  return 0;
}

}  // namespace

int run_cli(const std::vector<std::string>& args, std::ostream& out,
            std::ostream& err) {
  try {
    if (args.empty() || args[0] == "help" || args[0] == "--help") {
      out << kHelp;
      return args.empty() ? kExitError : 0;
    }
    Args rest(std::vector<std::string>(args.begin() + 1, args.end()));
    if (args[0] == "solve") return cmd_solve(std::move(rest), out, err);
    if (args[0] == "check") return cmd_check(std::move(rest), out, err);
    if (args[0] == "export-lrat") {
      return cmd_export_lrat(std::move(rest), out, err);
    }
    if (args[0] == "serve") return cmd_serve(std::move(rest), out, err);
    if (args[0] == "submit") return cmd_submit(std::move(rest), out, err);
    if (args[0] == "stats") return cmd_stats(std::move(rest), out, err);
    if (args[0] == "core") return cmd_core(std::move(rest), out, err);
    if (args[0] == "trim") return cmd_trim(std::move(rest), out, err);
    if (args[0] == "drup") {
      std::vector<std::string> check{"--checker=drup"};
      check.insert(check.end(), args.begin() + 1, args.end());
      return cmd_check(Args(std::move(check)), out, err);
    }
    if (args[0] == "interpolate") {
      return cmd_interpolate(std::move(rest), out, err);
    }
    if (args[0] == "gen") return cmd_gen(std::move(rest), out, err);
    err << "unknown command '" << args[0] << "' (try: satproof help)\n";
    return kExitError;
  } catch (const CliError& e) {
    err << "error: " << e.what() << "\n";
    return kExitError;
  } catch (const std::exception& e) {
    err << "error: " << e.what() << "\n";
    return kExitError;
  }
}

}  // namespace satproof::cli
