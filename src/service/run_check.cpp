#include "src/service/run_check.hpp"

#include <fstream>
#include <sstream>

#include "src/cert/lrat_emitter.hpp"
#include "src/checker/breadth_first.hpp"
#include "src/checker/depth_first.hpp"
#include "src/checker/drup.hpp"
#include "src/checker/window.hpp"
#include "src/cnf/dimacs.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/proof/rup.hpp"
#include "src/trace/ascii.hpp"
#include "src/trace/binary.hpp"
#include "src/util/json.hpp"

namespace satproof::service {

constexpr const char* kBackendNames[kNumBackends] = {
    "df", "bf", "hybrid", "parallel", "drup", "window", "rup"};

std::optional<Backend> backend_from_name(std::string_view name) {
  for (std::uint8_t b = 0; b < kNumBackends; ++b) {
    if (name == kBackendNames[b]) return static_cast<Backend>(b);
  }
  return std::nullopt;
}

const char* backend_name(Backend b) {
  const auto i = static_cast<std::size_t>(b);
  return i < kNumBackends ? kBackendNames[i] : "?";
}

Backend select_backend_for_budget(std::uint64_t trace_bytes,
                                  std::size_t mem_limit_bytes) {
  if (mem_limit_bytes == 0) {
    return trace_bytes >= kAutoHybridTraceBytes ? Backend::kHybrid
                                                : Backend::kDf;
  }
  // Division, not multiplication: declared trace sizes can be large
  // enough that 6x would overflow before the compare.
  if (trace_bytes <= mem_limit_bytes / 6) return Backend::kDf;
  return Backend::kWindow;
}

std::uint64_t trace_file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::in | std::ios::binary | std::ios::ate);
  const auto size = in.tellg();
  return in && size > 0 ? static_cast<std::uint64_t>(size) : 0;
}

std::string verdict_line(const JobOutcome& o) {
  if (!o.ok) return "CHECK FAILED: " + o.error;
  if (o.backend == Backend::kDrup) {
    std::ostringstream os;
    os << "VERIFIED (DRUP): " << o.drup_clauses_checked << " clauses, "
       << o.drup_deletions << " deletions, " << o.drup_propagations
       << " propagations";
    return os.str();
  }
  if (o.backend == Backend::kRup) {
    std::ostringstream os;
    os << "VERIFIED (RUP): " << o.drup_clauses_checked
       << " derived clauses re-derived by unit propagation ("
       << o.drup_propagations << " propagations)";
    return os.str();
  }
  std::ostringstream os;
  if (o.failed_assumption_clause.empty()) {
    os << "VERIFIED: valid resolution proof of unsatisfiability ("
       << o.stats.resolutions << " resolutions)";
  } else {
    os << "VERIFIED: the formula refutes the assumption subset { ";
    for (const Lit l : o.failed_assumption_clause) {
      os << (~l).to_dimacs() << ' ';
    }
    os << "} (" << o.stats.resolutions << " resolutions)";
  }
  return os.str();
}

namespace {

/// The unit-propagation backends' counts (DRUP, and RUP, which has no
/// deletions), as one object keyed by the backend's name.
void write_unit_propagation_counts(util::JsonWriter& w, const JobOutcome& o) {
  w.key(backend_name(o.backend));
  w.begin_object();
  w.key("clauses_checked");
  w.value(o.drup_clauses_checked);
  w.key("deletions");
  w.value(o.drup_deletions);
  w.key("propagations");
  w.value(o.drup_propagations);
  w.end_object();
}

bool counts_unit_propagation(Backend b) {
  return b == Backend::kDrup || b == Backend::kRup;
}

/// Backends that collect no unsat core, so that a core size of 0 from them
/// would read as an empty core.
bool collects_no_core(Backend b) {
  return b == Backend::kBf || counts_unit_propagation(b);
}

/// write_check_stats, without the core size when `outcome` names a backend
/// that collects no core, and without any CheckStats counter when it names
/// a unit-propagation backend, which computes none; with `tail`, also the
/// outcome's unit-propagation counts (DRUP, RUP) and a final "backend" key.
void write_stats_object(util::JsonWriter& w, const checker::CheckStats& st,
                        const JobOutcome* outcome, bool tail) {
  w.begin_object();
  if (outcome == nullptr || !counts_unit_propagation(outcome->backend)) {
    w.key("total_derivations");
    w.value(st.total_derivations);
    w.key("clauses_built");
    w.value(st.clauses_built);
    w.key("resolutions");
    w.value(st.resolutions);
    if (outcome == nullptr || !collects_no_core(outcome->backend)) {
      w.key("core_original_clauses");
      w.value(st.core_original_clauses);
    }
    w.key("peak_mem_bytes");
    w.value(static_cast<std::uint64_t>(st.peak_mem_bytes));
    w.key("arena_allocated_bytes");
    w.value(static_cast<std::uint64_t>(st.arena_allocated_bytes));
    w.key("arena_recycled_bytes");
    w.value(static_cast<std::uint64_t>(st.arena_recycled_bytes));
    w.key("arena_peak_bytes");
    w.value(static_cast<std::uint64_t>(st.arena_peak_bytes));
  }
  // Appended last: the replay backends keep the historical leading fields
  // ("total_derivations" first), and the unit-propagation backends, which
  // print none of them, lead with their own counts.
  if (tail) {
    if (counts_unit_propagation(outcome->backend)) {
      write_unit_propagation_counts(w, *outcome);
    }
    w.key("backend");
    w.value(backend_name(outcome->backend));
  }
  w.end_object();
}

}  // namespace

void write_check_stats(util::JsonWriter& w, const checker::CheckStats& st) {
  write_stats_object(w, st, nullptr, false);
}

std::string check_stats_json(const checker::CheckStats& stats) {
  util::JsonWriter w;
  write_check_stats(w, stats);
  return w.take();
}

std::string check_stats_json(const JobOutcome& o) {
  util::JsonWriter w;
  write_stats_object(w, o.stats, &o, true);
  return w.take();
}

std::string outcome_json(const JobOutcome& o) {
  util::JsonWriter w;
  w.begin_object();
  w.key("ok");
  w.value(o.ok);
  w.key("backend");
  w.value(backend_name(o.backend));
  w.key("verdict");
  w.value(verdict_line(o));
  w.key("error");
  w.value(o.error);
  if (counts_unit_propagation(o.backend)) {
    write_unit_propagation_counts(w, o);
  } else {
    w.key("stats");
    write_stats_object(w, o.stats, &o, false);
  }
  w.end_object();
  return w.take();
}

namespace {

/// True when the file starts with the binary-trace magic "SPRF".
bool is_binary_trace(const std::string& path) {
  std::ifstream in(path, std::ios::in | std::ios::binary);
  char magic[4] = {0, 0, 0, 0};
  in.read(magic, 4);
  return in.gcount() == 4 && magic[0] == 'S' && magic[1] == 'P' &&
         magic[2] == 'R' && magic[3] == 'F';
}

/// Folds one finished run's stats into the process-wide registry. Done
/// once per check (not on the replay hot path), so the counters cost
/// nothing while the proof is being verified.
void bump_global_counters(const JobOutcome& out) {
  obs::CheckerCounters& c = obs::CheckerCounters::get();
  c.checks_total.inc();
  c.derivations.inc(out.stats.total_derivations);
  c.clauses_built.inc(out.stats.clauses_built);
  c.resolutions.inc(out.stats.resolutions);
  c.arena_allocated_bytes.inc(out.stats.arena_allocated_bytes);
  c.drup_propagations.inc(out.drup_propagations);
}

}  // namespace

JobOutcome run_check(const std::string& cnf_path, const std::string& trace_path,
                     Backend backend, unsigned jobs,
                     checker::CheckMemory* memory,
                     const CertOptions& cert, std::size_t mem_limit_bytes) {
  obs::Span check_span("check");
  JobOutcome out;
  out.backend = backend;
  const bool certify = cert.sink != nullptr;
  if (certify && !can_certify(backend)) {
    out.error =
        "certificate emission requires the df, parallel, hybrid or window "
        "backend";
    bump_global_counters(out);
    return out;
  }
  // Per-job memory cap: a df (parallel included) or hybrid request whose
  // estimated peak exceeds the budget runs as window instead. A hybrid
  // request that fits stays hybrid, running at the budget (one window when
  // the structure fits it).
  if (mem_limit_bytes != 0 &&
      (backend == Backend::kDf || backend == Backend::kParallel ||
       backend == Backend::kHybrid) &&
      select_backend_for_budget(trace_file_bytes(trace_path),
                                mem_limit_bytes) == Backend::kWindow) {
    backend = Backend::kWindow;
    out.backend = backend;
  }
  try {
    obs::Span load_span("load_formula");
    Formula f = dimacs::parse_file(cnf_path);
    // Every backend resolves canonical clauses: canonicalized here, once,
    // they read the originals in place. Nothing below depends on the
    // literal order of the file (the kernel rereads the CNF itself).
    f.canonicalize();
    load_span.finish();

    if (backend == Backend::kDrup) {
      std::ifstream proof(trace_path);
      if (!proof) throw std::runtime_error("cannot open " + trace_path);
      const checker::DrupCheckResult res = checker::check_drup(f, proof, jobs);
      out.ok = res.ok;
      out.error = res.error;
      out.drup_clauses_checked = res.clauses_checked;
      out.drup_deletions = res.deletions;
      out.drup_propagations = res.propagations;
      bump_global_counters(out);
      return out;
    }

    std::unique_ptr<trace::TraceReader> reader;
    std::ifstream ascii_in;
    if (is_binary_trace(trace_path)) {
      reader = trace::open_binary_trace_file(trace_path);
    } else {
      ascii_in.open(trace_path);
      if (!ascii_in) throw std::runtime_error("cannot open " + trace_path);
      reader = std::make_unique<trace::AsciiTraceReader>(ascii_in);
    }

    if (backend == Backend::kRup) {
      const proof::RupResult res = proof::check_trace_rup(f, *reader, jobs);
      out.ok = res.ok;
      out.error = res.error;
      out.drup_clauses_checked = res.clauses_checked;
      out.drup_propagations = res.propagations;
      bump_global_counters(out);
      return out;
    }

    std::unique_ptr<cert::LratWriter> writer;
    std::unique_ptr<cert::LratEmitter> emitter;
    if (certify) {
      if (cert.binary) {
        writer = std::make_unique<cert::BinaryLratWriter>(*cert.sink);
      } else {
        writer = std::make_unique<cert::TextLratWriter>(*cert.sink);
      }
      emitter = std::make_unique<cert::LratEmitter>(*writer, f.num_clauses());
    }

    checker::CheckResult res;
    switch (backend) {
      case Backend::kBf: {
        checker::BreadthFirstOptions bopts;
        bopts.memory = memory;
        res = checker::check_breadth_first(f, *reader, bopts);
        break;
      }
      case Backend::kHybrid:
      case Backend::kWindow: {
        checker::WindowOptions wopts;
        // Hybrid is window with no budget unless the job is capped; a
        // window request without a cap keeps the WindowOptions default
        // budget rather than degrading to one unbounded window.
        if (mem_limit_bytes != 0 || backend == Backend::kHybrid) {
          wopts.mem_limit_bytes = mem_limit_bytes;
        }
        wopts.memory = memory;
        wopts.observer = emitter.get();
        res = checker::check_window(f, *reader, wopts);
        break;
      }
      case Backend::kDf:
      case Backend::kParallel:
      default: {
        // df runs on one lane whatever `jobs` says; parallel is df on
        // `jobs` lanes.
        checker::DepthFirstOptions dopts;
        dopts.jobs = backend == Backend::kParallel ? jobs : 1;
        dopts.memory = memory;
        dopts.observer = emitter.get();
        res = checker::check_depth_first(f, *reader, dopts);
        break;
      }
    }
    out.ok = res.ok;
    out.error = res.error;
    out.stats = res.stats;
    out.failed_assumption_clause = std::move(res.failed_assumption_clause);
    if (certify && out.ok) {
      // A certificate proves unconditional unsatisfiability; a proof that
      // only refutes an assumption subset has no empty-clause step.
      if (!emitter->finished()) {
        out.ok = false;
        out.error =
            "trace verifies only under assumptions; LRAT certification "
            "covers unconditional unsatisfiability";
      } else if (!writer->ok()) {
        out.ok = false;
        out.error = "certificate sink write failure";
      } else {
        out.cert_additions = emitter->additions();
        out.cert_deletions = emitter->deletions();
      }
    }
  } catch (const std::exception& e) {
    out.ok = false;
    out.error = e.what();
  }
  bump_global_counters(out);
  return out;
}

}  // namespace satproof::service
