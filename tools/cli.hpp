#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace satproof::cli {

/// Exit codes of the `solve` command, following the SAT-competition
/// convention.
inline constexpr int kExitSat = 10;
inline constexpr int kExitUnsat = 20;
inline constexpr int kExitUnknown = 0;
inline constexpr int kExitError = 1;

/// Runs the satproof command-line interface.
///
///     satproof solve <file.cnf> [--trace FILE] [--binary] [--check df|bf|both]
///                    [--core FILE] [--minimal-core] [--proof-dot FILE]
///                    [--tracecheck FILE] [--stats] [--model]
///                    [--minimize] [--luby] [--no-restarts] [--no-deletion]
///                    [--budget N]
///     satproof check <file.cnf> <trace-file> [--checker=MODE] [--stats[=json]]
///     satproof serve (--socket PATH | --tcp PORT) [--workers N] [--queue N]
///     satproof submit <file.cnf> <trace-file> (--socket PATH | --tcp PORT)
///                     [--backend=MODE] [--wait]
///     satproof stats (--socket PATH | --tcp PORT)
///     satproof core  <file.cnf> [--minimal] [--iterations N] [-o FILE]
///     satproof gen   <family> <params...> -o FILE
///     satproof help
///
/// `args` excludes the program name. Output goes to `out`, diagnostics to
/// `err`. Returns a process exit code (see the kExit constants; non-solve
/// commands return 0 on success, 1 on failure).
int run_cli(const std::vector<std::string>& args, std::ostream& out,
            std::ostream& err);

}  // namespace satproof::cli
