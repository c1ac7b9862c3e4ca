#include "src/cnf/dimacs.hpp"

#include <algorithm>
#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "src/util/line_scanner.hpp"
#include "src/util/view_streambuf.hpp"

namespace satproof::dimacs {

namespace {

[[noreturn]] void fail(std::size_t line, const std::string& what) {
  throw std::runtime_error("dimacs: line " + std::to_string(line) + ": " +
                           what);
}

}  // namespace

Formula parse(std::istream& in) {
  Formula f;
  bool saw_header = false;
  std::int64_t declared_vars = 0;
  std::int64_t declared_clauses = 0;
  std::vector<Lit> current;
  util::LineScanner scanner(in);
  std::string_view line;

  while (scanner.next(line)) {
    const std::size_t line_no = scanner.line_number();
    // Tolerate Windows line endings.
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.empty()) continue;
    if (line[0] == 'c') continue;
    // SATLIB files end with a '%' line followed by a lone '0'; everything
    // after the marker is trailer, not clauses.
    if (line[0] == '%') break;
    if (line[0] == 'p') {
      if (saw_header) fail(line_no, "duplicate header");
      util::TokenCursor hs(line);
      (void)hs.next_word();  // "p"
      if (hs.next_word() != "cnf" || !hs.next(declared_vars) ||
          !hs.next(declared_clauses) || declared_vars < 0 ||
          declared_clauses < 0) {
        fail(line_no, "malformed header (expected 'p cnf <vars> <clauses>')");
      }
      if (const std::string_view rest = hs.next_word(); !rest.empty()) {
        fail(line_no, "unexpected '" + std::string(rest) +
                          "' after the clause count in the 'p cnf' header");
      }
      // Literals are 32-bit codes: a larger count would alias variables.
      if (declared_vars > kMaxVars) {
        fail(line_no, "declared variable count " +
                          std::to_string(declared_vars) + " exceeds " +
                          std::to_string(kMaxVars));
      }
      saw_header = true;
      continue;
    }
    if (!saw_header) fail(line_no, "literals before 'p cnf' header");
    util::TokenCursor ls(line);
    std::int64_t d = 0;
    while (ls.next(d)) {
      if (d == 0) {
        f.add_clause(current);
        current.clear();
      } else {
        if (util::magnitude(d) > static_cast<std::uint64_t>(declared_vars)) {
          fail(line_no, "literal exceeds declared vars");
        }
        current.push_back(Lit::from_dimacs(d));
      }
    }
    // A bad token that runs to the end of the line is dropped, as `>>`
    // leaves eofbit set for it.
    if (!ls.at_end()) fail(line_no, "non-integer token");
  }
  if (!current.empty()) {
    throw std::runtime_error("dimacs: unterminated final clause (missing 0)");
  }
  if (saw_header) {
    f.ensure_var(static_cast<Var>(declared_vars == 0 ? 0 : declared_vars - 1));
    if (static_cast<std::int64_t>(f.num_clauses()) != declared_clauses) {
      throw std::runtime_error(
          "dimacs: clause count mismatch: header declares " +
          std::to_string(declared_clauses) + ", file contains " +
          std::to_string(f.num_clauses()));
    }
  } else if (in.bad()) {
    throw std::runtime_error("dimacs: stream read error");
  } else {
    throw std::runtime_error("dimacs: missing 'p cnf' header");
  }
  return f;
}

Formula parse_string(const std::string& text) {
  util::ViewStreambuf buf(text);
  std::istream in(&buf);
  return parse(in);
}

Formula parse_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("dimacs: cannot open " + path);
  return parse(in);
}

void write(std::ostream& out, const Formula& f, const std::string& comment) {
  // One "c " line per comment line; a final '\n' ends the last line.
  std::string_view rest = comment;
  while (!rest.empty()) {
    const std::size_t nl = std::min(rest.find('\n'), rest.size());
    out << "c " << rest.substr(0, nl) << '\n';
    rest.remove_prefix(std::min(nl + 1, rest.size()));
  }
  out << "p cnf " << f.num_vars() << ' ' << f.num_clauses() << '\n';
  for (ClauseId id = 0; id < f.num_clauses(); ++id) {
    for (const Lit lit : f.clause(id)) out << lit.to_dimacs() << ' ';
    out << "0\n";
  }
}

void write_file(const std::string& path, const Formula& f,
                const std::string& comment) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("dimacs: cannot open " + path);
  write(out, f, comment);
  if (!out) throw std::runtime_error("dimacs: write error on " + path);
}

}  // namespace satproof::dimacs
