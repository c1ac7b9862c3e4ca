// Tests for util::LineScanner / util::TokenCursor and the three text readers
// built on them: dimacs::parse, checker::read_drup and
// trace::AsciiTraceReader.
//
// The readers used to split their input with std::getline and read each
// line through an std::istringstream. Those loops are kept below, only
// here, as oracles: over fixed edge cases and seeded byte- and
// token-level mutations of real DIMACS, DRUP and ASCII-trace text, the
// scanner-based readers must produce the same result or the same error
// string, line numbers included.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/checker/drup.hpp"
#include "src/checker/resolution.hpp"
#include "src/cnf/dimacs.hpp"
#include "src/encode/pigeonhole.hpp"
#include "src/encode/random_ksat.hpp"
#include "src/solver/solver.hpp"
#include "src/trace/ascii.hpp"
#include "src/trace/drup.hpp"
#include "src/util/line_scanner.hpp"
#include "src/util/rng.hpp"

namespace satproof {
namespace {

using util::LineScanner;
using util::magnitude;
using util::TokenCursor;

// ------------------------------------------------------------------ oracles
//
// The getline + istringstream readers as they were, with two changes: the
// magnitude of a literal is taken without signed overflow, and each has the
// input rules added alongside the scanner (the DIMACS variable cap and the
// rejection of text after the header's clause count, the DRUP
// undeclared-variable rule).

Formula oracle_dimacs(std::istream& in) {
  const auto fail = [](std::size_t line, const std::string& what) {
    throw std::runtime_error("dimacs: line " + std::to_string(line) + ": " +
                             what);
  };
  Formula f;
  bool saw_header = false;
  std::int64_t declared_vars = 0;
  std::int64_t declared_clauses = 0;
  std::vector<Lit> current;
  std::size_t line_no = 0;
  std::string line;
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    if (line[0] == 'c') continue;
    if (line[0] == '%') break;
    if (line[0] == 'p') {
      if (saw_header) fail(line_no, "duplicate header");
      std::istringstream hs(line);
      std::string p, fmt;
      hs >> p >> fmt >> declared_vars >> declared_clauses;
      if (!hs || fmt != "cnf" || declared_vars < 0 || declared_clauses < 0) {
        fail(line_no, "malformed header (expected 'p cnf <vars> <clauses>')");
      }
      if (std::string rest; hs >> rest) {
        fail(line_no, "unexpected '" + rest +
                          "' after the clause count in the 'p cnf' header");
      }
      if (declared_vars > dimacs::kMaxVars) {
        fail(line_no, "declared variable count " +
                          std::to_string(declared_vars) + " exceeds " +
                          std::to_string(dimacs::kMaxVars));
      }
      saw_header = true;
      continue;
    }
    if (!saw_header) fail(line_no, "literals before 'p cnf' header");
    std::istringstream ls(line);
    std::int64_t d = 0;
    while (ls >> d) {
      if (d == 0) {
        f.add_clause(current);
        current.clear();
      } else {
        if (magnitude(d) > static_cast<std::uint64_t>(declared_vars)) {
          fail(line_no, "literal exceeds declared vars");
        }
        current.push_back(Lit::from_dimacs(d));
      }
    }
    if (!ls.eof()) fail(line_no, "non-integer token");
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

checker::DrupProof oracle_drup(std::istream& proof, Var num_vars) {
  checker::DrupProof out;
  std::string text;
  while (std::getline(proof, text)) {
    if (text.empty() || text[0] == 'c') continue;
    std::istringstream ls(text);
    checker::DrupStep step;
    std::string first;
    ls >> first;
    if (first == "d") {
      step.deletion = true;
    } else {
      ls.clear();
      ls.seekg(0);
    }
    std::int64_t d = 0;
    bool terminated = false;
    std::uint64_t undeclared = 0;
    std::vector<Lit> raw;
    while (ls >> d) {
      if (d == 0) {
        terminated = true;
        break;
      }
      if (magnitude(d) > num_vars) {
        if (undeclared == 0) undeclared = magnitude(d);
        continue;
      }
      raw.push_back(Lit::from_dimacs(d));
    }
    if (!terminated) {
      out.error = "DRUP line not terminated by 0: '" + text + "'";
      return out;
    }
    if (undeclared != 0) {
      if (!step.deletion) {
        out.error = "DRUP added clause uses undeclared variable " +
                    std::to_string(undeclared) + " (the formula has " +
                    std::to_string(num_vars) + "): '" + text + "'";
        return out;
      }
      step.absent = true;
    } else {
      step.lits = checker::canonicalize(raw);
    }
    out.steps.push_back(std::move(step));
  }
  return out;
}

class OracleAsciiReader {
 public:
  explicit OracleAsciiReader(std::istream& in) : in_(&in) {
    std::string line;
    while (std::getline(*in_, line)) {
      ++line_no_;
      if (line.empty() || line[0] == 'c') continue;
      std::istringstream hs(line);
      std::string p, kind;
      std::uint64_t vars = 0, orig = 0;
      hs >> p >> kind >> vars >> orig;
      if (!hs || p != "p" || kind != "trace") {
        fail("expected header 'p trace <vars> <original>'");
      }
      num_vars_ = in_range("header variable count", vars);
      num_original_ = orig;
      body_start_ = in_->tellg();
      return;
    }
    fail("missing header");
  }

  Var num_vars() const { return num_vars_; }
  ClauseId num_original() const { return num_original_; }

  bool next(trace::Record& out) {
    using trace::RecordKind;
    if (done_) return false;
    std::string line;
    while (std::getline(*in_, line)) {
      ++line_no_;
      if (line.empty() || line[0] == 'c') continue;
      std::istringstream ls(line);
      char tag = 0;
      ls >> tag;
      switch (tag) {
        case 'd': {
          out.kind = RecordKind::Derivation;
          out.sources.clear();
          std::uint64_t id = 0;
          if (!(ls >> id)) fail("derivation missing id");
          out.id = id;
          std::uint64_t s = 0;
          bool terminated = false;
          while (ls >> s) {
            if (s == 0) {
              terminated = true;
              break;
            }
            out.sources.push_back(s - 1);
          }
          if (!terminated) fail("derivation not terminated by 0");
          if (out.sources.size() < 2) {
            fail("derivation needs at least two sources");
          }
          return true;
        }
        case 'f': {
          out.kind = RecordKind::FinalConflict;
          std::uint64_t id = 0;
          if (!(ls >> id)) fail("final conflict missing id");
          out.id = id;
          out.sources.clear();
          return true;
        }
        case 'l': {
          out.kind = RecordKind::Level0;
          std::int64_t signed_var = 0;
          std::uint64_t ante = 0;
          if (!(ls >> signed_var >> ante) || signed_var == 0) {
            fail("malformed level-0 record");
          }
          out.var =
              in_range("level-0 record variable", magnitude(signed_var)) - 1;
          out.value = signed_var > 0;
          out.antecedent = ante;
          out.sources.clear();
          return true;
        }
        case 'u': {
          out.kind = RecordKind::Assumption;
          std::int64_t signed_var = 0;
          if (!(ls >> signed_var) || signed_var == 0) {
            fail("malformed assumption record");
          }
          out.var =
              in_range("assumption record variable", magnitude(signed_var)) -
              1;
          out.value = signed_var > 0;
          out.antecedent = kInvalidClauseId;
          out.sources.clear();
          return true;
        }
        case 'e': {
          out.kind = RecordKind::End;
          out.sources.clear();
          done_ = true;
          return true;
        }
        default:
          fail(std::string("unknown record tag '") + tag + "'");
      }
    }
    fail("trace truncated: no 'e' end record");
  }

  void rewind() {
    in_->clear();
    in_->seekg(body_start_);
    if (!*in_) throw std::runtime_error("ascii trace: rewind failed");
    done_ = false;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("ascii trace: line " + std::to_string(line_no_) +
                             ": " + what);
  }

  /// `v` as a Var; fails above dimacs::kMaxVars, where it would alias.
  Var in_range(const std::string& what, std::uint64_t v) const {
    if (v > static_cast<std::uint64_t>(dimacs::kMaxVars)) {
      fail(what + " " + std::to_string(v) + " exceeds " +
           std::to_string(dimacs::kMaxVars));
    }
    return static_cast<Var>(v);
  }

  std::istream* in_;
  std::streampos body_start_{};
  Var num_vars_ = 0;
  ClauseId num_original_ = 0;
  bool done_ = false;
  std::size_t line_no_ = 0;
};

// ------------------------------------------------- outcomes, as one string

std::string show(const Formula& f) {
  std::ostringstream out;
  dimacs::write(out, f);
  return out.str();
}

template <class Parse>
std::string dimacs_outcome(const std::string& text, Parse parse) {
  std::istringstream in(text);
  try {
    return "ok\n" + show(parse(in));
  } catch (const std::exception& e) {
    return std::string("error: ") + e.what();
  }
}

std::string drup_outcome(const checker::DrupProof& p) {
  if (!p.error.empty()) return "error: " + p.error;
  std::string s = "ok\n";
  for (const checker::DrupStep& step : p.steps) {
    s += step.deletion ? "d" : "a";
    if (step.absent) s += "!";
    for (const Lit lit : step.lits) s += ' ' + std::to_string(lit.code());
    s += '\n';
  }
  return s;
}

std::string show(const trace::Record& r) {
  std::string s = std::to_string(static_cast<int>(r.kind)) + ' ' +
                  std::to_string(r.id) + ' ' + std::to_string(r.var) + ' ' +
                  std::to_string(r.value) + ' ' + std::to_string(r.antecedent);
  for (const ClauseId src : r.sources) s += ' ' + std::to_string(src);
  return s + '\n';
}

/// Reads the header and every record; if that ends cleanly, rewinds and
/// reads every record again.
template <class Reader>
std::string ascii_outcome(const std::string& text) {
  std::stringstream in(text);
  std::string s;
  try {
    Reader reader(in);
    s = "header " + std::to_string(reader.num_vars()) + ' ' +
        std::to_string(reader.num_original()) + '\n';
    trace::Record r;
    for (int pass = 0; pass < 2; ++pass) {
      if (pass == 1) reader.rewind();
      while (reader.next(r)) s += show(r);
      s += "pass end\n";
    }
  } catch (const std::exception& e) {
    s += std::string("error: ") + e.what();
  }
  return s;
}

// ------------------------------------------------------------ base inputs

std::string sample_cnf() {
  std::ostringstream out;
  dimacs::write(out, encode::random_ksat(40, 170, 3, 7), "sample\nformula");
  return out.str();
}

const Formula& drup_formula() {
  static const Formula f = encode::pigeonhole(5);
  return f;
}

std::string sample_drup() {
  std::ostringstream out;
  trace::DrupWriter w(out);
  solver::SolverOptions opts;
  opts.learned_size_factor = 0.001;  // deletion lines too
  solver::Solver s(opts);
  s.add_formula(drup_formula());
  s.set_drup_writer(&w);
  EXPECT_EQ(s.solve(), solver::SolveResult::Unsatisfiable);
  return out.str();
}

std::string sample_ascii_trace() {
  std::ostringstream out;
  trace::AsciiTraceWriter w(out);
  solver::Solver s;
  s.add_formula(encode::pigeonhole(4));
  s.set_trace_writer(&w);
  EXPECT_EQ(s.solve(), solver::SolveResult::Unsatisfiable);
  return "c solver trace\n" + out.str();
}

// --------------------------------------------------------------- mutation

const char* const kTokens[] = {
    "+3", "-", "+", "+-1", "--1", "-0", "00", "0x1", "3-4", "2x", "x",
    "99999999999999999999", "-99999999999999999999", "9223372036854775807",
    "9223372036854775808", "-9223372036854775808", "-9223372036854775809",
    "18446744073709551615", "18446744073709551616", "-1", "0", "1", "7",
    "d", "c", "e", "f", "l", "u", "p", "%", "268435456", "268435457",
    "2147483649", "4294967297"};

const char kBytes[] = "0123456789-+ \t\r\n\v\fcpd%eflux";

/// Applies 1-4 random edits: byte replace/insert/delete, token replace,
/// line duplicate/delete, truncation. Some seeds first pad the text with a
/// comment line so its first lines straddle the scanner's chunk boundary.
std::string mutate(std::string text, util::Rng& rng) {
  const int edits = 1 + static_cast<int>(rng.next_below(4));
  for (int e = 0; e < edits && !text.empty(); ++e) {
    const std::size_t pos = rng.next_below(text.size());
    switch (rng.next_below(7)) {
      case 0:
        text[pos] = kBytes[rng.next_below(sizeof kBytes - 1)];
        break;
      case 1:
        text.insert(text.begin() + static_cast<std::ptrdiff_t>(pos),
                    rng.next_bool(0.1)
                        ? '\0'
                        : kBytes[rng.next_below(sizeof kBytes - 1)]);
        break;
      case 2:
        text.erase(pos, 1);
        break;
      case 3:
      case 4: {
        // Replace the whitespace-delimited token around `pos`.
        std::size_t b = pos, end = pos;
        while (b > 0 && !util::is_space(text[b - 1])) --b;
        while (end < text.size() && !util::is_space(text[end])) ++end;
        text.replace(b, end - b,
                     kTokens[rng.next_below(std::size(kTokens))]);
        break;
      }
      case 5: {
        const std::size_t b = text.rfind('\n', pos);
        const std::size_t start = b == std::string::npos ? 0 : b + 1;
        const std::size_t nl = text.find('\n', pos);
        const std::size_t end = nl == std::string::npos ? text.size() : nl + 1;
        if (rng.next_bool()) {
          text.insert(start, text.substr(start, end - start));
        } else {
          text.erase(start, end - start);
        }
        break;
      }
      default:
        text.resize(pos);
        break;
    }
  }
  if (rng.next_bool(0.3)) {
    const std::size_t pad =
        LineScanner::kChunkBytes - 3 - rng.next_below(400);
    text = "c " + std::string(pad, 'x') + '\n' + text;
  }
  return text;
}

constexpr std::uint64_t kMutationSeeds = 400;

TEST(LineScannerOracle, MutatedDimacsMatchesGetlineReader) {
  const std::string base = sample_cnf();
  ASSERT_EQ(dimacs_outcome(base, dimacs::parse),
            dimacs_outcome(base, oracle_dimacs));
  for (std::uint64_t seed = 1; seed <= kMutationSeeds; ++seed) {
    util::Rng rng(seed);
    const std::string text = mutate(base, rng);
    EXPECT_EQ(dimacs_outcome(text, dimacs::parse),
              dimacs_outcome(text, oracle_dimacs))
        << "seed " << seed;
  }
}

TEST(LineScannerOracle, MutatedDrupMatchesGetlineReader) {
  const std::string base = sample_drup();
  const Var vars = drup_formula().num_vars();
  const auto outcomes = [&](const std::string& text) {
    std::istringstream a(text), b(text);
    return std::pair(drup_outcome(checker::read_drup(a, vars)),
                     drup_outcome(oracle_drup(b, vars)));
  };
  const auto [base_new, base_old] = outcomes(base);
  ASSERT_EQ(base_new, base_old);
  ASSERT_EQ(base_new.rfind("ok", 0), 0u) << base_new;
  for (std::uint64_t seed = 1; seed <= kMutationSeeds; ++seed) {
    util::Rng rng(seed);
    const auto [got, want] = outcomes(mutate(base, rng));
    EXPECT_EQ(got, want) << "seed " << seed;
  }
}

TEST(LineScannerOracle, MutatedAsciiTraceMatchesGetlineReader) {
  const std::string base = sample_ascii_trace();
  const std::string want = ascii_outcome<OracleAsciiReader>(base);
  ASSERT_EQ(ascii_outcome<trace::AsciiTraceReader>(base), want);
  ASSERT_EQ(want.find("error"), std::string::npos) << want;
  for (std::uint64_t seed = 1; seed <= kMutationSeeds; ++seed) {
    util::Rng rng(seed);
    const std::string text = mutate(base, rng);
    EXPECT_EQ(ascii_outcome<trace::AsciiTraceReader>(text),
              ascii_outcome<OracleAsciiReader>(text))
        << "seed " << seed;
  }
}

// ------------------------------------------------------------ fixed cases

void expect_dimacs_agrees(const std::string& text) {
  EXPECT_EQ(dimacs_outcome(text, dimacs::parse),
            dimacs_outcome(text, oracle_dimacs))
      << text.substr(0, 200);
}

TEST(LineScannerFixed, ClauseLineStraddlesChunkBoundary) {
  // The clause line "1 -2 3 0" starts 4 bytes before the 64 KiB mark.
  const std::string pad(LineScanner::kChunkBytes - 4 - 13, 'x');
  const std::string text = "p cnf 3 1\n" "c " + pad + "\n1 -2 3 0\n";
  ASSERT_EQ(text.find("1 -2"), LineScanner::kChunkBytes - 4);
  const Formula f = dimacs::parse_string(text);
  ASSERT_EQ(f.num_clauses(), 1u);
  EXPECT_EQ(f.clause(0).size(), 3u);
  EXPECT_EQ(f.clause(0)[1], Lit::neg(1));
  expect_dimacs_agrees(text);
}

TEST(LineScannerFixed, ClauseLineLongerThanAChunk) {
  constexpr int kVars = 30000;  // ~170 KiB on one line
  std::string text = "p cnf " + std::to_string(kVars) + " 1\n";
  for (int v = 1; v <= kVars; ++v) text += std::to_string(v % 2 ? v : -v) + ' ';
  text += "0\n";
  ASSERT_GT(text.size(), 2 * LineScanner::kChunkBytes);
  const Formula f = dimacs::parse_string(text);
  ASSERT_EQ(f.num_clauses(), 1u);
  EXPECT_EQ(f.clause(0).size(), static_cast<std::size_t>(kVars));
  EXPECT_EQ(f.clause(0).back(), Lit::neg(kVars - 1));
  expect_dimacs_agrees(text);
}

TEST(LineScannerFixed, LastLineWithoutNewline) {
  const Formula f = dimacs::parse_string("p cnf 2 1\n1 -2 0");
  ASSERT_EQ(f.num_clauses(), 1u);
  EXPECT_EQ(f.clause(0).size(), 2u);
  expect_dimacs_agrees("p cnf 2 1\n1 -2 0");
  expect_dimacs_agrees("p cnf 2 1\n1 -2");
}

TEST(LineScannerFixed, CrlfLineEndings) {
  const std::string text = "c x\r\np cnf 2 2\r\n1 2 0\r\n\r\n-1 0\r\n";
  const Formula f = dimacs::parse_string(text);
  EXPECT_EQ(f.num_clauses(), 2u);
  expect_dimacs_agrees(text);
  expect_dimacs_agrees("p cnf 2 1\r\n1 2 0\r\r\n");
}

TEST(LineScannerFixed, SatlibPercentTrailer) {
  const std::string text = "p cnf 2 1\n1 2 0\n%\n0\n\n";
  EXPECT_EQ(dimacs::parse_string(text).num_clauses(), 1u);
  expect_dimacs_agrees(text);
}

TEST(LineScannerFixed, LeadingPlusSign) {
  const Formula f = dimacs::parse_string("p cnf 3 1\n+3 -1 0\n");
  ASSERT_EQ(f.num_clauses(), 1u);
  EXPECT_EQ(f.clause(0)[0], Lit::pos(2));
  expect_dimacs_agrees("p cnf 3 1\n+3 -1 0\n");
  expect_dimacs_agrees("p cnf 3 1\n+-3 0\n");
  expect_dimacs_agrees("p cnf 3 1\n3-1 0\n");
}

TEST(LineScannerFixed, Int64Overflow) {
  // Mid-line the overflowing token is an error; at the end of a line `>>`
  // leaves eofbit set, so the old reader dropped it, and so does the new.
  const std::string mid = "p cnf 3 1\n1 99999999999999999999 0\n";
  EXPECT_THROW((void)dimacs::parse_string(mid), std::runtime_error);
  expect_dimacs_agrees(mid);
  expect_dimacs_agrees("p cnf 3 1\n1 99999999999999999999\n0\n");
  expect_dimacs_agrees("p cnf 3 1\n1 -9223372036854775808 0\n");

  std::istringstream drup("1 99999999999999999999 0\n");
  EXPECT_NE(checker::read_drup(drup, 3).error.find("not terminated"),
            std::string::npos);
  EXPECT_EQ(ascii_outcome<trace::AsciiTraceReader>(
                "p trace 3 2\nl 99999999999999999999 1\n"),
            ascii_outcome<OracleAsciiReader>(
                "p trace 3 2\nl 99999999999999999999 1\n"));
}

TEST(LineScannerFixed, MinusOnUnsignedAsciiField) {
  // `>>` into an unsigned value negates modulo 2^64, and so does the
  // scanner: "f -3" names clause 2^64 - 3.
  const std::string text = "p trace 2 2\nf -3\nd 4 -1 2 0\ne\n";
  std::istringstream in(text);
  trace::AsciiTraceReader reader(in);
  trace::Record r;
  ASSERT_TRUE(reader.next(r));
  EXPECT_EQ(r.id, ~std::uint64_t{0} - 2);
  ASSERT_TRUE(reader.next(r));
  EXPECT_EQ(r.sources.front(), ~std::uint64_t{0} - 1);
  EXPECT_EQ(ascii_outcome<trace::AsciiTraceReader>(text),
            ascii_outcome<OracleAsciiReader>(text));
}

TEST(LineScannerFixed, BareDeletionLine) {
  for (const char* text : {"d\n", "d 0\n", "d\t1 0\n", "d1 0\n", " d 1 0\n"}) {
    std::istringstream a(text), b(text);
    EXPECT_EQ(drup_outcome(checker::read_drup(a, 3)),
              drup_outcome(oracle_drup(b, 3)))
        << text;
  }
  std::istringstream in("d\n");
  EXPECT_EQ(checker::read_drup(in, 3).error,
            "DRUP line not terminated by 0: 'd'");
}

TEST(LineScannerFixed, AsciiTraceReadToEndRewindAndReadAgain) {
  const std::string text = sample_ascii_trace();
  std::istringstream in(text);
  trace::AsciiTraceReader reader(in);
  // A fresh Record per pass: next() leaves fields a kind does not use.
  std::vector<std::string> first, second;
  trace::Record r;
  while (reader.next(r)) first.push_back(show(r));
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(r.kind, trace::RecordKind::End);
  reader.rewind();
  trace::Record again;
  while (reader.next(again)) second.push_back(show(again));
  EXPECT_EQ(first, second);
  EXPECT_EQ(ascii_outcome<trace::AsciiTraceReader>(text),
            ascii_outcome<OracleAsciiReader>(text));
}

// --------------------------------------------------- scanner primitives

TEST(LineScanner, SplitsLikeGetlineAcrossChunkBoundaries) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    util::Rng rng(seed);
    std::string text;
    const std::size_t target = rng.next_below(3 * LineScanner::kChunkBytes);
    while (text.size() < target) {
      // Mostly short lines, a few longer than a chunk, some empty.
      const std::size_t len = rng.next_bool(0.02)
                                  ? LineScanner::kChunkBytes +
                                        rng.next_below(1000)
                                  : rng.next_below(80);
      text.append(len, static_cast<char>('a' + rng.next_below(26)));
      text += '\n';
    }
    if (rng.next_bool() && !text.empty()) text.pop_back();

    std::istringstream want_in(text), got_in(text);
    LineScanner scanner(got_in);
    std::string want;
    std::string_view got;
    std::uint64_t offset = 0;
    std::size_t line_no = 0;
    while (std::getline(want_in, want)) {
      ++line_no;
      offset += want.size() + 1;
      ASSERT_TRUE(scanner.next(got)) << "seed " << seed;
      ASSERT_EQ(got, want) << "seed " << seed << " line " << line_no;
      EXPECT_EQ(scanner.line_number(), line_no);
      EXPECT_EQ(scanner.offset(), std::min<std::uint64_t>(offset, text.size()));
    }
    EXPECT_FALSE(scanner.next(got)) << "seed " << seed;
  }
}

TEST(LineScanner, RestartResumesAtAnOffset) {
  std::string text;
  for (int i = 0; i < 20000; ++i) text += "line " + std::to_string(i) + '\n';
  std::istringstream in(text);
  LineScanner scanner(in);
  std::string_view line;
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(scanner.next(line));
  const std::uint64_t offset = scanner.offset();
  const std::size_t line_no = scanner.line_number();
  while (scanner.next(line)) {
  }
  in.clear();
  in.seekg(static_cast<std::streamoff>(offset));
  scanner.restart(offset, line_no);
  ASSERT_TRUE(scanner.next(line));
  EXPECT_EQ(line, "line 100");
  EXPECT_EQ(scanner.line_number(), 101u);
  EXPECT_EQ(scanner.offset(), offset + 9);
}

/// Reads tokens of type T with `>>` and with TokenCursor until the first
/// failure; both must agree on every value and on eof at the end.
template <class T>
void expect_tokens_agree(const std::string& line) {
  std::istringstream ls(line);
  TokenCursor tc(line);
  for (;;) {
    T want{};
    T got{};
    const bool ok = static_cast<bool>(ls >> want);
    ASSERT_EQ(ok, tc.next(got)) << "'" << line << "'";
    if (!ok) {
      EXPECT_EQ(ls.eof(), tc.at_end()) << "'" << line << "'";
      return;
    }
    ASSERT_EQ(got, want) << "'" << line << "'";
  }
}

TEST(TokenCursor, IntegersMatchStreamExtraction) {
  util::Rng rng(5);
  for (int i = 0; i < 4000; ++i) {
    std::string line;
    const int parts = static_cast<int>(rng.next_below(6));
    for (int k = 0; k < parts; ++k) {
      if (rng.next_bool()) {
        line += kTokens[rng.next_below(std::size(kTokens))];
      } else {
        const int len = 1 + static_cast<int>(rng.next_below(4));
        for (int c = 0; c < len; ++c) {
          line += kBytes[rng.next_below(sizeof kBytes - 1)];
        }
      }
      if (rng.next_bool(0.8)) line += rng.next_bool() ? " " : "\t";
    }
    expect_tokens_agree<std::int64_t>(line);
    expect_tokens_agree<std::uint64_t>(line);
  }
  for (const char* line : {"", " ", "-", "+", "- 3", "+5", "-0", "0x10",
                           "18446744073709551616 ", "-18446744073709551615",
                           "-9223372036854775808", "9223372036854775808",
                           "\v4\f5\r", "3abc", "\xa0" "1"}) {
    expect_tokens_agree<std::int64_t>(line);
    expect_tokens_agree<std::uint64_t>(line);
  }
}

TEST(TokenCursor, CharAndWordMatchStreamExtraction) {
  for (const std::string line : {"", "  ", "d 1 0", " d1", "\td\t", "dd x",
                                 "\r", "e"}) {
    std::istringstream a(line), b(line);
    char want_char = 0;
    a >> want_char;
    std::string want_word;
    b >> want_word;
    TokenCursor tc(line), tw(line);
    EXPECT_EQ(tc.next_char(), want_char) << "'" << line << "'";
    EXPECT_EQ(tw.next_word(), want_word) << "'" << line << "'";
  }
}

}  // namespace
}  // namespace satproof
