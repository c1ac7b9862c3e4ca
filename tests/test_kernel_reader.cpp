// Tests for the trusted kernel's buffered reader (src/cert/kernel.cpp):
// the CNF parser, the text LRAT driver and the binary LRAT driver all take
// their input from one buffer filled in 64 KiB istream::read blocks.
//
// The kernel used to read its streams directly: `>>` and strtoll for the
// CNF, std::getline per text certificate line, istream::get() per binary
// byte. That kernel is kept below, only here, as the oracle. Over seeded
// byte-, token- and line-level mutations of a real CNF and of its text and
// binary certificates, some padded so that tokens, lines and varints
// straddle the block boundary, the kernel must return the oracle's verdict,
// diagnostic, line (record) number and step counts.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/cert/kernel.hpp"
#include "src/cert/lrat_emitter.hpp"
#include "src/checker/window.hpp"
#include "src/cnf/dimacs.hpp"
#include "src/encode/pigeonhole.hpp"
#include "src/solver/solver.hpp"
#include "src/trace/memory.hpp"
#include "src/util/rng.hpp"

namespace satproof {
namespace {

using kern::VerifyResult;

// ------------------------------------------------------------------ oracle
//
// The istream kernel as it was, with two changes the kernel has made since:
// get_varint rejects a 10th byte above 1 (bits past 2^64), and a CNF 'c'
// token is a comment only when it starts its line.

namespace oracle {


// Rejection control flow: any check failure throws, verify_lrat() catches.
// State is discarded wholesale afterwards, so no unwinding bookkeeping.
struct Reject {
  std::string msg;
  std::uint64_t line;
};

[[noreturn]] void reject(std::uint64_t line, std::string msg) {
  throw Reject{std::move(msg), line};
}

// Bounds a hostile CNF header (the assignment array is sized from it).
constexpr std::int64_t kMaxVars = std::int64_t{1} << 28;

struct Cnf {
  std::int64_t num_vars = 0;
  std::vector<std::vector<std::int32_t>> clauses;
};

// `in >> tok`, also telling whether the token starts its line: whitespace
// is skipped by hand, and `at_line_start` carries whether the last byte
// consumed was a '\n' (the input starts a line).
bool next_token(std::istream& in, std::string& tok, bool& at_line_start,
                bool& line_start) {
  for (int c = in.peek(); c != EOF && std::isspace(c); c = in.peek()) {
    at_line_start = in.get() == '\n';
  }
  line_start = at_line_start;
  at_line_start = false;
  return static_cast<bool>(in >> tok);
}

Cnf parse_cnf(std::istream& in) {
  Cnf f;
  std::string tok;
  std::int64_t declared = -1;
  bool at_line_start = true;
  bool line_start = false;
  while (next_token(in, tok, at_line_start, line_start)) {
    if (line_start && tok[0] == 'c') {
      std::getline(in, tok);
      at_line_start = true;
      continue;
    }
    if (tok == "p") {
      if (!(in >> tok) || tok != "cnf" || !(in >> f.num_vars) ||
          !(in >> declared)) {
        reject(0, "CNF: malformed problem line");
      }
      if (f.num_vars < 0 || f.num_vars > kMaxVars || declared < 0) {
        reject(0, "CNF: variable or clause count out of range");
      }
      break;
    }
    reject(0, "CNF: expected a comment or problem line, got '" + tok + "'");
  }
  if (declared < 0) reject(0, "CNF: missing problem line");
  std::vector<std::int32_t> cur;
  while (next_token(in, tok, at_line_start, line_start)) {
    if (line_start && tok[0] == 'c') {
      std::getline(in, tok);
      at_line_start = true;
      continue;
    }
    char* end = nullptr;
    errno = 0;
    const std::int64_t lit = std::strtoll(tok.c_str(), &end, 10);
    if (end == tok.c_str() || *end != '\0' || errno != 0) {
      reject(0, "CNF: bad token '" + tok + "'");
    }
    if (lit == 0) {
      f.clauses.push_back(cur);
      cur.clear();
      continue;
    }
    if (lit > f.num_vars || lit < -f.num_vars) {
      reject(0, "CNF: literal " + std::to_string(lit) +
                    " exceeds the declared variable count");
    }
    cur.push_back(static_cast<std::int32_t>(lit));
  }
  if (!cur.empty()) reject(0, "CNF: last clause missing its terminating 0");
  if (static_cast<std::int64_t>(f.clauses.size()) != declared) {
    reject(0, "CNF: header declares " + std::to_string(declared) +
                  " clauses but the file has " +
                  std::to_string(f.clauses.size()));
  }
  return f;
}

// The clause map: IDs in insertion order (strictly increasing, so the
// array is sorted), literals and a liveness flag alongside. Originals
// occupy IDs 1..num_clauses, LRAT convention. satproof's emitter numbers
// the additions on from there without gaps, so lookup tries index id - 1
// before falling back to a binary search.
class Kernel {
 public:
  explicit Kernel(Cnf&& f)
      : num_vars_(f.num_vars),
        clauses_(std::move(f.clauses)),
        alive_(clauses_.size(), 1),
        val_(static_cast<std::size_t>(f.num_vars) + 1, 0),
        last_id_(clauses_.size()) {
    ids_.reserve(clauses_.size());
    for (std::size_t i = 0; i < clauses_.size(); ++i) ids_.push_back(i + 1);
  }

  // One addition step; returns true when `lits` is the empty clause (the
  // certificate is complete).
  bool add(std::uint64_t id, std::vector<std::int32_t>&& lits,
           const std::vector<std::uint64_t>& hints, std::uint64_t line) {
    if (id <= last_id_) {
      reject(line, "addition id " + std::to_string(id) +
                       " does not exceed the previous id " +
                       std::to_string(last_id_));
    }
    // Negate the clause. A variable hit in both phases makes the clause a
    // tautology — trivially derivable, accepted without consulting hints.
    bool conflict = false;
    for (const std::int32_t lit : lits) {
      check_range(lit, line);
      const std::int8_t want = lit > 0 ? -1 : 1;
      std::int8_t& v = val_[static_cast<std::size_t>(lit > 0 ? lit : -lit)];
      if (v == 0) {
        v = want;
        trail_.push_back(lit);
      } else if (v != want) {
        conflict = true;
        break;
      }
    }
    for (std::size_t h = 0; !conflict && h < hints.size(); ++h) {
      const std::vector<std::int32_t>& c = find(hints[h], line, "hint");
      std::int32_t unit = 0;
      bool satisfied = false;
      int unassigned = 0;
      for (const std::int32_t lit : c) {
        const std::int8_t v = value(lit);
        if (v > 0) {
          satisfied = true;
          break;
        }
        if (v == 0) {
          unit = lit;
          if (++unassigned > 1) break;
        }
      }
      if (satisfied) {
        reject(line, "hint " + std::to_string(hints[h]) +
                         " is satisfied under the accumulated assignment");
      }
      if (unassigned == 0) {
        conflict = true;  // falsified: the step is justified
        break;
      }
      if (unassigned > 1) {
        reject(line, "hint " + std::to_string(hints[h]) +
                         " is neither unit nor falsified");
      }
      val_[static_cast<std::size_t>(unit > 0 ? unit : -unit)] =
          unit > 0 ? 1 : -1;
      trail_.push_back(unit);
    }
    if (!conflict) {
      reject(line, "hints ended without reaching a conflict");
    }
    for (const std::int32_t lit : trail_) {
      val_[static_cast<std::size_t>(lit > 0 ? lit : -lit)] = 0;
    }
    trail_.clear();
    const bool empty = lits.empty();
    ids_.push_back(id);
    clauses_.push_back(std::move(lits));
    alive_.push_back(1);
    last_id_ = id;
    return empty;
  }

  void del(const std::vector<std::uint64_t>& ids, std::uint64_t line) {
    for (const std::uint64_t id : ids) {
      const std::size_t idx = index_of(id, line, "deletion");
      if (alive_[idx] == 0) {
        reject(line, "deletion of clause " + std::to_string(id) +
                         ", which was already deleted");
      }
      alive_[idx] = 0;
      clauses_[idx].clear();
      clauses_[idx].shrink_to_fit();
    }
  }

 private:
  void check_range(std::int32_t lit, std::uint64_t line) const {
    const std::int64_t mag = lit > 0 ? lit : -static_cast<std::int64_t>(lit);
    if (mag == 0 || mag > num_vars_) {
      reject(line, "literal " + std::to_string(lit) +
                       " is outside the CNF variable range");
    }
  }

  [[nodiscard]] std::int8_t value(std::int32_t lit) const {
    const std::int8_t v = val_[static_cast<std::size_t>(lit > 0 ? lit : -lit)];
    return lit > 0 ? v : static_cast<std::int8_t>(-v);
  }

  std::size_t index_of(std::uint64_t id, std::uint64_t line,
                       const char* what) const {
    // IDs strictly increase, so a slot holding `id` is the only one: the
    // probe can skip the search but never answer differently from it.
    if (id - 1 < ids_.size() && ids_[id - 1] == id) return id - 1;
    const auto it = std::lower_bound(ids_.begin(), ids_.end(), id);
    if (it == ids_.end() || *it != id) {
      reject(line, std::string(what) + " references unknown clause " +
                       std::to_string(id));
    }
    return static_cast<std::size_t>(it - ids_.begin());
  }

  const std::vector<std::int32_t>& find(std::uint64_t id, std::uint64_t line,
                                        const char* what) const {
    const std::size_t idx = index_of(id, line, what);
    if (alive_[idx] == 0) {
      reject(line, std::string(what) + " references deleted clause " +
                       std::to_string(id));
    }
    return clauses_[idx];
  }

  std::int64_t num_vars_;
  std::vector<std::uint64_t> ids_;  // sorted; parallel to clauses_/alive_
  std::vector<std::vector<std::int32_t>> clauses_;
  std::vector<char> alive_;
  std::vector<std::int8_t> val_;  // by var: 0 unassigned, +1 true, -1 false
  std::vector<std::int32_t> trail_;
  std::uint64_t last_id_;
};

// ---- text certificate driver ----

struct LineScan {
  const char* p;
  const char* last;  // one past the line's final character
  std::uint64_t line;

  // Next integer on the line; false at end of line, Reject on junk. The
  // accepted tokens are strtoll's base-10 ones: leading whitespace, an
  // optional '+' or '-', then digits, in the int64 range.
  bool next(std::int64_t& out) {
    while (*p == ' ' || *p == '\t' || *p == '\r') ++p;
    if (*p == '\0') return false;
    const char* q = p;
    while (std::isspace(static_cast<unsigned char>(*q)) != 0) ++q;
    if (*q == '+' && q[1] != '-') ++q;  // from_chars takes only '-'
    const auto [end, ec] = std::from_chars(q, last, out);
    if (ec != std::errc()) {
      reject(line, std::string("bad token '") + p + "'");
    }
    p = end;
    return true;
  }

  std::int64_t expect(const char* what) {
    std::int64_t v = 0;
    if (!next(v)) {
      reject(line, std::string("truncated record: missing ") + what);
    }
    return v;
  }
};

void run_text(std::istream& cert, Kernel& k, VerifyResult& r) {
  std::string buf;
  std::uint64_t lineno = 0;
  std::vector<std::int32_t> lits;
  std::vector<std::uint64_t> ids;
  while (!r.verified && std::getline(cert, buf)) {
    ++lineno;
    LineScan s{buf.c_str(), buf.c_str() + buf.size(), lineno};
    while (*s.p == ' ' || *s.p == '\t' || *s.p == '\r') ++s.p;
    if (*s.p == '\0' || *s.p == 'c') continue;
    std::int64_t id = 0;
    if (!s.next(id) || id <= 0) reject(lineno, "record must begin with a positive clause id");
    while (*s.p == ' ' || *s.p == '\t') ++s.p;
    if (*s.p == 'd') {
      ++s.p;
      ids.clear();
      for (std::int64_t v = s.expect("deletion terminator"); v != 0;
           v = s.expect("deletion terminator")) {
        if (v < 0) reject(lineno, "negative clause id in deletion record");
        ids.push_back(static_cast<std::uint64_t>(v));
      }
      std::int64_t extra = 0;
      if (s.next(extra)) reject(lineno, "trailing tokens after deletion record");
      k.del(ids, lineno);
      r.deletions += ids.size();
      continue;
    }
    lits.clear();
    for (std::int64_t v = s.expect("literal terminator"); v != 0;
         v = s.expect("literal terminator")) {
      if (v > INT32_MAX || v < INT32_MIN) {
        reject(lineno, "literal " + std::to_string(v) + " out of range");
      }
      lits.push_back(static_cast<std::int32_t>(v));
    }
    ids.clear();  // hint list
    for (std::int64_t v = s.expect("hint terminator"); v != 0;
         v = s.expect("hint terminator")) {
      if (v < 0) {
        reject(lineno, "negative (RAT) hints are not supported");
      }
      ids.push_back(static_cast<std::uint64_t>(v));
    }
    std::int64_t extra = 0;
    if (s.next(extra)) reject(lineno, "trailing tokens after addition record");
    // An exact-size copy for the clause map; `lits` keeps its capacity.
    r.verified = k.add(static_cast<std::uint64_t>(id),
                       std::vector<std::int32_t>(lits), ids, lineno);
    ++r.additions;
  }
  r.line = lineno;
}

// ---- binary (GRIT-style) certificate driver ----

std::uint64_t get_varint(std::istream& in, std::uint64_t rec) {
  std::uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    const int c = in.get();
    if (c < 0) reject(rec, "truncated record: unterminated varint");
    if (shift == 63 && (c & 0x7e) != 0) reject(rec, "varint overflows 64 bits");
    v |= static_cast<std::uint64_t>(c & 0x7f) << shift;
    if ((c & 0x80) == 0) return v;
  }
  reject(rec, "varint overflows 64 bits");
}

void run_binary(std::istream& cert, Kernel& k, VerifyResult& r) {
  std::uint64_t rec = 0;
  std::vector<std::int32_t> lits;
  std::vector<std::uint64_t> ids;
  int tag = 0;
  while (!r.verified && (tag = cert.get()) >= 0) {
    ++rec;
    if (tag == 'd') {
      ids.clear();
      for (std::uint64_t v = get_varint(cert, rec); v != 0;
           v = get_varint(cert, rec)) {
        ids.push_back(v);
      }
      k.del(ids, rec);
      r.deletions += ids.size();
      continue;
    }
    if (tag != 'a') {
      reject(rec, "unknown record tag byte " + std::to_string(tag));
    }
    const std::uint64_t id = get_varint(cert, rec);
    lits.clear();
    for (std::uint64_t v = get_varint(cert, rec); v != 0;
         v = get_varint(cert, rec)) {
      const std::uint64_t mag = v >> 1;
      if (mag == 0 || mag > INT32_MAX) {
        reject(rec, "encoded literal " + std::to_string(v) + " out of range");
      }
      const auto m = static_cast<std::int32_t>(mag);
      lits.push_back((v & 1) != 0 ? -m : m);
    }
    ids.clear();  // hint list
    for (std::uint64_t v = get_varint(cert, rec); v != 0;
         v = get_varint(cert, rec)) {
      ids.push_back(v);
    }
    r.verified = k.add(id, std::move(lits), ids, rec);
    lits = {};
    ++r.additions;
  }
  r.line = rec;
}

VerifyResult verify(std::istream& cnf, std::istream& cert) {
  VerifyResult r;
  try {
    Cnf f = parse_cnf(cnf);
    Kernel k(std::move(f));
    const int first = cert.peek();
    if (first < 0) reject(0, "certificate is empty");
    if (first == 'a' || first == 'd') {
      run_binary(cert, k, r);
    } else {
      run_text(cert, k, r);
    }
    if (!r.verified) {
      reject(r.line, "certificate ended without deriving the empty clause");
    }
  } catch (const Reject& rej) {
    r.verified = false;
    r.error = rej.msg;
    r.line = rej.line;
  }
  return r;
}

}  // namespace oracle

// ---------------------------------------------------------------- outcomes

constexpr std::size_t kBlock = std::size_t{1} << 16;  // the kernel's reads

std::string outcome(const VerifyResult& r) {
  return std::string(r.verified ? "VERIFIED" : "REJECTED") + " line " +
         std::to_string(r.line) + " additions " + std::to_string(r.additions) +
         " deletions " + std::to_string(r.deletions) + ": " + r.error;
}

struct Outcomes {
  std::string kernel;
  std::string oracle;
};

Outcomes run(const std::string& cnf, const std::string& cert) {
  std::istringstream a(cnf), b(cert), c(cnf), d(cert);
  return {outcome(kern::verify_lrat(a, b)), outcome(oracle::verify(c, d))};
}

// ---------------------------------------------------------------- fixture

// One certificate step, parsed from the text form.
struct Step {
  bool deletion = false;
  std::uint64_t id = 0;
  std::vector<std::int64_t> lits;
  std::vector<std::uint64_t> ids;  // hints, or the deleted clauses
};

// php5 and its hybrid-checker certificate (additions and deletions).
struct Fixture {
  std::string cnf;
  std::string text;
  std::vector<Step> steps;
  std::uint64_t num_original = 0;
};

const Fixture& fixture() {
  static const Fixture fx = [] {
    Fixture x;
    const Formula f = encode::pigeonhole(5);
    solver::Solver s;
    s.add_formula(f);
    trace::MemoryTraceWriter trace_writer;
    s.set_trace_writer(&trace_writer);
    EXPECT_EQ(s.solve(), solver::SolveResult::Unsatisfiable);
    const trace::MemoryTrace t = trace_writer.take();
    std::ostringstream cnf;
    dimacs::write(cnf, f);
    x.cnf = cnf.str();
    std::ostringstream sink;
    cert::TextLratWriter w(sink);
    cert::LratEmitter emitter(w, f.num_clauses());
    trace::MemoryTraceReader r(t);
    checker::WindowOptions opts;
    opts.mem_limit_bytes = 0;  // the hybrid checker
    opts.observer = &emitter;
    EXPECT_TRUE(checker::check_window(f, r, opts).ok);
    x.text = sink.str();
    x.num_original = f.num_clauses();
    std::istringstream in(x.text);
    std::string line;
    while (std::getline(in, line)) {
      std::istringstream fields(line);
      Step st;
      fields >> st.id;
      std::string tok;
      std::int64_t v = 0;
      if (fields >> tok && tok == "d") {
        st.deletion = true;
      } else {
        for (v = std::stoll(tok); v != 0; fields >> v) st.lits.push_back(v);
      }
      while (fields >> v && v != 0) st.ids.push_back(static_cast<std::uint64_t>(v));
      x.steps.push_back(std::move(st));
    }
    return x;
  }();
  return fx;
}

TEST(KernelReaderFixture, VerifiesWithAdditionsAndDeletions) {
  const Fixture& fx = fixture();
  const Outcomes o = run(fx.cnf, fx.text);
  EXPECT_EQ(o.kernel, o.oracle);
  EXPECT_EQ(o.kernel.rfind("VERIFIED", 0), 0u) << o.kernel;
  EXPECT_EQ(o.kernel.find("deletions 0:"), std::string::npos) << o.kernel;
  EXPECT_GT(fx.text.size(), 4096u);
}

// ---------------------------------------------------------------- encoding

void put_varint(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

// The binary form of `steps`, after `pad` tautological additions
// ("<id> 1 -1 0 0", accepted without hints) that take the IDs just past the
// originals; the steps' addition IDs move up by `pad` to make room.
std::string encode_binary(const std::vector<Step>& steps,
                          std::uint64_t num_original, std::uint64_t pad) {
  std::string out;
  for (std::uint64_t k = 0; k < pad; ++k) {
    out.push_back('a');
    put_varint(out, num_original + 1 + k);
    out += std::string("\x02\x03\x00\x00", 4);
  }
  const auto map = [&](std::uint64_t id) {
    return id > num_original ? id + pad : id;
  };
  for (const Step& st : steps) {
    if (st.deletion) {
      out.push_back('d');
    } else {
      out.push_back('a');
      put_varint(out, map(st.id));
      for (const std::int64_t l : st.lits) {
        put_varint(out, 2 * static_cast<std::uint64_t>(l < 0 ? -l : l) +
                            (l < 0 ? 1 : 0));
      }
      put_varint(out, 0);
    }
    for (const std::uint64_t id : st.ids) put_varint(out, map(id));
    put_varint(out, 0);
  }
  return out;
}

// The binary certificate with tautologies in front, sized so the first
// block ends `into` bytes into the steps: the last tautology's hint
// terminator takes the remainder as redundant 0x80 bytes (a zero varint of
// up to 7 bytes).
std::string binary_straddling(const std::vector<Step>& steps,
                              std::uint64_t num_original, std::size_t into) {
  const std::size_t prefix = kBlock - into;
  std::uint64_t pad = 0;
  std::size_t len = 0;
  while (true) {
    std::string one;
    put_varint(one, num_original + 1 + pad);
    if (len + one.size() + 5 > prefix) break;
    len += one.size() + 5;
    ++pad;
  }
  std::string out = encode_binary(steps, num_original, pad);
  out.insert(len - 1, prefix - len, '\x80');
  return out;
}

TEST(KernelReaderFixture, BinaryEncodingVerifies) {
  const Fixture& fx = fixture();
  for (const std::string& cert :
       {encode_binary(fx.steps, fx.num_original, 0),
        binary_straddling(fx.steps, fx.num_original, 3)}) {
    const Outcomes o = run(fx.cnf, cert);
    EXPECT_EQ(o.kernel, o.oracle);
    EXPECT_EQ(o.kernel.rfind("VERIFIED", 0), 0u) << o.kernel;
  }
  EXPECT_EQ(binary_straddling(fx.steps, fx.num_original, 3)[kBlock - 3], 'a');
}

// ---------------------------------------------------------------- mutation

const std::string kTokens[] = {
    "+3", "-", "+", "+-1", "--1", "-0", "00", "0x1", "3-4", "2x", "x",
    "99999999999999999999", "-99999999999999999999", "9223372036854775807",
    "9223372036854775808", "-9223372036854775808", "-9223372036854775809",
    "2147483647", "2147483648", "-2147483649", "-1", "0", "1", "7", "31",
    "-31", "90", "d", "c", "p", "cnf", "cx", "\v5", "5\v", "+\v5",
    std::string("1\0" "2", 3), "1 0", "0 0", "d 0", "1 2 0"};

const char kBytes[] = "0123456789-+ \t\r\n\v\fcpdnfx";

/// Applies 1-4 random edits to text: byte replace/insert/delete, token
/// replace, line duplicate/delete, truncation. Edits fall on the first
/// line (the CNF header) a quarter of the time. Some seeds then pad the
/// front with a comment line or a whitespace run, sized so the first block
/// ends a few bytes into the original text.
std::string mutate_text(std::string text, util::Rng& rng) {
  const int edits = 1 + static_cast<int>(rng.next_below(4));
  for (int e = 0; e < edits && !text.empty(); ++e) {
    const std::size_t first_line = std::min(text.find('\n'), text.size() - 1);
    const std::size_t pos = rng.next_bool(0.25)
                                ? rng.next_below(first_line + 1)
                                : rng.next_below(text.size());
    switch (rng.next_below(7)) {
      case 0:
        text[pos] = kBytes[rng.next_below(sizeof kBytes - 1)];
        break;
      case 1:
        text.insert(text.begin() + static_cast<std::ptrdiff_t>(pos),
                    rng.next_bool(0.15)
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
        const auto space = [](char c) {
          return std::isspace(static_cast<unsigned char>(c)) != 0;
        };
        while (b > 0 && !space(text[b - 1])) --b;
        while (end < text.size() && !space(text[end])) ++end;
        text.replace(b, end - b, kTokens[rng.next_below(std::size(kTokens))]);
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
  if (rng.next_bool(0.4)) {
    const std::size_t prefix = kBlock - rng.next_below(48);
    if (rng.next_bool()) {
      text = "c " + std::string(prefix - 3, 'x') + '\n' + text;
    } else {
      std::string ws(prefix, ' ');
      for (char& c : ws) c = " \t\n\r\v\f"[rng.next_below(6)];
      ws.back() = '\n';
      text = ws + text;
    }
  }
  return text;
}

const std::string kVarints[] = {
    std::string(1, '\0'), "\x01", "\x02", "\x03", "\x7f", "\x80\x01",
    "\xff\x7f", "a", "d",
    std::string("\x80\x80\x80\x80\x80\x80\x80\x80\x80\x01", 10),  // 2^63
    std::string("\x80\x80\x80\x80\x80\x80\x80\x80\x80\x02", 10),  // 2^64
    std::string("\xff\xff\xff\xff\xff\xff\xff\xff\xff\x7f", 10),
    std::string("\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff", 10),
    std::string("\x80\x80\x00", 3)};

const char kVarintBytes[] = "\x00\x01\x02\x03\x7f\x80\x81\xff" "adx";

/// Binary mutation: 0-2 step-level edits (delete, duplicate, swap with the
/// next, retarget an ID) before encoding, then 1-3 byte-level edits (byte
/// replace/insert/delete, a varint spliced over 1-3 bytes, truncation)
/// after it. Some seeds pad with tautologies so the first block ends a few
/// bytes into the steps.
std::string mutate_binary(std::vector<Step> steps, std::uint64_t num_original,
                          util::Rng& rng) {
  const int step_edits = static_cast<int>(rng.next_below(3));
  for (int e = 0; e < step_edits && !steps.empty(); ++e) {
    const std::size_t i = rng.next_below(steps.size());
    switch (rng.next_below(4)) {
      case 0:
        steps.erase(steps.begin() + static_cast<std::ptrdiff_t>(i));
        break;
      case 1:
        steps.insert(steps.begin() + static_cast<std::ptrdiff_t>(i), steps[i]);
        break;
      case 2:
        if (i + 1 < steps.size()) std::swap(steps[i], steps[i + 1]);
        break;
      default:
        if (!steps[i].ids.empty()) {
          steps[i].ids[rng.next_below(steps[i].ids.size())] =
              1 + rng.next_below(num_original + steps.size());
        }
        break;
    }
  }
  const bool pad = rng.next_bool(0.4);
  std::string bytes =
      pad ? binary_straddling(steps, num_original, rng.next_below(48))
          : encode_binary(steps, num_original, 0);
  const std::size_t from = pad ? kBlock - 64 : 0;
  const int edits = 1 + static_cast<int>(rng.next_below(3));
  for (int e = 0; e < edits && bytes.size() > from; ++e) {
    const std::size_t pos = from + rng.next_below(bytes.size() - from);
    const char byte = kVarintBytes[rng.next_below(sizeof kVarintBytes - 1)];
    switch (rng.next_below(6)) {
      case 0:
        bytes[pos] = byte;
        break;
      case 1:
        bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(pos), byte);
        break;
      case 2:
        bytes.erase(pos, 1);
        break;
      case 3:
      case 4:
        bytes.replace(pos, 1 + rng.next_below(3),
                      kVarints[rng.next_below(std::size(kVarints))]);
        break;
      default:
        bytes.resize(pos);
        break;
    }
  }
  return bytes;
}

constexpr std::uint64_t kMutationSeeds = 400;

TEST(KernelReaderOracle, MutatedCnfMatchesIstreamKernel) {
  const Fixture& fx = fixture();
  int verified = 0;
  for (std::uint64_t seed = 1; seed <= kMutationSeeds; ++seed) {
    util::Rng rng(seed);
    const Outcomes o = run(mutate_text(fx.cnf, rng), fx.text);
    EXPECT_EQ(o.kernel, o.oracle) << "seed " << seed;
    verified += o.kernel.rfind("VERIFIED", 0) == 0 ? 1 : 0;
  }
  // Both verdicts occur, so the comparison covers accepting paths too.
  EXPECT_GT(verified, 0);
  EXPECT_LT(verified, static_cast<int>(kMutationSeeds));
}

TEST(KernelReaderOracle, MutatedTextCertificateMatchesIstreamKernel) {
  const Fixture& fx = fixture();
  int verified = 0;
  for (std::uint64_t seed = 1; seed <= kMutationSeeds; ++seed) {
    util::Rng rng(seed);
    const Outcomes o = run(fx.cnf, mutate_text(fx.text, rng));
    EXPECT_EQ(o.kernel, o.oracle) << "seed " << seed;
    verified += o.kernel.rfind("VERIFIED", 0) == 0 ? 1 : 0;
  }
  EXPECT_GT(verified, 0);
  EXPECT_LT(verified, static_cast<int>(kMutationSeeds));
}

TEST(KernelReaderOracle, MutatedBinaryCertificateMatchesIstreamKernel) {
  const Fixture& fx = fixture();
  int verified = 0;
  for (std::uint64_t seed = 1; seed <= kMutationSeeds; ++seed) {
    util::Rng rng(seed);
    const Outcomes o =
        run(fx.cnf, mutate_binary(fx.steps, fx.num_original, rng));
    EXPECT_EQ(o.kernel, o.oracle) << "seed " << seed;
    verified += o.kernel.rfind("VERIFIED", 0) == 0 ? 1 : 0;
  }
  EXPECT_GT(verified, 0);
  EXPECT_LT(verified, static_cast<int>(kMutationSeeds));
}

// ------------------------------------------------------------ fixed cases

void expect_agrees(const std::string& cnf, const std::string& cert,
                   const char* verdict) {
  const Outcomes o = run(cnf, cert);
  EXPECT_EQ(o.kernel, o.oracle);
  EXPECT_EQ(o.kernel.rfind(verdict, 0), 0u) << o.kernel;
}

TEST(KernelReaderFixed, TokenLongerThanABlock) {
  // A literal written with 70,000 leading zeros spans two blocks.
  const Fixture& fx = fixture();
  const std::size_t at = fx.cnf.find('\n') + 1;
  std::string cnf = fx.cnf;
  cnf.insert(at, std::string(70000, '0'));
  expect_agrees(cnf, fx.text, "VERIFIED");
}

TEST(KernelReaderFixed, CertificateLineLongerThanABlock) {
  // Hints after the conflict are read but not used: 30,000 of them make
  // the last line ~90 KiB long.
  const Fixture& fx = fixture();
  std::string extra;
  for (int i = 0; i < 30000; ++i) extra += " 1";
  const std::string cert =
      fx.text.substr(0, fx.text.size() - 3) + extra + " 0\n";
  expect_agrees(fx.cnf, cert, "VERIFIED");
  expect_agrees(fx.cnf, cert.substr(0, cert.size() - 1), "VERIFIED");
  expect_agrees(fx.cnf, cert.substr(0, cert.size() - 3), "REJECTED");
}

TEST(KernelReaderFixed, CommentsLongerThanABlock) {
  const Fixture& fx = fixture();
  const std::string comment = "c " + std::string(3 * kBlock, 'x') + "\n";
  expect_agrees(comment + fx.cnf, comment + fx.text, "VERIFIED");
}

TEST(KernelReaderFixed, ConsecutiveCommentLines) {
  // A comment line right after another one starts its line too: the
  // header may follow several, and clauses may sit between them.
  const char* cert = "3 0 1 2 0\n";
  expect_agrees("c a\nc b\np cnf 1 2\n1 0\n-1 0\n", cert, "VERIFIED");
  expect_agrees("c a\nc b\np cnf 1 2\nc x\nc y\n1 0\nc z\n-1 0\nc w\n",
                cert, "VERIFIED");
  // The second comment's 'c' is the first byte of the second block.
  const std::string first = "c " + std::string(kBlock - 3, 'x') + "\n";
  expect_agrees(first + "c b\np cnf 1 2\n1 0\n-1 0\n", cert, "VERIFIED");
  // Indented, a 'c' does not start its line.
  expect_agrees("c a\n c b\np cnf 1 2\n1 0\n-1 0\n", cert,
                "REJECTED line 0 additions 0 deletions 0: CNF: expected a "
                "comment or problem line, got 'c'");
}

TEST(KernelReaderFixed, InputsWithoutFinalNewline) {
  const Fixture& fx = fixture();
  expect_agrees(fx.cnf.substr(0, fx.cnf.size() - 1),
                fx.text.substr(0, fx.text.size() - 1), "VERIFIED");
}

TEST(KernelReaderFixed, EmptyInputs) {
  const Fixture& fx = fixture();
  expect_agrees("", fx.text, "REJECTED");
  expect_agrees(fx.cnf, "", "REJECTED");
  expect_agrees(fx.cnf, "\n", "REJECTED");
}

TEST(KernelReaderFixed, HeaderFieldsEndingMidToken) {
  // `>>` into an integer stops at the first non-digit and leaves the rest
  // for the next read. A 'c' left over that way does not start its line,
  // so it is a bad token, not a comment.
  expect_agrees("p cnf 1 2c\n1 0 -1 0\n", "3 0 1 2 0\n",
                "REJECTED line 0 additions 0 deletions 0: CNF: bad token 'c'");
  expect_agrees("p cnf 1 2-1 0 1 0\n", "3 0 1 2 0\n", "VERIFIED");
  expect_agrees("p cnf 1 2 -1 0 1 0", "3 0 1 2 0", "VERIFIED");
  expect_agrees("p cnf +1 002\n-1 0 1 0\n", "3 0 1 2 0\n", "VERIFIED");
  expect_agrees("p cnf 1 99999999999999999999\n", "3 0 1 2 0\n", "REJECTED");
  expect_agrees("p cnf 1 -9223372036854775808\n", "3 0 1 2 0\n", "REJECTED");
  expect_agrees("p cnf 1\n", "3 0 1 2 0\n", "REJECTED");
  expect_agrees("p cnf 1 +\n", "3 0 1 2 0\n", "REJECTED");
}

}  // namespace
}  // namespace satproof
