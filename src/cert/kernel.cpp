#include "src/cert/kernel.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstdlib>
#include <istream>
#include <utility>
#include <vector>

namespace satproof::kern {

namespace {

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

Cnf parse_cnf(std::istream& in) {
  Cnf f;
  std::string tok;
  std::int64_t declared = -1;
  while (in >> tok) {
    if (tok[0] == 'c') {
      std::getline(in, tok);
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
  while (in >> tok) {
    if (tok[0] == 'c') {
      std::getline(in, tok);
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

}  // namespace

VerifyResult verify_lrat(std::istream& cnf, std::istream& cert) {
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

}  // namespace satproof::kern
