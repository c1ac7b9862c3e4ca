#include "src/cert/kernel.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstring>
#include <istream>
#include <string_view>
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

// One buffered reader under all three drivers: the stream is read in
// 64 KiB istream::read blocks, and the drivers take tokens, lines or bytes
// from the buffer. The unconsumed tail moves to the front before each
// block, so a token or line that straddles a block stays contiguous (the
// buffer grows for one longer than a block).
class Reader {
 public:
  explicit Reader(std::istream& in) : in_(in), buf_(kBlock + 1) {}

  int peek() {
    return p_ < end_ || fill() ? static_cast<unsigned char>(buf_[p_]) : -1;
  }

  int get() {
    const int c = peek();
    if (c >= 0) ++p_;
    return c;
  }

  // The next line without its '\n', NUL-terminated in place (the buffer
  // keeps a spare byte past the data for a final line without one), as
  // std::getline splits; false at end of input.
  bool line(char*& first, char*& last) {
    if (p_ == end_ && !fill()) return false;
    std::size_t i = p_;
    while (true) {
      const void* nl = std::memchr(&buf_[i], '\n', end_ - i);
      if (nl != nullptr) {
        i = static_cast<std::size_t>(static_cast<const char*>(nl) - &buf_[0]);
        break;
      }
      const std::size_t scanned = end_ - p_;
      if (!fill()) {
        i = end_;
        break;
      }
      i = p_ + scanned;
    }
    buf_[i] = '\0';
    first = &buf_[p_];
    last = &buf_[i];
    p_ = i < end_ ? i + 1 : i;
    return true;
  }

  // Skips to the end of the line, leaving its '\n' unread, so the next
  // token() sees that the token after it starts a line.
  void skip_line() {
    while (peek() >= 0 && buf_[p_] != '\n') ++p_;
  }

  // The next whitespace-delimited token, as `istream >> std::string` reads
  // one (the view lives until the next call); false at end of input.
  // `line_start` tells whether the token is the first byte of its line.
  bool token(std::string_view& tok, bool& line_start) {
    while (peek() >= 0 && is_space(buf_[p_])) ++p_;
    if (p_ == end_) return false;
    line_start = (p_ > 0 ? buf_[p_ - 1] : before_) == '\n';
    std::size_t i = p_;
    while (true) {
      while (i < end_ && !is_space(buf_[i])) ++i;
      if (i < end_) break;
      const std::size_t scanned = i - p_;
      const bool more = fill();
      i = p_ + scanned;
      if (!more) break;
    }
    tok = std::string_view(&buf_[p_], i - p_);
    p_ = i;
    return true;
  }

  // A decimal integer as `istream >> std::int64_t` reads one: whitespace,
  // one optional sign, digits up to the first non-digit; false when there
  // are no digits or the value leaves the int64 range.
  bool integer(std::int64_t& out) {
    while (peek() >= 0 && is_space(buf_[p_])) ++p_;
    const bool neg = peek() == '-';
    if (neg || peek() == '+') ++p_;
    const std::uint64_t limit = neg ? std::uint64_t{1} << 63 : INT64_MAX;
    std::uint64_t v = 0;
    bool digits = false;
    bool overflow = false;
    for (int c = peek(); c >= '0' && c <= '9'; c = peek()) {
      ++p_;
      digits = true;
      const auto d = static_cast<std::uint64_t>(c - '0');
      overflow = overflow || v > (limit - d) / 10;
      v = v * 10 + d;
    }
    out = static_cast<std::int64_t>(neg ? 0 - v : v);
    return digits && !overflow;
  }

 private:
  static constexpr std::size_t kBlock = std::size_t{1} << 16;

  static bool is_space(char c) {
    return c == ' ' || (c >= '\t' && c <= '\r');
  }

  bool fill() {
    if (p_ > 0) before_ = buf_[p_ - 1];
    std::copy(buf_.begin() + static_cast<std::ptrdiff_t>(p_),
              buf_.begin() + static_cast<std::ptrdiff_t>(end_), buf_.begin());
    end_ -= p_;
    p_ = 0;
    if (buf_.size() < end_ + kBlock + 1) buf_.resize(end_ + kBlock + 1);
    in_.read(&buf_[end_], static_cast<std::streamsize>(kBlock));
    const auto n = static_cast<std::size_t>(in_.gcount());
    end_ += n;
    return n > 0;
  }

  std::istream& in_;
  std::vector<char> buf_;
  std::size_t p_ = 0;    // next unread byte
  std::size_t end_ = 0;  // one past the buffered data
  char before_ = '\n';   // the byte before buf_[0]; input starts a line
};

// Bounds a hostile CNF header (the assignment array is sized from it).
constexpr std::int64_t kMaxVars = std::int64_t{1} << 28;

// The original clauses in one flat literal array: clause i (0-based) is
// lits[start[i], start[i + 1]).
struct Cnf {
  std::int64_t num_vars = 0;
  std::vector<std::int32_t> lits;
  std::vector<std::size_t> start{0};
};

// A clause literal token, by strtoll's base-10 rules on the token read as
// a C string: one optional sign, then digits through the token's end (or an
// embedded NUL), in the int64 range.
bool parse_literal(std::string_view tok, std::int64_t& lit) {
  const char* q = tok.data();
  const char* stop = q + tok.size();
  if (const void* nul = std::memchr(q, '\0', tok.size()); nul != nullptr) {
    stop = static_cast<const char*>(nul);
  }
  if (stop - q > 1 && *q == '+' && q[1] != '-') ++q;  // from_chars takes only '-'
  const auto [end, ec] = std::from_chars(q, stop, lit);
  return ec == std::errc() && end == stop;
}

Cnf parse_cnf(Reader& in) {
  Cnf f;
  std::string_view tok;
  std::int64_t declared = -1;
  // A comment is a line whose first byte is 'c', as dimacs::parse reads
  // one; a 'c' token anywhere else is not a comment.
  bool line_start = false;
  while (in.token(tok, line_start)) {
    if (line_start && tok[0] == 'c') {
      in.skip_line();  // the comment's remainder
      continue;
    }
    if (tok == "p") {
      if (!in.token(tok, line_start) || tok != "cnf" ||
          !in.integer(f.num_vars) || !in.integer(declared)) {
        reject(0, "CNF: malformed problem line");
      }
      if (f.num_vars < 0 || f.num_vars > kMaxVars || declared < 0) {
        reject(0, "CNF: variable or clause count out of range");
      }
      break;
    }
    reject(0, "CNF: expected a comment or problem line, got '" +
                  std::string(tok) + "'");
  }
  if (declared < 0) reject(0, "CNF: missing problem line");
  while (in.token(tok, line_start)) {
    if (line_start && tok[0] == 'c') {
      in.skip_line();  // the comment's remainder
      continue;
    }
    std::int64_t lit = 0;
    if (!parse_literal(tok, lit)) {
      reject(0, "CNF: bad token '" + std::string(tok) + "'");
    }
    if (lit == 0) {
      f.start.push_back(f.lits.size());
      continue;
    }
    if (lit > f.num_vars || lit < -f.num_vars) {
      reject(0, "CNF: literal " + std::to_string(lit) +
                    " exceeds the declared variable count");
    }
    f.lits.push_back(static_cast<std::int32_t>(lit));
  }
  if (f.lits.size() != f.start.back()) {
    reject(0, "CNF: last clause missing its terminating 0");
  }
  const std::size_t num_clauses = f.start.size() - 1;
  if (static_cast<std::int64_t>(num_clauses) != declared) {
    reject(0, "CNF: header declares " + std::to_string(declared) +
                  " clauses but the file has " + std::to_string(num_clauses));
  }
  return f;
}

// The clause map: IDs in insertion order (strictly increasing, so the
// array is sorted), a liveness flag alongside. Originals occupy IDs
// 1..num_clauses, LRAT convention, and keep the CNF's flat literal array;
// each addition owns a vector, so deleting it frees its literals. satproof's
// emitter numbers the additions on from there without gaps, so lookup tries
// index id - 1 before falling back to a binary search.
class Kernel {
 public:
  explicit Kernel(Cnf&& f)
      : num_vars_(f.num_vars),
        num_orig_(f.start.size() - 1),
        orig_(std::move(f)),
        alive_(num_orig_, 1),
        val_(static_cast<std::size_t>(num_vars_) + 1, 0),
        last_id_(num_orig_) {
    ids_.reserve(num_orig_);
    for (std::size_t i = 0; i < num_orig_; ++i) ids_.push_back(i + 1);
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
      const Lits c = find(hints[h], line, "hint");
      std::int32_t unit = 0;
      bool satisfied = false;
      int unassigned = 0;
      for (const std::int32_t* q = c.first; q != c.last; ++q) {
        const std::int32_t lit = *q;
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
    added_.push_back(std::move(lits));
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
      if (idx >= num_orig_) {
        added_[idx - num_orig_].clear();
        added_[idx - num_orig_].shrink_to_fit();
      }
    }
  }

 private:
  struct Lits {
    const std::int32_t* first;
    const std::int32_t* last;
  };

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

  Lits find(std::uint64_t id, std::uint64_t line, const char* what) const {
    const std::size_t idx = index_of(id, line, what);
    if (alive_[idx] == 0) {
      reject(line, std::string(what) + " references deleted clause " +
                       std::to_string(id));
    }
    if (idx >= num_orig_) {
      const std::vector<std::int32_t>& c = added_[idx - num_orig_];
      return {c.data(), c.data() + c.size()};
    }
    const std::int32_t* lits = orig_.lits.data();
    return {lits + orig_.start[idx], lits + orig_.start[idx + 1]};
  }

  std::int64_t num_vars_;
  std::size_t num_orig_;
  Cnf orig_;
  std::vector<std::uint64_t> ids_;  // sorted; parallel to alive_
  std::vector<std::vector<std::int32_t>> added_;  // by index - num_orig_
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

void run_text(Reader& cert, Kernel& k, VerifyResult& r) {
  char* first = nullptr;
  char* last = nullptr;
  std::uint64_t lineno = 0;
  std::vector<std::int32_t> lits;
  std::vector<std::uint64_t> ids;
  while (!r.verified && cert.line(first, last)) {
    ++lineno;
    LineScan s{first, last, lineno};
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

// LEB128: 7 bits per byte, low first. The 10th byte carries bit 63 only,
// so any higher bit there, or a continuation past it, overflows.
std::uint64_t get_varint(Reader& in, std::uint64_t rec) {
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

void run_binary(Reader& cert, Kernel& k, VerifyResult& r) {
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
    Reader cnf_in(cnf);
    Kernel k(parse_cnf(cnf_in));
    Reader in(cert);
    const int first = in.peek();
    if (first < 0) reject(0, "certificate is empty");
    if (first == 'a' || first == 'd') {
      run_binary(in, k, r);
    } else {
      run_text(in, k, r);
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
