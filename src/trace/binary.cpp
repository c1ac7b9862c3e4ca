#include "src/trace/binary.hpp"

#include <ostream>
#include <stdexcept>

#include "src/cnf/dimacs.hpp"
#include "src/util/varint.hpp"

namespace satproof::trace {

namespace {

constexpr char kMagic[4] = {'S', 'P', 'R', 'F'};
constexpr std::uint8_t kVersion = 0x01;

constexpr std::uint8_t kTagDerivation = 0x01;
constexpr std::uint8_t kTagFinalConflict = 0x02;
constexpr std::uint8_t kTagLevel0 = 0x03;
constexpr std::uint8_t kTagEnd = 0x04;
constexpr std::uint8_t kTagAssumption = 0x05;

constexpr int kMaxVarintBytes = 10;

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("binary trace: " + what);
}

/// `v` as a Var, or a failure naming `what` when it is above
/// dimacs::kMaxVars: a larger value would alias a smaller variable.
Var check_var(const char* what, std::uint64_t v) {
  const auto max = static_cast<std::uint64_t>(dimacs::kMaxVars);
  if (v > max) {
    fail(std::string(what) + " " + std::to_string(v) + " exceeds " +
         std::to_string(max));
  }
  return static_cast<Var>(v);
}

}  // namespace

void BinaryTraceWriter::begin(Var num_vars, ClauseId num_original) {
  buf_.clear();
  buf_.insert(buf_.end(), kMagic, kMagic + sizeof kMagic);
  buf_.push_back(kVersion);
  util::append_varint(buf_, num_vars);
  util::append_varint(buf_, num_original);
  flush_buf();
}

void BinaryTraceWriter::derivation(ClauseId id,
                                   std::span<const ClauseId> sources) {
  buf_.clear();
  buf_.push_back(kTagDerivation);
  util::append_varint(buf_, id);
  util::append_varint(buf_, sources.size());
  for (const ClauseId s : sources) {
    if (s >= id) fail("derivation source id must precede the derived id");
    util::append_varint(buf_, id - s);
  }
  flush_buf();
}

void BinaryTraceWriter::final_conflict(ClauseId id) {
  buf_.clear();
  buf_.push_back(kTagFinalConflict);
  util::append_varint(buf_, id);
  flush_buf();
}

void BinaryTraceWriter::level0(Var var, bool value, ClauseId antecedent) {
  buf_.clear();
  buf_.push_back(kTagLevel0);
  util::append_varint(buf_, (static_cast<std::uint64_t>(var) << 1) |
                                (value ? 1u : 0u));
  util::append_varint(buf_, antecedent);
  flush_buf();
}

void BinaryTraceWriter::assumption(Var var, bool value) {
  buf_.clear();
  buf_.push_back(kTagAssumption);
  util::append_varint(buf_, (static_cast<std::uint64_t>(var) << 1) |
                                (value ? 1u : 0u));
  flush_buf();
}

void BinaryTraceWriter::end() {
  out_->put(static_cast<char>(kTagEnd));
  out_->flush();
}

void BinaryTraceWriter::flush_buf() {
  out_->write(reinterpret_cast<const char*>(buf_.data()),
              static_cast<std::streamsize>(buf_.size()));
}

BinaryTraceReader::BinaryTraceReader(std::istream& in)
    : BinaryTraceReader(std::make_unique<util::StreamByteSource>(in)) {}

BinaryTraceReader::BinaryTraceReader(std::unique_ptr<util::ByteSource> source)
    : source_(std::move(source)) {
  char magic[4] = {};
  for (char& c : magic) {
    const int b = get();
    if (b < 0) fail("bad magic (not a satproof binary trace)");
    c = static_cast<char>(b);
  }
  if (magic[0] != kMagic[0] || magic[1] != kMagic[1] ||
      magic[2] != kMagic[2] || magic[3] != kMagic[3]) {
    fail("bad magic (not a satproof binary trace)");
  }
  const int version = get();
  if (version != kVersion) fail("unsupported version");
  num_vars_ = check_var("header num_vars", read_u64("num_vars"));
  num_original_ = read_u64("num_original");
  body_start_ = win_pos_ + static_cast<std::uint64_t>(p_ - win_begin_);
}

bool BinaryTraceReader::refill() {
  const std::uint64_t pos =
      win_pos_ + static_cast<std::uint64_t>(p_ - win_begin_);
  const auto w = source_->window(pos);
  win_pos_ = pos;
  win_begin_ = p_ = w.begin;
  end_ = w.end;
  return p_ != end_;
}

int BinaryTraceReader::get() {
  if (p_ == end_ && !refill()) return -1;
  return *p_++;
}

std::uint64_t BinaryTraceReader::read_u64(const char* what) {
  // Fast path: the whole (≤ 10 byte) varint is inside the current window,
  // so decode with raw pointer bumps. For mmap'd or in-memory traces this
  // is every varint in the file.
  if (end_ - p_ >= kMaxVarintBytes) return util::decode_varint_padded(p_);

  // Window-boundary slow path: gather the encoding byte by byte (refilling
  // as needed), then decode the gathered bytes with the same strict
  // decoder so both paths accept exactly the same encodings.
  std::uint8_t buf[kMaxVarintBytes];
  int n = 0;
  while (n < kMaxVarintBytes) {
    const int c = get();
    if (c < 0) {
      if (n == 0) fail(std::string("truncated while reading ") + what);
      break;  // mid-varint EOF: decode below reports the truncation
    }
    buf[n++] = static_cast<std::uint8_t>(c);
    if ((c & 0x80) == 0) break;
  }
  const std::uint8_t* q = buf;
  return util::decode_varint(q, buf + n);
}

template <class T>
void BinaryTraceReader::read_sources(std::uint64_t k, ClauseId id,
                                     std::vector<T>& out) {
  std::uint64_t i = 0;
  // Fast path: all k deltas lie inside the current window, so decode them
  // with a local cursor and no per-source refill check.
  if (static_cast<std::uint64_t>(end_ - p_) / kMaxVarintBytes >= k) {
    const std::uint8_t* p = p_;
    const std::size_t base = out.size();
    out.resize(base + k);
    T* dst = out.data() + base;
    for (; i < k; ++i) {
      const std::uint64_t delta = util::decode_varint_padded(p);
      if (delta == 0 || delta > id) {
        p_ = p;
        out.resize(base + i);
        fail("source delta out of range");
      }
      dst[i] = static_cast<T>(id - delta);
    }
    p_ = p;
    return;
  }
  for (; i < k; ++i) {
    const std::uint64_t delta = read_u64("source delta");
    if (delta == 0 || delta > id) fail("source delta out of range");
    out.push_back(static_cast<T>(id - delta));
  }
}

bool BinaryTraceReader::next(Record& out) { return read_record(out, nullptr); }

bool BinaryTraceReader::next_into(Record& out,
                                  std::vector<std::uint32_t>& pool) {
  return read_record(out, &pool);
}

bool BinaryTraceReader::read_record(Record& out,
                                    std::vector<std::uint32_t>* pool) {
  if (done_) return false;
  const int tag = get();
  if (tag < 0) {
    fail("trace truncated: no end record");
  }
  switch (static_cast<std::uint8_t>(tag)) {
    case kTagDerivation: {
      out.kind = RecordKind::Derivation;
      out.id = read_u64("derivation id");
      const std::uint64_t k = read_u64("source count");
      if (k < 2) fail("derivation needs at least two sources");
      out.sources.clear();
      // Nothing is reserved for k up front: k comes from the trace, and a
      // list longer than the bytes left fails as a truncation.
      if (pool != nullptr) {
        // Straight into the caller's storage, which the whole-trace load
        // sized once from remaining_bytes().
        read_sources(k, out.id, *pool);
      } else {
        read_sources(k, out.id, out.sources);
      }
      return true;
    }
    case kTagFinalConflict:
      out.kind = RecordKind::FinalConflict;
      out.id = read_u64("final conflict id");
      out.sources.clear();
      return true;
    case kTagLevel0: {
      out.kind = RecordKind::Level0;
      const std::uint64_t packed = read_u64("level-0 literal");
      out.var = check_var("level-0 record variable", (packed >> 1) + 1) - 1;
      out.value = (packed & 1) != 0;
      out.antecedent = read_u64("level-0 antecedent");
      out.sources.clear();
      return true;
    }
    case kTagAssumption: {
      out.kind = RecordKind::Assumption;
      const std::uint64_t packed = read_u64("assumption literal");
      out.var = check_var("assumption record variable", (packed >> 1) + 1) - 1;
      out.value = (packed & 1) != 0;
      out.antecedent = kInvalidClauseId;
      out.sources.clear();
      return true;
    }
    case kTagEnd:
      out.kind = RecordKind::End;
      out.sources.clear();
      done_ = true;
      return true;
    default:
      fail("unknown record tag " + std::to_string(tag));
  }
}

std::optional<std::uint64_t> BinaryTraceReader::remaining_bytes() const {
  const std::optional<std::uint64_t> size = source_->size();
  if (!size.has_value()) return std::nullopt;
  return *size - tell();
}

void BinaryTraceReader::rewind() {
  try {
    const auto w = source_->window(body_start_);
    win_pos_ = body_start_;
    win_begin_ = p_ = w.begin;
    end_ = w.end;
  } catch (const std::exception&) {
    fail("rewind failed");
  }
  done_ = false;
}

void BinaryTraceReader::seek(std::uint64_t pos) {
  if (pos < body_start_) fail("seek before first record");
  try {
    const auto w = source_->window(pos);
    win_pos_ = pos;
    win_begin_ = p_ = w.begin;
    end_ = w.end;
  } catch (const std::exception&) {
    fail("seek failed");
  }
  done_ = false;
}

void BinaryTraceReader::release_hint(std::uint64_t begin, std::uint64_t end) {
  if (end > begin) source_->release(begin, end - begin);
}

std::unique_ptr<BinaryTraceReader> open_binary_trace_file(
    const std::string& path) {
  return std::make_unique<BinaryTraceReader>(util::ByteSource::map_file(path));
}

}  // namespace satproof::trace
