#include "src/cert/lrat_emitter.hpp"

#include <charconv>

namespace satproof::cert {

namespace {

constexpr std::size_t kFlushThreshold = 1 << 16;

// The widest number a text record holds: a u64 ID or an i64 literal.
constexpr std::size_t kMaxDigits = 20;

template <class Int>
char* put_number(char* p, Int v) {
  return std::to_chars(p, p + kMaxDigits, v).ptr;
}

char* put_terminator(char* p) {
  p[0] = ' ';
  p[1] = '0';
  return p + 2;
}

}  // namespace

// ---------------------------------------------------------------- text

void TextLratWriter::add(std::uint64_t id, std::span<const Lit> lits,
                         std::span<const std::uint64_t> hints) {
  char* p = reserve((1 + lits.size() + hints.size()) * (kMaxDigits + 1) + 5);
  p = put_number(p, id);
  for (const Lit lit : lits) {
    *p++ = ' ';
    p = put_number(p, lit.to_dimacs());
  }
  p = put_terminator(p);
  for (const std::uint64_t h : hints) {
    *p++ = ' ';
    p = put_number(p, h);
  }
  p = put_terminator(p);
  *p++ = '\n';
  commit(p);
}

void TextLratWriter::del(std::uint64_t at_id,
                         std::span<const std::uint64_t> ids) {
  char* p = reserve((1 + ids.size()) * (kMaxDigits + 1) + 5);
  p = put_number(p, at_id);
  *p++ = ' ';
  *p++ = 'd';
  for (const std::uint64_t id : ids) {
    *p++ = ' ';
    p = put_number(p, id);
  }
  p = put_terminator(p);
  *p++ = '\n';
  commit(p);
}

void TextLratWriter::finish() {
  if (len_ != 0) {
    out_->write(buf_.data(), static_cast<std::streamsize>(len_));
    len_ = 0;
  }
  out_->flush();
  if (!out_->good()) ok_ = false;
}

char* TextLratWriter::reserve(std::size_t n) {
  if (buf_.size() < len_ + n) buf_.resize(len_ + n);
  return buf_.data() + len_;
}

void TextLratWriter::commit(const char* end) {
  len_ = static_cast<std::size_t>(end - buf_.data());
  if (len_ < kFlushThreshold) return;
  out_->write(buf_.data(), static_cast<std::streamsize>(len_));
  len_ = 0;
  if (!out_->good()) ok_ = false;
}

// -------------------------------------------------------------- binary

void BinaryLratWriter::put_varint(std::uint64_t v) {
  while (v >= 0x80) {
    buf_.push_back(static_cast<char>(static_cast<unsigned char>(v) | 0x80u));
    v >>= 7;
  }
  buf_.push_back(static_cast<char>(v));
}

void BinaryLratWriter::add(std::uint64_t id, std::span<const Lit> lits,
                           std::span<const std::uint64_t> hints) {
  buf_.push_back('a');
  put_varint(id);
  for (const Lit lit : lits) {
    const std::uint64_t mag = static_cast<std::uint64_t>(lit.var()) + 1;
    put_varint(2 * mag + (lit.negated() ? 1 : 0));
  }
  put_varint(0);
  for (const std::uint64_t h : hints) put_varint(h);
  put_varint(0);
  maybe_flush();
}

void BinaryLratWriter::del(std::uint64_t /*at_id*/,
                           std::span<const std::uint64_t> ids) {
  buf_.push_back('d');
  for (const std::uint64_t id : ids) put_varint(id);
  put_varint(0);
  maybe_flush();
}

void BinaryLratWriter::finish() {
  if (!buf_.empty()) {
    out_->write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
    buf_.clear();
  }
  out_->flush();
  if (!out_->good()) ok_ = false;
}

void BinaryLratWriter::maybe_flush() {
  if (buf_.size() < kFlushThreshold) return;
  out_->write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
  buf_.clear();
  if (!out_->good()) ok_ = false;
}

// ------------------------------------------------------------- emitter

std::uint64_t LratEmitter::map_id(ClauseId trace_id) const {
  if (trace_id < num_original_) return trace_id + 1;
  const std::uint64_t ord = trace_id - num_original_;
  if (ord < derived_map_.size() && derived_map_[ord] != 0) {
    return derived_map_[ord];
  }
  // The checkers announce every source before its consumer, so an unmapped
  // ID is an internal invariant break, not a bad trace.
  throw checker::CheckFailure(
      "certificate emitter: clause " + std::to_string(trace_id) +
      " referenced before it was announced");
}

void LratEmitter::flush_deletes() {
  if (pending_deletes_.empty()) return;
  writer_->del(last_id_, pending_deletes_);
  deletions_ += pending_deletes_.size();
  pending_deletes_.clear();
}

void LratEmitter::on_derived(ClauseId id, std::span<const Lit> lits,
                             std::span<const std::uint32_t> sources) {
  flush_deletes();
  const std::uint64_t ord = id - num_original_;
  if (ord >= derived_map_.size()) derived_map_.resize(ord + 1, 0);
  const std::uint64_t lrat_id = next_id_++;
  derived_map_[ord] = lrat_id;
  // Reverse source order: under the assignment falsifying the derived
  // clause, the last source is unit on its pivot complement, each earlier
  // source becomes unit in turn, and the first source falsifies.
  hints_.clear();
  hints_.reserve(sources.size());
  for (std::size_t i = sources.size(); i-- > 0;) {
    hints_.push_back(map_id(sources[i]));
  }
  writer_->add(lrat_id, lits, hints_);
  last_id_ = lrat_id;
  ++additions_;
}

void LratEmitter::on_released(ClauseId id) {
  pending_deletes_.push_back(map_id(id));
}

void LratEmitter::on_final(ClauseId final_id,
                           std::span<const ClauseId> antecedents,
                           std::span<const Lit> clause) {
  if (!clause.empty()) return;
  flush_deletes();
  // The empty-clause chain starts from the final conflicting clause and
  // steps through the trail antecedents; reversed, the last antecedent is
  // a unit clause under the empty assignment, the rest chain units, and
  // the final conflicting clause itself falsifies.
  hints_.clear();
  hints_.reserve(antecedents.size() + 1);
  for (std::size_t i = antecedents.size(); i-- > 0;) {
    hints_.push_back(map_id(antecedents[i]));
  }
  hints_.push_back(map_id(final_id));
  writer_->add(next_id_, {}, hints_);
  last_id_ = next_id_++;
  ++additions_;
  finished_ = true;
  writer_->finish();
}

}  // namespace satproof::cert
