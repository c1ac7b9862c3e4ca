#include "src/util/json.hpp"

#include <cassert>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace satproof::util {

void JsonWriter::comma_if_needed() {
  if (after_key_) {
    after_key_ = false;
    return;  // value directly after "key": — no comma
  }
  if (!need_comma_.empty()) {
    if (need_comma_.back()) out_ += ',';
    need_comma_.back() = true;
  }
}

void JsonWriter::begin_object() {
  comma_if_needed();
  out_ += '{';
  need_comma_.push_back(false);
}

void JsonWriter::end_object() {
  assert(!need_comma_.empty());
  need_comma_.pop_back();
  out_ += '}';
}

void JsonWriter::begin_array() {
  comma_if_needed();
  out_ += '[';
  need_comma_.push_back(false);
}

void JsonWriter::end_array() {
  assert(!need_comma_.empty());
  need_comma_.pop_back();
  out_ += ']';
}

void JsonWriter::key(std::string_view name) {
  comma_if_needed();
  out_ += escape(name);
  out_ += ':';
  after_key_ = true;
}

void JsonWriter::value(std::string_view s) {
  comma_if_needed();
  out_ += escape(s);
}

void JsonWriter::value(bool b) {
  comma_if_needed();
  out_ += b ? "true" : "false";
}

void JsonWriter::value(std::uint64_t v) {
  comma_if_needed();
  out_ += std::to_string(v);
}

void JsonWriter::value(std::int64_t v) {
  comma_if_needed();
  out_ += std::to_string(v);
}

void JsonWriter::value(double v) {
  comma_if_needed();
  if (!std::isfinite(v)) {
    out_ += "null";
    return;
  }
  char buf[32];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  if (ec == std::errc()) {
    out_.append(buf, ptr);
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out_ += buf;
  }
}

std::string JsonWriter::take() {
  assert(need_comma_.empty() && !after_key_);
  std::string result = std::move(out_);
  out_.clear();
  need_comma_.clear();
  after_key_ = false;
  return result;
}

std::string JsonWriter::escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  for (const char c : s) {
    const auto u = static_cast<unsigned char>(c);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (u < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", u);
          out += buf;
        } else {
          out += c;  // UTF-8 bytes pass through verbatim
        }
    }
  }
  out += '"';
  return out;
}

}  // namespace satproof::util
