#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace satproof::util {

/// Minimal streaming JSON writer.
///
/// `satproof check --stats=json`, job results and Chrome traces need
/// machine-readable output; hand-rolled `<<` chains get the escaping and
/// comma placement wrong sooner or later. This writer produces compact
/// (no-whitespace) JSON, handles string escaping per RFC 8259, and tracks
/// nesting so commas are emitted exactly where needed. It deliberately has
/// no reader half: the repo only ever *emits* JSON.
///
///     JsonWriter w;
///     w.begin_object();
///     w.key("jobs"); w.value(std::uint64_t{42});
///     w.key("backends");
///     w.begin_array();
///     w.value("df");
///     w.end_array();
///     w.end_object();
///     std::string out = w.take();
class JsonWriter {
 public:
  void begin_object();
  void end_object();
  void begin_array();
  void end_array();

  /// Emits an object key; must be followed by exactly one value (or
  /// container). Only valid directly inside an object.
  void key(std::string_view name);

  void value(std::string_view s);
  void value(const char* s) { value(std::string_view(s)); }
  void value(bool b);
  void value(std::uint64_t v);
  void value(std::int64_t v);
  /// Doubles are emitted with enough digits to round-trip; NaN and
  /// infinities (not representable in JSON) come out as null.
  void value(double v);

  /// Finished document. The writer must be back at nesting depth 0.
  [[nodiscard]] std::string take();

  /// Escapes `s` as a standalone JSON string literal (with quotes).
  static std::string escape(std::string_view s);

 private:
  void comma_if_needed();

  std::string out_;
  /// One entry per open container: true while the next element needs a
  /// separating comma.
  std::vector<bool> need_comma_;
  bool after_key_ = false;
};

}  // namespace satproof::util
