#pragma once

#include <streambuf>
#include <string_view>

namespace satproof::util {

/// A read-only std::streambuf over bytes the caller owns, which must outlive
/// it. An std::istream on it reads a string in place, where an
/// std::istringstream would first copy the whole string. It does not seek.
class ViewStreambuf final : public std::streambuf {
 public:
  explicit ViewStreambuf(std::string_view bytes) {
    // setg() takes char*, but the get area is only ever read: the default
    // pbackfail() refuses to write a put-back character.
    char* p = const_cast<char*>(bytes.data());
    setg(p, p, p + bytes.size());
  }
};

}  // namespace satproof::util
