#include "src/util/byte_source.hpp"

#include <cstring>
#include <fstream>
#include <istream>
#include <stdexcept>

#if defined(__unix__) || defined(__APPLE__)
#define SATPROOF_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define SATPROOF_HAVE_MMAP 0
#endif

namespace satproof::util {

#if !SATPROOF_HAVE_MMAP
namespace {

// Without mmap, map_file() reads the whole file into memory instead.
std::vector<std::uint8_t> read_whole_file(const std::string& path) {
  std::ifstream in(path, std::ios::in | std::ios::binary);
  if (!in) {
    throw std::runtime_error("byte source: cannot open " + path);
  }
  std::vector<std::uint8_t> data;
  in.seekg(0, std::ios::end);
  const auto size = in.tellg();
  if (size > 0) {
    data.resize(static_cast<std::size_t>(size));
    in.seekg(0, std::ios::beg);
    in.read(reinterpret_cast<char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
    if (!in) {
      throw std::runtime_error("byte source: short read on " + path);
    }
  }
  return data;
}

}  // namespace
#endif

std::unique_ptr<ByteSource> ByteSource::map_file(const std::string& path) {
#if SATPROOF_HAVE_MMAP
  return std::make_unique<MmapByteSource>(path);
#else
  return std::make_unique<MemoryByteSource>(read_whole_file(path));
#endif
}

ByteSource::Window MemoryByteSource::window(std::uint64_t pos) {
  if (pos >= data_.size()) return {};
  const std::uint8_t* base = data_.data();
  return {base + pos, base + data_.size()};
}

#if SATPROOF_HAVE_MMAP

MmapByteSource::MmapByteSource(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    throw std::runtime_error("byte source: cannot open " + path);
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    throw std::runtime_error("byte source: cannot stat " + path);
  }
  size_ = static_cast<std::size_t>(st.st_size);
  if (size_ > 0) {
    void* map = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
    if (map == MAP_FAILED) {
      ::close(fd);
      throw std::runtime_error("byte source: mmap failed on " + path);
    }
    base_ = static_cast<const std::uint8_t*>(map);
    // Trace checking streams the file front to back (possibly more than
    // once); tell the kernel so readahead stays aggressive.
    ::posix_madvise(const_cast<std::uint8_t*>(base_), size_,
                    POSIX_MADV_SEQUENTIAL);
  }
  ::close(fd);  // the mapping keeps the file alive
}

MmapByteSource::~MmapByteSource() {
  if (base_ != nullptr) {
    ::munmap(const_cast<std::uint8_t*>(base_), size_);
  }
}

void MmapByteSource::release(std::uint64_t pos, std::uint64_t len) {
  if (base_ == nullptr || len == 0 || pos >= size_) return;
  static const std::uint64_t kPage =
      static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
  // Round the range inward to whole pages: DONTNEED on a partial page
  // would also drop bytes the caller did not release.
  std::uint64_t begin = (pos + kPage - 1) / kPage * kPage;
  std::uint64_t end = pos + len < size_ ? pos + len : size_;
  end = end / kPage * kPage;
  if (begin >= end) return;
  ::posix_madvise(const_cast<std::uint8_t*>(base_) + begin,
                  static_cast<std::size_t>(end - begin), POSIX_MADV_DONTNEED);
}

#else  // !SATPROOF_HAVE_MMAP

MmapByteSource::MmapByteSource(const std::string& path) {
  (void)path;
  throw std::runtime_error("byte source: mmap unavailable on this platform");
}

MmapByteSource::~MmapByteSource() = default;

void MmapByteSource::release(std::uint64_t, std::uint64_t) {}

#endif

ByteSource::Window MmapByteSource::window(std::uint64_t pos) {
  if (pos >= size_) return {};
  return {base_ + pos, base_ + size_};
}

StreamByteSource::StreamByteSource(std::istream& is, std::size_t buffer_bytes)
    : is_(is), buf_(buffer_bytes == 0 ? 1 : buffer_bytes) {
  const auto here = is_.tellg();
  origin_ = here >= 0 ? static_cast<std::uint64_t>(here) : 0;
}

ByteSource::Window StreamByteSource::window(std::uint64_t pos) {
  // Serve from the current buffer when possible.
  if (pos >= buf_pos_ && pos < buf_pos_ + buf_len_) {
    const std::uint8_t* base = buf_.data();
    return {base + (pos - buf_pos_), base + buf_len_};
  }

  if (pos != next_read_) {
    // Random access: reposition the underlying stream. This is the
    // rewind path; pipes land here only on rewind and fail loudly.
    is_.clear();
    is_.seekg(static_cast<std::streamoff>(origin_ + pos), std::ios::beg);
    if (!is_) {
      throw std::runtime_error(
          "byte source: stream is not seekable (rewind unsupported)");
    }
    next_read_ = pos;
  }

  is_.read(reinterpret_cast<char*>(buf_.data()),
           static_cast<std::streamsize>(buf_.size()));
  const auto got = is_.gcount();
  if (got < 0 || (got == 0 && is_.bad())) {
    throw std::runtime_error("byte source: stream read error");
  }
  buf_pos_ = pos;
  buf_len_ = static_cast<std::size_t>(got);
  next_read_ = pos + buf_len_;
  if (buf_len_ == 0) return {};
  const std::uint8_t* base = buf_.data();
  return {base, base + buf_len_};
}

}  // namespace satproof::util
