#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace satproof::util {

/// Positioned byte supplier for the binary trace reader.
///
/// The reader's hot loop decodes millions of varints; going through
/// `std::istream::get()` for every byte costs a virtual sentry check and a
/// buffer-pointer reload per call. A ByteSource instead hands out
/// *windows* — contiguous `[begin, end)` byte ranges — that the decoder
/// walks with plain pointer bumps, so for an mmap'd or in-memory trace the
/// entire file is one window and decoding touches no abstraction at all.
///
/// Implementations:
///  - MemoryByteSource  — whole trace in a vector; one window.
///  - MmapByteSource    — trace file mapped read-only; one window. Falls
///                        back to reading the file into memory when mmap
///                        is unavailable.
///  - StreamByteSource  — wraps any std::istream (pipes, stringstreams)
///                        behind an internal buffer; windows are buffer
///                        refills.
class ByteSource {
 public:
  struct Window {
    const std::uint8_t* begin = nullptr;
    const std::uint8_t* end = nullptr;
    [[nodiscard]] std::size_t size() const {
      return static_cast<std::size_t>(end - begin);
    }
  };

  virtual ~ByteSource() = default;

  /// Returns a window of bytes starting at absolute position `pos`
  /// (0 = first byte of the source). An empty window (begin == end) means
  /// end of data. Requesting a position the implementation cannot reach
  /// (e.g. seeking backwards on an unseekable stream) throws
  /// std::runtime_error. The returned pointers stay valid until the next
  /// window() call on the same source.
  virtual Window window(std::uint64_t pos) = 0;

  /// Advises that bytes [pos, pos + len) will not be needed again soon.
  /// A memory-mapped source drops the backing pages from RSS
  /// (POSIX_MADV_DONTNEED); re-reading them later just faults them back
  /// in. Purely advisory — the default is a no-op and pointers from a
  /// *current* window stay valid regardless.
  virtual void release(std::uint64_t pos, std::uint64_t len) {
    (void)pos;
    (void)len;
  }

  /// Total bytes in the source when known up front (a buffer or a mapped
  /// file); nullopt for a stream, whose length shows only at its end.
  [[nodiscard]] virtual std::optional<std::uint64_t> size() const {
    return std::nullopt;
  }

  /// Maps (or reads) `path` and returns a source over its contents.
  /// Prefers mmap; falls back to a MemoryByteSource on platforms without
  /// it. Throws std::runtime_error if the file cannot be opened.
  static std::unique_ptr<ByteSource> map_file(const std::string& path);
};

/// Byte source over an owned in-memory buffer.
class MemoryByteSource final : public ByteSource {
 public:
  explicit MemoryByteSource(std::vector<std::uint8_t> data)
      : data_(std::move(data)) {}

  Window window(std::uint64_t pos) override;
  [[nodiscard]] std::optional<std::uint64_t> size() const override {
    return data_.size();
  }

 private:
  std::vector<std::uint8_t> data_;
};

/// Byte source over a read-only memory-mapped file. Construct via
/// ByteSource::map_file().
class MmapByteSource final : public ByteSource {
 public:
  /// Maps `path`; throws std::runtime_error on open/map failure.
  explicit MmapByteSource(const std::string& path);
  ~MmapByteSource() override;

  MmapByteSource(const MmapByteSource&) = delete;
  MmapByteSource& operator=(const MmapByteSource&) = delete;

  Window window(std::uint64_t pos) override;
  void release(std::uint64_t pos, std::uint64_t len) override;
  [[nodiscard]] std::optional<std::uint64_t> size() const override {
    return size_;
  }

 private:
  const std::uint8_t* base_ = nullptr;
  std::size_t size_ = 0;
};

/// Byte source over a std::istream, buffering reads. Positions are
/// relative to the stream position at construction, so a reader layered
/// on a stream that already consumed a prefix keeps working. Backward
/// repositioning (rewind) seeks the underlying stream and therefore
/// requires it to be seekable; pipes support only forward reads.
class StreamByteSource final : public ByteSource {
 public:
  static constexpr std::size_t kDefaultBufferBytes = 256 * 1024;

  /// Does not take ownership of `is`; the stream must outlive the source.
  /// `buffer_bytes` is exposed for tests that exercise window-boundary
  /// handling with tiny buffers.
  explicit StreamByteSource(std::istream& is,
                            std::size_t buffer_bytes = kDefaultBufferBytes);

  Window window(std::uint64_t pos) override;

 private:
  std::istream& is_;
  std::vector<std::uint8_t> buf_;
  std::uint64_t origin_ = 0;     ///< stream offset of source position 0
  std::uint64_t buf_pos_ = 0;    ///< source position of buf_[0]
  std::size_t buf_len_ = 0;      ///< valid bytes in buf_
  std::uint64_t next_read_ = 0;  ///< source position the stream cursor is at
};

}  // namespace satproof::util
