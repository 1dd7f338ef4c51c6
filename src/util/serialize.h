// Little-endian binary serialization primitives.
//
// ByteWriter appends fixed-width scalars and blobs to a growable buffer;
// ByteReader consumes them with bounds checking, returning DataLoss on
// truncated or oversized input instead of aborting — snapshot files may
// come from untrusted disks (failure-injection tests corrupt them on
// purpose).

#ifndef HYBRIDLSH_UTIL_SERIALIZE_H_
#define HYBRIDLSH_UTIL_SERIALIZE_H_

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "util/status.h"

namespace hybridlsh {
namespace util {

/// Append-only little-endian encoder.
class ByteWriter {
 public:
  void WriteU8(uint8_t value) { buffer_.push_back(value); }

  void WriteU32(uint32_t value) { WriteRaw(&value, sizeof(value)); }
  void WriteU64(uint64_t value) { WriteRaw(&value, sizeof(value)); }
  void WriteI32(int32_t value) { WriteRaw(&value, sizeof(value)); }
  void WriteF32(float value) { WriteRaw(&value, sizeof(value)); }
  void WriteF64(double value) { WriteRaw(&value, sizeof(value)); }

  /// Length-prefixed byte blob.
  void WriteBlob(std::span<const uint8_t> bytes) {
    WriteU64(bytes.size());
    WriteRaw(bytes.data(), bytes.size());
  }

  /// Fixed-width array (no length prefix; caller writes the count).
  template <typename T>
  void WriteArray(std::span<const T> values) {
    static_assert(std::is_trivially_copyable_v<T>);
    WriteRaw(values.data(), values.size() * sizeof(T));
  }

  const std::vector<uint8_t>& bytes() const { return buffer_; }
  std::vector<uint8_t>&& TakeBytes() && { return std::move(buffer_); }
  size_t size() const { return buffer_.size(); }

 private:
  // GCC 12's -Wstringop-overflow mis-sizes the freshly allocated vector
  // buffer when this insert of a fixed-width scalar is fully inlined into
  // a large caller (e.g. engine::SegmentedIndex::SaveTo) — a documented
  // false positive on vector<uint8_t> range inserts, and sensitive to
  // unrelated inlining changes, so silence it at the source.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wstringop-overflow"
  void WriteRaw(const void* data, size_t size) {
    const auto* begin = static_cast<const uint8_t*>(data);
    buffer_.insert(buffer_.end(), begin, begin + size);
  }
#pragma GCC diagnostic pop

  std::vector<uint8_t> buffer_;
};

/// Bounds-checked little-endian decoder over a borrowed buffer.
class ByteReader {
 public:
  explicit ByteReader(std::span<const uint8_t> bytes) : bytes_(bytes) {}

  util::Status ReadU8(uint8_t* out) { return ReadRaw(out, sizeof(*out)); }
  util::Status ReadU32(uint32_t* out) { return ReadRaw(out, sizeof(*out)); }
  util::Status ReadU64(uint64_t* out) { return ReadRaw(out, sizeof(*out)); }
  util::Status ReadI32(int32_t* out) { return ReadRaw(out, sizeof(*out)); }
  util::Status ReadF32(float* out) { return ReadRaw(out, sizeof(*out)); }
  util::Status ReadF64(double* out) { return ReadRaw(out, sizeof(*out)); }

  /// Reads a length-prefixed blob written by WriteBlob.
  util::Status ReadBlob(std::vector<uint8_t>* out) {
    uint64_t size = 0;
    HLSH_RETURN_IF_ERROR(ReadU64(&size));
    if (size > remaining()) {
      return util::Status::DataLoss("blob length exceeds buffer");
    }
    out->resize(size);
    return ReadRaw(out->data(), size);
  }

  /// Reads `count` fixed-width values into out (resized).
  template <typename T>
  util::Status ReadArray(size_t count, std::vector<T>* out) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (count > remaining() / sizeof(T)) {
      return util::Status::DataLoss("array length exceeds buffer");
    }
    out->resize(count);
    return ReadRaw(out->data(), count * sizeof(T));
  }

  /// Bytes not yet consumed.
  size_t remaining() const { return bytes_.size() - offset_; }

  /// OK iff every byte was consumed (catches trailing garbage).
  util::Status ExpectEnd() const {
    if (remaining() != 0) {
      return util::Status::DataLoss("trailing bytes after payload");
    }
    return util::Status::Ok();
  }

 private:
  util::Status ReadRaw(void* out, size_t size) {
    if (size > remaining()) {
      return util::Status::DataLoss("buffer truncated");
    }
    std::memcpy(out, bytes_.data() + offset_, size);
    offset_ += size;
    return util::Status::Ok();
  }

  std::span<const uint8_t> bytes_;
  size_t offset_ = 0;
};

/// Writes a whole buffer to a file.
util::Status WriteFileBytes(const std::string& path,
                            std::span<const uint8_t> bytes);

/// Crash-safe variant of WriteFileBytes: writes to `path + ".tmp"`, fsyncs,
/// then renames over `path` (and fsyncs the parent directory so the rename
/// itself is durable). A crash at any point leaves either the previous file
/// intact or a stray .tmp — never a truncated `path`. This is the write
/// path for every snapshot file.
/// `trailer` (optional) is appended after `bytes` in the same atomic write —
/// lets callers frame a payload with a checksum without concatenating into a
/// second buffer.
util::Status AtomicWriteFileBytes(const std::string& path,
                                  std::span<const uint8_t> bytes,
                                  std::span<const uint8_t> trailer = {});

/// Reads a whole file.
util::StatusOr<std::vector<uint8_t>> ReadFileBytes(const std::string& path);

}  // namespace util
}  // namespace hybridlsh

#endif  // HYBRIDLSH_UTIL_SERIALIZE_H_
