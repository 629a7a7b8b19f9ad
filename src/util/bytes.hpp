// Little-endian binary serialization primitives.
//
// The table files (src/data/serialize.hpp), the chunked files
// (src/data/chunked_file.hpp) and the dist runtime's frames
// (src/dist/frame.hpp) all write through these.
// The format is explicitly little-endian so files round-trip across hosts.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

namespace riskan {

/// Appends fixed-width little-endian values to an in-memory buffer.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(std::byte{v}); }
  void u32(std::uint32_t v) { append(&v, sizeof(v)); }
  void u64(std::uint64_t v) { append(&v, sizeof(v)); }
  void f64(double v) { append(&v, sizeof(v)); }

  void bytes(std::span<const std::byte> data) { append(data.data(), data.size()); }

  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    append(s.data(), s.size());
  }

  const std::vector<std::byte>& buffer() const noexcept { return buf_; }
  std::size_t size() const noexcept { return buf_.size(); }
  void clear() noexcept { buf_.clear(); }

 private:
  void append(const void* src, std::size_t n) {
    const auto* p = static_cast<const std::byte*>(src);
    buf_.insert(buf_.end(), p, p + n);
  }

  std::vector<std::byte> buf_;
};

/// Reads fixed-width little-endian values from a byte span. Throws
/// ContractViolation past the end (corrupt files fail loudly).
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::byte> data) noexcept : data_(data) {}

  std::uint8_t u8() { return static_cast<std::uint8_t>(take(1)[0]); }

  std::uint32_t u32() {
    std::uint32_t v;
    std::memcpy(&v, take(sizeof(v)).data(), sizeof(v));
    return v;
  }

  std::uint64_t u64() {
    std::uint64_t v;
    std::memcpy(&v, take(sizeof(v)).data(), sizeof(v));
    return v;
  }

  double f64() {
    double v;
    std::memcpy(&v, take(sizeof(v)).data(), sizeof(v));
    return v;
  }

  std::string str() {
    const auto n = u32();
    const auto span = take(n);
    return std::string(reinterpret_cast<const char*>(span.data()), span.size());
  }

  std::span<const std::byte> raw(std::size_t n) { return take(n); }

  std::size_t remaining() const noexcept { return data_.size() - pos_; }
  bool done() const noexcept { return remaining() == 0; }

 private:
  std::span<const std::byte> take(std::size_t n);

  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
};

/// CRC-32 (IEEE 802.3 polynomial, reflected, table-driven, eight bytes per
/// step) of `data` — the per-chunk integrity check of the chunked container
/// files and of dist frames.
std::uint32_t crc32(std::span<const std::byte> data) noexcept;

/// Whole-file helpers.
void write_file(const std::string& path, std::span<const std::byte> data);
std::vector<std::byte> read_file(const std::string& path);
bool file_exists(const std::string& path);
void remove_file(const std::string& path);

}  // namespace riskan
