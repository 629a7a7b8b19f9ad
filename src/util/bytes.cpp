#include "util/bytes.hpp"

#include <array>
#include <bit>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "util/require.hpp"

namespace riskan {

std::span<const std::byte> ByteReader::take(std::size_t n) {
  RISKAN_REQUIRE(pos_ + n <= data_.size(), "byte reader ran past end of buffer");
  const auto out = data_.subspan(pos_, n);
  pos_ += n;
  return out;
}

std::uint32_t crc32(std::span<const std::byte> data) noexcept {
  // Slicing-by-8 (Kounavis & Berry, 2008): t[s][i] is the CRC of byte i
  // followed by s zero bytes, so eight independent lookups fold one 8-byte
  // word instead of a serial chain of eight. Same polynomial, same value
  // as the byte-at-a-time loop, which finishes the tail.
  static const auto t = [] {
    std::array<std::array<std::uint32_t, 256>, 8> tables{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      tables[0][i] = c;
    }
    for (std::size_t s = 1; s < 8; ++s) {
      for (std::uint32_t i = 0; i < 256; ++i) {
        tables[s][i] = tables[0][tables[s - 1][i] & 0xFFu] ^ (tables[s - 1][i] >> 8);
      }
    }
    return tables;
  }();
  std::uint32_t crc = 0xFFFFFFFFu;
  const std::byte* p = data.data();
  std::size_t n = data.size();
  if constexpr (std::endian::native == std::endian::little) {
    for (; n >= 8; p += 8, n -= 8) {
      std::uint32_t lo = 0;
      std::uint32_t hi = 0;
      std::memcpy(&lo, p, 4);
      std::memcpy(&hi, p + 4, 4);
      lo ^= crc;
      crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^
            t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
            t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
    }
  }
  for (; n > 0; ++p, --n) {
    crc = t[0][(crc ^ static_cast<std::uint32_t>(*p)) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

void write_file(const std::string& path, std::span<const std::byte> data) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  RISKAN_REQUIRE(os.good(), "cannot open file for writing: " + path);
  os.write(reinterpret_cast<const char*>(data.data()),
           static_cast<std::streamsize>(data.size()));
  RISKAN_ENSURE(os.good(), "write failed: " + path);
}

std::vector<std::byte> read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary | std::ios::ate);
  RISKAN_REQUIRE(is.good(), "cannot open file for reading: " + path);
  const auto size = static_cast<std::size_t>(is.tellg());
  is.seekg(0);
  std::vector<std::byte> data(size);
  is.read(reinterpret_cast<char*>(data.data()), static_cast<std::streamsize>(size));
  RISKAN_ENSURE(is.good() || size == 0, "read failed: " + path);
  return data;
}

bool file_exists(const std::string& path) {
  std::error_code ec;
  return std::filesystem::exists(path, ec);
}

void remove_file(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove(path, ec);
}

}  // namespace riskan
