#include "data/chunked_file.hpp"

#include <algorithm>

#include "util/io_error.hpp"
#include "util/require.hpp"

namespace riskan::data {

namespace {
constexpr std::uint32_t kChunkMagicV1 = 0x43484B31;  // "CHK1" — sizes-only directory
constexpr std::uint32_t kChunkMagicV2 = 0x43484B32;  // "CHK2" — size + crc32 per chunk
constexpr std::size_t kFooterBytes = sizeof(std::uint32_t) + sizeof(std::uint64_t);
}  // namespace

ChunkedFileWriter::ChunkedFileWriter(std::string path)
    : path_(std::move(path)), out_(path_, std::ios::binary | std::ios::trunc) {
  RISKAN_REQUIRE(out_.good(), "cannot open chunked file for writing: " + path_);
}

std::size_t ChunkedFileWriter::append(std::span<const std::byte> chunk) {
  RISKAN_REQUIRE(!finished_, "append after finish");
  out_.write(reinterpret_cast<const char*>(chunk.data()),
             static_cast<std::streamsize>(chunk.size()));
  RISKAN_ENSURE(out_.good(), "chunk write failed: " + path_);
  sizes_.push_back(chunk.size());
  crcs_.push_back(crc32(chunk));
  return sizes_.size() - 1;
}

void ChunkedFileWriter::finish() {
  RISKAN_REQUIRE(!finished_, "double finish");
  finished_ = true;

  std::uint64_t dir_offset = 0;
  for (const auto size : sizes_) {
    dir_offset += size;
  }

  ByteWriter footer;
  footer.u64(sizes_.size());
  for (std::size_t i = 0; i < sizes_.size(); ++i) {
    footer.u64(sizes_[i]);
    footer.u32(crcs_[i]);
  }
  footer.u32(kChunkMagicV2);
  footer.u64(dir_offset);
  out_.write(reinterpret_cast<const char*>(footer.buffer().data()),
             static_cast<std::streamsize>(footer.size()));
  out_.close();
  RISKAN_ENSURE(!out_.fail(), "directory write failed: " + path_);
}

ChunkedFileWriter::~ChunkedFileWriter() {
  if (!finished_) {
    // Best effort: never leave a truncated container behind silently.
    try {
      finish();
    } catch (...) {  // NOLINT(bugprone-empty-catch) — destructor must not throw
    }
  }
}

ChunkedFileReader::ChunkedFileReader(const std::string& path)
    : path_(path), in_(path, std::ios::binary | std::ios::ate) {
  RISKAN_REQUIRE(in_.good(), "cannot open chunked file for reading: " + path_);
  file_bytes_ = static_cast<std::size_t>(in_.tellg());
  if (file_bytes_ < kFooterBytes) {
    throw TruncatedFileError("chunked file too small for a footer: " + path_);
  }

  const auto footer_bytes = read_range(file_bytes_ - kFooterBytes, kFooterBytes);
  ByteReader tail(footer_bytes);
  const auto magic = tail.u32();
  if (magic != kChunkMagicV1 && magic != kChunkMagicV2) {
    throw CorruptChunkError("bad chunked-file magic: " + path_);
  }
  checksummed_ = magic == kChunkMagicV2;
  const bool checksummed = checksummed_;
  const auto dir_offset = tail.u64();
  if (dir_offset > file_bytes_ - kFooterBytes) {
    throw TruncatedFileError("directory offset past end of file (truncated footer): " +
                             path_);
  }

  const auto dir_bytes =
      read_range(dir_offset, file_bytes_ - kFooterBytes - static_cast<std::size_t>(dir_offset));
  ByteReader dir(dir_bytes);
  const auto count = dir.u64();
  const std::size_t entry_bytes =
      sizeof(std::uint64_t) + (checksummed ? sizeof(std::uint32_t) : 0);
  // Compared by division, so a huge count cannot wrap the product.
  if (dir.remaining() % entry_bytes != 0 || count != dir.remaining() / entry_bytes) {
    throw CorruptChunkError("directory size does not match chunk count: " + path_);
  }
  offsets_.reserve(count);
  sizes_.reserve(count);
  std::uint64_t offset = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto size = dir.u64();
    if (size > dir_offset - offset) {
      throw CorruptChunkError("chunk sizes do not cover body: " + path_);
    }
    offsets_.push_back(offset);
    sizes_.push_back(size);
    if (checksummed) {
      crcs_.push_back(dir.u32());
    }
    offset += size;
  }
  if (offset != dir_offset) {
    throw CorruptChunkError("chunk sizes do not cover body: " + path_);
  }
}

std::size_t ChunkedFileReader::chunk_size(std::size_t i) const {
  RISKAN_REQUIRE(i < sizes_.size(), "chunk index out of range");
  return sizes_[i];
}

std::vector<std::byte> ChunkedFileReader::read_range(std::uint64_t offset, std::size_t n) {
  std::vector<std::byte> bytes(n);
  in_.seekg(static_cast<std::streamoff>(offset));
  in_.read(reinterpret_cast<char*>(bytes.data()), static_cast<std::streamsize>(n));
  if (!(in_.good() || n == 0)) {
    throw TruncatedFileError("chunk read past end of file: " + path_);
  }
  return bytes;
}

std::vector<std::byte> ChunkedFileReader::read_chunk(std::size_t i) {
  RISKAN_REQUIRE(i < offsets_.size(), "chunk index out of range");
  auto bytes = read_range(offsets_[i], sizes_[i]);
  if (!crcs_.empty() && crc32(bytes) != crcs_[i]) {
    throw CorruptChunkError("chunk checksum mismatch (corrupt chunk " + std::to_string(i) +
                            "): " + path_);
  }
  return bytes;
}

std::vector<std::byte> ChunkedFileReader::read_chunk_prefix(std::size_t i, std::size_t n) {
  RISKAN_REQUIRE(i < offsets_.size(), "chunk index out of range");
  return read_range(offsets_[i], std::min<std::size_t>(n, sizes_[i]));
}

}  // namespace riskan::data
