// Chunked container file — the on-disk unit of the "large distributed file
// space" approach.
//
// A ChunkedFile holds N independently readable chunks (byte blobs) behind a
// footer directory. Stage 2 stores one encoded YELT trial block per chunk:
// the out-of-core TrialSource (data/trial_source.hpp) streams the blocks in
// order, and the dist runtime (dist/coordinator.hpp) leases each chunk to a
// forked worker. Layout (version 2):
//
//   [chunk 0 bytes][chunk 1 bytes]...[directory][footer: magic, dir offset]
//   directory: u64 count, then per chunk: u64 size, u32 crc32
//
// The directory is at the end so chunks can be appended in one pass without
// knowing their count in advance — the write pattern of a simulation that
// spills as it goes. The writer streams chunks straight to disk (the body is
// never buffered whole, so files larger than RAM can be written), and each
// chunk carries a CRC-32 the reader verifies on read: a bit flip anywhere in
// a chunk surfaces as a typed riskan::CorruptChunkError (and a truncated
// footer as TruncatedFileError — util/io_error.hpp) instead of silently
// corrupt losses, so the recovery layer can tell retryable data damage from
// programmer ContractViolations. Version-1 files (magic "CHK1", sizes-only
// directory) are still readable; they simply have no checksums to verify.
#pragma once

#include <cstdint>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "util/bytes.hpp"

namespace riskan::data {

class ChunkedFileWriter {
 public:
  /// Opens (truncates) `path` and starts streaming chunks to it.
  explicit ChunkedFileWriter(std::string path);

  /// Appends one chunk (written through to disk); returns its index.
  std::size_t append(std::span<const std::byte> chunk);

  /// Writes directory + footer and closes. No further appends.
  void finish();

  ~ChunkedFileWriter();

  std::size_t chunks_written() const noexcept { return sizes_.size(); }

 private:
  std::string path_;
  std::ofstream out_;
  std::vector<std::uint64_t> sizes_;
  std::vector<std::uint32_t> crcs_;
  bool finished_ = false;
};

/// Reads a chunked file lazily: the constructor loads and validates only the
/// footer directory; chunk bytes are read from disk on demand, so the memory
/// high-water of a streamed pass is one chunk, not the file. Reads are
/// stateful seeks on one stream — a reader serves one consumer at a time.
class ChunkedFileReader {
 public:
  explicit ChunkedFileReader(const std::string& path);

  std::size_t chunk_count() const noexcept { return offsets_.size(); }
  std::size_t chunk_size(std::size_t i) const;

  /// Reads chunk i from disk, verifying its CRC-32 (version-2 files);
  /// throws CorruptChunkError on a checksum mismatch and
  /// TruncatedFileError when the chunk extends past EOF.
  std::vector<std::byte> read_chunk(std::size_t i);

  /// First min(n, chunk size) bytes of chunk i, unverified — header peeks
  /// (the CRC covers whole chunks, so a prefix cannot be checked).
  std::vector<std::byte> read_chunk_prefix(std::size_t i, std::size_t n);

  /// Whole-file size in bytes (chunks + directory + footer).
  std::size_t total_bytes() const noexcept { return file_bytes_; }

  /// True when the file carries per-chunk checksums (version >= 2).
  bool has_checksums() const noexcept { return checksummed_; }

 private:
  std::vector<std::byte> read_range(std::uint64_t offset, std::size_t n);

  std::string path_;
  std::ifstream in_;
  std::vector<std::uint64_t> offsets_;
  std::vector<std::uint64_t> sizes_;
  std::vector<std::uint32_t> crcs_;  // empty for version-1 files
  std::size_t file_bytes_ = 0;
  bool checksummed_ = false;  // from the footer magic, not the chunk count
};

}  // namespace riskan::data
