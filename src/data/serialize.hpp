// Binary serialization for the pipeline tables.
//
// Simple tagged little-endian format (magic + version + columns). Stage
// boundaries in a production deployment are files: stage 1 emits ELT files,
// stage 2 reads ELT+YELT files and writes YLT files, and a chunked YELT file
// holds one encoded trial block per chunk. Tests round-trip every table type.
#pragma once

#include <cstddef>
#include <span>
#include <string>

#include "data/elt.hpp"
#include "data/yelt.hpp"
#include "data/ylt.hpp"
#include "util/bytes.hpp"

namespace riskan::data {

// In-memory encode/decode.
void encode(const EventLossTable& table, ByteWriter& writer);
EventLossTable decode_elt(ByteReader& reader);

void encode(const YearEventLossTable& table, ByteWriter& writer);
YearEventLossTable decode_yelt(ByteReader& reader);

/// Encodes trials [lo, hi) of `table` as a standalone YELT, slicing the
/// column spans directly (offsets rebased to the slice) — byte-identical to
/// encoding a rebuilt sub-table, without the per-trial Builder::add copy.
/// This is how trial blocks reach chunked files and dist workers.
void encode_yelt_slice(const YearEventLossTable& table, TrialId lo, TrialId hi,
                       ByteWriter& writer);

/// Trial count recorded in an encoded YELT's fixed-size header (the first
/// 16 bytes), without decoding the table — how the out-of-core TrialSource
/// sizes its outputs before any block is decoded.
constexpr std::size_t kYeltHeaderBytes = 16;
TrialId peek_yelt_trials(std::span<const std::byte> header);

void encode(const YearLossTable& table, ByteWriter& writer);
YearLossTable decode_ylt(ByteReader& reader);

// File convenience wrappers.
void save_elt(const EventLossTable& table, const std::string& path);
EventLossTable load_elt(const std::string& path);

void save_yelt(const YearEventLossTable& table, const std::string& path);
YearEventLossTable load_yelt(const std::string& path);

void save_ylt(const YearLossTable& table, const std::string& path);
YearLossTable load_ylt(const std::string& path);

}  // namespace riskan::data
