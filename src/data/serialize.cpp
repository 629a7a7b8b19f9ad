#include "data/serialize.hpp"

#include <algorithm>
#include <limits>
#include <string>

#include "util/io_error.hpp"
#include "util/require.hpp"

namespace riskan::data {

namespace {

constexpr std::uint32_t kEltMagic = 0x454C5431;   // "ELT1"
constexpr std::uint32_t kYeltMagic = 0x59454C31;  // "YEL1"
constexpr std::uint32_t kYltMagic = 0x594C5431;   // "YLT1"
constexpr std::uint32_t kVersion = 1;

void check_header(ByteReader& reader, std::uint32_t magic, const char* what) {
  RISKAN_REQUIRE(reader.u32() == magic, std::string("bad magic for ") + what);
  RISKAN_REQUIRE(reader.u32() == kVersion, std::string("unsupported version for ") + what);
}

/// Throws CorruptChunkError unless `count` items of `item_bytes` each fit
/// in the reader's remaining bytes — checked before anything is sized from
/// the count, so a damaged length can never request a huge allocation.
void check_count(const ByteReader& reader, std::uint64_t count, std::size_t item_bytes,
                 const char* what) {
  if (count > reader.remaining() / item_bytes) {
    throw CorruptChunkError(std::string("encoded ") + what + " count " +
                            std::to_string(count) + " exceeds the payload");
  }
}

}  // namespace

void encode(const EventLossTable& table, ByteWriter& writer) {
  writer.u32(kEltMagic);
  writer.u32(kVersion);
  writer.u64(table.size());
  for (const auto id : table.event_ids()) {
    writer.u32(id);
  }
  for (const auto v : table.mean_loss()) {
    writer.f64(v);
  }
  for (const auto v : table.sigma_loss()) {
    writer.f64(v);
  }
  for (const auto v : table.exposure()) {
    writer.f64(v);
  }
}

EventLossTable decode_elt(ByteReader& reader) {
  check_header(reader, kEltMagic, "ELT");
  const auto n = reader.u64();
  check_count(reader, n, sizeof(EventId) + 3 * sizeof(double), "ELT row");
  std::vector<EltRow> rows(n);
  for (auto& row : rows) {
    row.event_id = reader.u32();
  }
  for (auto& row : rows) {
    row.mean_loss = reader.f64();
  }
  for (auto& row : rows) {
    row.sigma_loss = reader.f64();
  }
  for (auto& row : rows) {
    row.exposure = reader.f64();
  }
  return EventLossTable::from_rows(std::move(rows));
}

void encode(const YearEventLossTable& table, ByteWriter& writer) {
  writer.u32(kYeltMagic);
  writer.u32(kVersion);
  writer.u64(table.trials());
  writer.u64(table.entries());
  for (const auto off : table.offsets()) {
    writer.u64(off);
  }
  for (const auto e : table.events()) {
    writer.u32(e);
  }
  for (const auto d : table.days()) {
    writer.u32(d);  // widened for alignment simplicity
  }
}

void encode_yelt_slice(const YearEventLossTable& table, TrialId lo, TrialId hi,
                       ByteWriter& writer) {
  RISKAN_REQUIRE(lo <= hi && hi <= table.trials(), "YELT slice range out of bounds");
  const auto offsets = table.offsets();
  const std::uint64_t entry_lo = offsets.empty() ? 0 : offsets[lo];
  const std::uint64_t entry_hi = offsets.empty() ? 0 : offsets[hi];

  writer.u32(kYeltMagic);
  writer.u32(kVersion);
  writer.u64(hi - lo);
  writer.u64(entry_hi - entry_lo);
  if (offsets.empty()) {
    writer.u64(0);  // a 0-trial table still carries its terminating offset
  } else {
    for (TrialId t = lo; t <= hi; ++t) {
      writer.u64(offsets[t] - entry_lo);
    }
  }
  const auto events = table.events().subspan(entry_lo, entry_hi - entry_lo);
  for (const auto e : events) {
    writer.u32(e);
  }
  const auto days = table.days().subspan(entry_lo, entry_hi - entry_lo);
  for (const auto d : days) {
    writer.u32(d);  // widened for alignment simplicity, as in encode()
  }
}

TrialId peek_yelt_trials(std::span<const std::byte> header) {
  ByteReader reader(header);
  check_header(reader, kYeltMagic, "YELT");
  const std::uint64_t trials = reader.u64();
  // Header bytes always come off storage (or the wire), so an absurd count
  // is damaged data — the typed, retryable error, not a programmer bug.
  if (trials > std::numeric_limits<TrialId>::max()) {
    throw CorruptChunkError("encoded YELT trial count overflows TrialId");
  }
  return static_cast<TrialId>(trials);
}

YearEventLossTable decode_yelt(ByteReader& reader) {
  check_header(reader, kYeltMagic, "YELT");
  const auto trials = reader.u64();
  const auto entries = reader.u64();
  if (trials > std::numeric_limits<TrialId>::max()) {
    throw CorruptChunkError("encoded YELT trial count overflows TrialId");
  }
  check_count(reader, trials + 1, sizeof(std::uint64_t), "YELT offset");

  std::vector<std::uint64_t> offsets(trials + 1);
  for (auto& off : offsets) {
    off = reader.u64();
  }
  // The builder walks events[offsets[t], offsets[t + 1]), so the offsets
  // must start at 0, never decrease and end at `entries`.
  if (offsets.front() != 0 || offsets.back() != entries ||
      !std::is_sorted(offsets.begin(), offsets.end())) {
    throw CorruptChunkError("encoded YELT offsets are not a partition of its entries");
  }
  check_count(reader, entries, 2 * sizeof(std::uint32_t), "YELT entry");
  std::vector<EventId> events(entries);
  for (auto& e : events) {
    e = reader.u32();
  }
  std::vector<std::uint16_t> days(entries);
  for (auto& d : days) {
    d = static_cast<std::uint16_t>(reader.u32());
  }

  YearEventLossTable::Builder builder(static_cast<TrialId>(trials));
  for (std::uint64_t t = 0; t < trials; ++t) {
    builder.begin_trial();
    for (std::uint64_t i = offsets[t]; i < offsets[t + 1]; ++i) {
      builder.add(events[i], days[i]);
    }
  }
  auto table = builder.finish();
  RISKAN_ENSURE(table.entries() == entries, "YELT decode entry-count mismatch");
  return table;
}

void encode(const YearLossTable& table, ByteWriter& writer) {
  writer.u32(kYltMagic);
  writer.u32(kVersion);
  writer.str(table.label());
  writer.u64(table.trials());
  for (const auto loss : table.losses()) {
    writer.f64(loss);
  }
}

YearLossTable decode_ylt(ByteReader& reader) {
  check_header(reader, kYltMagic, "YLT");
  auto label = reader.str();
  const auto trials = reader.u64();
  check_count(reader, trials, sizeof(Money), "YLT trial");
  std::vector<Money> losses(trials);
  for (auto& loss : losses) {
    loss = reader.f64();
  }
  return YearLossTable(std::move(losses), std::move(label));
}

namespace {

template <typename Table>
void save_impl(const Table& table, const std::string& path) {
  ByteWriter writer;
  encode(table, writer);
  write_file(path, writer.buffer());
}

}  // namespace

void save_elt(const EventLossTable& table, const std::string& path) {
  save_impl(table, path);
}

EventLossTable load_elt(const std::string& path) {
  const auto data = read_file(path);
  ByteReader reader(data);
  return decode_elt(reader);
}

void save_yelt(const YearEventLossTable& table, const std::string& path) {
  save_impl(table, path);
}

YearEventLossTable load_yelt(const std::string& path) {
  const auto data = read_file(path);
  ByteReader reader(data);
  return decode_yelt(reader);
}

void save_ylt(const YearLossTable& table, const std::string& path) {
  save_impl(table, path);
}

YearLossTable load_ylt(const std::string& path) {
  const auto data = read_file(path);
  ByteReader reader(data);
  return decode_ylt(reader);
}

}  // namespace riskan::data
