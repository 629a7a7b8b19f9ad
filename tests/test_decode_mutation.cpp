// Seeded mutation testing of the table decoders.
//
// Valid ELT, YELT and YLT encodings are flipped, truncated and spliced —
// about a thousand mutants each, from a fixed seed — and every mutant must
// either decode or throw. No mutant may size an allocation from a damaged
// length: under ASan such a request aborts the process, and elsewhere it
// surfaces here as std::bad_alloc, which fails the test. Through
// EncodedBlockSource, the dist workers' entry point, the only acceptable
// throw is the typed CorruptChunkError.
#include <gtest/gtest.h>

#include <cstdint>
#include <new>
#include <random>
#include <string>
#include <vector>

#include "data/elt.hpp"
#include "data/serialize.hpp"
#include "data/trial_source.hpp"
#include "data/yelt.hpp"
#include "data/ylt.hpp"
#include "util/bytes.hpp"
#include "util/io_error.hpp"

namespace riskan::data {
namespace {

constexpr int kMutantsPerTable = 1'000;

template <typename Table>
std::vector<std::byte> encoded(const Table& table) {
  ByteWriter writer;
  encode(table, writer);
  return writer.buffer();
}

/// Derives mutants of one valid encoding. Flips favour the first 40 bytes,
/// where the headers keep their counts, so length fields are hit often.
class Mutator {
 public:
  Mutator(std::vector<std::byte> valid, std::uint64_t seed)
      : valid_(std::move(valid)), rng_(seed) {}

  std::vector<std::byte> next() {
    switch (below(3)) {
      case 0:
        return flipped();
      case 1:
        return std::vector<std::byte>(valid_.begin(),
                                      valid_.begin() + static_cast<std::ptrdiff_t>(
                                                           below(valid_.size())));
      default:
        return spliced();
    }
  }

 private:
  std::size_t below(std::size_t n) { return n == 0 ? 0 : static_cast<std::size_t>(rng_() % n); }

  std::vector<std::byte> flipped() {
    auto bytes = valid_;
    const std::size_t flips = 1 + below(4);
    for (std::size_t f = 0; f < flips; ++f) {
      const std::size_t pos = below(2) == 0 ? below(std::min<std::size_t>(40, bytes.size()))
                                            : below(bytes.size());
      bytes[pos] ^= static_cast<std::byte>(1 + below(255));
    }
    return bytes;
  }

  /// A prefix joined to a suffix taken from another offset, so fields land
  /// where other fields belong (a length where a value was, and so on).
  std::vector<std::byte> spliced() {
    const std::size_t cut = below(valid_.size());
    const std::size_t from = below(valid_.size());
    std::vector<std::byte> bytes(valid_.begin(), valid_.begin() + static_cast<std::ptrdiff_t>(cut));
    bytes.insert(bytes.end(), valid_.begin() + static_cast<std::ptrdiff_t>(from), valid_.end());
    return bytes;
  }

  std::vector<std::byte> valid_;
  std::mt19937_64 rng_;
};

/// Decodes `bytes` with `decode`; returns whether it decoded. Any throw but
/// an allocation failure counts as a clean rejection.
template <typename Decode>
bool decodes(const std::vector<std::byte>& bytes, const Decode& decode, int mutant) {
  try {
    ByteReader reader(bytes);
    (void)decode(reader);
    return true;
  } catch (const std::bad_alloc&) {
    ADD_FAILURE() << "mutant " << mutant << " sized an allocation from a corrupt length";
  } catch (const std::exception&) {
  }
  return false;
}

TEST(DecodeMutation, EltMutantsDecodeOrThrow) {
  std::vector<EltRow> rows;
  for (EventId e = 0; e < 24; ++e) {
    rows.push_back({3 * e + 1, 1e5 * (e + 1), 2e4 * (e + 1), 4e6});
  }
  Mutator mutator(encoded(EventLossTable::from_rows(std::move(rows))), 0xE17);
  int rejected = 0;
  for (int m = 0; m < kMutantsPerTable; ++m) {
    rejected += decodes(mutator.next(), decode_elt, m) ? 0 : 1;
  }
  EXPECT_GT(rejected, kMutantsPerTable / 2) << "most mutants should be rejected";
}

TEST(DecodeMutation, YeltMutantsDecodeOrThrowTypedThroughEncodedBlockSource) {
  YeltGenConfig config;
  config.trials = 30;
  config.mean_events_per_year = 4.0;
  Mutator mutator(encoded(generate_yelt(200, config)), 0x7E17);
  int rejected = 0;
  for (int m = 0; m < kMutantsPerTable; ++m) {
    const auto bytes = mutator.next();
    const bool ok = decodes(bytes, decode_yelt, m);
    rejected += ok ? 0 : 1;
    // The dist data plane sees the same bytes as one typed outcome.
    if (ok) {
      EXPECT_NO_THROW(EncodedBlockSource{bytes}) << "mutant " << m;
    } else {
      EXPECT_THROW(EncodedBlockSource{bytes}, CorruptChunkError) << "mutant " << m;
    }
  }
  EXPECT_GT(rejected, kMutantsPerTable / 2) << "most mutants should be rejected";
}

TEST(DecodeMutation, YltMutantsDecodeOrThrow) {
  std::vector<Money> losses;
  for (int t = 0; t < 40; ++t) {
    losses.push_back(1e3 * t);
  }
  Mutator mutator(encoded(YearLossTable(std::move(losses), "portfolio")), 0x717);
  int rejected = 0;
  for (int m = 0; m < kMutantsPerTable; ++m) {
    rejected += decodes(mutator.next(), decode_ylt, m) ? 0 : 1;
  }
  EXPECT_GT(rejected, kMutantsPerTable / 4) << "many mutants should be rejected";
}

}  // namespace
}  // namespace riskan::data
