// Formatting, report tables, binary I/O, alias table, and contract macros.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <span>
#include <sstream>
#include <vector>

#include "util/alias_table.hpp"
#include "util/bytes.hpp"
#include "util/format.hpp"
#include "util/prng.hpp"
#include "util/report.hpp"
#include "util/require.hpp"

namespace riskan {
namespace {

TEST(Format, Counts) {
  EXPECT_EQ(format_count(0), "0");
  EXPECT_EQ(format_count(999), "999");
  EXPECT_EQ(format_count(1000), "1,000");
  EXPECT_EQ(format_count(1234567), "1,234,567");
  EXPECT_EQ(format_count(-1234567), "-1,234,567");
  EXPECT_EQ(format_count(5e16), "5.00e+16");
}

TEST(Format, Bytes) {
  EXPECT_EQ(format_bytes(512), "512.00 B");
  EXPECT_EQ(format_bytes(1536), "1.50 KiB");
  EXPECT_EQ(format_bytes(1024.0 * 1024.0), "1.00 MiB");
  EXPECT_EQ(format_bytes(2.5 * 1024.0 * 1024.0 * 1024.0 * 1024.0), "2.50 TiB");
}

TEST(Format, Seconds) {
  EXPECT_EQ(format_seconds(5e-9), "5.0 ns");
  EXPECT_EQ(format_seconds(2.5e-4), "250.0 us");
  EXPECT_EQ(format_seconds(0.025), "25.0 ms");
  EXPECT_EQ(format_seconds(25.0), "25.00 s");
  EXPECT_EQ(format_seconds(600.0), "10.0 min");
  EXPECT_EQ(format_seconds(3.0 * 86400.0), "3.0 days");
}

TEST(Format, Rates) {
  EXPECT_EQ(format_rate(123.0), "123.00 /s");
  EXPECT_EQ(format_rate(1.23e9), "1.23 G/s");
}

TEST(Format, Fixed) {
  EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(format_fixed(1.0, 0), "1");
}

TEST(ReportTable, PrintsAligned) {
  ReportTable table({"name", "value"});
  table.add_row({"alpha", "1"});
  table.add_row({"beta-long-name", "23456"});
  std::ostringstream os;
  table.print(os);
  const auto text = os.str();
  EXPECT_NE(text.find("name"), std::string::npos);
  EXPECT_NE(text.find("beta-long-name"), std::string::npos);
  EXPECT_NE(text.find("23456"), std::string::npos);
  EXPECT_EQ(table.rows(), 2u);
  EXPECT_EQ(table.columns(), 2u);
}

TEST(ReportTable, RejectsRaggedRows) {
  ReportTable table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), ContractViolation);
  EXPECT_THROW(ReportTable({}), ContractViolation);
}

TEST(ReportTable, CsvEscapes) {
  ReportTable table({"k", "v"});
  table.add_row({"with,comma", "with\"quote"});
  const std::string path = "/tmp/riskan_test_report.csv";
  table.write_csv(path);
  const auto data = read_file(path);
  const std::string text(reinterpret_cast<const char*>(data.data()), data.size());
  EXPECT_NE(text.find("\"with,comma\""), std::string::npos);
  EXPECT_NE(text.find("\"with\"\"quote\""), std::string::npos);
  remove_file(path);
}

TEST(Bytes, WriterReaderRoundTrip) {
  ByteWriter writer;
  writer.u8(7);
  writer.u32(123456);
  writer.u64(0xDEADBEEFCAFEF00DULL);
  writer.f64(3.25);
  writer.str("hello world");

  ByteReader reader(writer.buffer());
  EXPECT_EQ(reader.u8(), 7);
  EXPECT_EQ(reader.u32(), 123456u);
  EXPECT_EQ(reader.u64(), 0xDEADBEEFCAFEF00DULL);
  EXPECT_DOUBLE_EQ(reader.f64(), 3.25);
  EXPECT_EQ(reader.str(), "hello world");
  EXPECT_TRUE(reader.done());
}

TEST(Bytes, ReaderOverrunThrows) {
  ByteWriter writer;
  writer.u32(1);
  ByteReader reader(writer.buffer());
  (void)reader.u32();
  EXPECT_THROW((void)reader.u8(), ContractViolation);
}

TEST(Bytes, FileRoundTrip) {
  const std::string path = "/tmp/riskan_test_bytes.bin";
  ByteWriter writer;
  writer.u64(42);
  writer.str("file-content");
  write_file(path, writer.buffer());
  EXPECT_TRUE(file_exists(path));

  const auto data = read_file(path);
  ByteReader reader(data);
  EXPECT_EQ(reader.u64(), 42u);
  EXPECT_EQ(reader.str(), "file-content");

  remove_file(path);
  EXPECT_FALSE(file_exists(path));
}

TEST(Bytes, Crc32EqualsTheBitwiseDefinition) {
  // The IEEE 802.3 check value, then every length 0..40 at every
  // alignment 0..7 of a pseudo-random buffer against the polynomial
  // applied one bit at a time: the eight-byte steps and the byte tail must
  // both agree with the definition.
  const char* check = "123456789";
  EXPECT_EQ(crc32(std::as_bytes(std::span(check, 9))), 0xCBF43926u);
  std::vector<std::byte> buffer(48);
  std::uint32_t state = 12345;
  for (std::byte& b : buffer) {
    state = state * 1664525u + 1013904223u;
    b = static_cast<std::byte>(state >> 24);
  }
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t length = 0; length <= 40; ++length) {
      const std::span<const std::byte> data(buffer.data() + offset, length);
      std::uint32_t crc = 0xFFFFFFFFu;
      for (const std::byte b : data) {
        crc ^= static_cast<std::uint32_t>(b);
        for (int k = 0; k < 8; ++k) {
          crc = (crc & 1) != 0 ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
        }
      }
      EXPECT_EQ(crc32(data), crc ^ 0xFFFFFFFFu) << "offset " << offset << " length " << length;
    }
  }
}

TEST(AliasTable, NormalisesProbabilities) {
  const std::vector<double> weights{1.0, 3.0, 6.0};
  AliasTable table(weights);
  EXPECT_DOUBLE_EQ(table.probability(0), 0.1);
  EXPECT_DOUBLE_EQ(table.probability(1), 0.3);
  EXPECT_DOUBLE_EQ(table.probability(2), 0.6);
}

TEST(AliasTable, SamplingFrequenciesMatchWeights) {
  const std::vector<double> weights{5.0, 1.0, 0.0, 4.0};
  AliasTable table(weights);
  Xoshiro256ss rng(6);
  std::vector<int> counts(4, 0);
  const int n = 200'000;
  for (int i = 0; i < n; ++i) {
    ++counts[table.sample(rng)];
  }
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.5, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.1, 0.01);
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[3] / static_cast<double>(n), 0.4, 0.01);
}

TEST(AliasTable, SingleWeight) {
  const std::vector<double> weights{2.5};
  AliasTable table(weights);
  Xoshiro256ss rng(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(table.sample(rng), 0u);
  }
}

TEST(AliasTable, RejectsInvalidWeights) {
  EXPECT_THROW(AliasTable(std::vector<double>{}), ContractViolation);
  EXPECT_THROW(AliasTable(std::vector<double>{0.0, 0.0}), ContractViolation);
  EXPECT_THROW(AliasTable(std::vector<double>{1.0, -1.0}), ContractViolation);
}

TEST(Require, MacrosThrowWithContext) {
  try {
    RISKAN_REQUIRE(1 == 2, "numbers disagree");
    FAIL() << "should have thrown";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("precondition"), std::string::npos);
    EXPECT_NE(what.find("numbers disagree"), std::string::npos);
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
  }
  EXPECT_THROW(RISKAN_ENSURE(false, ""), ContractViolation);
  EXPECT_NO_THROW(RISKAN_REQUIRE(true, "fine"));
}

}  // namespace
}  // namespace riskan
