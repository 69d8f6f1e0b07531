// ByteSink/ByteSource: little-endian round trips, bit-exact float
// encoding, and clean failure on truncation or corrupt length prefixes.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "util/serial.h"

namespace tifl::util {
namespace {

TEST(Serial, ScalarRoundTrips) {
  ByteSink sink;
  sink.put_u8(0xAB);
  sink.put_u32(0xDEADBEEFu);
  sink.put_u64(0x0123456789ABCDEFULL);
  sink.put_i64(-42);
  sink.put_f64(-0.1);
  sink.put_f32(3.5f);
  sink.put_bool(true);
  sink.put_bool(false);

  ByteSource source(sink.bytes());
  EXPECT_EQ(source.get_u8(), 0xAB);
  EXPECT_EQ(source.get_u32(), 0xDEADBEEFu);
  EXPECT_EQ(source.get_u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(source.get_i64(), -42);
  EXPECT_EQ(source.get_f64(), -0.1);
  EXPECT_EQ(source.get_f32(), 3.5f);
  EXPECT_TRUE(source.get_bool());
  EXPECT_FALSE(source.get_bool());
  EXPECT_TRUE(source.exhausted());
}

TEST(Serial, LittleEndianLayoutIsExplicit) {
  ByteSink sink;
  sink.put_u32(0x01020304u);
  const std::string& bytes = sink.bytes();
  ASSERT_EQ(bytes.size(), 4u);
  EXPECT_EQ(static_cast<unsigned char>(bytes[0]), 0x04);
  EXPECT_EQ(static_cast<unsigned char>(bytes[3]), 0x01);
}

TEST(Serial, FloatsRoundTripBitExactly) {
  // Signed zero, subnormals, infinities and NaN payloads all survive:
  // the codec moves IEEE-754 bit patterns, not values.
  const std::vector<double> doubles = {
      -0.0, std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(), 1.0 / 3.0};
  ByteSink sink;
  for (double v : doubles) sink.put_f64(v);
  ByteSource source(sink.bytes());
  for (double v : doubles) {
    const double read = source.get_f64();
    EXPECT_EQ(std::bit_cast<std::uint64_t>(read),
              std::bit_cast<std::uint64_t>(v));
  }
}

TEST(Serial, VectorAndStringRoundTrips) {
  ByteSink sink;
  sink.put_string(std::string_view("he\0llo", 6));  // embedded NUL survives
  sink.put_string("");
  sink.put_f32_vec({1.0f, -2.0f});
  sink.put_f64_vec({});
  sink.put_u64_vec({5, 6, 7});
  sink.put_size_vec({9});

  ByteSource source(sink.bytes());
  EXPECT_EQ(source.get_string(), std::string("he\0llo", 6));
  EXPECT_EQ(source.get_string(), "");
  EXPECT_EQ(source.get_f32_vec(), (std::vector<float>{1.0f, -2.0f}));
  EXPECT_TRUE(source.get_f64_vec().empty());
  EXPECT_EQ(source.get_u64_vec(), (std::vector<std::uint64_t>{5, 6, 7}));
  EXPECT_EQ(source.get_size_vec(), (std::vector<std::size_t>{9}));
}

TEST(Serial, TruncatedReadsThrow) {
  ByteSink sink;
  sink.put_u64(1);
  const std::string bytes = sink.bytes();
  for (std::size_t keep = 0; keep < bytes.size(); ++keep) {
    ByteSource source(std::string_view(bytes).substr(0, keep));
    EXPECT_THROW(source.get_u64(), std::runtime_error) << keep;
  }
}

TEST(Serial, CorruptLengthPrefixFailsBeforeAllocating) {
  // A huge count with a handful of bytes behind it must throw from the
  // prefix check, not attempt a multi-GB vector resize.
  ByteSink sink;
  sink.put_u64(std::numeric_limits<std::uint64_t>::max());
  sink.put_u32(0);
  ByteSource f32s(sink.bytes());
  EXPECT_THROW(f32s.get_f32_vec(), std::runtime_error);
  ByteSource strings(sink.bytes());
  EXPECT_THROW(strings.get_string(), std::runtime_error);
  ByteSource sizes(sink.bytes());
  EXPECT_THROW(sizes.get_size_vec(), std::runtime_error);
}

TEST(Serial, Crc32MatchesTheIeeeReferenceVector) {
  // The canonical check value for CRC-32/IEEE ("check" in the catalogue).
  EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(crc32(""), 0u);
  // Any flipped bit changes the sum.
  EXPECT_NE(crc32("123456788"), crc32("123456789"));
}

// Bit-at-a-time CRC-32 over the reflected polynomial: the definition the
// table-driven crc32 must reproduce.
std::uint32_t crc32_bitwise(const unsigned char* bytes, std::size_t size,
                            std::uint32_t seed) {
  std::uint32_t crc = ~seed;
  for (std::size_t i = 0; i < size; ++i) {
    crc ^= bytes[i];
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return ~crc;
}

TEST(Serial, Crc32EqualsTheBitwiseDefinitionAtEveryLengthAndAlignment) {
  std::vector<unsigned char> data(1024 + 8);
  std::uint32_t x = 0x12345678u;
  for (unsigned char& b : data) {
    x = x * 1664525u + 1013904223u;
    b = static_cast<unsigned char>(x >> 24);
  }
  for (std::uint32_t seed : {0u, 0x9E3779B9u}) {
    for (std::size_t offset = 0; offset < 8; ++offset) {
      for (std::size_t size = 0; size <= 1024; ++size) {
        const unsigned char* start = data.data() + offset;
        ASSERT_EQ(crc32(start, size, seed), crc32_bitwise(start, size, seed))
            << "seed " << seed << " offset " << offset << " size " << size;
      }
    }
  }
  // Chaining through the seed equals one pass over the concatenation,
  // which is how event-log frames extend a running CRC.
  EXPECT_EQ(crc32(data.data() + 13, 500, crc32(data.data(), 13)),
            crc32(data.data(), 513));
}

// Per-element little-endian encoding of a vector: the u64 count, then each
// element's bytes, least significant first.
template <typename Word, typename T>
std::string element_wise(const std::vector<T>& v) {
  std::string out;
  const auto put = [&out](std::uint64_t word, std::size_t width) {
    for (std::size_t i = 0; i < width; ++i) {
      out.push_back(static_cast<char>((word >> (8 * i)) & 0xFFu));
    }
  };
  put(v.size(), 8);
  for (T x : v) {
    Word word{};
    if constexpr (std::is_floating_point_v<T>) {
      word = std::bit_cast<Word>(x);
    } else {
      word = static_cast<Word>(x);
    }
    put(word, sizeof(Word));
  }
  return out;
}

TEST(Serial, BulkVectorEncodersMatchPerElementLittleEndian) {
  const std::vector<float> f32 = {1.5f, -0.0f, 3.0e-41f,
                                  std::numeric_limits<float>::infinity(),
                                  std::numeric_limits<float>::quiet_NaN()};
  const std::vector<double> f64 = {-0.1, 0.0, 1e308,
                                   std::numeric_limits<double>::denorm_min()};
  const std::vector<std::uint64_t> u64 = {0, 1, 0x0123456789ABCDEFULL,
                                          ~std::uint64_t{0}};
  const std::vector<std::size_t> sizes = {
      0, 7, 1u << 20, std::numeric_limits<std::size_t>::max()};
  for (std::size_t n : {0u, 1u, 3u, 5u}) {
    const auto prefix = [n](const auto& v) {
      return std::vector(v.begin(), v.begin() + static_cast<long>(
                                                     std::min(n, v.size())));
    };
    ByteSink sink;
    sink.put_f32_vec(prefix(f32));
    EXPECT_EQ(sink.bytes(), (element_wise<std::uint32_t>(prefix(f32))));
    sink.clear();
    sink.put_f64_vec(prefix(f64));
    EXPECT_EQ(sink.bytes(), (element_wise<std::uint64_t>(prefix(f64))));
    sink.clear();
    sink.put_u64_vec(prefix(u64));
    EXPECT_EQ(sink.bytes(), (element_wise<std::uint64_t>(prefix(u64))));
    sink.clear();
    sink.put_size_vec(prefix(sizes));
    EXPECT_EQ(sink.bytes(), (element_wise<std::uint64_t>(prefix(sizes))));
  }
}

TEST(Serial, BulkVectorDecodersRoundTripAndRejectBadInput) {
  const std::vector<float> f32 = {1.5f, -2.25f, 0.0f};
  const std::vector<double> f64 = {-0.1, 1.0 / 3.0};
  const std::vector<std::uint64_t> u64 = {5, ~std::uint64_t{0}};
  const std::vector<std::size_t> sizes = {9, 0, 42};
  ByteSink sink;
  sink.put_f32_vec(f32);
  sink.put_f64_vec(f64);
  sink.put_u64_vec(u64);
  sink.put_size_vec(sizes);
  {
    ByteSource source(sink.bytes());
    EXPECT_EQ(source.get_f32_vec(), f32);
    EXPECT_EQ(source.get_f64_vec(), f64);
    EXPECT_EQ(source.get_u64_vec(), u64);
    EXPECT_EQ(source.get_size_vec(), sizes);
    EXPECT_TRUE(source.exhausted());
  }
  // Every truncation of the whole stream fails cleanly at some vector.
  const std::string bytes = sink.bytes();
  for (std::size_t keep = 0; keep < bytes.size(); ++keep) {
    ByteSource source(std::string_view(bytes).substr(0, keep));
    EXPECT_THROW(
        {
          source.get_f32_vec();
          source.get_f64_vec();
          source.get_u64_vec();
          source.get_size_vec();
        },
        std::runtime_error)
        << "accepted " << keep << " of " << bytes.size() << " bytes";
  }
  // A count one element past the bytes behind it is corrupt.
  for (std::size_t elem : {4u, 8u}) {
    ByteSink corrupt;
    corrupt.put_u64(3);
    for (std::size_t i = 0; i < 2 * elem; ++i) corrupt.put_u8(0);
    ByteSource source(corrupt.bytes());
    if (elem == 4) {
      EXPECT_THROW(source.get_f32_vec(), std::runtime_error);
    } else {
      EXPECT_THROW(source.get_f64_vec(), std::runtime_error);
      ByteSource u64s(corrupt.bytes());
      EXPECT_THROW(u64s.get_u64_vec(), std::runtime_error);
      ByteSource size_ts(corrupt.bytes());
      EXPECT_THROW(size_ts.get_size_vec(), std::runtime_error);
    }
  }
}

}  // namespace
}  // namespace tifl::util
