// ByteWriter/ByteReader round-trips, truncation errors, CRC-32 vectors.

#include "common/bytes.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.hpp"

namespace orv {
namespace {

TEST(Bytes, PrimitiveRoundTrip) {
  ByteWriter w;
  w.put_u8(0xab);
  w.put_u16(0xbeef);
  w.put_u32(0xdeadbeefu);
  w.put_u64(0x0123456789abcdefull);
  w.put_i32(-42);
  w.put_i64(-1234567890123ll);
  w.put_f32(3.5f);
  w.put_f64(-2.25);

  ByteReader r(w.bytes());
  EXPECT_EQ(r.get_u8(), 0xab);
  EXPECT_EQ(r.get_u16(), 0xbeef);
  EXPECT_EQ(r.get_u32(), 0xdeadbeefu);
  EXPECT_EQ(r.get_u64(), 0x0123456789abcdefull);
  EXPECT_EQ(r.get_i32(), -42);
  EXPECT_EQ(r.get_i64(), -1234567890123ll);
  EXPECT_FLOAT_EQ(r.get_f32(), 3.5f);
  EXPECT_DOUBLE_EQ(r.get_f64(), -2.25);
  EXPECT_TRUE(r.exhausted());
}

TEST(Bytes, StringRoundTrip) {
  ByteWriter w;
  w.put_string("hello");
  w.put_string("");
  w.put_string(std::string(1000, 'x'));
  ByteReader r(w.bytes());
  EXPECT_EQ(r.get_string(), "hello");
  EXPECT_EQ(r.get_string(), "");
  EXPECT_EQ(r.get_string(), std::string(1000, 'x'));
}

TEST(Bytes, LittleEndianLayout) {
  ByteWriter w;
  w.put_u32(0x01020304u);
  auto b = w.bytes();
  ASSERT_EQ(b.size(), 4u);
  EXPECT_EQ(static_cast<unsigned>(b[0]), 0x04u);
  EXPECT_EQ(static_cast<unsigned>(b[3]), 0x01u);
}

TEST(Bytes, TruncationThrowsFormatError) {
  ByteWriter w;
  w.put_u16(7);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.get_u16(), 7);
  EXPECT_THROW(r.get_u32(), FormatError);
}

TEST(Bytes, TruncatedStringThrows) {
  ByteWriter w;
  w.put_u32(100);  // claims 100 bytes, provides none
  ByteReader r(w.bytes());
  EXPECT_THROW(r.get_string(), FormatError);
}

TEST(Bytes, GetBytesAdvances) {
  ByteWriter w;
  w.put_u32(0xaabbccddu);
  w.put_u8(0x11);
  ByteReader r(w.bytes());
  auto view = r.get_bytes(4);
  EXPECT_EQ(view.size(), 4u);
  EXPECT_EQ(r.get_u8(), 0x11);
}

TEST(Bytes, CheckCountGuardsHugeAllocations) {
  ByteWriter w;
  w.put_u32(0xffffffffu);  // a corrupted element count
  w.put_u64(0);
  ByteReader r(w.bytes());
  const std::uint32_t n = r.get_u32();
  EXPECT_THROW(r.check_count(n, 16), FormatError);
  EXPECT_NO_THROW(r.check_count(1, 8));           // 8 bytes remain
  EXPECT_THROW(r.check_count(2, 8), FormatError);  // 16 would not fit
  EXPECT_THROW(r.check_count(1, 0), InvalidArgument);
}

TEST(Crc32, KnownVectors) {
  // "123456789" -> 0xCBF43926 (standard CRC-32 check value).
  const char* s = "123456789";
  auto span = std::span<const std::byte>(
      reinterpret_cast<const std::byte*>(s), 9);
  EXPECT_EQ(crc32(span), 0xcbf43926u);
}

TEST(Crc32, EmptyInput) {
  EXPECT_EQ(crc32({}), 0x00000000u);
}

TEST(Crc32, MoreKnownVectors) {
  // Values from zlib's crc32, the same polynomial and conditioning.
  const std::string fox = "The quick brown fox jumps over the lazy dog";
  EXPECT_EQ(crc32({reinterpret_cast<const std::byte*>(fox.data()),
                   fox.size()}),
            0x414fa339u);
  EXPECT_EQ(crc32(std::vector<std::byte>(32, std::byte{0x00})), 0x190a55adu);
  EXPECT_EQ(crc32(std::vector<std::byte>(32, std::byte{0xff})), 0xff6cab0bu);
  std::vector<std::byte> ramp(1024);
  for (std::size_t i = 0; i < ramp.size(); ++i) {
    ramp[i] = static_cast<std::byte>(i & 0xff);
  }
  EXPECT_EQ(crc32(ramp), 0xb70b4c26u);
}

/// Bit-at-a-time reference for the same CRC: no tables, one polynomial
/// step per input bit.
std::uint32_t reference_crc32(std::span<const std::byte> data,
                              std::uint32_t seed = 0xffffffffu) {
  std::uint32_t c = seed;
  for (std::byte b : data) {
    c ^= static_cast<std::uint8_t>(b);
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xffffffffu;
}

std::vector<std::byte> pseudo_random_bytes(std::size_t n) {
  std::vector<std::byte> out(n);
  std::uint32_t x = 0x9e3779b9u;
  for (auto& b : out) {
    x ^= x << 13;
    x ^= x >> 17;
    x ^= x << 5;
    b = static_cast<std::byte>(x >> 24);
  }
  return out;
}

TEST(Crc32, MatchesBytewiseReferenceAtEveryLengthAndAlignment) {
  // Lengths 0..67 cover no full block, one to four 16-byte blocks and
  // every tail length; offsets 0..15 cover every load alignment.
  const auto buf = pseudo_random_bytes(16 + 67);
  const std::span<const std::byte> all(buf);
  for (std::size_t off = 0; off < 16; ++off) {
    for (std::size_t len = 0; len <= 67; ++len) {
      const auto part = all.subspan(off, len);
      ASSERT_EQ(crc32(part), reference_crc32(part))
          << "offset " << off << " length " << len;
    }
  }
}

TEST(Crc32, SeedChainsAcrossSplits) {
  const auto buf = pseudo_random_bytes(67);
  const std::span<const std::byte> all(buf);
  const std::uint32_t whole = crc32(all);
  for (std::size_t cut = 0; cut <= all.size(); ++cut) {
    const std::uint32_t head = crc32(all.first(cut));
    EXPECT_EQ(crc32(all.subspan(cut), head ^ 0xffffffffu), whole)
        << "cut at " << cut;
  }
  for (std::uint32_t seed : {0u, 1u, 0x12345678u, 0xdeadbeefu}) {
    EXPECT_EQ(crc32(all, seed), reference_crc32(all, seed)) << seed;
  }
}

TEST(Crc32, DetectsSingleBitFlip) {
  std::vector<std::byte> data(64, std::byte{0x5a});
  const auto before = crc32(data);
  data[17] ^= std::byte{0x01};
  EXPECT_NE(crc32(data), before);
}

}  // namespace
}  // namespace orv
