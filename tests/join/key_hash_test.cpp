// Join-key row hashing: hash_row is hash_lanes over the canonical lanes,
// float keys canonicalize across widths and signed zero, and the in-memory,
// Grace Hash h1 and h2 values are pinned so partition routing cannot drift.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/hash.hpp"
#include "join/key.hpp"

namespace orv {
namespace {

constexpr std::uint64_t kSalts[] = {kSaltInMemory, kSaltGraceH1, kSaltGraceH2};

SchemaPtr all_types_schema() {
  return Schema::make({{"i", AttrType::Int32},
                       {"l", AttrType::Int64},
                       {"f", AttrType::Float32},
                       {"d", AttrType::Float64}});
}

/// Four rows: zeros, -1 / -0.0, small values, extremes.
SubTable all_types_rows() {
  SubTable t(all_types_schema(), SubTableId{1, 0});
  const Value rows[][4] = {
      {Value(std::int32_t{0}), Value(std::int64_t{0}), Value(0.0f),
       Value(0.0)},
      {Value(std::int32_t{-1}), Value(std::int64_t{-1}), Value(-0.0f),
       Value(-0.0)},
      {Value(std::int32_t{7}), Value(std::int64_t{1} << 40), Value(0.5f),
       Value(0.5)},
      {Value(std::int32_t{2147483647}), Value(std::int64_t{-123456789012345}),
       Value(3.25f), Value(1e300)},
  };
  for (const auto& r : rows) t.append_values(r);
  return t;
}

std::uint64_t via_lanes(const JoinKey& key, const std::byte* row,
                        std::uint64_t salt) {
  std::vector<std::uint64_t> lanes(key.arity());
  key.extract_lanes(row, lanes.data());
  return hash_lanes(lanes, salt);
}

TEST(JoinKeyHash, HashRowIsHashLanesOverExtractLanes) {
  const SubTable t = all_types_rows();
  const std::vector<std::vector<std::string>> keys = {
      {"i"}, {"l"}, {"f"}, {"d"}, {"i", "l", "f", "d"}, {"d", "f"}};
  for (const auto& attrs : keys) {
    const JoinKey key = JoinKey::resolve(t.schema(), attrs);
    for (std::size_t r = 0; r < t.num_rows(); ++r) {
      for (std::uint64_t salt : kSalts) {
        EXPECT_EQ(key.hash_row(t.row(r), salt),
                  via_lanes(key, t.row(r), salt))
            << attrs.size() << " attrs, row " << r << ", salt " << salt;
      }
    }
  }
}

TEST(JoinKeyHash, FloatWidthsAndSignedZeroHashAlike) {
  // f32 x joins f64 x, and -0.0 joins +0.0: same lanes, same hashes.
  const SubTable t = all_types_rows();
  const JoinKey f32 = JoinKey::resolve(t.schema(), {"f"});
  const JoinKey f64 = JoinKey::resolve(t.schema(), {"d"});
  for (std::uint64_t salt : kSalts) {
    for (std::size_t r = 0; r < 3; ++r) {  // row 3 differs (3.25 vs 1e300)
      EXPECT_EQ(f32.hash_row(t.row(r), salt), f64.hash_row(t.row(r), salt))
          << "row " << r;
    }
    EXPECT_EQ(f32.hash_row(t.row(0), salt), f32.hash_row(t.row(1), salt));
    EXPECT_EQ(f64.hash_row(t.row(0), salt), f64.hash_row(t.row(1), salt));
  }
}

TEST(JoinKeyHash, RejectsKeysWiderThanTheLaneBuffer) {
  std::vector<Attribute> attrs;
  std::vector<std::string> names;
  for (std::size_t i = 0; i <= kMaxKeyArity; ++i) {
    names.push_back("a" + std::to_string(i));
    attrs.push_back({names.back(), AttrType::Int32});
  }
  const auto schema = Schema::make(attrs);
  names.pop_back();
  EXPECT_EQ(JoinKey::resolve(*schema, names).arity(), kMaxKeyArity);
  names.push_back("a" + std::to_string(kMaxKeyArity));
  EXPECT_ANY_THROW(JoinKey::resolve(*schema, names));
}

TEST(JoinKeyHash, PinnedHashValues) {
  // In-memory, h1, h2 and the first re-salted h1 of Grace Hash's routing
  // chain (salt kSaltGraceH1 + 0x9e3779b97f4a7c15), captured from the
  // out-of-line implementation this inline path replaced.
  struct Golden {
    std::vector<std::string> attrs;
    std::size_t row;
    std::uint64_t mem, h1, h2, h1_chain1;
  };
  const Golden goldens[] = {
      {{"i"}, 0, 0x7156840d516fcf54ull, 0x295449a07e825670ull,
       0x1426c538e5b142b6ull, 0x82cef47ad6260440ull},
      {{"i"}, 1, 0xa4b4a80c6d9bbc42ull, 0xf8beb7c380d59eb3ull,
       0x26e5ad77ebdc0aacull, 0xf1deadd029959a98ull},
      {{"i"}, 3, 0x06aa1e304c7eaeb7ull, 0x79709e460618ade6ull,
       0xb381dc48fe51c5c6ull, 0x9e72063bb1dfe2dbull},
      {{"l"}, 2, 0x98b0687e35f0a82eull, 0x38e43b68d5829ca4ull,
       0x28f95fe92b3f559bull, 0x2860e4e0284d69acull},
      {{"l"}, 3, 0x55b03b739932b963ull, 0x9b055d1096abba5full,
       0xe9eaecdce68c2babull, 0x3ffb23858cd63236ull},
      {{"f"}, 1, 0x7156840d516fcf54ull, 0x295449a07e825670ull,
       0x1426c538e5b142b6ull, 0x82cef47ad6260440ull},
      {{"f"}, 2, 0x570572c58d80807aull, 0xdf7fd1b8ad04cc9dull,
       0x8e5a14d7cdbe44deull, 0x6109fe9c744a886aull},
      {{"f"}, 3, 0xa30dc00c11ca7d6cull, 0x92fc1f0aa4907bb3ull,
       0x934167569c12297full, 0x392069f6961aa5d5ull},
      {{"d"}, 3, 0xd0981419f73834c5ull, 0xc04ace1be65f525dull,
       0x9df4c66e169aa18eull, 0x70753ae977c145c6ull},
      {{"i", "f", "d"}, 0, 0x0bba23ae5c6ed856ull, 0xb5504e9d04e16bc1ull,
       0xfed1885de4bd0ff8ull, 0x62067103a3998d00ull},
      {{"i", "f", "d"}, 1, 0x1cce85804d15b577ull, 0x634e9a1e84751d2cull,
       0xd97b810b13c08b30ull, 0x348c945368feb395ull},
      {{"i", "f", "d"}, 2, 0x88092642213debb1ull, 0xdd6e22d71ba3f6e0ull,
       0xb6e05869a8152d59ull, 0x98c02947c3353236ull},
      {{"i", "f", "d"}, 3, 0x35c1287736cb1dafull, 0x50e14822b7a132b6ull,
       0xf7df6636e99aa4d0ull, 0xada617153904bf2eull},
  };
  const SubTable t = all_types_rows();
  for (const Golden& g : goldens) {
    const JoinKey key = JoinKey::resolve(t.schema(), g.attrs);
    const std::byte* row = t.row(g.row);
    SCOPED_TRACE(g.attrs.front() + " x" + std::to_string(g.attrs.size()) +
                 " row " + std::to_string(g.row));
    EXPECT_EQ(key.hash_row(row, kSaltInMemory), g.mem);
    EXPECT_EQ(key.hash_row(row, kSaltGraceH1), g.h1);
    EXPECT_EQ(key.hash_row(row, kSaltGraceH2), g.h2);
    EXPECT_EQ(key.hash_row(row, kSaltGraceH1 + 0x9e3779b97f4a7c15ull),
              g.h1_chain1);
  }
}

}  // namespace
}  // namespace orv
