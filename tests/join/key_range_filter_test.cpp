// Key-range filter in BuiltHashTable::probe_range: probe rows outside the
// build side's per-lane key range are dropped before hashing. Every case
// compares the probe output byte-for-byte with nested_loop_join, over full
// and partial probe ranges, and checks that filtered rows still count as
// probed.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "common/prng.hpp"
#include "join/hash_join.hpp"

namespace orv {
namespace {

/// A table whose leading attributes are the join key and whose last
/// attribute is a per-row serial, so every output row is distinguishable.
SubTable make_table(std::vector<Attribute> attrs, const char* serial_name,
                    const std::vector<std::vector<Value>>& keys,
                    std::uint32_t id) {
  attrs.push_back({serial_name, AttrType::Int32});
  SubTable st(Schema::make(attrs), SubTableId{id, 0});
  std::int32_t serial = 0;
  for (const auto& key : keys) {
    std::vector<Value> vals = key;
    vals.push_back(Value(serial++));
    st.append_values(vals);
  }
  return st;
}

void expect_same_bytes(const SubTable& a, const SubTable& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_EQ(a.size_bytes(), b.size_bytes());
  if (a.size_bytes() == 0) return;  // empty tables may have null data()
  EXPECT_EQ(std::memcmp(a.bytes().data(), b.bytes().data(), a.size_bytes()),
            0);
}

/// Probes `right` against `left` in slices of every width in {1, 2, 5, 2047,
/// 2049, 4500, all}; each concatenation of slices must equal the nested-loop
/// join, and each slice must report its full length as probed. The probe
/// kernel works in chunks of 2048 rows from each slice's first row, so on
/// inputs past 2 x 2048 rows the wide slices begin and end mid-chunk and
/// cross chunk boundaries inside one call. Returns the reference result.
SubTable expect_filter_matches_reference(
    const SubTable& left, const SubTable& right,
    const std::vector<std::string>& keys) {
  SubTable expected = nested_loop_join(left, right, keys, SubTableId{9, 0});
  auto lp = std::shared_ptr<const SubTable>(&left, [](auto*) {});
  auto rs = std::make_shared<const Schema>(Schema::join_result(
      left.schema(), right.schema(),
      JoinKey::resolve(right.schema(), keys).attr_indices()));
  const std::size_t n = right.num_rows();
  const BuiltHashTable ht(lp, keys);
  for (std::size_t width :
       {std::size_t{1}, std::size_t{2}, std::size_t{5}, std::size_t{2047},
        std::size_t{2049}, std::size_t{4500}, std::max<std::size_t>(n, 1)}) {
    SubTable pieced(rs, SubTableId{9, 1});
    JoinStats total;
    for (std::size_t b = 0; b < n; b += width) {
      const std::size_t e = std::min(n, b + width);
      const JoinStats s = ht.probe_range(right, keys, b, e, pieced);
      EXPECT_EQ(s.probe_tuples, e - b);
      total += s;
    }
    EXPECT_EQ(total.probe_tuples, n);
    EXPECT_EQ(total.result_tuples, expected.num_rows());
    expect_same_bytes(pieced, expected);
  }
  return expected;
}

/// Single-attribute key "k": the build (left) side with serial "a", the
/// probe (right) side with serial "b".
SubTable build_side(AttrType type, const std::vector<Value>& keys) {
  std::vector<std::vector<Value>> rows;
  for (const Value& v : keys) rows.push_back({v});
  return make_table({{"k", type}}, "a", rows, 1);
}

SubTable probe_side(AttrType type, const std::vector<Value>& keys) {
  std::vector<std::vector<Value>> rows;
  for (const Value& v : keys) rows.push_back({v});
  return make_table({{"k", type}}, "b", rows, 2);
}

TEST(KeyRangeFilter, NegativeInt32Keys) {
  std::vector<Value> lk, rk;
  for (int k = -40; k <= -10; k += 3) lk.push_back(k);
  lk.push_back(7);
  for (int k = -60; k <= 20; ++k) rk.push_back(k);
  rk.push_back(std::numeric_limits<std::int32_t>::min());
  rk.push_back(std::numeric_limits<std::int32_t>::max());
  const SubTable left = build_side(AttrType::Int32, lk);
  const SubTable right = probe_side(AttrType::Int32, rk);
  EXPECT_EQ(expect_filter_matches_reference(left, right, {"k"}).num_rows(),
            lk.size());
}

TEST(KeyRangeFilter, NegativeInt64KeysAcrossWidths) {
  // i64 build side, i32 probe side: both sign-extend into integer lanes.
  const std::int64_t lo = std::numeric_limits<std::int64_t>::min();
  const std::int64_t hi = std::numeric_limits<std::int64_t>::max();
  std::vector<Value> rk;
  for (int k = -1100; k <= 10; k += 7) rk.push_back(k);
  rk.push_back(-1);
  rk.push_back(-5);
  rk.push_back(std::numeric_limits<std::int32_t>::min());
  const SubTable left = build_side(AttrType::Int64, {lo, -1, -5, 0, -1000});
  const SubTable right = probe_side(AttrType::Int32, rk);
  // -1 (twice: the sweep hits it too) and -5 join; INT32_MIN is not
  // INT64_MIN.
  EXPECT_EQ(expect_filter_matches_reference(left, right, {"k"}).num_rows(),
            3u);

  // The ends of the i64 range join themselves.
  const SubTable ends = build_side(AttrType::Int64, {lo, hi});
  const SubTable wide = probe_side(AttrType::Int64, {hi, lo, hi});
  EXPECT_EQ(expect_filter_matches_reference(ends, wide, {"k"}).num_rows(), 3u);
}

TEST(KeyRangeFilter, NegativeAndInfiniteFloatKeys) {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<Value> rk;
  for (int i = -20; i <= 20; ++i) rk.push_back(i * 0.25);
  rk.push_back(-inf);
  rk.push_back(inf);
  rk.push_back(-1e300);
  const SubTable left =
      build_side(AttrType::Float64, {-2.5, -1.0, -0.25, 3.0, -inf});
  const SubTable right = probe_side(AttrType::Float64, rk);
  EXPECT_EQ(expect_filter_matches_reference(left, right, {"k"}).num_rows(),
            5u);

  // f32 build side, f64 probe side: one float lane family.
  const SubTable left32 =
      build_side(AttrType::Float32, {-3.5f, -0.5f, -0.125f});
  EXPECT_EQ(expect_filter_matches_reference(left32, right, {"k"}).num_rows(),
            2u);
  const SubTable right64 =
      probe_side(AttrType::Float64, {-3.5, -0.5, -0.125, -0.126, 0.125});
  EXPECT_EQ(expect_filter_matches_reference(left32, right64, {"k"}).num_rows(),
            3u);
}

TEST(KeyRangeFilter, SignedZerosJoinEachOther) {
  // -0.0 canonicalizes to +0.0 before the range is taken, so a build side of
  // only -0.0 keeps +0.0 probes, and the other way round.
  const SubTable probe =
      probe_side(AttrType::Float64, {-0.0, 0.0, -0.0f, 0.0f, 1.0, -1.0});
  const SubTable neg = build_side(AttrType::Float64, {-0.0});
  const SubTable pos = build_side(AttrType::Float32, {0.0f});
  EXPECT_EQ(expect_filter_matches_reference(neg, probe, {"k"}).num_rows(), 4u);
  EXPECT_EQ(expect_filter_matches_reference(pos, probe, {"k"}).num_rows(), 4u);
}

TEST(KeyRangeFilter, NanKeysFollowLaneEquality) {
  // Join equality is equality of canonical lanes: a NaN joins a NaN with the
  // same bit pattern. The filter must keep exactly what the reference keeps,
  // whether NaN is the only build key, one end of the range, or absent.
  const double qnan = std::numeric_limits<double>::quiet_NaN();
  const double neg_nan = -qnan;
  const SubTable right =
      probe_side(AttrType::Float64, {qnan, neg_nan, 1.0, -1.0, qnan, 2.0});
  for (const std::vector<Value>& build :
       {std::vector<Value>{qnan}, std::vector<Value>{neg_nan},
        std::vector<Value>{qnan, 1.0}, std::vector<Value>{neg_nan, -1.0},
        std::vector<Value>{1.0, 2.0}}) {
    expect_filter_matches_reference(build_side(AttrType::Float64, build),
                                    right, {"k"});
  }
  const SubTable only_nan = build_side(AttrType::Float64, {qnan});
  EXPECT_EQ(expect_filter_matches_reference(only_nan, right, {"k"}).num_rows(),
            2u);
}

TEST(KeyRangeFilter, EmptyLeftFiltersEveryRowButCountsThem) {
  const SubTable left = build_side(AttrType::Int32, {});
  const SubTable right =
      probe_side(AttrType::Int32, {-3, -2, -1, 0, 1, 2, 3});
  EXPECT_EQ(expect_filter_matches_reference(left, right, {"k"}).num_rows(),
            0u);
}

TEST(KeyRangeFilter, AllRowsFilteredStillCountAsProbed) {
  std::vector<Value> lk, rk;
  for (int k = 100; k < 110; ++k) lk.push_back(k);
  for (int k = 0; k < 50; ++k) rk.push_back(k);
  for (int k = 200; k < 250; ++k) rk.push_back(k);
  const SubTable left = build_side(AttrType::Int32, lk);
  const SubTable right = probe_side(AttrType::Int32, rk);
  auto lp = std::shared_ptr<const SubTable>(&left, [](auto*) {});
  auto rs = std::make_shared<const Schema>(Schema::join_result(
      left.schema(), right.schema(),
      JoinKey::resolve(right.schema(), {"k"}).attr_indices()));
  const BuiltHashTable ht(lp, {"k"});
  SubTable out(rs, SubTableId{9, 0});
  const JoinStats s = ht.probe_range(right, {"k"}, 10, 90, out);
  EXPECT_EQ(s.probe_tuples, 80u);
  EXPECT_EQ(s.result_tuples, 0u);
  EXPECT_EQ(out.num_rows(), 0u);
}

TEST(KeyRangeFilter, ProbeRowsOnMinAndMaxAreKept) {
  // Integer range [-7, 12] and float range [-1.5, 2.25]: the ends join, the
  // nearest values outside are filtered.
  const SubTable il = build_side(AttrType::Int32, {3, -7, 12, 0});
  const SubTable ir = probe_side(AttrType::Int32, {-8, -7, 12, 13, -7});
  EXPECT_EQ(expect_filter_matches_reference(il, ir, {"k"}).num_rows(), 3u);

  const double lo = -1.5;
  const double hi = 2.25;
  const SubTable fl = build_side(AttrType::Float64, {0.5, hi, lo});
  const SubTable fr =
      probe_side(AttrType::Float64, {std::nextafter(lo, -10.0), lo, hi,
                                     std::nextafter(hi, 10.0), 0.5});
  EXPECT_EQ(expect_filter_matches_reference(fl, fr, {"k"}).num_rows(), 3u);
}

TEST(KeyRangeFilter, ArityThreePerLaneRanges) {
  // A probe row is kept only when all three lanes lie in their ranges; rows
  // in range on two lanes and outside on the third are dropped.
  const std::vector<Attribute> lkey = {{"x", AttrType::Float32},
                                       {"y", AttrType::Int32},
                                       {"z", AttrType::Float64}};
  const std::vector<Attribute> rkey = {{"x", AttrType::Float64},
                                       {"y", AttrType::Int64},
                                       {"z", AttrType::Float32}};
  Xoshiro256StarStar rng(31);
  std::vector<std::vector<Value>> lk, rk;
  for (int i = 0; i < 300; ++i) {
    const auto x = static_cast<int>(rng.below(8));
    const auto y = static_cast<int>(rng.below(8)) - 4;
    const auto z = static_cast<int>(rng.below(8));
    lk.push_back({float(x), y, double(z) - 2.0});
  }
  for (int i = 0; i < 400; ++i) {
    const auto x = static_cast<int>(rng.below(12)) - 2;
    const auto y = static_cast<int>(rng.below(12)) - 6;
    const auto z = static_cast<int>(rng.below(12)) - 2;
    rk.push_back({double(x), std::int64_t{y}, float(z) - 2.0f});
  }
  const SubTable left = make_table(lkey, "a", lk, 1);
  const SubTable right = make_table(rkey, "b", rk, 2);
  EXPECT_GT(
      expect_filter_matches_reference(left, right, {"x", "y", "z"}).num_rows(),
      0u);
}

TEST(KeyRangeFilter, DuplicateKeysOutgrowTheMatchBuffer) {
  // Far more candidates than probe rows: the per-call match region grows.
  std::vector<Value> lk(50, Value(5));
  lk.push_back(9);
  const SubTable left = build_side(AttrType::Int32, lk);
  const SubTable right = probe_side(AttrType::Int32, {5, 4, 5, 9, 5, 10});
  EXPECT_EQ(expect_filter_matches_reference(left, right, {"k"}).num_rows(),
            151u);
}

TEST(KeyRangeFilter, ProbeSpanningSeveralChunks) {
  // 5000 probe rows, more than two 2048-row chunks. The first 4096 rows mix
  // keys below, inside and above the build range [0, 199] and never hit the
  // hot key 150; from row 4096 on, every other row is 150, which has 8 build
  // rows. A full-range probe's third chunk then holds more candidates than
  // the match buffer's initial 2048 entries, so the buffer grows only after
  // two chunks have been emitted.
  std::vector<Value> lk;
  for (int k = 0; k < 200; ++k) lk.push_back(k);
  for (int i = 0; i < 7; ++i) lk.push_back(150);
  Xoshiro256StarStar rng(77);
  std::vector<Value> rk;
  for (int i = 0; i < 5000; ++i) {
    int k = static_cast<int>(rng.below(300)) - 50;
    if (k == 150) k = 151;
    if (i >= 4096 && i % 2 == 0) k = 150;
    rk.push_back(k);
  }
  const SubTable left = build_side(AttrType::Int32, lk);
  const SubTable right = probe_side(AttrType::Int32, rk);
  const SubTable joined = expect_filter_matches_reference(left, right, {"k"});
  EXPECT_GT(joined.num_rows(), 452u * 8u);
}

}  // namespace
}  // namespace orv
