// The selection kernel (RowFilter + filter_rows) against a per-row
// reference built from Value::read, Interval::contains and Rect::expand,
// over all four attribute types: rows and bounds must agree bit for bit,
// in both the copying and the in-place form.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "join/hash_join.hpp"
#include "meta/metadata.hpp"

namespace orv {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

SchemaPtr four_types() {
  return Schema::make({{"i", AttrType::Int32},
                       {"l", AttrType::Int64},
                       {"f", AttrType::Float32},
                       {"d", AttrType::Float64}});
}

/// The reference: per-attribute predicate by name (duplicates
/// intersected), each row tested on its constrained attributes through
/// Value::read, survivors' bounds grown with Rect::expand in row order.
SubTable reference(const SubTable& st, const std::vector<AttrRange>& ranges) {
  const Schema& s = st.schema();
  std::vector<std::optional<Interval>> pred(s.num_attrs());
  bool constrained = false;
  for (const auto& r : ranges) {
    if (auto idx = s.index_of(r.attr)) {
      pred[*idx] = pred[*idx] ? pred[*idx]->intersect(r.range) : r.range;
      constrained = true;
    }
  }
  SubTable out(st.schema_ptr(), st.id());
  if (!constrained) {
    for (std::size_t r = 0; r < st.num_rows(); ++r) {
      out.append_row({st.row(r), st.record_size()});
    }
    out.set_bounds(st.bounds());
    return out;
  }
  Rect b(s.num_attrs());
  for (std::size_t d = 0; d < s.num_attrs(); ++d) b[d] = {kInf, -kInf};
  for (std::size_t r = 0; r < st.num_rows(); ++r) {
    auto cell = [&](std::size_t d) {
      return Value::read(s.attr(d).type, st.row(r) + s.offset(d)).as_double();
    };
    bool keep = true;
    for (std::size_t d = 0; d < s.num_attrs(); ++d) {
      if (pred[d] && !pred[d]->contains(cell(d))) keep = false;
    }
    if (!keep) continue;
    out.append_row({st.row(r), st.record_size()});
    for (std::size_t d = 0; d < s.num_attrs(); ++d) b.expand(d, cell(d));
  }
  if (out.empty()) {
    for (std::size_t d = 0; d < s.num_attrs(); ++d) b[d] = {1.0, -1.0};
  }
  out.set_bounds(b);
  return out;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void expect_identical(const SubTable& got, const SubTable& want,
                      const std::string& what) {
  ASSERT_EQ(got.num_rows(), want.num_rows()) << what;
  ASSERT_EQ(got.size_bytes(), want.size_bytes()) << what;
  if (!want.empty()) {
    EXPECT_EQ(std::memcmp(got.bytes().data(), want.bytes().data(),
                          want.size_bytes()),
              0)
        << what;
  }
  ASSERT_EQ(got.bounds().dims(), want.bounds().dims()) << what;
  for (std::size_t d = 0; d < want.bounds().dims(); ++d) {
    EXPECT_TRUE(same_bits(got.bounds()[d].lo, want.bounds()[d].lo))
        << what << " attr " << d << " lo " << got.bounds()[d].lo << " vs "
        << want.bounds()[d].lo;
    EXPECT_TRUE(same_bits(got.bounds()[d].hi, want.bounds()[d].hi))
        << what << " attr " << d << " hi " << got.bounds()[d].hi << " vs "
        << want.bounds()[d].hi;
  }
}

/// Runs both kernel forms on `st` and compares each with the reference.
void check(const SubTable& st, const std::vector<AttrRange>& ranges,
           const std::string& what) {
  const SubTable want = reference(st, ranges);
  const RowFilter filter(st.schema_ptr(), ranges);
  expect_identical(filter_rows(st, filter), want, what + " (copy)");
  SubTable owned = st;
  expect_identical(filter_rows(std::move(owned), filter), want,
                   what + " (in place)");
}

/// Values that stress the comparisons: signed zeros, infinities, NaN,
/// integers past 2^53 that round on the way to double.
const std::vector<double>& float_pool() {
  static const std::vector<double> pool = {
      0.0, -0.0, 1.0, -1.0, 0.5, 2.5, -3.25, 1e30, -1e30, kInf, -kInf, kNaN};
  return pool;
}

SubTable random_rows(std::mt19937_64& rng, std::size_t n, bool with_nan) {
  SubTable st(four_types(), SubTableId{3, 9});
  const auto& pool = float_pool();
  std::uniform_int_distribution<std::size_t> pick(
      0, pool.size() - (with_nan ? 1 : 2));
  std::uniform_int_distribution<std::int32_t> small(-4, 4);
  const std::int64_t big[] = {0, -1, 3, (std::int64_t{1} << 53) + 1,
                              -(std::int64_t{1} << 60) - 3};
  std::uniform_int_distribution<std::size_t> pick_big(0, 4);
  for (std::size_t r = 0; r < n; ++r) {
    const Value vals[] = {Value(small(rng)), Value(big[pick_big(rng)]),
                          Value(static_cast<float>(pool[pick(rng)])),
                          Value(pool[pick(rng)])};
    st.append_values(vals);
  }
  st.compute_bounds();
  return st;
}

std::vector<AttrRange> random_ranges(std::mt19937_64& rng) {
  static const char* names[] = {"i", "l", "f", "d", "missing"};
  const double ends[] = {-kInf, -4, -1, -0.0, 0.0, 0.5, 1, 3, kInf};
  std::uniform_int_distribution<std::size_t> n_ranges(0, 4);
  std::uniform_int_distribution<std::size_t> pick_name(0, 4);
  std::uniform_int_distribution<std::size_t> pick_end(0, 8);
  std::vector<AttrRange> out(n_ranges(rng));
  for (auto& r : out) {
    r.attr = names[pick_name(rng)];
    double a = ends[pick_end(rng)];
    double b = ends[pick_end(rng)];
    if (b < a) std::swap(a, b);
    r.range = {a, b};
  }
  return out;
}

TEST(RowFilter, MatchesPerRowReferenceOnRandomTables) {
  std::mt19937_64 rng(20061);
  for (int round = 0; round < 400; ++round) {
    const std::size_t n = round % 7 == 0 ? 0 : 1 + rng() % 64;
    const SubTable st = random_rows(rng, n, /*with_nan=*/round % 2 == 0);
    const auto ranges = random_ranges(rng);
    check(st, ranges, "round " + std::to_string(round));
  }
}

TEST(RowFilter, SignedZerosKeepFirstSeenInBounds) {
  // -0.0 and +0.0 compare equal, so a bound keeps whichever zero came
  // first; both forms must see the rows in the same order as the reference.
  auto schema = Schema::make({{"d", AttrType::Float64}, {"k", AttrType::Int32}});
  SubTable st(schema, SubTableId{1, 1});
  for (double v : {-0.0, 0.0, 5.0, 0.0, -0.0}) {
    const Value vals[] = {Value(v), Value(std::int32_t{1})};
    st.append_values(vals);
  }
  st.compute_bounds();
  check(st, {{"k", {1, 1}}}, "all kept, -0 first");
  check(st, {{"d", {-0.0, 0.0}}}, "zeros only");
  check(st, {{"d", {0.0, 0.0}}, {"d", {-0.0, -0.0}}}, "duplicate zero ranges");
  const SubTable kept = filter_rows(st, RowFilter(schema, {{"k", {1, 1}}}));
  EXPECT_TRUE(std::signbit(kept.bounds()[0].lo));  // -0.0 came first
  EXPECT_FALSE(std::signbit(kept.bounds()[0].hi));
}

TEST(RowFilter, InfiniteRangeEndsIncludeInfiniteValues) {
  auto schema = four_types();
  SubTable st(schema, SubTableId{1, 1});
  for (double v : {-kInf, -1.0, kInf}) {
    const Value vals[] = {Value(std::int32_t{0}), Value(std::int64_t{0}),
                          Value(static_cast<float>(v)), Value(v)};
    st.append_values(vals);
  }
  check(st, {{"f", {-kInf, kInf}}}, "unbounded f");
  check(st, {{"d", {-kInf, -1.0}}}, "lower half");
  check(st, {{"d", {kInf, kInf}}}, "only +inf");
  EXPECT_EQ(filter_rows(st, RowFilter(schema, {{"d", {kInf, kInf}}}))
                .num_rows(),
            1u);
}

TEST(RowFilter, EmptyAllKeptAndAllDropped) {
  std::mt19937_64 rng(7);
  const SubTable empty = random_rows(rng, 0, false);
  check(empty, {{"i", {0, 1}}}, "empty input");
  const SubTable st = random_rows(rng, 40, false);
  check(st, {{"i", {-kInf, kInf}}}, "all kept");
  check(st, {{"i", {100, 200}}}, "all dropped");
  check(st, {{"i", {1, 0}}}, "empty interval");
  const SubTable none = filter_rows(st, RowFilter(st.schema_ptr(),
                                                  {{"i", {100, 200}}}));
  EXPECT_TRUE(none.empty());
  for (std::size_t d = 0; d < 4; ++d) {
    EXPECT_TRUE(same_bits(none.bounds()[d].lo, 1.0));
    EXPECT_TRUE(same_bits(none.bounds()[d].hi, -1.0));
  }
}

TEST(RowFilter, DuplicateRangesIntersect) {
  std::mt19937_64 rng(11);
  const SubTable st = random_rows(rng, 64, true);
  check(st, {{"i", {-4, 2}}, {"i", {0, 4}}}, "i in [0, 2]");
  const SubTable both =
      filter_rows(st, RowFilter(st.schema_ptr(), {{"i", {-4, 2}}, {"i", {0, 4}}}));
  const SubTable one =
      filter_rows(st, RowFilter(st.schema_ptr(), {{"i", {0, 2}}}));
  expect_identical(both, one, "intersection");
}

TEST(RowFilter, NamesTheSchemaLacksConstrainNothing) {
  std::mt19937_64 rng(13);
  SubTable st = random_rows(rng, 30, true);
  // Bounds that are not the data's own: an unconstrained filter keeps them.
  Rect wide = Rect::unbounded(4);
  st.set_bounds(wide);
  const RowFilter filter(st.schema_ptr(), {{"missing", {0, 1}}});
  EXPECT_FALSE(filter.constrains());
  check(st, {{"missing", {0, 1}}}, "unknown attribute");
  EXPECT_EQ(filter_rows(st, filter).bounds(), wide);
}

TEST(RowFilter, NanInUnconstrainedAttributeKeepsRow) {
  auto schema = Schema::make({{"x", AttrType::Float32}, {"v", AttrType::Float64}});
  SubTable st(schema, SubTableId{1, 1});
  const Value r0[] = {Value(0.5f), Value(kNaN)};
  const Value r1[] = {Value(std::nanf("")), Value(0.25)};
  st.append_values(r0);
  st.append_values(r1);
  // x is constrained: row 0's NaN is in v, which nothing constrains, so
  // the row passes; row 1's NaN is in x itself, so it fails.
  const SubTable by_x = filter_rows(st, RowFilter(schema, {{"x", {0, 1}}}));
  ASSERT_EQ(by_x.num_rows(), 1u);
  EXPECT_EQ(by_x.as_double(0, 0), 0.5);
  EXPECT_TRUE(std::isnan(by_x.as_double(0, 1)));
  // The same row is kept by a range on an attribute the schema lacks.
  EXPECT_EQ(filter_rows(st, RowFilter(schema, {{"w", {0, 1}}})).num_rows(),
            2u);
  // A NaN never widens the bounds.
  EXPECT_EQ(by_x.bounds()[1].lo, kInf);
  EXPECT_EQ(by_x.bounds()[1].hi, -kInf);
}

TEST(RowFilter, InPlaceFormReusesTheBuffer) {
  std::mt19937_64 rng(17);
  SubTable st = random_rows(rng, 64, false);
  const std::byte* buffer = st.bytes().data();
  const SubTable out =
      filter_rows(std::move(st), RowFilter(four_types(), {{"i", {-4, 3}}}));
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out.bytes().data(), buffer);
}

TEST(RowFilter, RejectsAnotherSchema) {
  std::mt19937_64 rng(19);
  const SubTable st = random_rows(rng, 4, false);
  const RowFilter other(Schema::make({{"i", AttrType::Int64}}),
                        {{"i", {0, 1}}});
  EXPECT_THROW(filter_rows(st, other), InvalidArgument);
}

TEST(RowFilter, JoinResultRangesConstrainBothCopies) {
  // left (x, y, z, a) joins right (x, y, z, b) on x, y: the result is
  // (x, y, z, a, z_r, b). A range on z selects both inputs' rows, so the
  // output filter must test z and z_r; filtering the joined rows must
  // equal joining the filtered inputs.
  auto left_schema = Schema::make({{"x", AttrType::Int32},
                                   {"y", AttrType::Int32},
                                   {"z", AttrType::Float32},
                                   {"a", AttrType::Float64}});
  auto right_schema = Schema::make({{"x", AttrType::Int64},
                                    {"y", AttrType::Int32},
                                    {"z", AttrType::Float64},
                                    {"b", AttrType::Float32}});
  SubTable left(left_schema, SubTableId{1, 0});
  SubTable right(right_schema, SubTableId{2, 0});
  for (std::int32_t x = 0; x < 4; ++x) {
    for (std::int32_t y = 0; y < 3; ++y) {
      const Value l[] = {Value(x), Value(y), Value(float(y % 2)),
                         Value(0.25 * x)};
      const Value r[] = {Value(std::int64_t{x}), Value(y),
                         Value(double(x % 2)), Value(float(y))};
      left.append_values(l);
      right.append_values(r);
    }
  }
  const std::vector<std::string> keys = {"x", "y"};
  const std::vector<AttrRange> ranges = {{"z", {0, 0}}, {"b", {0, 1}},
                                         {"a", {0, 0.5}}};
  const SubTable joined = hash_join(left, right, keys, SubTableId{0, 0});
  ASSERT_EQ(joined.schema().attr(4).name, "z_r");
  const RowFilter output = RowFilter::join_result(
      joined.schema_ptr(), *left_schema, *right_schema,
      JoinKey::resolve(*right_schema, keys).attr_indices(), ranges);
  const SubTable got = filter_rows(joined, output);
  const SubTable want =
      hash_join(filter_rows(left, ranges), filter_rows(right, ranges), keys,
                SubTableId{0, 0});
  EXPECT_EQ(got.num_rows(), want.num_rows());
  EXPECT_EQ(got.unordered_fingerprint(), want.unordered_fingerprint());
  EXPECT_GT(want.num_rows(), 0u);
  EXPECT_LT(want.num_rows(), joined.num_rows());
  // By name alone only the left z would be tested.
  EXPECT_GT(filter_rows(joined, ranges).num_rows(), want.num_rows());
}

}  // namespace
}  // namespace orv
