// Cache-conscious join kernel: RightCopyPlan layout planning, probe_range
// boundary rows, long duplicate chains, and byte equality with
// nested_loop_join (identical bytes, not just fingerprints).

#include <gtest/gtest.h>

#include <cstring>

#include "common/error.hpp"
#include "common/prng.hpp"
#include "join/hash_join.hpp"

namespace orv {
namespace {

std::shared_ptr<SubTable> make_keyed(SchemaPtr schema,
                                     const std::vector<int>& keys) {
  auto st = std::make_shared<SubTable>(std::move(schema), SubTableId{1, 0});
  std::vector<Value> vals;
  int serial = 0;
  for (int k : keys) {
    vals.clear();
    vals.push_back(Value(k));
    for (std::size_t a = 1; a < st->schema().num_attrs(); ++a) {
      vals.push_back(Value(static_cast<float>(serial++)));
    }
    st->append_values(vals);
  }
  return st;
}

SchemaPtr left_schema() {
  return Schema::make({{"k", AttrType::Int32}, {"a", AttrType::Float32}});
}

// --- RightCopyPlan ---------------------------------------------------------

TEST(RightCopyPlan, MergesAdjacentNonKeyAttrs) {
  // Key is the first attribute: the three trailing non-key attrs are
  // contiguous and must merge into a single memcpy piece.
  auto l = left_schema();
  auto r = Schema::make({{"k", AttrType::Int32},
                         {"b", AttrType::Float32},
                         {"c", AttrType::Float32},
                         {"d", AttrType::Int64}});
  const JoinKey rkey = JoinKey::resolve(*r, {"k"});
  const auto plan = RightCopyPlan::make(*l, *r, rkey);
  ASSERT_EQ(plan.pieces.size(), 1u);
  EXPECT_EQ(plan.pieces[0].src_offset, r->offset(1));
  EXPECT_EQ(plan.pieces[0].dst_offset, l->record_size());
  EXPECT_EQ(plan.pieces[0].size, 4u + 4u + 8u);
  EXPECT_EQ(plan.left_record_size, l->record_size());
  EXPECT_EQ(plan.result_record_size, l->record_size() + 16u);
}

TEST(RightCopyPlan, KeyOnlyRightSchemaHasNoPieces) {
  auto l = left_schema();
  auto r = Schema::make({{"k", AttrType::Int32}});
  const auto plan = RightCopyPlan::make(*l, *r, JoinKey::resolve(*r, {"k"}));
  EXPECT_TRUE(plan.pieces.empty());
  EXPECT_EQ(plan.result_record_size, l->record_size());
}

TEST(RightCopyPlan, MidSchemaKeySplitsIntoTwoPieces) {
  // Key in the middle: a leading piece, a gap at the key, a trailing piece.
  auto l = left_schema();
  auto r = Schema::make({{"b", AttrType::Float32},
                         {"k", AttrType::Int32},
                         {"c", AttrType::Int64}});
  const auto plan = RightCopyPlan::make(*l, *r, JoinKey::resolve(*r, {"k"}));
  ASSERT_EQ(plan.pieces.size(), 2u);
  EXPECT_EQ(plan.pieces[0].src_offset, r->offset(0));
  EXPECT_EQ(plan.pieces[0].size, 4u);
  EXPECT_EQ(plan.pieces[1].src_offset, r->offset(2));  // trailing piece
  EXPECT_EQ(plan.pieces[1].size, 8u);
  EXPECT_EQ(plan.pieces[1].dst_offset, plan.pieces[0].dst_offset + 4u);
}

// --- probe_range boundaries ------------------------------------------------

struct ProbeFixture {
  std::shared_ptr<SubTable> left;
  SubTable right;
  std::shared_ptr<const Schema> result_schema;

  explicit ProbeFixture(const std::vector<int>& lkeys,
                        const std::vector<int>& rkeys)
      : left(make_keyed(left_schema(), lkeys)),
        right(*make_keyed(
            Schema::make({{"k", AttrType::Int32}, {"b", AttrType::Float32}}),
            rkeys)) {
    result_schema = std::make_shared<const Schema>(Schema::join_result(
        left->schema(), right.schema(),
        JoinKey::resolve(right.schema(), {"k"}).attr_indices()));
  }

  SubTable probe(const BuiltHashTable& ht, std::size_t begin,
                 std::size_t end) const {
    SubTable out(result_schema, SubTableId{9, 0});
    ht.probe_range(right, {"k"}, begin, end, out);
    return out;
  }

  SubTable reference() const {
    return nested_loop_join(*left, right, {"k"}, SubTableId{9, 0});
  }
};

void expect_same_bytes(const SubTable& a, const SubTable& b) {
  ASSERT_EQ(a.size_bytes(), b.size_bytes());
  EXPECT_EQ(std::memcmp(a.bytes().data(), b.bytes().data(), a.size_bytes()),
            0);
}

TEST(ProbeRange, EmptyRange) {
  ProbeFixture fx({1, 2, 3}, {1, 2, 3});
  const BuiltHashTable ht(fx.left, {"k"});
  EXPECT_EQ(fx.probe(ht, 0, 0).num_rows(), 0u);
  EXPECT_EQ(fx.probe(ht, 2, 2).num_rows(), 0u);
  EXPECT_EQ(fx.probe(ht, 3, 3).num_rows(), 0u);  // begin == num_rows
}

TEST(ProbeRange, FullRangeEqualsProbe) {
  ProbeFixture fx({1, 2, 3, 4}, {2, 3, 4, 5});
  const BuiltHashTable ht(fx.left, {"k"});
  const SubTable ranged = fx.probe(ht, 0, fx.right.num_rows());
  SubTable whole(fx.result_schema, SubTableId{9, 1});
  ht.probe(fx.right, {"k"}, whole);
  EXPECT_EQ(ranged.num_rows(), 3u);
  ASSERT_EQ(ranged.size_bytes(), whole.size_bytes());
  EXPECT_EQ(std::memcmp(ranged.bytes().data(), whole.bytes().data(),
                        whole.size_bytes()),
            0);
}

TEST(ProbeRange, OutOfBoundsThrows) {
  ProbeFixture fx({1}, {1});
  const BuiltHashTable ht(fx.left, {"k"});
  SubTable out(fx.result_schema, SubTableId{9, 0});
  EXPECT_THROW(ht.probe_range(fx.right, {"k"}, 0, 2, out), Error);
  EXPECT_THROW(ht.probe_range(fx.right, {"k"}, 2, 1, out), Error);
}

TEST(ProbeRange, ZeroAndOneRowRanges) {
  // Probe scratch is sized by the range, not by the chunk: every empty
  // and single-row range must still produce that row's matches, in order,
  // with the same stats as one full probe.
  Xoshiro256StarStar rng(5);
  std::vector<int> lkeys, rkeys;
  for (int i = 0; i < 60; ++i) {
    lkeys.push_back(static_cast<int>(rng.below(20)));
    rkeys.push_back(static_cast<int>(rng.below(25)));
  }
  ProbeFixture fx(lkeys, rkeys);
  const SubTable expected = fx.reference();
  const BuiltHashTable ht(fx.left, {"k"});
  SubTable pieced(fx.result_schema, SubTableId{9, 0});
  JoinStats total;
  for (std::size_t r = 0; r <= fx.right.num_rows(); ++r) {
    const JoinStats empty = ht.probe_range(fx.right, {"k"}, r, r, pieced);
    EXPECT_EQ(empty.probe_tuples, 0u);
    EXPECT_EQ(empty.result_tuples, 0u);
    if (r == fx.right.num_rows()) break;
    const JoinStats one = ht.probe_range(fx.right, {"k"}, r, r + 1, pieced);
    EXPECT_EQ(one.probe_tuples, 1u);
    total += one;
  }
  SubTable whole(fx.result_schema, SubTableId{9, 1});
  const JoinStats full = ht.probe(fx.right, {"k"}, whole);
  EXPECT_EQ(total.probe_tuples, full.probe_tuples);
  EXPECT_EQ(total.result_tuples, full.result_tuples);
  EXPECT_EQ(full.result_tuples, expected.num_rows());
  expect_same_bytes(pieced, expected);
  expect_same_bytes(whole, expected);
}

TEST(ProbeRange, DuplicateChainLongerThanBatch) {
  // 40 left rows with the same key chain through >16 slots: one probe row
  // must emit all of them, in ascending left-row order.
  std::vector<int> lkeys(40, 7);
  lkeys.push_back(8);
  ProbeFixture fx(lkeys, {7, 9, 7});
  const BuiltHashTable ht(fx.left, {"k"});
  const SubTable a = fx.probe(ht, 0, fx.right.num_rows());
  EXPECT_EQ(a.num_rows(), 80u);
  expect_same_bytes(a, fx.reference());
  // Ascending left-row order within one probe row: attribute "a" carries
  // the left serial number.
  for (std::size_t r = 1; r < 40; ++r) {
    EXPECT_LT(a.get<float>(r - 1, 1), a.get<float>(r, 1));
  }
}

// --- equivalence with the nested-loop reference ----------------------------

TEST(JoinKernel, MatchesNestedLoopBytes) {
  // 5000 probe rows: the full probe crosses two chunk boundaries.
  Xoshiro256StarStar rng(123);
  std::vector<int> lkeys, rkeys;
  for (int i = 0; i < 5000; ++i) {
    lkeys.push_back(static_cast<int>(rng.below(800)));
    rkeys.push_back(static_cast<int>(rng.below(800)));
  }
  ProbeFixture fx(lkeys, rkeys);
  const BuiltHashTable ht(fx.left, {"k"});
  const SubTable a = fx.reference();
  const SubTable b = fx.probe(ht, 0, fx.right.num_rows());
  EXPECT_GT(a.num_rows(), 0u);
  expect_same_bytes(a, b);
  EXPECT_EQ(a.unordered_fingerprint(), b.unordered_fingerprint());
}

TEST(JoinKernel, CompositeKeyMatchesNestedLoop) {
  auto sl = Schema::make({{"x", AttrType::Float32},
                          {"y", AttrType::Int64},
                          {"p", AttrType::Float64}});
  auto sr = Schema::make({{"y", AttrType::Int32},  // mixed-width y joins i64
                          {"q", AttrType::Float32},
                          {"x", AttrType::Float64}});
  auto left = std::make_shared<SubTable>(sl, SubTableId{1, 0});
  SubTable right(sr, SubTableId{2, 0});
  Xoshiro256StarStar rng(9);
  for (int i = 0; i < 2000; ++i) {
    const int x = static_cast<int>(rng.below(40));
    const int y = static_cast<int>(rng.below(40));
    const Value lv[] = {Value(float(x)), Value(std::int64_t{y}),
                        Value(rng.uniform01())};
    left->append_values(lv);
    const Value rv[] = {Value(y), Value(float(i)), Value(double(x))};
    right.append_values(rv);
  }
  auto rs = std::make_shared<const Schema>(Schema::join_result(
      left->schema(), right.schema(),
      JoinKey::resolve(right.schema(), {"x", "y"}).attr_indices()));

  const BuiltHashTable ht(left, {"x", "y"});
  const SubTable a = nested_loop_join(*left, right, {"x", "y"}, {9, 0});
  SubTable b(rs, SubTableId{9, 1});
  const JoinStats sb = ht.probe(right, {"x", "y"}, b);
  EXPECT_EQ(a.num_rows(), sb.result_tuples);
  EXPECT_GT(a.num_rows(), 0u);
  expect_same_bytes(a, b);
}

TEST(JoinKernel, MatchesTestHookListsLeftRowsInOrder) {
  std::vector<int> lkeys{3, 1, 3, 2, 3};
  auto left = make_keyed(left_schema(), lkeys);
  auto right = make_keyed(
      Schema::make({{"k", AttrType::Int32}, {"b", AttrType::Float32}}),
      {3, 4});
  const BuiltHashTable ht(left, {"k"});
  const JoinKey rkey = JoinKey::resolve(right->schema(), {"k"});
  EXPECT_EQ(ht.matches(*right, rkey, 0), (std::vector<std::uint32_t>{0, 2, 4}));
  EXPECT_TRUE(ht.matches(*right, rkey, 1).empty());
}

}  // namespace
}  // namespace orv
