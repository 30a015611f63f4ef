// The local executor's join against an oracle that shares none of its
// join code: each input is materialized whole straight from the chunk
// stores, joined with nested_loop_join and filtered afterwards. Results
// must agree in row count and row multiset (unordered_fingerprint), with
// and without a pool, across nested and criss-crossing partitionings,
// selections below and above the join, empty selections and non-base
// inputs.

#include <gtest/gtest.h>

#include <atomic>
#include <ostream>

#include "datagen/generator.hpp"
#include "dds/local_executor.hpp"
#include "extract/extractor.hpp"
#include "join/hash_join.hpp"

namespace orv {
namespace {

struct Partitioning {
  const char* name;
  Dim3 part1;
  Dim3 part2;
};

// Printed by name: the default byte dump would include the name's address
// and make the ctest names differ from run to run.
void PrintTo(const Partitioning& p, std::ostream* os) { *os << p.name; }

// T1 chunks inside T2 chunks (each T2 chunk spans 8 T1 chunks), the
// reverse, and chunks that cross on two axes, so a component holds several
// left and several right sub-tables.
const Partitioning kPartitionings[] = {
    {"T1InsideT2", {4, 4, 4}, {8, 8, 8}},
    {"T2InsideT1", {8, 8, 8}, {4, 4, 4}},
    {"Crossing", {4, 8, 4}, {8, 4, 8}},
};

GeneratedDataset make_dataset(const Partitioning& p) {
  DatasetSpec spec;
  spec.grid = {16, 16, 8};
  spec.part1 = p.part1;
  spec.part2 = p.part2;
  spec.layout2 = LayoutId::ColMajor;
  spec.num_storage_nodes = 3;
  return generate_dataset(spec);
}

/// Every row of `table` satisfying `ranges`, read without the executor.
SubTable materialize(const GeneratedDataset& ds, TableId table,
                     const std::vector<AttrRange>& ranges) {
  SubTable all(ds.meta.table_schema(table), SubTableId{table, 0});
  for (const auto& cm : ds.meta.chunks(table)) {
    const SubTable st =
        filter_rows(extract_chunk(ds.store_for(cm.location).read(cm.location)),
                    ranges);
    for (std::size_t r = 0; r < st.num_rows(); ++r) {
      all.append_row({st.row(r), st.record_size()});
    }
  }
  return all;
}

struct Expected {
  std::size_t rows;
  std::uint64_t fingerprint;
};

Expected oracle(const SubTable& left, const SubTable& right,
                const std::vector<std::string>& attrs,
                const std::vector<AttrRange>& above) {
  SubTable joined = nested_loop_join(left, right, attrs, SubTableId{0, 0});
  if (!above.empty()) joined = filter_rows(joined, above);
  return {joined.num_rows(), joined.unordered_fingerprint()};
}

/// Runs `view` sequentially and on a 3-thread pool; both must match.
void expect_matches(const GeneratedDataset& ds, const ViewDef& view,
                    const Expected& want) {
  ThreadPool pool(3);
  const LocalExecutor seq(ds.meta, ds.stores);
  const LocalExecutor par(ds.meta, ds.stores, &pool);
  for (const LocalExecutor* exec : {&seq, &par}) {
    const SubTable got = exec->execute(view);
    EXPECT_EQ(got.num_rows(), want.rows);
    EXPECT_EQ(got.unordered_fingerprint(), want.fingerprint);
  }
}

class LocalJoinOracle : public ::testing::TestWithParam<Partitioning> {
 protected:
  LocalJoinOracle() : ds_(make_dataset(GetParam())) {}

  SubTable t1(const std::vector<AttrRange>& r = {}) {
    return materialize(ds_, 1, r);
  }
  SubTable t2(const std::vector<AttrRange>& r = {}) {
    return materialize(ds_, 2, r);
  }

  GeneratedDataset ds_;
};

const std::vector<std::string> kXyz = {"x", "y", "z"};

TEST_P(LocalJoinOracle, PlainJoin) {
  const auto view = ViewDef::join(ViewDef::base(1), ViewDef::base(2), kXyz);
  const Expected want = oracle(t1(), t2(), kXyz, {});
  EXPECT_EQ(want.rows, 16u * 16 * 8);
  expect_matches(ds_, *view, want);
}

TEST_P(LocalJoinOracle, ManyToManyOnTwoAttributes) {
  // Every (x, y) column matches 8 x 8 rows: duplicate keys on both sides,
  // and a graph whose edges ignore z.
  const std::vector<std::string> xy = {"x", "y"};
  const auto view = ViewDef::join(ViewDef::base(1), ViewDef::base(2), xy);
  const Expected want = oracle(t1(), t2(), xy, {});
  EXPECT_EQ(want.rows, 16u * 16 * 8 * 8);
  expect_matches(ds_, *view, want);
}

TEST_P(LocalJoinOracle, SelectionsOnEachSide) {
  const std::vector<AttrRange> left = {{"x", {2, 9}}, {"oilp", {0.1, 0.8}}};
  const std::vector<AttrRange> right = {{"y", {3, 12}}, {"wp", {0.2, 0.7}}};
  const auto view = ViewDef::join(ViewDef::select(ViewDef::base(1), left),
                                  ViewDef::select(ViewDef::base(2), right),
                                  kXyz);
  expect_matches(ds_, *view, oracle(t1(left), t2(right), kXyz, {}));
}

TEST_P(LocalJoinOracle, SelectAboveOnJoinAttribute) {
  const std::vector<AttrRange> above = {{"z", {3, 4}}};
  const auto view = ViewDef::select(
      ViewDef::join(ViewDef::base(1), ViewDef::base(2), kXyz), above);
  const Expected want = oracle(t1(), t2(), kXyz, above);
  EXPECT_EQ(want.rows, 16u * 16 * 2);
  expect_matches(ds_, *view, want);
}

TEST_P(LocalJoinOracle, SelectAboveOnNonJoinAttributes) {
  const std::vector<AttrRange> above = {{"oilp", {0.2, 0.5}},
                                        {"wp", {0.1, 0.9}}};
  const auto view = ViewDef::select(
      ViewDef::join(ViewDef::base(1), ViewDef::base(2), kXyz), above);
  expect_matches(ds_, *view, oracle(t1(), t2(), kXyz, above));
}

TEST_P(LocalJoinOracle, SelectAboveMixedOverSelectedSides) {
  const std::vector<AttrRange> above = {{"x", {1, 6}}, {"wp", {0, 0.5}}};
  const std::vector<AttrRange> left = {{"y", {4, 15}}};
  const auto view = ViewDef::select(
      ViewDef::join(ViewDef::select(ViewDef::base(1), left), ViewDef::base(2),
                    kXyz),
      above);
  expect_matches(ds_, *view, oracle(t1(left), t2(), kXyz, above));
}

TEST_P(LocalJoinOracle, EmptySelections) {
  const std::vector<AttrRange> outside = {{"x", {100, 200}}};
  const auto above_none = ViewDef::select(
      ViewDef::join(ViewDef::base(1), ViewDef::base(2), kXyz), outside);
  const Expected nothing = oracle(t1(), t2(), kXyz, outside);
  EXPECT_EQ(nothing.rows, 0u);
  expect_matches(ds_, *above_none, nothing);
  // The left side selects nothing; the right side is whole.
  const std::vector<AttrRange> none = {{"oilp", {5, 6}}};
  const auto side_none = ViewDef::join(
      ViewDef::select(ViewDef::base(1), none), ViewDef::base(2), kXyz);
  expect_matches(ds_, *side_none, oracle(t1(none), t2(), kXyz, {}));
}

TEST_P(LocalJoinOracle, NonBaseInputs) {
  // A projected input is materialized and joined as one sub-table: against
  // every chunk of a base side, or against another materialized input.
  const std::vector<std::string> cols = {"z", "y", "x", "oilp"};
  const auto proj1 = ViewDef::project(ViewDef::base(1), cols);
  const auto proj2 = ViewDef::project(ViewDef::base(2), {"x", "y", "z", "wp"});
  const LocalExecutor exec(ds_.meta, ds_.stores);
  const SubTable p1 = exec.execute(*proj1);
  const SubTable p2 = exec.execute(*proj2);

  expect_matches(ds_, *ViewDef::join(proj1, ViewDef::base(2), kXyz),
                 oracle(p1, t2(), kXyz, {}));
  expect_matches(ds_, *ViewDef::join(ViewDef::base(1), proj2, kXyz),
                 oracle(t1(), p2, kXyz, {}));
  expect_matches(ds_, *ViewDef::join(proj1, proj2, kXyz),
                 oracle(p1, p2, kXyz, {}));
  const std::vector<AttrRange> above = {{"y", {5, 9}}, {"wp", {0.3, 1}}};
  expect_matches(
      ds_, *ViewDef::select(ViewDef::join(proj1, proj2, kXyz), above),
      oracle(p1, p2, kXyz, above));
}

INSTANTIATE_TEST_SUITE_P(Partitionings, LocalJoinOracle,
                         ::testing::ValuesIn(kPartitionings),
                         [](const auto& info) {
                           return std::string(info.param.name);
                         });

/// Forwards to a store and counts the bytes read through it.
class CountingStore final : public ChunkStore {
 public:
  CountingStore(std::shared_ptr<ChunkStore> inner,
                std::atomic<std::uint64_t>& bytes)
      : inner_(std::move(inner)), bytes_(bytes) {}

  std::vector<std::byte> read(const ChunkLocation& loc) const override {
    auto out = inner_->read(loc);
    bytes_ += out.size();
    return out;
  }
  ChunkLocation append(std::uint32_t file_no,
                       std::span<const std::byte> bytes) override {
    return inner_->append(file_no, bytes);
  }
  std::uint64_t total_bytes() const override { return inner_->total_bytes(); }

 private:
  std::shared_ptr<ChunkStore> inner_;
  std::atomic<std::uint64_t>& bytes_;
};

TEST(LocalJoin, SelectAboveOnJoinAttributePrunesChunkReads) {
  const GeneratedDataset ds = make_dataset(kPartitionings[0]);
  std::atomic<std::uint64_t> bytes{0};
  std::vector<std::shared_ptr<ChunkStore>> stores;
  for (const auto& s : ds.stores) {
    stores.push_back(std::make_shared<CountingStore>(s, bytes));
  }
  const LocalExecutor exec(ds.meta, stores);
  const auto join = ViewDef::join(ViewDef::base(1), ViewDef::base(2), kXyz);

  EXPECT_EQ(exec.execute(*join).num_rows(), 16u * 16 * 8);
  const std::uint64_t full = bytes.exchange(0);
  EXPECT_EQ(full, ds.stores[0]->total_bytes() + ds.stores[1]->total_bytes() +
                      ds.stores[2]->total_bytes());

  // z in [0, 1] touches the bottom layer of chunks of each table: a quarter
  // of T1's (4-high) and half of T2's (8-high).
  EXPECT_EQ(exec.execute(*ViewDef::select(join, {{"z", {0, 1}}})).num_rows(),
            16u * 16 * 2);
  const std::uint64_t sliced = bytes.load();
  EXPECT_GT(sliced, 0u);
  EXPECT_LT(sliced, full);
}

}  // namespace
}  // namespace orv
