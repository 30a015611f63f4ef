// Parallel local executor: results must be bit-identical to sequential
// execution across operators, pool sizes and dataset shapes.

#include <gtest/gtest.h>

#include "datagen/generator.hpp"
#include "dds/local_executor.hpp"

namespace orv {
namespace {

struct Fixture {
  GeneratedDataset ds;
  Fixture() {
    DatasetSpec spec;
    spec.grid = {16, 16, 16};
    spec.part1 = {4, 4, 4};
    spec.part2 = {8, 8, 8};
    spec.num_storage_nodes = 3;
    ds = generate_dataset(spec);
  }
};

void expect_identical(const SubTable& a, const SubTable& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_EQ(a.size_bytes(), b.size_bytes());
  const auto ab = a.bytes();
  const auto bb = b.bytes();
  EXPECT_TRUE(std::equal(ab.begin(), ab.end(), bb.begin()));
}

class ParallelExec : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ParallelExec, ScanIdenticalToSequential) {
  Fixture f;
  ThreadPool pool(GetParam());
  LocalExecutor seq(f.ds.meta, f.ds.stores);
  LocalExecutor par(f.ds.meta, f.ds.stores, &pool);
  expect_identical(par.scan(1, {}), seq.scan(1, {}));
  const std::vector<AttrRange> ranges = {{"x", {2, 9}}, {"oilp", {0.0, 0.6}}};
  expect_identical(par.scan(1, ranges), seq.scan(1, ranges));
}

TEST_P(ParallelExec, JoinIdenticalToSequential) {
  Fixture f;
  ThreadPool pool(GetParam());
  LocalExecutor seq(f.ds.meta, f.ds.stores);
  LocalExecutor par(f.ds.meta, f.ds.stores, &pool);
  const auto view =
      ViewDef::join(ViewDef::base(1), ViewDef::base(2), {"x", "y", "z"});
  expect_identical(par.execute(*view), seq.execute(*view));
}

TEST_P(ParallelExec, AggregateIdenticalToSequential) {
  Fixture f;
  ThreadPool pool(GetParam());
  LocalExecutor seq(f.ds.meta, f.ds.stores);
  LocalExecutor par(f.ds.meta, f.ds.stores, &pool);
  const auto view = ViewDef::aggregate(
      ViewDef::join(ViewDef::base(1), ViewDef::base(2), {"x", "y", "z"}),
      {"z"}, {AggSpec{AggSpec::Fn::Avg, "wp", "a"}});
  expect_identical(par.execute(*view), seq.execute(*view));
}

INSTANTIATE_TEST_SUITE_P(PoolSizes, ParallelExec,
                         ::testing::Values(1, 2, 4, 8));

TEST(ParallelExec, SmallJoinsFallBackToSequentialPath) {
  // A tiny join (8 components of one pair each) with more threads than
  // the work needs.
  DatasetSpec spec;
  spec.grid = {4, 4, 4};
  spec.part1 = {2, 2, 2};
  spec.part2 = {2, 2, 2};
  spec.num_storage_nodes = 2;
  auto ds = generate_dataset(spec);
  ThreadPool pool(4);
  LocalExecutor par(ds.meta, ds.stores, &pool);
  const auto view =
      ViewDef::join(ViewDef::base(1), ViewDef::base(2), {"x", "y", "z"});
  EXPECT_EQ(par.execute(*view).num_rows(), 64u);
}

}  // namespace
}  // namespace orv
