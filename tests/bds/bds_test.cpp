// Basic Data Source Service: produce/fetch semantics, locality checks,
// virtual-time charging, concurrent request pipelining, stats, coalesced
// runs, and the fault gate.

#include "bds/bds.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/error.hpp"
#include "datagen/generator.hpp"
#include "fault/fault.hpp"
#include "sim/engine.hpp"

namespace orv {
namespace {

struct Rig {
  GeneratedDataset ds;
  sim::Engine engine;
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<BdsService> bds;

  explicit Rig(std::size_t n_storage = 2, std::size_t n_compute = 2,
               double disk_seek = 0.0) {
    DatasetSpec spec;
    spec.grid = {8, 8, 8};
    spec.part1 = {4, 4, 4};
    spec.part2 = {4, 4, 4};
    spec.num_storage_nodes = n_storage;
    ds = generate_dataset(spec);
    ClusterSpec cspec;
    cspec.num_storage = n_storage;
    cspec.num_compute = n_compute;
    cspec.hw.disk_seek = disk_seek;
    cluster = std::make_unique<Cluster>(engine, cspec);
    bds = std::make_unique<BdsService>(*cluster, ds.meta, ds.stores);
  }
};

TEST(Bds, ProduceReturnsCorrectSubTable) {
  Rig rig;
  const auto& cm = rig.ds.meta.chunks(1)[0];
  std::shared_ptr<const SubTable> got;
  auto proc = [](BdsService& bds, SubTableId id,
                 std::shared_ptr<const SubTable>& out) -> sim::Task<> {
    out = co_await bds.instance_for(id).produce(id);
  };
  rig.engine.spawn(proc(*rig.bds, cm.id, got));
  rig.engine.run();
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->id(), cm.id);
  EXPECT_EQ(got->num_rows(), 64u);
  EXPECT_EQ(got->bounds(), cm.bounds);
  // Virtual time advanced by at least the disk read time.
  EXPECT_GE(rig.engine.now(),
            cm.location.size / rig.cluster->spec().hw.disk_read_bw * 0.99);
}

TEST(Bds, ProduceRejectsRemoteChunk) {
  Rig rig;
  // Find a chunk on node 1 and ask node 0's instance for it.
  SubTableId remote{};
  for (const auto& cm : rig.ds.meta.chunks(1)) {
    if (cm.location.storage_node == 1) {
      remote = cm.id;
      break;
    }
  }
  bool threw = false;
  auto proc = [](BdsService& bds, SubTableId id, bool& flag) -> sim::Task<> {
    try {
      co_await bds.instance(0).produce(id);
    } catch (const InvalidArgument&) {
      flag = true;
    }
  };
  rig.engine.spawn(proc(*rig.bds, remote, threw));
  rig.engine.run();
  EXPECT_TRUE(threw);
}

TEST(Bds, FetchToComputeChargesNetwork) {
  Rig rig;
  const auto& cm = rig.ds.meta.chunks(1)[0];
  auto proc = [](BdsService& bds, SubTableId id) -> sim::Task<> {
    co_await bds.instance_for(id).fetch_to_compute(
        std::vector<SubTableId>(1, id), 0);
  };
  rig.engine.spawn(proc(*rig.bds, cm.id));
  rig.engine.run();
  const double record_bytes = 64.0 * 16;
  EXPECT_DOUBLE_EQ(rig.cluster->network_bytes(), record_bytes);
  // Pipelined fetch: completion is at least the slowest stage (NIC).
  EXPECT_GE(rig.engine.now(),
            record_bytes / rig.cluster->spec().hw.nic_bw * 0.99);
}

TEST(Bds, ConcurrentFetchesPipelineThroughOneDisk) {
  Rig rig(1, 2);
  // All chunks sit on one storage node; two compute nodes each fetch half
  // of T1. Pipelining should keep total time near max(disk, nic) for the
  // whole table, not the sum of both.
  auto fetch_list = [](BdsService& bds, std::vector<SubTableId> ids,
                       std::size_t dest) -> sim::Task<> {
    for (const auto id : ids) {
      co_await bds.instance_for(id).fetch_to_compute(
          std::vector<SubTableId>(1, id), dest);
    }
  };
  std::vector<SubTableId> a, b;
  for (const auto& cm : rig.ds.meta.chunks(1)) {
    (cm.id.chunk % 2 ? a : b).push_back(cm.id);
  }
  rig.engine.spawn(fetch_list(*rig.bds, a, 0));
  rig.engine.spawn(fetch_list(*rig.bds, b, 1));
  rig.engine.run();
  const double total_bytes = static_cast<double>(rig.ds.meta.table_bytes(1));
  const double disk_time = total_bytes / rig.cluster->spec().hw.disk_read_bw;
  const double nic_time =
      512.0 * 16 / rig.cluster->spec().hw.nic_bw;  // single storage NIC
  const double lower = std::max(disk_time, nic_time);
  EXPECT_GE(rig.engine.now(), 0.99 * lower);
  EXPECT_LE(rig.engine.now(), 1.3 * lower);
}

TEST(Bds, StatsAccumulate) {
  Rig rig;
  auto proc = [](BdsService& bds, const MetaDataService& meta)
      -> sim::Task<> {
    for (const auto& cm : meta.chunks(1)) {
      co_await bds.instance_for(cm.id).fetch_to_compute(
          std::vector<SubTableId>(1, cm.id), 0);
    }
  };
  rig.engine.spawn(proc(*rig.bds, rig.ds.meta));
  rig.engine.run();
  const auto stats = rig.bds->total_stats();
  EXPECT_EQ(stats.subtables_served, 8u);
  EXPECT_EQ(stats.chunk_bytes_read, rig.ds.meta.table_bytes(1));
  EXPECT_EQ(stats.subtable_bytes_shipped, 512u * 16);
}

/// The first `k` chunks of table 1, in on-disk order, that form one
/// adjacent run on storage node 0.
std::vector<SubTableId> adjacent_run(const MetaDataService& meta,
                                     std::size_t k) {
  std::vector<const ChunkMeta*> local;
  for (const auto& cm : meta.chunks(1)) {
    if (cm.location.storage_node == 0) local.push_back(&cm);
  }
  std::sort(local.begin(), local.end(),
            [](const ChunkMeta* a, const ChunkMeta* b) {
              return a->location.offset < b->location.offset;
            });
  std::vector<SubTableId> run;
  for (const ChunkMeta* cm : local) {
    const ChunkMeta* prev = run.empty() ? nullptr : &meta.chunk(run.back());
    if (prev != nullptr &&
        (prev->location.file_no != cm->location.file_no ||
         prev->location.offset + prev->location.size != cm->location.offset)) {
      run.clear();
    }
    run.push_back(cm->id);
    if (run.size() == k) return run;
  }
  return {};
}

using Tables = std::vector<std::shared_ptr<const SubTable>>;

sim::Task<> fetch_runs(BdsService& bds, std::vector<std::vector<SubTableId>> runs,
                       Tables& out) {
  for (auto& run : runs) {
    auto got = co_await bds.instance_for(run.front())
                   .fetch_to_compute(std::move(run), 0);
    out.insert(out.end(), got.begin(), got.end());
  }
}

TEST(Bds, AdjacentRunMatchesRunsOfOneWithOneSeek) {
  const double seek = 0.01;
  const std::size_t k = 3;
  Rig one(1, 1, seek);
  Rig many(1, 1, seek);
  std::vector<SubTableId> run = adjacent_run(one.ds.meta, k);
  ASSERT_EQ(run.size(), k);
  // The caller's order, not the disk's, decides the result order.
  std::reverse(run.begin(), run.end());

  Tables batched;
  Tables singles;
  one.engine.spawn(fetch_runs(*one.bds, {run}, batched));
  one.engine.run();
  std::vector<std::vector<SubTableId>> runs_of_one;
  for (const auto& id : run) runs_of_one.push_back({id});
  many.engine.spawn(fetch_runs(*many.bds, runs_of_one, singles));
  many.engine.run();

  ASSERT_EQ(batched.size(), k);
  ASSERT_EQ(singles.size(), k);
  for (std::size_t i = 0; i < k; ++i) {
    EXPECT_EQ(batched[i]->id(), run[i]);
    EXPECT_EQ(singles[i]->id(), run[i]);
    EXPECT_TRUE(std::ranges::equal(batched[i]->bytes(), singles[i]->bytes()));
  }
  EXPECT_EQ(one.bds->total_stats().subtables_served, k);
  EXPECT_EQ(one.bds->total_stats().subtable_bytes_shipped,
            many.bds->total_stats().subtable_bytes_shipped);
  // Same bytes off the spindle; the run pays one seek where k runs of one
  // pay k.
  const Disk& disk_one = one.cluster->storage_disk(0);
  const Disk& disk_many = many.cluster->storage_disk(0);
  EXPECT_DOUBLE_EQ(disk_one.bytes_read(), disk_many.bytes_read());
  EXPECT_NEAR(disk_many.busy_time() - disk_one.busy_time(),
              static_cast<double>(k - 1) * seek, 1e-9);
}

TEST(Bds, NonAdjacentRunIsRejected) {
  Rig rig(1, 1);
  const std::vector<SubTableId> run = adjacent_run(rig.ds.meta, 3);
  ASSERT_EQ(run.size(), 3u);
  bool threw = false;
  auto proc = [](BdsService& bds, std::vector<SubTableId> ids,
                 bool& flag) -> sim::Task<> {
    try {
      co_await bds.instance(0).fetch_to_compute(std::move(ids), 0);
    } catch (const InvalidArgument&) {
      flag = true;
    }
  };
  // The first and third chunk leave a gap: two seeks, not one run.
  rig.engine.spawn(proc(*rig.bds, {run[0], run[2]}, threw));
  rig.engine.run();
  EXPECT_TRUE(threw);
  EXPECT_EQ(rig.bds->total_stats().subtables_served, 0u);
}

TEST(Bds, RunAgainstADownStorageNodeTimesOut) {
  Rig rig(1, 1);
  const std::vector<SubTableId> run = adjacent_run(rig.ds.meta, 3);
  ASSERT_EQ(run.size(), 3u);
  fault::FaultPlan plan;
  plan.crashes.push_back({fault::NodeKind::Storage, 0, 0.0, 5.0});
  fault::FaultInjector inj(rig.engine, plan);
  fault::ScopedInjector scoped(inj);

  bool timed_out = false;
  auto proc = [](BdsService& bds, std::vector<SubTableId> ids,
                 bool& flag) -> sim::Task<> {
    try {
      co_await bds.instance(0).fetch_to_compute(std::move(ids), 0);
    } catch (const fault::TimeoutError&) {
      flag = true;
    }
  };
  rig.engine.spawn(proc(*rig.bds, run, timed_out));
  rig.engine.run();
  EXPECT_TRUE(timed_out);
  // The caller gave up after the RPC timeout, long before the node
  // recovers, and nothing was read or shipped.
  EXPECT_DOUBLE_EQ(rig.engine.now(), plan.retry.fetch_timeout);
  EXPECT_EQ(rig.bds->total_stats().subtables_served, 0u);
  EXPECT_EQ(rig.cluster->storage_disk(0).bytes_read(), 0.0);
  EXPECT_EQ(inj.stats().node_crashes_observed, 1u);
}

TEST(Bds, ServiceValidatesStoreCount) {
  Rig rig;
  std::vector<std::shared_ptr<ChunkStore>> too_few = {rig.ds.stores[0]};
  EXPECT_THROW(BdsService(*rig.cluster, rig.ds.meta, too_few),
               InvalidArgument);
}

}  // namespace
}  // namespace orv
