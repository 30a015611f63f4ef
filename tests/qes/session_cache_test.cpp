// Cross-query session caches (paper future work, "caching strategies"):
// repeated queries against warm per-node caches skip transfers entirely
// while staying exactly correct — including under changed predicates,
// because entries are cached raw and selection moves to the join output.

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "datagen/generator.hpp"
#include "qes/qes.hpp"
#include "sim/engine.hpp"

namespace orv {
namespace {

struct Rig {
  GeneratedDataset ds;
  sim::Engine engine;
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<BdsService> bds;
  std::vector<std::shared_ptr<CachingService>> caches;
  ConnectivityGraph full_graph;

  Rig() {
    DatasetSpec spec;
    spec.grid = {8, 8, 8};
    spec.part1 = {4, 4, 4};
    spec.part2 = {2, 2, 2};
    spec.num_storage_nodes = 2;
    ds = generate_dataset(spec);
    ClusterSpec cspec;
    cspec.num_storage = 2;
    cspec.num_compute = 2;
    cluster = std::make_unique<Cluster>(engine, cspec);
    bds = std::make_unique<BdsService>(*cluster, ds.meta, ds.stores);
    for (std::size_t j = 0; j < 2; ++j) {
      caches.push_back(
          std::make_shared<CachingService>(cluster->memory_bytes()));
    }
    full_graph = ConnectivityGraph::build(ds.meta, 1, 2, {"x", "y", "z"});
  }

  QesResult run(const JoinQuery& query, const ConnectivityGraph& graph) {
    QesOptions options;
    options.node_caches = &caches;
    return run_indexed_join(*cluster, *bds, ds.meta, graph, query, options);
  }
};

TEST(SessionCache, SecondRunTransfersNothing) {
  Rig rig;
  JoinQuery query{1, 2, {"x", "y", "z"}, {}};
  const auto cold = rig.run(query, rig.full_graph);
  const auto warm = rig.run(query, rig.full_graph);
  EXPECT_EQ(cold.result_tuples, 512u);
  EXPECT_EQ(warm.result_tuples, 512u);
  EXPECT_EQ(warm.result_fingerprint, cold.result_fingerprint);
  EXPECT_GT(cold.subtable_fetches, 0u);
  EXPECT_EQ(warm.subtable_fetches, 0u);         // all hits
  EXPECT_DOUBLE_EQ(warm.network_bytes, 0.0);    // nothing on the wire
  EXPECT_LT(warm.elapsed, cold.elapsed);
  EXPECT_EQ(warm.cache_stats.misses, 0u);
  // Hash tables were cached too: none rebuilt.
  EXPECT_EQ(warm.hash_tables_built, 0u);
}

TEST(SessionCache, DifferentPredicateStillCorrectOnWarmCache) {
  Rig rig;
  JoinQuery full{1, 2, {"x", "y", "z"}, {}};
  const auto cold = rig.run(full, rig.full_graph);  // warm the caches raw

  JoinQuery narrow{1, 2, {"x", "y", "z"}, {{"x", {0, 3}}, {"wp", {0.0, 0.5}}}};
  const auto graph = ConnectivityGraph::build(rig.ds.meta, 1, 2,
                                              narrow.join_attrs,
                                              narrow.ranges);
  const auto res = rig.run(narrow, graph);
  const auto ref = reference_join(rig.ds.meta, rig.ds.stores, narrow);
  EXPECT_EQ(res.result_tuples, ref.result_tuples);
  EXPECT_EQ(res.result_fingerprint, ref.result_fingerprint);
  // Mostly served from cache; a few components land on a different node
  // under the pruned graph's round-robin and re-fetch.
  EXPECT_LT(res.network_bytes, 0.5 * cold.network_bytes);
}

TEST(SessionCache, ColdRunWithPredicateMatchesReference) {
  Rig rig;
  JoinQuery narrow{1, 2, {"x", "y", "z"}, {{"y", {2, 5}}}};
  const auto graph = ConnectivityGraph::build(rig.ds.meta, 1, 2,
                                              narrow.join_attrs,
                                              narrow.ranges);
  const auto res = rig.run(narrow, graph);
  const auto ref = reference_join(rig.ds.meta, rig.ds.stores, narrow);
  EXPECT_EQ(res.result_tuples, ref.result_tuples);
  EXPECT_EQ(res.result_fingerprint, ref.result_fingerprint);
}

TEST(SessionCache, RangeOnSharedNonKeyAttributeConstrainsBothCopies) {
  // Joined on x and y, both tables carry z, so the result holds z (left)
  // and z_r (right). The range selects each table's rows: on the output
  // it must constrain both copies, as private caches (which filter each
  // fetched side) and GH (which filters before routing) do.
  Rig rig;
  const JoinQuery query{1, 2, {"x", "y"}, {{"z", {0, 0}}}};
  const auto graph = ConnectivityGraph::build(rig.ds.meta, 1, 2,
                                              query.join_attrs, query.ranges);
  const auto shared = rig.run(query, graph);
  const auto priv =
      run_indexed_join(*rig.cluster, *rig.bds, rig.ds.meta, graph, query);
  const auto gh = run_grace_hash(*rig.cluster, *rig.bds, rig.ds.meta, query);
  const auto ref = reference_join(rig.ds.meta, rig.ds.stores, query);
  EXPECT_EQ(ref.result_tuples, 64u);
  EXPECT_EQ(priv.result_tuples, ref.result_tuples);
  EXPECT_EQ(priv.result_fingerprint, ref.result_fingerprint);
  EXPECT_EQ(gh.result_tuples, ref.result_tuples);
  EXPECT_EQ(gh.result_fingerprint, ref.result_fingerprint);
  EXPECT_EQ(shared.result_tuples, ref.result_tuples);
  EXPECT_EQ(shared.result_fingerprint, ref.result_fingerprint);
}

TEST(SessionCache, StatsReportPerRunDeltas) {
  Rig rig;
  JoinQuery query{1, 2, {"x", "y", "z"}, {}};
  const auto cold = rig.run(query, rig.full_graph);
  const auto warm = rig.run(query, rig.full_graph);
  // The warm run's stats must not include the cold run's misses.
  EXPECT_GT(cold.cache_stats.misses, 0u);
  EXPECT_EQ(warm.cache_stats.misses, 0u);
  EXPECT_GT(warm.cache_stats.hits, 0u);
}

TEST(SessionCache, CacheAffinityEliminatesPrunedGraphRefetches) {
  Rig rig;
  JoinQuery full{1, 2, {"x", "y", "z"}, {}};
  rig.run(full, rig.full_graph);  // warm

  JoinQuery narrow{1, 2, {"x", "y", "z"}, {{"x", {0, 3}}}};
  const auto graph = ConnectivityGraph::build(rig.ds.meta, 1, 2,
                                              narrow.join_attrs,
                                              narrow.ranges);
  QesOptions options;
  options.node_caches = &rig.caches;
  options.assign = ComponentAssign::CacheAffinity;
  const auto res = run_indexed_join(*rig.cluster, *rig.bds, rig.ds.meta,
                                    graph, narrow, options);
  const auto ref = reference_join(rig.ds.meta, rig.ds.stores, narrow);
  EXPECT_EQ(res.result_tuples, ref.result_tuples);
  EXPECT_EQ(res.result_fingerprint, ref.result_fingerprint);
  EXPECT_EQ(res.subtable_fetches, 0u);        // affinity found every entry
  EXPECT_DOUBLE_EQ(res.network_bytes, 0.0);
}

TEST(SessionCache, CacheAffinityOnColdCachesFallsBackToRoundRobin) {
  Rig rig;
  JoinQuery query{1, 2, {"x", "y", "z"}, {}};
  QesOptions options;
  options.node_caches = &rig.caches;
  options.assign = ComponentAssign::CacheAffinity;
  const auto res = run_indexed_join(*rig.cluster, *rig.bds, rig.ds.meta,
                                    rig.full_graph, query, options);
  EXPECT_EQ(res.result_tuples, 512u);
  EXPECT_GT(res.subtable_fetches, 0u);  // nothing cached yet
}

TEST(SessionCache, WrongCacheCountRejected) {
  Rig rig;
  JoinQuery query{1, 2, {"x", "y", "z"}, {}};
  std::vector<std::shared_ptr<CachingService>> too_few = {rig.caches[0]};
  QesOptions options;
  options.node_caches = &too_few;
  EXPECT_THROW(run_indexed_join(*rig.cluster, *rig.bds, rig.ds.meta,
                                rig.full_graph, query, options),
               Error);
}

}  // namespace
}  // namespace orv
