// mixed_sessions: run_workload's open loop on the virtual clock. Three
// Poisson clients issue full-view, x half-space and z-slab join queries
// (one kind each, so an op's work does not depend on the seed) into one
// QesSession, the planner choosing the algorithm, with the shared session
// cache on and sized so it both hits and evicts. The offered rate is
// pinned at about twice the mix's solo capacity; admission caps running
// queries with an unbounded wait queue, so nothing is rejected and queue
// wait is real. One op = one run_workload of kQueriesPerClient queries per
// client. Arrivals are deterministic on the virtual clock, so generator
// lateness is zero by construction.

#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "datagen/generator.hpp"
#include "graph/connectivity.hpp"
#include "harness.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/obs.hpp"
#include "obs/profile.hpp"
#include "obs/sim_clock.hpp"
#include "obs/trace.hpp"
#include "qps/planner.hpp"
#include "sim/engine.hpp"
#include "workload/workload.hpp"

namespace perfbench {
namespace {

using namespace orv;

constexpr std::size_t kClients = 3;
constexpr std::size_t kQueriesPerClient = 34;  // 102 queries per op
/// Offered load, queries per virtual second over all clients: about twice
/// the solo capacity of the mix (1 / mean solo service, printed by every
/// run as solo_capacity_qps).
constexpr double kOfferedQps = 80.0;
/// Shared cache per compute node: a quarter of the dataset's bytes, so
/// repeated sub-tables hit while the full-view queries force evictions.
constexpr double kCacheShare = 0.25;

DatasetSpec dataset(std::uint64_t seed) {
  DatasetSpec d;
  d.grid = {32, 32, 32};
  d.part1 = {8, 8, 8};
  d.part2 = {4, 4, 4};
  d.num_storage_nodes = 3;
  d.seed = seed;
  return d;
}

ClusterSpec cluster_spec() {
  ClusterSpec c;
  c.num_storage = 3;
  c.num_compute = 4;
  return c;
}

std::vector<JoinQuery> queries(const DatasetSpec& d) {
  const JoinQuery full{d.table1_id, d.table2_id, {"x", "y", "z"}, {}};
  JoinQuery half = full;
  half.ranges = {{"x", {0.0, 15.0}}};
  JoinQuery slab = full;
  slab.ranges = {{"z", {12.0, 19.0}}};
  return {full, half, slab};
}

struct Fixture {
  DatasetSpec spec;
  ClusterSpec cluster;
  std::optional<GeneratedDataset> ds;
  std::vector<JoinQuery> queries;
  std::vector<std::uint64_t> oracle;  // solo fingerprint per query
  double solo_mean = 0;               // mean solo service, virtual s
  double generate_s = 0;
  double graph_s = 0;
  double plan_us = 0;
  std::uint64_t edges = 0;
};

WorkloadResult run_spec(const Fixture& f, const WorkloadSpec& spec,
                        std::uint64_t* events = nullptr) {
  sim::Engine engine;
  Cluster cluster(engine, f.cluster);
  BdsService bds(cluster, f.ds->meta, f.ds->stores);
  WorkloadResult r = run_workload(cluster, bds, f.ds->meta, spec);
  if (events != nullptr) *events = engine.events_processed();
  return r;
}

void set_up(Fixture& f, std::uint64_t seed) {
  Span setup_span("setup");
  f.spec = dataset(seed);
  f.cluster = cluster_spec();
  f.queries = queries(f.spec);
  f.ds.reset();
  double t0 = now_s();
  {
    Span s("datagen.generate");
    f.ds.emplace(generate_dataset(f.spec));
    f.ds->meta.build_indexes();
  }
  f.generate_s = now_s() - t0;
  const QueryPlanner planner(f.cluster);
  f.graph_s = 0;
  f.plan_us = 0;
  f.edges = 0;
  for (const auto& q : f.queries) {
    t0 = now_s();
    std::optional<ConnectivityGraph> g;
    {
      Span s("graph.build");
      g.emplace(ConnectivityGraph::build(f.ds->meta, q.left_table,
                                         q.right_table, q.join_attrs,
                                         q.ranges));
    }
    const double t1 = now_s();
    f.graph_s += t1 - t0;
    f.edges += g->num_edges();
    {
      Span s("qps.plan");
      planner.plan(f.ds->meta, *g, q);
    }
    f.plan_us += 1e6 * (now_s() - t1) / static_cast<double>(f.queries.size());
  }
  // Oracle: each query alone on an idle cluster with a private cache.
  Span s("oracle.solo_runs");
  f.oracle.clear();
  f.solo_mean = 0;
  for (const auto& q : f.queries) {
    WorkloadSpec one;
    WorkloadClientSpec client;
    client.name = "solo";
    client.mix.push_back({q, std::nullopt, 1.0, 0.0});
    client.trace_arrivals = {0.0};
    one.clients.push_back(std::move(client));
    one.session.share_cache = false;
    const WorkloadResult r = run_spec(f, one);
    if (r.completed != 1) throw std::runtime_error("solo query failed");
    f.oracle.push_back(r.outcomes.at(0).fingerprint);
    f.solo_mean += r.outcomes.at(0).service() /
                   static_cast<double>(f.queries.size());
  }
}

WorkloadSpec workload_spec(const Fixture& f, std::uint64_t seed) {
  WorkloadSpec spec;
  spec.seed = seed;
  spec.session.share_cache = true;
  const double table_bytes =
      static_cast<double>(f.ds->meta.table_bytes(f.spec.table1_id) +
                          f.ds->meta.table_bytes(f.spec.table2_id));
  spec.session.cache_bytes =
      static_cast<std::uint64_t>(kCacheShare * table_bytes);
  spec.admission.max_running = 4;
  for (std::size_t c = 0; c < kClients; ++c) {
    WorkloadClientSpec client;
    client.name = "client" + std::to_string(c);
    client.mix.push_back({f.queries[c], std::nullopt, 1.0, 0.0});
    client.poisson_rate = kOfferedQps / static_cast<double>(kClients);
    client.num_queries = kQueriesPerClient;
    spec.clients.push_back(std::move(client));
  }
  return spec;
}

struct Op {
  WorkloadResult result;
  std::uint64_t events = 0;
  double wall = 0;
  double rows = 0;
  bool ok = true;
  // Profiled ops only.
  double record_wall = 0;
  double analyze_s = 0;
  double export_s = 0;
  std::size_t spans = 0;
};

/// Every query must complete with its solo fingerprint.
bool check(const Fixture& f, const WorkloadResult& r) {
  if (r.completed != r.submitted || r.submitted == 0) return false;
  for (const auto& o : r.outcomes) {
    if (o.failed || o.rejected || o.fingerprint != f.oracle[o.client]) {
      return false;
    }
  }
  return true;
}

/// With a timer, the whole op is one timed part.
Op run_op(const Fixture& f, const WorkloadSpec& spec, bool profiled,
          OpTimer* timer = nullptr) {
  Op op;
  Span s("op");
  const double t0 = now_s();
  if (!profiled) {
    Span w("workload.run");
    auto run = [&] { return run_spec(f, spec, &op.events); };
    op.result = timer != nullptr ? timer->part(run) : run();
  } else {
    sim::Engine engine;
    Cluster cluster(engine, f.cluster);
    BdsService bds(cluster, f.ds->meta, f.ds->stores);
    obs::SimClock clock(engine);
    obs::ObsContext ctx(&clock);
    {
      obs::ScopedInstall install(ctx);
      Span w("workload.run");
      op.result = run_workload(cluster, bds, f.ds->meta, spec);
    }
    op.events = engine.events_processed();
    op.record_wall = now_s() - t0;
    const double t1 = now_s();
    std::vector<obs::SpanRecord> spans = ctx.tracer.snapshot();
    op.spans = spans.size();
    const auto dag = obs::TraceDag::assemble(spans);
    double path = 0;
    for (const auto& sp : dag.spans()) {
      if (sp.name == "ij.query" || sp.name == "gh.query") {
        path += obs::critical_path(dag, sp.id).total;
      }
    }
    const double t2 = now_s();
    const std::string profile =
        obs::build_profile(ctx, "mixed_sessions", "mixed",
                           op.result.makespan)
            .to_json();
    const std::string trace = obs::chrome_trace_json(
        {obs::ChromeTraceQuery{"mixed_sessions", std::move(spans),
                               ctx.time_series()}});
    op.analyze_s = t2 - t1;
    op.export_s = now_s() - t2;
    if (profile.empty() || trace.empty() || !(path > 0)) op.ok = false;
  }
  op.wall = timer != nullptr ? timer->wall() : now_s() - t0;
  for (const auto& o : op.result.outcomes) {
    op.rows += static_cast<double>(o.result_tuples);
  }
  if (!check(f, op.result)) {
    std::fprintf(stderr, "perfbench: mixed_sessions outcome differs from "
                         "the solo oracle\n");
    op.ok = false;
  }
  return op;
}

void add_counters(const Fixture& f, const Op& op, Report& rep) {
  const WorkloadResult& r = op.result;
  std::vector<double> latency, wait, service;
  for (const auto& o : r.outcomes) {
    latency.push_back(o.latency());
    wait.push_back(o.queue_wait());
    service.push_back(o.service());
  }
  rep.add("vlatency_s_p50", median(latency), "sim_s");
  rep.add("vlatency_s_p90", quantile(latency, 0.9), "sim_s");
  rep.add("vthroughput_qps", r.throughput, "1/sim_s");
  rep.add("sched.queue_wait_s_p50", median(wait), "sim_s");
  rep.add("sched.queue_wait_s_p90", quantile(wait, 0.9), "sim_s");
  rep.add("sched.rejected", static_cast<double>(r.rejected), "count");
  rep.add("workload.service_s_p50", median(service), "sim_s");
  const double lookups = static_cast<double>(r.cache.hits + r.cache.misses);
  rep.add("cache.hit_rate",
          lookups > 0 ? static_cast<double>(r.cache.hits) / lookups : 0,
          "ratio");
  rep.add("cache.lookups", lookups, "count");
  rep.add("cache.evictions", static_cast<double>(r.cache.evictions), "count");
  rep.add("cache.puts", static_cast<double>(r.cache.puts), "count");
  rep.add("sim.events", static_cast<double>(op.events), "count");
  rep.add("sim.events_per_wall_s", static_cast<double>(op.events) / op.wall,
          "1/s");
  rep.add("join.result_tuples", op.rows, "count");
  rep.add("graph.build_s", f.graph_s, "s");
  rep.add("graph.edges", static_cast<double>(f.edges), "count");
  rep.add("datagen.generate_s", f.generate_s, "s");
  rep.add("qps.plan_us", f.plan_us, "us");
  rep.note("queries", static_cast<double>(r.submitted), "count",
           "per op (completed " + std::to_string(r.completed) + ")");
  rep.note("offered_qps", kOfferedQps, "1/sim_s");
  rep.note("solo_capacity_qps", 1.0 / f.solo_mean, "1/sim_s");
}

void add_obs(const Op& plain, const Op& profiled, Report& rep) {
  rep.add("obs.profiled_wall_s", profiled.wall, "s");
  rep.add("obs.spans", static_cast<double>(profiled.spans), "count");
  rep.add("obs.record_ratio", profiled.record_wall / plain.wall, "ratio");
  rep.add("obs.analyze_s", profiled.analyze_s, "s");
  rep.add("obs.export_s", profiled.export_s, "s");
}

}  // namespace

int run_mixed_sessions(const RunConfig& cfg, Report& rep) {
  Fixture f;
  recorder().set_enabled(cfg.trace);
  const double setup_s = timed_setup([&] { set_up(f, cfg.seed); });
  rep.add("setup_s", setup_s, "s");
  const WorkloadSpec spec = workload_spec(f, cfg.seed);
  std::printf("workload mixed_sessions: %s, %zu clients x %zu queries, "
              "offered %.3g q/s (solo capacity %.3g q/s)\n",
              f.spec.to_string().c_str(), kClients, kQueriesPerClient,
              kOfferedQps, 1.0 / f.solo_mean);

  if (!cfg.trace) {
    std::optional<Op> first;
    measure_ops(cfg.seconds, [&](OpTimer& timer) {
      Op op = run_op(f, spec, false, &timer);
      const OpSample sample{op.rows, op.ok};
      if (!first) first = std::move(op);
      return sample;
    }, rep);
    add_counters(f, *first, rep);
  } else {
    recorder().set_enabled(false);
    recorder().set_op(1);
    const Op bare = run_op(f, spec, false);
    recorder().set_enabled(true);
    recorder().set_op(2);
    const Op traced = run_op(f, spec, false);
    recorder().set_op(3);
    const Op prof = run_op(f, spec, true);
    rep.attempted = 3;
    rep.failed = (bare.ok ? 0 : 1) + (traced.ok ? 0 : 1) + (prof.ok ? 0 : 1);
    add_counters(f, traced, rep);
    add_obs(bare, prof, rep);
    rep.add("trace.overhead_ratio", traced.wall / bare.wall, "ratio");
  }
  rep.add("peak_rss_mb", peak_rss_mb(), "MiB");
  return 0;
}

}  // namespace perfbench
