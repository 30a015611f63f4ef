// ij_probe and scan_join: two points of Fig. 4 (64^3 grid, 5 storage + 5
// compute nodes, the committed BENCH_fig4.json series) run through the
// public QES entry points with the algorithm forced.
//
// A plain run measures ops (every variant of the workload, back to back)
// bare and with an obs context installed plus the profile analysed and
// exported. A traced run times one op, then replays its data path through
// the public layer functions (chunk read, header/payload decode with both
// CRCs, extraction, hash build, probe) to split its wall time by layer.

#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>

#include "chunkio/chunk_format.hpp"
#include "cost/cost_model.hpp"
#include "datagen/generator.hpp"
#include "extract/extractor.hpp"
#include "graph/connectivity.hpp"
#include "harness.hpp"
#include "join/hash_join.hpp"
#include "join/key.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/diag.hpp"
#include "obs/obs.hpp"
#include "obs/profile.hpp"
#include "obs/sim_clock.hpp"
#include "obs/trace.hpp"
#include "qes/qes.hpp"
#include "qps/planner.hpp"
#include "sched/schedule.hpp"
#include "sim/engine.hpp"

namespace perfbench {
namespace {

using namespace orv;

struct Variant {
  const char* name;
  Algorithm algorithm;
  bool pipelined;
  QesOptions options;
};

std::vector<Variant> variants_for(const std::string& workload) {
  QesOptions ij_pipe;
  ij_pipe.prefetch_lookahead = 4;
  QesOptions gh_db;
  gh_db.gh_double_buffer = true;
  std::vector<Variant> v = {
      {"ij_serial", Algorithm::IndexedJoin, false, QesOptions{}},
      {"ij_pipelined", Algorithm::IndexedJoin, true, ij_pipe}};
  if (workload == "scan_join") {
    v.push_back({"gh_serial", Algorithm::GraceHash, false, QesOptions{}});
    v.push_back({"gh_double_buffer", Algorithm::GraceHash, true, gh_db});
  }
  return v;
}

/// Fig. 4 shape: p = 32 x 32/s x 8, q = 32/s x 32 x 8 over a 64^3 grid.
/// ij_probe uses split s = 16 (8,192 edges, c_S = 512); scan_join the
/// aligned s = 1 (32 edges, c_S = 8192). The grid is Fig. 4's own: at
/// 128^3 an op takes seconds, and a 20 s run then holds too few ops for a
/// steady median on a shared machine.
DatasetSpec dataset_for(const std::string& workload, std::uint64_t seed) {
  const std::uint64_t s = workload == "ij_probe" ? 16 : 1;
  DatasetSpec d;
  d.grid = {64, 64, 64};
  d.part1 = {32, 32 / s, 8};
  d.part2 = {32 / s, 32, 8};
  d.num_storage_nodes = 5;
  d.seed = seed;
  return d;
}

struct Fixture {
  ClusterSpec cluster;
  JoinQuery query;
  std::optional<GeneratedDataset> ds;
  std::optional<ConnectivityGraph> graph;
  ReferenceResult oracle;
  std::vector<PlanDecision> plans;  // one per variant
  double generate_s = 0;
  double graph_s = 0;
  double plan_us = 0;
};

void set_up(Fixture& f, const DatasetSpec& spec,
            const std::vector<Variant>& variants) {
  Span setup_span("setup");
  f.cluster.num_storage = 5;
  f.cluster.num_compute = 5;
  f.query = JoinQuery{spec.table1_id, spec.table2_id, {"x", "y", "z"}, {}};
  f.graph.reset();
  f.ds.reset();
  double t0 = now_s();
  {
    Span s("datagen.generate");
    f.ds.emplace(generate_dataset(spec));
    f.ds->meta.build_indexes();
  }
  f.generate_s = now_s() - t0;
  t0 = now_s();
  {
    Span s("graph.build");
    f.graph.emplace(ConnectivityGraph::build(f.ds->meta, f.query.left_table,
                                             f.query.right_table,
                                             f.query.join_attrs));
  }
  f.graph_s = now_s() - t0;
  const QueryPlanner planner(f.cluster);
  f.plans.clear();
  t0 = now_s();
  for (const auto& v : variants) {
    Span s("qps.plan");
    f.plans.push_back(planner.plan(f.ds->meta, *f.graph, f.query, 1.0,
                                   &v.options));
  }
  f.plan_us = 1e6 * (now_s() - t0) / static_cast<double>(variants.size());
  Span s("oracle.reference_join");
  f.oracle = reference_join(f.ds->meta, f.ds->stores, f.query);
}

/// One execution of one variant on a fresh simulated cluster.
struct Exec {
  QesResult result;
  double wall = 0;
  std::uint64_t events = 0;
  BdsStats bds;
  std::string error;
  bool ok = false;
  // Profiled executions only.
  double record_wall = 0;  // run with the obs context installed
  double analyze_s = 0;    // DAG assembly, critical path, diagnosis
  double export_s = 0;     // profile JSON + Chrome trace JSON
  std::size_t spans = 0;
};

obs::DiagnosisInput diag_input(const Variant& v, const QesResult& r) {
  obs::DiagnosisInput di;
  di.query = v.name;
  di.algorithm = algorithm_name(v.algorithm);
  di.elapsed = r.elapsed;
  for (const auto& nw : r.node_work) {
    di.nodes.push_back({nw.node, nw.busy_seconds, nw.items, nw.bytes});
  }
  di.cache_hits = r.cache_stats.hits;
  di.cache_misses = r.cache_stats.misses;
  di.cache_evictions = r.cache_stats.evictions;
  di.cache_puts = r.cache_stats.puts;
  di.prefetch_issued = r.prefetch_issued;
  di.prefetch_wasted = r.prefetch_wasted;
  return di;
}

Exec execute(const Fixture& f, const Variant& v, bool profiled) {
  Exec e;
  sim::Engine engine;
  Cluster cluster(engine, f.cluster);
  BdsService bds(cluster, f.ds->meta, f.ds->stores);
  auto run = [&] {
    Span s(std::string("qes.") + v.name);
    return v.algorithm == Algorithm::IndexedJoin
               ? run_indexed_join(cluster, bds, f.ds->meta, *f.graph, f.query,
                                  v.options)
               : run_grace_hash(cluster, bds, f.ds->meta, f.query, v.options);
  };
  const double t0 = now_s();
  try {
    if (!profiled) {
      e.result = run();
    } else {
      obs::SimClock clock(engine);
      obs::ObsContext ctx(&clock);
      {
        obs::ScopedInstall install(ctx);
        e.result = run();
      }
      e.record_wall = now_s() - t0;
      const double t1 = now_s();
      std::vector<obs::SpanRecord> spans = ctx.tracer.snapshot();
      e.spans = spans.size();
      const auto dag = obs::TraceDag::assemble(spans);
      const char* root_name =
          v.algorithm == Algorithm::IndexedJoin ? "ij.query" : "gh.query";
      obs::SpanId root;
      for (const auto& s : dag.spans()) {
        if (s.name == root_name) root = s.id;
      }
      const obs::CriticalPath cp = obs::critical_path(dag, root);
      obs::DiagnosisInput di = diag_input(v, e.result);
      di.path = &cp;
      di.series = ctx.time_series();
      const obs::Diagnosis diag = obs::diagnose(di);
      const double t2 = now_s();
      obs::ExecutionProfile profile = obs::build_profile(
          ctx, v.name, algorithm_name(v.algorithm), e.result.elapsed);
      profile.has_diagnosis = true;
      profile.diagnosis = diag;
      const std::string profile_json = profile.to_json();
      const std::string trace_json = obs::chrome_trace_json(
          {obs::ChromeTraceQuery{v.name, std::move(spans),
                                 ctx.time_series()}});
      e.analyze_s = t2 - t1;
      e.export_s = now_s() - t2;
      if (profile_json.empty() || trace_json.empty()) {
        e.error = "empty profile export";
      }
    }
  } catch (const std::exception& ex) {
    e.error = ex.what();
  }
  e.wall = now_s() - t0;
  e.events = engine.events_processed();
  e.bds = bds.total_stats();
  e.ok = e.error.empty() &&
         e.result.result_tuples == f.oracle.result_tuples &&
         e.result.result_fingerprint == f.oracle.result_fingerprint;
  if (!e.ok) {
    std::fprintf(stderr,
                 "perfbench: %s mismatch: %llu tuples / %016llx vs oracle "
                 "%llu / %016llx %s\n",
                 v.name, static_cast<unsigned long long>(e.result.result_tuples),
                 static_cast<unsigned long long>(e.result.result_fingerprint),
                 static_cast<unsigned long long>(f.oracle.result_tuples),
                 static_cast<unsigned long long>(f.oracle.result_fingerprint),
                 e.error.c_str());
  }
  return e;
}

/// One op: every variant of the workload, in order.
struct Op {
  std::vector<Exec> execs;
  double wall = 0;
  bool ok = true;
  double rows() const {
    double n = 0;
    for (const auto& e : execs) n += static_cast<double>(e.result.result_tuples);
    return n;
  }
  double virtual_s() const {
    double t = 0;
    for (const auto& e : execs) t += e.result.elapsed;
    return t;
  }
};

/// With a timer, each variant is one timed part of the op.
Op run_op(const Fixture& f, const std::vector<Variant>& variants,
          bool profiled, OpTimer* timer = nullptr) {
  Op op;
  Span s("op");
  const double t0 = now_s();
  for (const auto& v : variants) {
    auto exec = [&] { return execute(f, v, profiled); };
    op.execs.push_back(timer != nullptr ? timer->part(exec) : exec());
    op.ok = op.ok && op.execs.back().ok;
  }
  op.wall = timer != nullptr ? timer->wall() : now_s() - t0;
  return op;
}

double predicted(const PlanDecision& plan, Algorithm a) {
  return a == Algorithm::IndexedJoin ? plan.ij.total() : plan.gh.total();
}

/// Mean |ln(simulated / predicted)| over the op's executions.
double model_err(const Fixture& f, const std::vector<Variant>& variants,
                 const Op& op) {
  double sum = 0;
  for (std::size_t i = 0; i < variants.size(); ++i) {
    const double p = predicted(f.plans[i], variants[i].algorithm);
    sum += std::fabs(std::log(op.execs[i].result.elapsed / p));
  }
  return sum / static_cast<double>(variants.size());
}

/// Replayed per-layer cost of the op's data path, measured through the
/// public layer functions with the span recorder on.
struct Replay {
  double bytes = 0;          // chunk bytes read and decoded
  double fetches = 0;        // sub-tables read, decoded and extracted
  double rows = 0;           // rows extracted
  double read_s = 0;
  double decode_s = 0;
  double extract_s = 0;
  double builds = 0;
  double build_rows = 0;
  double build_s = 0;
  double probe_tuples = 0;
  double probe_s = 0;

  double fetch_s() const { return read_s + decode_s + extract_s; }
};

/// Fills a replay's layer times from the spans of its op.
void take_span_times(Replay& r, std::uint32_t op) {
  const SpanRecorder& rec = recorder();
  r.read_s = rec.total("chunkio.read", op);
  r.decode_s = rec.total("chunkio.decode", op);
  r.extract_s = rec.total("extract.row_major", op);
  r.build_s = rec.total("join.build", op);
  r.probe_s = rec.total("join.probe", op);
}

std::shared_ptr<const SubTable> fetch(const GeneratedDataset& ds,
                                      SubTableId id, Replay& r) {
  const ChunkMeta& cm = ds.meta.chunk(id);
  std::vector<std::byte> bytes;
  {
    Span s("chunkio.read");
    bytes = ds.store_for(cm.location).read(cm.location);
  }
  std::size_t offset = 0;
  ChunkHeader header;
  std::span<const std::byte> payload;
  {
    Span s("chunkio.decode");
    header = decode_chunk_header(bytes, &offset);
    payload = chunk_payload(bytes, header, offset);
  }
  std::shared_ptr<const SubTable> st;
  {
    Span s("extract.row_major");  // both tables are row-major here
    st = std::make_shared<const SubTable>(
        ExtractorRegistry::global().for_layout(header.layout).extract(header,
                                                                      payload));
  }
  r.bytes += static_cast<double>(bytes.size());
  r.fetches += 1;
  r.rows += static_cast<double>(st->num_rows());
  return st;
}

/// Indexed Join data path: the default schedule's pairs per compute node,
/// each node fetching a sub-table and building a left hash table once.
/// Recorded as op `op`.
Replay replay_ij(const Fixture& f, std::uint32_t op) {
  recorder().set_op(op);
  Replay r;
  Span root("replay.ij");
  const GeneratedDataset& ds = *f.ds;
  const auto left_schema = ds.meta.table_schema(f.query.left_table);
  const auto right_schema = ds.meta.table_schema(f.query.right_table);
  const JoinKey right_key = JoinKey::resolve(*right_schema, f.query.join_attrs);
  const auto result_schema = std::make_shared<const Schema>(Schema::join_result(
      *left_schema, *right_schema, right_key.attr_indices()));
  const Schedule schedule = make_schedule(*f.graph, f.cluster.num_compute);
  for (const auto& pairs : schedule.pairs_per_node) {
    std::map<SubTableId, std::shared_ptr<const SubTable>> cache;
    std::map<SubTableId, std::shared_ptr<const BuiltHashTable>> tables;
    auto get = [&](SubTableId id) {
      auto& slot = cache[id];
      if (!slot) slot = fetch(ds, id, r);
      return slot;
    };
    std::uint32_t seq = 0;
    for (const auto& pair : pairs) {
      const auto left = get(pair.left);
      auto& ht = tables[pair.left];
      if (!ht) {
        {
          Span s("join.build");
          ht = std::make_shared<const BuiltHashTable>(left,
                                                      f.query.join_attrs);
        }
        r.builds += 1;
        r.build_rows += static_cast<double>(left->num_rows());
      }
      const auto right = get(pair.right);
      SubTable out(result_schema, SubTableId{0, seq++});
      {
        Span s("join.probe");
        ht->probe(*right, f.query.join_attrs, out);
      }
      r.probe_tuples += static_cast<double>(right->num_rows());
    }
  }
  take_span_times(r, op);
  return r;
}

/// Grace Hash data path up to the h1 hash: every chunk of both tables is
/// read, decoded and extracted once. Recorded as op `op`.
Replay replay_gh(const Fixture& f, std::uint32_t op) {
  recorder().set_op(op);
  Replay r;
  Span root("replay.gh");
  for (const TableId t : {f.query.left_table, f.query.right_table}) {
    for (const auto& cm : f.ds->meta.chunks(t)) fetch(*f.ds, cm.id, r);
  }
  take_span_times(r, op);
  return r;
}

double sum_over(const Op& op, const std::function<double(const Exec&)>& fn) {
  double s = 0;
  for (const auto& e : op.execs) s += fn(e);
  return s;
}

/// Counters every run reports (plain runs print them as lines; traced runs
/// carry them in the result object).
void add_counters(const Fixture& f, const std::vector<Variant>& variants,
                  const Op& op, Report& rep) {
  CachingService::Stats cache;
  double fetches = 0, issued = 0, wasted = 0, overlap = 0;
  double gh_write = 0, gh_read = 0;
  for (std::size_t i = 0; i < variants.size(); ++i) {
    const QesResult& r = op.execs[i].result;
    cache.hits += r.cache_stats.hits;
    cache.misses += r.cache_stats.misses;
    cache.evictions += r.cache_stats.evictions;
    cache.puts += r.cache_stats.puts;
    fetches += static_cast<double>(r.subtable_fetches);
    if (variants[i].algorithm == Algorithm::IndexedJoin &&
        variants[i].pipelined) {
      issued += static_cast<double>(r.prefetch_issued);
      wasted += static_cast<double>(r.prefetch_wasted);
      overlap = r.overlap_ratio;
    }
    if (variants[i].algorithm == Algorithm::GraceHash) {
      gh_write += r.scratch_write_bytes;
      gh_read += r.scratch_read_bytes;
    }
  }
  const double lookups = static_cast<double>(cache.hits + cache.misses);
  rep.add("cache.hit_rate",
          lookups > 0 ? static_cast<double>(cache.hits) / lookups : 0,
          "ratio");
  rep.add("cache.lookups", lookups, "count");
  rep.add("cache.evictions", static_cast<double>(cache.evictions), "count");
  rep.add("cache.puts", static_cast<double>(cache.puts), "count");
  rep.add("bds.subtables_served", sum_over(op, [](const Exec& e) {
            return static_cast<double>(e.bds.subtables_served);
          }), "count");
  rep.add("bds.chunk_bytes_read", sum_over(op, [](const Exec& e) {
            return static_cast<double>(e.bds.chunk_bytes_read);
          }), "B");
  rep.add("bds.bytes_shipped", sum_over(op, [](const Exec& e) {
            return static_cast<double>(e.bds.subtable_bytes_shipped);
          }), "B");
  rep.add("qes.subtable_fetches", fetches, "count");
  rep.add("qes.prefetch_issued", issued, "count");
  rep.add("qes.prefetch_useful_frac", issued > 0 ? 1 - wasted / issued : 0,
          "ratio");
  rep.add("qes.overlap_ratio", overlap, "ratio");
  rep.add("qes.gh.scratch_write_bytes", gh_write, "B");
  rep.add("qes.gh.scratch_read_bytes", gh_read, "B");
  const double events = sum_over(
      op, [](const Exec& e) { return static_cast<double>(e.events); });
  rep.add("sim.events", events, "count");
  rep.add("sim.events_per_wall_s", events / op.wall, "1/s");
  rep.add("net.h1_messages", sum_over(op, [](const Exec& e) {
            return static_cast<double>(e.result.h1_messages_sent);
          }), "count");
  rep.add("net.frames", sum_over(op, [](const Exec& e) {
            return static_cast<double>(e.result.net_frames_sent);
          }), "count");
  rep.add("net.bytes",
          sum_over(op, [](const Exec& e) { return e.result.network_bytes; }),
          "B");
  rep.add("join.probe_tuples", sum_over(op, [](const Exec& e) {
            return static_cast<double>(e.result.join_stats.probe_tuples);
          }), "count");
  rep.add("join.hash_tables_built", sum_over(op, [](const Exec& e) {
            return static_cast<double>(e.result.hash_tables_built);
          }), "count");
  rep.add("join.result_tuples", op.rows(), "count");
  rep.add("graph.edges", static_cast<double>(f.graph->num_edges()), "count");
  rep.add("qps.plan_us", f.plan_us, "us");
  for (const char* a : {"ij", "gh"}) {
    for (const char* m : {"serial", "pipelined"}) {
      rep.add(std::string("cost.model_ratio.") + a + "." + m, 0, "ratio");
    }
  }
  for (std::size_t i = 0; i < variants.size(); ++i) {
    rep.note(std::string("virtual_s.") + variants[i].name,
             op.execs[i].result.elapsed, "sim_s");
    const char* a =
        variants[i].algorithm == Algorithm::IndexedJoin ? "ij" : "gh";
    const char* m = variants[i].pipelined ? "pipelined" : "serial";
    rep.add(std::string("cost.model_ratio.") + a + "." + m,
            op.execs[i].result.elapsed /
                predicted(f.plans[i], variants[i].algorithm),
            "ratio");
  }
  rep.add("virtual_s", op.virtual_s(), "sim_s");
  rep.add("model_err", model_err(f, variants, op), "ratio");
}

void add_obs(const Op& plain, const Op& profiled, Report& rep) {
  rep.add("obs.profiled_wall_s", profiled.wall, "s");
  rep.add("obs.spans", sum_over(profiled, [](const Exec& e) {
            return static_cast<double>(e.spans);
          }), "count");
  rep.add("obs.record_ratio",
          sum_over(profiled, [](const Exec& e) { return e.record_wall; }) /
              plain.wall,
          "ratio");
  rep.add("obs.analyze_s",
          sum_over(profiled, [](const Exec& e) { return e.analyze_s; }), "s");
  rep.add("obs.export_s",
          sum_over(profiled, [](const Exec& e) { return e.export_s; }), "s");
}

/// Splits the op's wall time by layer from the replays. A variant's
/// replayed time is scaled by its own counts (sub-table fetches, hash
/// tables built, probe tuples), so cache evictions in the real run that
/// the replay's unbounded per-node cache does not see are still charged.
void add_layers(const Fixture& f, const std::vector<Variant>& variants,
                const Op& op, const Replay& ij, const std::optional<Replay>& gh,
                Report& rep) {
  const Replay& chunks = gh ? *gh : ij;  // every chunk once
  rep.add("chunkio.read_ns_per_byte", 1e9 * chunks.read_s / chunks.bytes,
          "ns/B");
  rep.add("chunkio.decode_ns_per_byte", 1e9 * chunks.decode_s / chunks.bytes,
          "ns/B");
  rep.add("chunkio.bytes", chunks.bytes, "B");
  rep.add("extract.ns_per_row.row_major", 1e9 * chunks.extract_s / chunks.rows,
          "ns/row");
  rep.add("extract.ns_per_row.col_major", 0, "ns/row");
  rep.add("extract.rows", chunks.rows, "count");
  rep.add("join.build_ns_per_row", 1e9 * ij.build_s / ij.build_rows,
          "ns/row");
  rep.add("join.probe_ns_per_tuple", 1e9 * ij.probe_s / ij.probe_tuples,
          "ns/tuple");

  double ij_self = 0, gh_self = 0, decode = 0, probe = 0;
  for (std::size_t i = 0; i < variants.size(); ++i) {
    const QesResult& r = op.execs[i].result;
    const double wall = op.execs[i].wall;
    if (variants[i].algorithm == Algorithm::IndexedJoin) {
      const double share = static_cast<double>(r.subtable_fetches) / ij.fetches;
      const double build =
          ij.build_s * static_cast<double>(r.hash_tables_built) / ij.builds;
      const double pr = ij.probe_s *
                        static_cast<double>(r.join_stats.probe_tuples) /
                        ij.probe_tuples;
      ij_self += wall - ij.fetch_s() * share - build - pr;
      decode += ij.decode_s * share;
      probe += pr;
    } else {
      gh_self += wall - gh->fetch_s();
      decode += gh->decode_s;
    }
  }
  rep.add("qes.ij.self_s", ij_self, "s");
  rep.add("qes.gh.self_s", gh_self, "s");
  rep.add("chunkio.decode_share", decode / op.wall, "ratio");
  rep.add("join.probe_share", probe / op.wall, "ratio");
  rep.add("graph.build_s", f.graph_s, "s");
  rep.add("datagen.generate_s", f.generate_s, "s");
}

}  // namespace

int run_sim_workload(const RunConfig& cfg, Report& rep) {
  const DatasetSpec spec = dataset_for(cfg.workload, cfg.seed);
  const std::vector<Variant> variants = variants_for(cfg.workload);
  Fixture f;
  recorder().set_enabled(cfg.trace);
  const double setup_s =
      timed_setup([&] { set_up(f, spec, variants); });
  rep.add("setup_s", setup_s, "s");
  std::printf("workload %s: %s, %zu edges, c_S = %llu, oracle %llu tuples\n",
              cfg.workload.c_str(), spec.to_string().c_str(),
              f.graph->num_edges(),
              static_cast<unsigned long long>(f.ds->stats.c_S),
              static_cast<unsigned long long>(f.oracle.result_tuples));

  if (!cfg.trace) {
    std::optional<Op> first;
    measure_ops(cfg.seconds, [&](OpTimer& timer) {
      Op op = run_op(f, variants, false, &timer);
      const OpSample sample{op.rows(), op.ok};
      if (!first) first = std::move(op);
      return sample;
    }, rep);
    add_counters(f, variants, *first, rep);
  } else {
    recorder().set_op(1);
    recorder().set_enabled(false);
    const Op bare = run_op(f, variants, false);
    recorder().set_enabled(true);
    recorder().set_op(2);
    const Op traced = run_op(f, variants, false);
    recorder().set_op(3);
    const Op profiled = run_op(f, variants, true);
    const Replay ij = replay_ij(f, 4);
    std::optional<Replay> gh;
    if (cfg.workload == "scan_join") gh = replay_gh(f, 5);
    rep.attempted = 3;
    rep.failed = (bare.ok ? 0 : 1) + (traced.ok ? 0 : 1) +
                 (profiled.ok ? 0 : 1);
    add_counters(f, variants, traced, rep);
    add_obs(bare, profiled, rep);
    add_layers(f, variants, traced, ij, gh, rep);
    rep.add("trace.overhead_ratio", traced.wall / bare.wall, "ratio");
    if (bare.virtual_s() != traced.virtual_s()) {
      std::fprintf(stderr, "perfbench: virtual time differs under tracing\n");
      rep.failed += 1;
    }
  }
  rep.add("peak_rss_mb", peak_rss_mb(), "MiB");
  return 0;
}

}  // namespace perfbench
