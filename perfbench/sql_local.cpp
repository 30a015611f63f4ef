// sql_local: the workstation path (quickstart, orv_shell) with no
// simulator. A 64^3 dataset is written to chunk files (T1 row-major in
// 16^3 chunks, T2 column-major in 8^3 chunks) and queried through
// ViewFramework with join view V and a 2-thread parallel local executor.
// One op runs the fixed statement list below.
//
// The traced run binds each statement and walks its operator tree,
// calling LocalExecutor::execute on every subtree to get each node's
// inclusive time and rows out; self time is inclusive minus children.
// Base-table scans are replayed chunk by chunk (R-tree lookup, file read,
// decode, extract) to split their time by layer.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "chunkio/chunk_format.hpp"
#include "core/view_framework.hpp"
#include "datagen/generator.hpp"
#include "dds/local_executor.hpp"
#include "extract/extractor.hpp"
#include "harness.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/obs.hpp"
#include "obs/profile.hpp"

namespace perfbench {
namespace {

using namespace orv;

// An R-tree-pruned range select on each table, a half-space join range, a
// narrow z-slab join (the selection is applied above the local join, so
// it costs as much as the full join), a global aggregate over V and a
// grouped, sorted, limited aggregate.
const std::vector<std::string>& statements() {
  static const std::vector<std::string> s = {
      "SELECT * FROM T1 WHERE x IN [8, 23] AND y IN [16, 47]",
      "SELECT * FROM T2 WHERE y IN [0, 15] AND z IN [20, 43]",
      "SELECT x, y, z, oilp, wp FROM V WHERE x IN [0, 31]",
      "SELECT x, y, z, oilp, wp FROM V WHERE z IN [30, 31]",
      "SELECT AVG(wp) AS avg_wp, COUNT(*) AS n FROM V",
      "SELECT x, AVG(oilp) AS avg_oilp FROM V GROUP BY x "
      "ORDER BY avg_oilp DESC LIMIT 10"};
  return s;
}

/// Order-sensitive digest of a result: row count, record size and bytes.
std::uint64_t row_digest(const SubTable& t) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&](const std::byte* p, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      h = (h ^ static_cast<std::uint64_t>(p[i])) * 1099511628211ull;
    }
  };
  const std::uint64_t shape[2] = {t.num_rows(), t.record_size()};
  mix(reinterpret_cast<const std::byte*>(shape), sizeof shape);
  for (std::size_t r = 0; r < t.num_rows(); ++r) mix(t.row(r), t.record_size());
  return h;
}

struct Fixture {
  std::filesystem::path dir;
  std::unique_ptr<ViewFramework> fw;
  std::vector<std::uint64_t> oracle;  // per statement
  double generate_s = 0;
};

void set_up(Fixture& f, const DatasetSpec& spec) {
  Span setup_span("setup");
  f.fw.reset();
  std::filesystem::remove_all(f.dir);
  std::filesystem::create_directories(f.dir);
  const double t0 = now_s();
  GeneratedDataset ds;
  {
    Span s("datagen.generate");
    ds = generate_dataset(spec, f.dir);
  }
  f.generate_s = now_s() - t0;
  f.fw = std::make_unique<ViewFramework>(std::move(ds.meta), ds.stores);
  f.fw->define_view("V", ViewDef::join(ViewDef::base(spec.table1_id),
                                       ViewDef::base(spec.table2_id),
                                       {"x", "y", "z"}));
  f.fw->enable_parallel_local_execution(2);
  f.fw->meta().build_indexes();
  // Oracle: the pool-less executor, which shares no threading with the
  // measured path.
  Span s("oracle.local_executor");
  const LocalExecutor sequential(f.fw->meta(), f.fw->stores());
  f.oracle.clear();
  for (const auto& sql : statements()) {
    f.oracle.push_back(row_digest(sequential.execute(*f.fw->bind(sql))));
  }
}

struct Op {
  double wall = 0;
  double rows = 0;
  bool ok = true;
};

/// Runs the statement list, as one timed part when given a timer; the
/// digest check happens outside the timing.
Op run_op(const Fixture& f, OpTimer* timer = nullptr) {
  Op op;
  auto run = [&] {
    Span s("op");
    std::vector<SubTable> out;
    for (const auto& sql : statements()) {
      Span q("query");
      out.push_back(f.fw->query(sql));
    }
    return out;
  };
  const double t0 = now_s();
  const std::vector<SubTable> results =
      timer != nullptr ? timer->part(run) : run();
  op.wall = timer != nullptr ? timer->wall() : now_s() - t0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    op.rows += static_cast<double>(results[i].num_rows());
    if (row_digest(results[i]) != f.oracle[i]) {
      std::fprintf(stderr, "perfbench: statement %zu differs from oracle\n",
                   i);
      op.ok = false;
    }
  }
  return op;
}

struct Profiled {
  Op op;
  double record_wall = 0;
  double export_s = 0;
  std::size_t spans = 0;
};

/// The op with an obs context installed and its profile exported.
Profiled run_profiled(const Fixture& f) {
  Profiled p;
  const double t0 = now_s();
  obs::WallClock clock;
  obs::ObsContext ctx(&clock);
  {
    obs::ScopedInstall install(ctx);
    p.op = run_op(f);
  }
  p.record_wall = now_s() - t0;
  const double t1 = now_s();
  std::vector<obs::SpanRecord> spans = ctx.tracer.snapshot();
  p.spans = spans.size();
  const std::string profile =
      obs::build_profile(ctx, "sql_local", "local", p.op.wall).to_json();
  const std::string trace = obs::chrome_trace_json(
      {obs::ChromeTraceQuery{"sql_local", std::move(spans), {}}});
  p.export_s = now_s() - t1;
  p.op.wall = now_s() - t0;
  if (profile.empty() || trace.empty()) p.op.ok = false;
  return p;
}

/// Per-layer accounting of the traced walk.
struct Walk {
  double self[6] = {0, 0, 0, 0, 0, 0};  // scan select join project agg sort
  double join_rows = 0;
  double finds = 0;
  double chunks_selected = 0;
  double chunks_total = 0;
  double bytes = 0;
  double rows[2] = {0, 0};  // extracted: row-major, col-major
};

/// Replays one base-table scan's chunk path: R-tree lookup, then read,
/// decode (both CRCs) and extract of every selected chunk.
void replay_scan(const Fixture& f, TableId table,
                 const std::vector<AttrRange>& ranges, Walk& w) {
  const MetaDataService& meta = f.fw->meta();
  std::vector<SubTableId> ids;
  {
    Span s("meta.find_chunks");
    ids = meta.find_chunks(table, ranges);
  }
  w.finds += 1;
  w.chunks_selected += static_cast<double>(ids.size());
  w.chunks_total += static_cast<double>(meta.num_chunks(table));
  for (const auto& id : ids) {
    const ChunkMeta& cm = meta.chunk(id);
    std::vector<std::byte> bytes;
    {
      Span s("chunkio.read");
      bytes = f.fw->stores().at(cm.location.storage_node)->read(cm.location);
    }
    std::size_t offset = 0;
    ChunkHeader header;
    std::span<const std::byte> payload;
    {
      Span s("chunkio.decode");
      header = decode_chunk_header(bytes, &offset);
      payload = chunk_payload(bytes, header, offset);
    }
    const int col = header.layout == LayoutId::ColMajor ? 1 : 0;
    std::size_t rows = 0;
    {
      Span s(col ? "extract.col_major" : "extract.row_major");
      rows = ExtractorRegistry::global()
                 .for_layout(header.layout)
                 .extract(header, payload)
                 .num_rows();
    }
    w.rows[col] += static_cast<double>(rows);
    w.bytes += static_cast<double>(bytes.size());
  }
}

/// Executes `v` and each of its subtrees; returns v's inclusive wall time.
double walk(const Fixture& f, const ViewDef& v, Walk& w) {
  const bool base_scan =
      v.kind == ViewDef::Kind::BaseTable ||
      (v.kind == ViewDef::Kind::Select &&
       v.input->kind == ViewDef::Kind::BaseTable);
  double children = 0;
  int slot = 0;
  const char* name = "dds.scan";
  if (base_scan) {
    // The executor folds a selection over a base table into a pruned scan.
    const bool select = v.kind == ViewDef::Kind::Select;
    replay_scan(f, select ? v.input->table : v.table,
                select ? v.ranges : std::vector<AttrRange>{}, w);
  } else {
    switch (v.kind) {
      case ViewDef::Kind::Select: slot = 1; name = "dds.select"; break;
      case ViewDef::Kind::Join: slot = 2; name = "dds.join"; break;
      case ViewDef::Kind::Project: slot = 3; name = "dds.project"; break;
      case ViewDef::Kind::Aggregate: slot = 4; name = "dds.aggregate"; break;
      case ViewDef::Kind::Sort: slot = 5; name = "dds.sort"; break;
      case ViewDef::Kind::BaseTable: break;
    }
    if (v.kind == ViewDef::Kind::Join) {
      children += walk(f, *v.left, w) + walk(f, *v.right, w);
    } else {
      children += walk(f, *v.input, w);
    }
  }
  // Best of three executions: a node's own work can be small beside its
  // children's, and the minimum is the least noisy inclusive time.
  double incl = 0;
  std::size_t rows = 0;
  for (int rep = 0; rep < 3; ++rep) {
    const double t0 = now_s();
    {
      Span s(name);
      rows = f.fw->local().execute(v).num_rows();
    }
    const double t = now_s() - t0;
    incl = rep == 0 ? t : std::min(incl, t);
  }
  // Below timer noise a node's self time reads as slightly negative.
  w.self[slot] += std::max(0.0, incl - children);
  if (v.kind == ViewDef::Kind::Join) w.join_rows += static_cast<double>(rows);
  return incl;
}

}  // namespace

int run_sql_local(const RunConfig& cfg, Report& rep) {
  DatasetSpec spec;
  spec.grid = {64, 64, 64};
  spec.part1 = {16, 16, 16};
  spec.part2 = {8, 8, 8};
  spec.layout1 = LayoutId::RowMajor;
  spec.layout2 = LayoutId::ColMajor;
  spec.num_storage_nodes = 2;
  spec.seed = cfg.seed;
  Fixture f;
  f.dir = std::filesystem::path(cfg.work_dir) /
          ("sql_local-seed" + std::to_string(cfg.seed));
  recorder().set_enabled(cfg.trace);
  const double setup_s = timed_setup([&] { set_up(f, spec); });
  rep.add("setup_s", setup_s, "s");
  std::printf("workload sql_local: %s, %zu statements, 2 executor threads\n",
              spec.to_string().c_str(), statements().size());

  if (!cfg.trace) {
    measure_ops(cfg.seconds, [&](OpTimer& timer) {
      const Op op = run_op(f, &timer);
      return OpSample{op.rows, op.ok};
    }, rep);
  } else {
    recorder().set_enabled(false);
    recorder().set_op(1);
    const Op bare = run_op(f);
    recorder().set_enabled(true);
    recorder().set_op(2);
    const Op traced = run_op(f);
    recorder().set_op(3);
    const Profiled prof = run_profiled(f);
    constexpr std::uint32_t kWalkOp = 4;
    recorder().set_op(kWalkOp);
    Walk w;
    double result_rows = 0, join_result_rows = 0, join_rows = 0;
    for (const auto& sql : statements()) {
      Span st("statement");
      ViewPtr bound;
      {
        Span s("query.parse_bind");
        bound = f.fw->bind(sql);
      }
      const double before = w.join_rows;
      walk(f, *bound, w);
      const double out = static_cast<double>(f.fw->local().execute(*bound).num_rows());
      result_rows += out;
      // Rows the join produced per row the statement returned, over the
      // join statements that return rows (not aggregates).
      if (w.join_rows > before && bound->kind != ViewDef::Kind::Aggregate &&
          bound->kind != ViewDef::Kind::Sort) {
        join_rows += w.join_rows - before;
        join_result_rows += out;
      }
    }
    rep.attempted = 3;
    rep.failed = (bare.ok ? 0 : 1) + (traced.ok ? 0 : 1) +
                 (prof.op.ok ? 0 : 1);
    const SpanRecorder& rec = recorder();
    const double n = static_cast<double>(statements().size());
    rep.add("query.parse_bind_us",
            1e6 * rec.total("query.parse_bind", kWalkOp) / n, "us");
    rep.add("meta.find_chunks_us",
            1e6 * rec.total("meta.find_chunks", kWalkOp) / w.finds, "us");
    rep.add("meta.chunks_selected_frac", w.chunks_selected / w.chunks_total,
            "ratio");
    rep.add("chunkio.read_ns_per_byte",
            1e9 * rec.total("chunkio.read", kWalkOp) / w.bytes, "ns/B");
    rep.add("chunkio.decode_ns_per_byte",
            1e9 * rec.total("chunkio.decode", kWalkOp) / w.bytes, "ns/B");
    rep.add("chunkio.bytes", w.bytes, "B");
    rep.add("extract.ns_per_row.row_major",
            1e9 * rec.total("extract.row_major", kWalkOp) / w.rows[0],
            "ns/row");
    rep.add("extract.ns_per_row.col_major",
            1e9 * rec.total("extract.col_major", kWalkOp) / w.rows[1],
            "ns/row");
    rep.add("extract.rows", w.rows[0] + w.rows[1], "count");
    const char* kinds[6] = {"scan", "select", "join",
                            "project", "aggregate", "sort"};
    for (int i = 0; i < 6; ++i) {
      rep.add(std::string("dds.self_s.") + kinds[i], w.self[i], "s");
    }
    rep.add("dds.join_rows_per_result_row", join_rows / join_result_rows,
            "ratio");
    rep.add("join.result_tuples", w.join_rows, "count");
    rep.add("datagen.generate_s", f.generate_s, "s");
    rep.add("obs.profiled_wall_s", prof.op.wall, "s");
    rep.add("obs.spans", static_cast<double>(prof.spans), "count");
    rep.add("obs.record_ratio", prof.record_wall / bare.wall, "ratio");
    rep.add("obs.analyze_s", 0, "s");
    rep.add("obs.export_s", prof.export_s, "s");
    rep.add("trace.overhead_ratio", traced.wall / bare.wall, "ratio");
    rep.note("statement_rows", result_rows, "count");
  }
  rep.add("peak_rss_mb", peak_rss_mb(), "MiB");
  f.fw.reset();
  std::filesystem::remove_all(f.dir);
  return 0;
}

}  // namespace perfbench
