// perfbench: the repository's end-to-end benchmark program.
//
//   perfbench --workload <ij_probe|scan_join|sql_local|mixed_sessions>
//             --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]
//
// Prints one line per metric (name, value, unit), then as its last line
// one JSON object {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones, measured with tracing
// off; with --trace 1 they are the per-layer ones from a traced run. The
// exit code is non-zero when any op's output differs from its oracle.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "harness.hpp"

#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif

namespace perfbench {

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> names = {
      {"cal_wall_s_p50", "s"},
      {"cal_rows_per_s", "1/s"},
      {"setup_s", "s"},
      {"peak_rss_mb", "MiB"}};
  return names;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> names = {
      {"chunkio.decode_ns_per_byte", "ns/B"},
      {"chunkio.read_ns_per_byte", "ns/B"},
      {"chunkio.bytes", "B"},
      {"chunkio.decode_share", "ratio"},
      {"extract.ns_per_row.row_major", "ns/row"},
      {"extract.ns_per_row.col_major", "ns/row"},
      {"extract.rows", "count"},
      {"join.build_ns_per_row", "ns/row"},
      {"join.probe_ns_per_tuple", "ns/tuple"},
      {"join.probe_tuples", "count"},
      {"join.hash_tables_built", "count"},
      {"join.result_tuples", "count"},
      {"join.probe_share", "ratio"},
      {"cache.hit_rate", "ratio"},
      {"cache.lookups", "count"},
      {"cache.evictions", "count"},
      {"cache.puts", "count"},
      {"bds.subtables_served", "count"},
      {"bds.chunk_bytes_read", "B"},
      {"bds.bytes_shipped", "B"},
      {"qes.ij.self_s", "s"},
      {"qes.gh.self_s", "s"},
      {"qes.subtable_fetches", "count"},
      {"qes.prefetch_useful_frac", "ratio"},
      {"qes.prefetch_issued", "count"},
      {"qes.overlap_ratio", "ratio"},
      {"qes.gh.scratch_write_bytes", "B"},
      {"qes.gh.scratch_read_bytes", "B"},
      {"sim.events", "count"},
      {"sim.events_per_wall_s", "1/s"},
      {"net.h1_messages", "count"},
      {"net.frames", "count"},
      {"net.bytes", "B"},
      {"graph.build_s", "s"},
      {"graph.edges", "count"},
      {"datagen.generate_s", "s"},
      {"meta.find_chunks_us", "us"},
      {"meta.chunks_selected_frac", "ratio"},
      {"query.parse_bind_us", "us"},
      {"dds.self_s.scan", "s"},
      {"dds.self_s.select", "s"},
      {"dds.self_s.join", "s"},
      {"dds.self_s.project", "s"},
      {"dds.self_s.aggregate", "s"},
      {"dds.self_s.sort", "s"},
      {"dds.join_rows_per_result_row", "ratio"},
      {"qps.plan_us", "us"},
      {"cost.model_ratio.ij.serial", "ratio"},
      {"cost.model_ratio.ij.pipelined", "ratio"},
      {"cost.model_ratio.gh.serial", "ratio"},
      {"cost.model_ratio.gh.pipelined", "ratio"},
      {"sched.queue_wait_s_p50", "sim_s"},
      {"sched.queue_wait_s_p90", "sim_s"},
      {"sched.rejected", "count"},
      {"workload.service_s_p50", "sim_s"},
      {"obs.profiled_wall_s", "s"},
      {"obs.spans", "count"},
      {"obs.record_ratio", "ratio"},
      {"obs.analyze_s", "s"},
      {"obs.export_s", "s"},
      {"trace.overhead_ratio", "ratio"},
      {"virtual_s", "sim_s"},
      {"model_err", "ratio"},
      {"vlatency_s_p50", "sim_s"},
      {"vlatency_s_p90", "sim_s"},
      {"vthroughput_qps", "1/sim_s"}};
  return names;
}

}  // namespace perfbench

namespace {

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--work-dir <dir>]\n",
               msg);
  return 2;
}

/// Numbers from an unoptimised or sanitized build say nothing about the
/// code's speed; refuse to report them.
const char* build_problem() {
#ifndef __OPTIMIZE__
  return "unoptimised build (__OPTIMIZE__ is not defined)";
#endif
#if defined(__SANITIZE_ADDRESS__)
  return "AddressSanitizer build";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
  return "AddressSanitizer build";
#endif
#endif
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig cfg;
  cfg.work_dir = ".bench_build";
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      cfg.workload = v;
    } else if (a == "--seed") {
      cfg.seed = std::strtoull(v.c_str(), &end, 10);
      have_seed = end != v.c_str() && *end == '\0';
    } else if (a == "--seconds") {
      cfg.seconds = std::strtod(v.c_str(), &end);
      have_seconds = end != v.c_str() && *end == '\0' && cfg.seconds > 0;
    } else if (a == "--trace") {
      have_trace = v == "0" || v == "1";
      cfg.trace = v == "1";
    } else if (a == "--work-dir") {
      cfg.work_dir = v;
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return usage("--seed, --seconds and --trace need valid values");
  }
  if (const char* problem = build_problem()) {
    std::fprintf(stderr, "perfbench: refusing to report numbers from an %s\n",
                 problem);
    return 3;
  }
  std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.seconds, cfg.trace ? 1 : 0);
  std::printf("compiler: %s\nflags: %s\n", __VERSION__, PERFBENCH_CXX_FLAGS);

  if (!cfg.trace) start_calibration();
  Report report;
  int rc = 0;
  try {
    std::filesystem::create_directories(cfg.work_dir);
    if (cfg.workload == "ij_probe" || cfg.workload == "scan_join") {
      rc = run_sim_workload(cfg, report);
    } else if (cfg.workload == "sql_local") {
      rc = run_sql_local(cfg, report);
    } else if (cfg.workload == "mixed_sessions") {
      rc = run_mixed_sessions(cfg, report);
    } else {
      return usage(("unknown workload " + cfg.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  if (rc != 0) return rc;

  if (cfg.trace) {
    // Layers a workload does not exercise report 0; BENCHMARK.json's
    // companion README maps each layer metric to its workloads.
    for (const auto& m : per_layer_metrics()) {
      if (!report.has(m.name)) report.add(m.name, 0, m.unit);
    }
    const std::string path = cfg.work_dir + "/trace-" + cfg.workload +
                             "-seed" + std::to_string(cfg.seed) + ".json";
    if (!recorder().write_json(path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("spans: %zu written to %s\n", recorder().spans().size(),
                path.c_str());
  }
  if (report.failed != 0) {
    std::fprintf(stderr, "perfbench: %llu of %llu ops failed the oracle\n",
                 static_cast<unsigned long long>(report.failed),
                 static_cast<unsigned long long>(report.attempted));
  }
  report.note("failed_frac",
              static_cast<double>(report.failed) /
                  static_cast<double>(report.attempted),
              "ratio");
  if (!report.print(cfg.trace ? per_layer_metrics() : end_to_end_metrics())) {
    return 1;
  }
  return report.failed == 0 ? 0 : 4;
}
