#include <memory>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "qes/qes.hpp"
#include "qes/sampler.hpp"

namespace orv {

namespace qes_detail {

namespace {
struct ResultBox {
  QesResult result;
  bool have = false;
};

sim::Task<> capture_result(sim::Task<QesResult> inner,
                           std::shared_ptr<ResultBox> box) {
  box->result = co_await std::move(inner);
  box->have = true;
}
}  // namespace

QesResult run_query_task(sim::Engine& engine, sim::Task<QesResult> task,
                         const char* name) {
  // The box is shared with the coroutine frame: on a failed query the
  // frame outlives this scope (it is destroyed with the engine), so a
  // plain stack reference would dangle.
  auto box = std::make_shared<ResultBox>();
  engine.spawn(capture_result(std::move(task), box), name);
  engine.run();
  ORV_CHECK(box->have, "query task did not complete");
  return std::move(box->result);
}

double storage_read_bytes(Cluster& cluster) {
  if (cluster.spec().shared_filesystem) {
    return cluster.storage_disk(0).bytes_read();
  }
  double total = 0;
  for (std::size_t i = 0; i < cluster.num_storage(); ++i) {
    total += cluster.storage_disk(i).bytes_read();
  }
  return total;
}

}  // namespace qes_detail

void QueryLifecycle::begin(const char* span_name, const char* algorithm) {
  start = cluster.engine().now();
  ctx = obs::context();
  if (ctx == nullptr) return;
  trace_id = ctx->next_trace_id();
  span = ctx->tracer.begin(span_name);
  ctx->tracer.tag(span, "trace_id", trace_id);
  ctx->tracer.tag(span, "algorithm", std::string(algorithm));
  sampling = ctx->sample_interval > 0;
}

void QueryLifecycle::spawn_sampler(const char* name) {
  if (sampling) {
    cluster.engine().spawn(occupancy_sampler(cluster, ctx, probes, &done),
                           name);
  }
}

double QueryLifecycle::elapsed() const {
  return (sampling && finished_at >= 0 ? finished_at
                                       : cluster.engine().now()) -
         start;
}

void QueryLifecycle::complete(bool degraded) {
  if (ctx == nullptr) return;
  ctx->tracer.end_at(span, start + elapsed());
  if (degraded) ctx->registry.counter("query.degraded").add(1);
}

void QueryLifecycle::fail() {
  if (ctx) ctx->tracer.end_orphaned(span);
}

namespace {

/// All rows of `table` that pass the query's selection, in chunk order.
SubTable load_selected(const MetaDataService& meta,
                       const std::vector<std::shared_ptr<ChunkStore>>& stores,
                       TableId table, const std::vector<AttrRange>& ranges) {
  const RowFilter filter(meta.table_schema(table), ranges);
  SubTable all(meta.table_schema(table), SubTableId{table, 0});
  for (const auto& cm : meta.chunks(table)) {
    const auto bytes = stores.at(cm.location.storage_node)->read(cm.location);
    const SubTable filtered = filter_rows(extract_chunk(bytes), filter);
    for (std::size_t r = 0; r < filtered.num_rows(); ++r) {
      all.append_row({filtered.row(r), filtered.record_size()});
    }
  }
  return all;
}

ReferenceResult summarize(const SubTable& joined) {
  ReferenceResult res;
  res.result_tuples = joined.num_rows();
  res.result_fingerprint = joined.unordered_fingerprint();
  return res;
}

}  // namespace

ReferenceResult reference_join(
    const MetaDataService& meta,
    const std::vector<std::shared_ptr<ChunkStore>>& stores,
    const JoinQuery& query) {
  return summarize(hash_join(
      load_selected(meta, stores, query.left_table, query.ranges),
      load_selected(meta, stores, query.right_table, query.ranges),
      query.join_attrs, SubTableId{0, 0}));
}

ReferenceResult nested_loop_reference(
    const MetaDataService& meta,
    const std::vector<std::shared_ptr<ChunkStore>>& stores,
    const JoinQuery& query) {
  return summarize(nested_loop_join(
      load_selected(meta, stores, query.left_table, query.ranges),
      load_selected(meta, stores, query.right_table, query.ranges),
      query.join_attrs, SubTableId{0, 0}));
}

std::string QesResult::to_string() const {
  std::string s = strformat(
      "elapsed=%.3fs tuples=%llu (partition=%.3fs join=%.3fs) "
      "net=%s scratch(w/r)=%s/%s fetches=%llu builds=%llu "
      "cache(h/m/e)=%llu/%llu/%llu",
      elapsed, (unsigned long long)result_tuples, partition_phase, join_phase,
      human_bytes(static_cast<std::uint64_t>(network_bytes)).c_str(),
      human_bytes(static_cast<std::uint64_t>(scratch_write_bytes)).c_str(),
      human_bytes(static_cast<std::uint64_t>(scratch_read_bytes)).c_str(),
      (unsigned long long)subtable_fetches,
      (unsigned long long)hash_tables_built,
      (unsigned long long)cache_stats.hits,
      (unsigned long long)cache_stats.misses,
      (unsigned long long)cache_stats.evictions);
  if (local_transfer_bytes > 0) {
    s += strformat(
        " switch=%s local=%s",
        human_bytes(static_cast<std::uint64_t>(cross_switch_bytes)).c_str(),
        human_bytes(static_cast<std::uint64_t>(local_transfer_bytes)).c_str());
  }
  if (degraded) {
    s += strformat(
        " DEGRADED retries=%llu pairs_reassigned=%llu "
        "rows_repartitioned=%llu compute_lost=%llu",
        (unsigned long long)fetch_retries,
        (unsigned long long)pairs_reassigned,
        (unsigned long long)rows_repartitioned,
        (unsigned long long)compute_nodes_lost);
  }
  return s;
}

}  // namespace orv
