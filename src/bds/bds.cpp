#include "bds/bds.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "fault/fault.hpp"
#include "net/aggregator.hpp"
#include "obs/obs.hpp"
#include "sim/event.hpp"

namespace orv {

namespace {

/// Mirrors BdsStats deltas into the installed obs registry, if any.
void publish_bds(std::uint64_t chunk_bytes, std::uint64_t shipped_bytes) {
  auto* ctx = obs::context();
  if (!ctx) return;
  ctx->registry.counter("bds.subtables_served").add(1);
  ctx->registry.counter("bds.chunk_bytes_read").add(chunk_bytes);
  if (shipped_bytes) {
    ctx->registry.counter("bds.subtable_bytes_shipped").add(shipped_bytes);
  }
}

}  // namespace

BdsInstance::BdsInstance(Cluster& cluster, std::size_t storage_node,
                         const MetaDataService& meta,
                         std::shared_ptr<const ChunkStore> store,
                         double extract_ops_per_byte)
    : cluster_(cluster),
      node_(storage_node),
      meta_(meta),
      store_(std::move(store)),
      extract_ops_per_byte_(extract_ops_per_byte) {
  ORV_REQUIRE(store_ != nullptr, "BDS instance needs a chunk store");
}

const ChunkMeta& BdsInstance::local_chunk(SubTableId id) const {
  const ChunkMeta& cm = meta_.chunk(id);
  ORV_REQUIRE(cm.location.storage_node == node_,
              "BDS instance asked for a chunk on another node: " +
                  cm.location.to_string());
  return cm;
}

sim::Task<> BdsInstance::fault_gate(fault::FaultInjector& inj,
                                    SubTableId first, std::size_t chunks,
                                    bool remote) {
  if (inj.storage_down(node_)) {
    inj.note_crash_observed(fault::NodeKind::Storage, node_);
    const double timeout = remote ? inj.plan().retry.fetch_timeout : 0;
    const double up_at = inj.storage_recovery_time(node_);
    if (timeout > 0 && up_at > cluster_.engine().now() + timeout) {
      // The compute-side caller gives up after the RPC timeout; the retry
      // loop around the fetch decides whether to try again. A local
      // produce has no remote caller to time out: it stalls on the dead
      // node until it serves again.
      co_await cluster_.engine().sleep(timeout);
      throw fault::TimeoutError(
          "fetch of " + first.to_string() + " timed out: storage node " +
          std::to_string(node_) + " is down");
    }
    if (up_at == fault::kNever) {
      throw fault::FaultError("storage node " + std::to_string(node_) +
                              " permanently lost; chunk " + first.to_string() +
                              " is unreadable");
    }
    co_await cluster_.engine().wait_until(up_at);
  }
  for (std::size_t i = 0; i < chunks; ++i) inj.maybe_fail_chunk_read(node_);
}

std::shared_ptr<const SubTable> BdsInstance::serve_chunk(
    const ChunkMeta& cm, const RowFilter* filter, bool shipped) {
  const auto chunk_bytes = store_->read(cm.location);
  SubTable rows = extract_chunk(chunk_bytes);
  ORV_CHECK(rows.id() == cm.id, "extracted sub-table id mismatch");
  if (filter != nullptr) rows = filter_rows(std::move(rows), *filter);
  auto st = std::make_shared<const SubTable>(std::move(rows));
  const std::uint64_t shipped_bytes = shipped ? st->size_bytes() : 0;
  ++stats_.subtables_served;
  stats_.chunk_bytes_read += cm.location.size;
  stats_.subtable_bytes_shipped += shipped_bytes;
  publish_bds(cm.location.size, shipped_bytes);
  return st;
}

sim::Task<std::shared_ptr<const SubTable>> BdsInstance::produce(
    SubTableId id, obs::TraceContext rpc) {
  const ChunkMeta& cm = local_chunk(id);
  obs::StageScope stage(obs::context(), "bds.produce", rpc.parent);
  stage.tag("storage_node", static_cast<std::uint64_t>(node_));
  if (auto* inj = fault::context()) {
    co_await fault_gate(*inj, id, 1, /*remote=*/false);
  }

  // The chunk read is charged to the local disk, then extraction — which
  // interprets the application-specific layout — to this node's CPU.
  const double chunk_bytes = static_cast<double>(cm.location.size);
  co_await cluster_.storage_disk(node_).read(chunk_bytes);
  co_await cluster_.storage_cpu(node_).use(extract_ops_per_byte_ *
                                           chunk_bytes);
  co_return serve_chunk(cm, nullptr, /*shipped=*/false);
}

sim::Task<std::vector<std::shared_ptr<const SubTable>>>
BdsInstance::fetch_to_compute(std::vector<SubTableId> ids,
                              std::size_t compute_node,
                              const RowFilter* filter,
                              obs::TraceContext rpc) {
  ORV_REQUIRE(!ids.empty(), "fetch needs at least one id");
  // The run is contiguous iff its chunks, all in one file, cover exactly
  // [lowest offset, highest end) — chunks of one file never overlap.
  std::vector<const ChunkMeta*> run;
  run.reserve(ids.size());
  std::uint64_t run_begin = UINT64_MAX;
  std::uint64_t run_end = 0;
  std::uint64_t run_bytes = 0;
  for (const auto& id : ids) {
    run.push_back(&local_chunk(id));
    const ChunkLocation& loc = run.back()->location;
    ORV_REQUIRE(loc.file_no == run.front()->location.file_no,
                "fetched chunks must share one file: " + loc.to_string());
    run_begin = std::min(run_begin, loc.offset);
    run_end = std::max(run_end, loc.offset + loc.size);
    run_bytes += loc.size;
  }
  ORV_REQUIRE(run_end - run_begin == run_bytes,
              "fetched chunks must be adjacent on disk");
  obs::StageScope stage(obs::context(), "bds.fetch", rpc.parent);
  stage.tag("storage_node", static_cast<std::uint64_t>(node_));
  stage.tag("compute_node", static_cast<std::uint64_t>(compute_node));
  stage.tag("batch", static_cast<std::uint64_t>(ids.size()));
  if (auto* inj = fault::context()) {
    co_await fault_gate(*inj, ids.front(), ids.size(), /*remote=*/true);
  }

  // Streamed shipping: the run is read, extracted and sent in a pipeline,
  // so the fetch completes when the most-loaded stage does (this is what
  // lets the cost models' min(Net_bw, readIO_bw * n_s) describe the
  // transfer phase). The real reads + extraction happen "instantly" at
  // the virtual completion time.
  std::vector<std::shared_ptr<const SubTable>> out;
  out.reserve(ids.size());
  double shipped_bytes = 0;
  for (const ChunkMeta* cm : run) {
    out.push_back(serve_chunk(*cm, filter, /*shipped=*/true));
    shipped_bytes += static_cast<double>(out.back()->size_bytes());
  }
  const sim::Time read_done = cluster_.storage_disk(node_).reserve_read(
      static_cast<double>(run_bytes));
  const sim::Time extract_done = cluster_.storage_cpu(node_).reserve(
      extract_ops_per_byte_ * static_cast<double>(run_bytes));
  auto* agg = net::context();
  if (agg != nullptr && !cluster_.is_local(node_, compute_node)) {
    // Aggregated reply: the egress (source NIC + switch) is charged by the
    // combined frame that carries this reply, so co-destined replies share
    // one per-message overhead. The deliver closure charges the compute
    // NIC — the same byte totals the 3-hop reserve_transfer books.
    auto delivered = std::make_shared<sim::Event>(cluster_.engine());
    Cluster* cluster = &cluster_;
    agg->post(node_, compute_node, shipped_bytes, stage.id(),
              [cluster, compute_node, shipped_bytes,
               delivered]() -> sim::Task<> {
                co_await cluster->compute_ingress(compute_node,
                                                  shipped_bytes);
                delivered->set();
              });
    co_await cluster_.engine().wait_until(std::max(read_done, extract_done));
    co_await delivered->wait();
  } else {
    const sim::Time sent =
        cluster_.reserve_transfer(node_, compute_node, shipped_bytes);
    // Nested max: a braced initializer_list here would hit a gcc-12
    // coroutine-frame bug ("array used as initializer").
    co_await cluster_.engine().wait_until(
        std::max(read_done, std::max(extract_done, sent)));
  }
  co_return out;
}

BdsService::BdsService(Cluster& cluster, const MetaDataService& meta,
                       std::vector<std::shared_ptr<ChunkStore>> stores,
                       double extract_ops_per_byte)
    : meta_(meta) {
  ORV_REQUIRE(stores.size() == cluster.num_storage(),
              "one chunk store per storage node required");
  for (std::size_t i = 0; i < stores.size(); ++i) {
    instances_.push_back(std::make_unique<BdsInstance>(
        cluster, i, meta, stores[i], extract_ops_per_byte));
  }
}

BdsInstance& BdsService::instance(std::size_t storage_node) {
  ORV_REQUIRE(storage_node < instances_.size(),
              "storage node index out of range");
  return *instances_[storage_node];
}

BdsInstance& BdsService::instance_for(SubTableId id) {
  return instance(meta_.chunk(id).location.storage_node);
}

BdsStats BdsService::total_stats() const {
  BdsStats total;
  for (const auto& inst : instances_) {
    total.subtables_served += inst->stats().subtables_served;
    total.chunk_bytes_read += inst->stats().chunk_bytes_read;
    total.subtable_bytes_shipped += inst->stats().subtable_bytes_shipped;
  }
  return total;
}

}  // namespace orv
