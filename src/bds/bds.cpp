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

sim::Task<std::shared_ptr<const SubTable>> BdsInstance::produce(
    SubTableId id, obs::TraceContext rpc) {
  const ChunkMeta& cm = meta_.chunk(id);
  ORV_REQUIRE(cm.location.storage_node == node_,
              "BDS instance asked for a chunk on another node: " +
                  cm.location.to_string());
  obs::StageScope stage(obs::context(), "bds.produce", rpc.parent);
  stage.tag("storage_node", static_cast<std::uint64_t>(node_));

  if (auto* inj = fault::context()) {
    if (inj->storage_down(node_)) {
      inj->note_crash_observed(fault::NodeKind::Storage, node_);
      const double up_at = inj->storage_recovery_time(node_);
      if (up_at == fault::kNever) {
        throw fault::FaultError("storage node " + std::to_string(node_) +
                                " permanently lost; chunk " + id.to_string() +
                                " is unreadable");
      }
      // Local produce has no remote caller to time out: the request just
      // stalls on the dead node until it serves again.
      co_await cluster_.engine().wait_until(up_at);
    }
    inj->maybe_fail_chunk_read(node_);
  }

  // Charge the chunk read to the local disk, then do the real read.
  co_await cluster_.storage_disk(node_).read(
      static_cast<double>(cm.location.size));
  const auto chunk_bytes = store_->read(cm.location);

  // Extraction: interpret the application-specific layout (real work),
  // charged to this node's CPU.
  co_await cluster_.storage_cpu(node_).use(
      extract_ops_per_byte_ * static_cast<double>(chunk_bytes.size()));
  auto st = std::make_shared<const SubTable>(extract_chunk(chunk_bytes));
  ORV_CHECK(st->id() == id, "extracted sub-table id mismatch");

  ++stats_.subtables_served;
  stats_.chunk_bytes_read += cm.location.size;
  publish_bds(cm.location.size, 0);
  co_return st;
}

sim::Task<std::shared_ptr<const SubTable>> BdsInstance::fetch_to_compute(
    SubTableId id, std::size_t compute_node,
    const std::vector<AttrRange>* ranges, obs::TraceContext rpc) {
  const ChunkMeta& cm = meta_.chunk(id);
  ORV_REQUIRE(cm.location.storage_node == node_,
              "BDS instance asked for a chunk on another node: " +
                  cm.location.to_string());
  obs::StageScope stage(obs::context(), "bds.fetch", rpc.parent);
  stage.tag("storage_node", static_cast<std::uint64_t>(node_));
  stage.tag("compute_node", static_cast<std::uint64_t>(compute_node));

  if (auto* inj = fault::context()) {
    if (inj->storage_down(node_)) {
      inj->note_crash_observed(fault::NodeKind::Storage, node_);
      const double timeout = inj->plan().retry.fetch_timeout;
      const double up_at = inj->storage_recovery_time(node_);
      if (timeout > 0 &&
          up_at > cluster_.engine().now() + timeout) {
        // The compute-side caller gives up after the RPC timeout; the
        // retry loop around the fetch decides whether to try again.
        co_await cluster_.engine().sleep(timeout);
        throw fault::TimeoutError(
            "fetch of " + id.to_string() + " timed out: storage node " +
            std::to_string(node_) + " is down");
      }
      if (up_at == fault::kNever) {
        throw fault::FaultError("storage node " + std::to_string(node_) +
                                " permanently lost; chunk " + id.to_string() +
                                " is unreadable");
      }
      co_await cluster_.engine().wait_until(up_at);
    }
    inj->maybe_fail_chunk_read(node_);
  }

  // Streamed shipping: the chunk is read, extracted and sent in a pipeline,
  // so the fetch completes when the most-loaded stage does (this is what
  // lets the cost models' min(Net_bw, readIO_bw * n_s) describe the
  // transfer phase). The real read + extraction happen "instantly" at the
  // virtual completion time.
  const auto chunk_bytes = store_->read(cm.location);
  auto st = std::make_shared<const SubTable>(extract_chunk(chunk_bytes));
  ORV_CHECK(st->id() == id, "extracted sub-table id mismatch");
  if (ranges != nullptr && !ranges->empty()) {
    st = std::make_shared<const SubTable>(filter_rows(*st, *ranges));
  }

  const sim::Time read_done = cluster_.storage_disk(node_).reserve_read(
      static_cast<double>(cm.location.size));
  const sim::Time extract_done = cluster_.storage_cpu(node_).reserve(
      extract_ops_per_byte_ * static_cast<double>(chunk_bytes.size()));
  auto* agg = net::context();
  if (agg != nullptr && !cluster_.is_local(node_, compute_node)) {
    // Aggregated reply: the egress (source NIC + switch) is charged by the
    // combined frame that carries this reply, so co-destined replies share
    // one per-message overhead. The deliver closure charges the compute
    // NIC — the same byte totals the 3-hop reserve_transfer books.
    const double ship_bytes = static_cast<double>(st->size_bytes());
    auto delivered = std::make_shared<sim::Event>(cluster_.engine());
    Cluster* cluster = &cluster_;
    agg->post(node_, compute_node, ship_bytes, stage.id(),
              [cluster, compute_node, ship_bytes,
               delivered]() -> sim::Task<> {
                co_await cluster->compute_ingress(compute_node, ship_bytes);
                delivered->set();
              });
    co_await cluster_.engine().wait_until(std::max(read_done, extract_done));
    co_await delivered->wait();
  } else {
    const sim::Time sent = cluster_.reserve_transfer(
        node_, compute_node, static_cast<double>(st->size_bytes()));
    // Nested max: a braced initializer_list here would hit a gcc-12
    // coroutine-frame bug ("array used as initializer").
    co_await cluster_.engine().wait_until(
        std::max(read_done, std::max(extract_done, sent)));
  }

  ++stats_.subtables_served;
  stats_.chunk_bytes_read += cm.location.size;
  stats_.subtable_bytes_shipped += st->size_bytes();
  publish_bds(cm.location.size, st->size_bytes());
  co_return st;
}

sim::Task<std::vector<std::shared_ptr<const SubTable>>>
BdsInstance::fetch_batch_to_compute(std::vector<SubTableId> ids,
                                    std::size_t compute_node,
                                    const std::vector<AttrRange>* ranges,
                                    obs::TraceContext rpc) {
  ORV_REQUIRE(!ids.empty(), "batch fetch needs at least one id");
  obs::StageScope stage(obs::context(), "bds.fetch", rpc.parent);
  stage.tag("storage_node", static_cast<std::uint64_t>(node_));
  stage.tag("compute_node", static_cast<std::uint64_t>(compute_node));
  stage.tag("batch", static_cast<std::uint64_t>(ids.size()));

  // Sort a view of the batch by on-disk position to find coalescable runs;
  // results are still returned in the caller's order.
  std::vector<const ChunkMeta*> by_pos;
  by_pos.reserve(ids.size());
  for (const auto& id : ids) {
    const ChunkMeta& cm = meta_.chunk(id);
    ORV_REQUIRE(cm.location.storage_node == node_,
                "BDS instance asked for a chunk on another node: " +
                    cm.location.to_string());
    by_pos.push_back(&cm);
  }
  std::sort(by_pos.begin(), by_pos.end(),
            [](const ChunkMeta* a, const ChunkMeta* b) {
              if (a->location.file_no != b->location.file_no) {
                return a->location.file_no < b->location.file_no;
              }
              return a->location.offset < b->location.offset;
            });

  // One disk reservation per adjacent run: a run pays a single seek, and
  // the spindle's FCFS queue serializes the runs, so the last reservation
  // is the batch's read completion time.
  sim::Time read_done = cluster_.engine().now();
  std::uint64_t num_runs = 0;
  for (std::size_t i = 0; i < by_pos.size();) {
    double run_bytes = static_cast<double>(by_pos[i]->location.size);
    std::size_t j = i + 1;
    while (j < by_pos.size() &&
           by_pos[j]->location.file_no == by_pos[j - 1]->location.file_no &&
           by_pos[j - 1]->location.offset + by_pos[j - 1]->location.size ==
               by_pos[j]->location.offset) {
      run_bytes += static_cast<double>(by_pos[j]->location.size);
      ++j;
    }
    read_done = cluster_.storage_disk(node_).reserve_read(run_bytes);
    ++num_runs;
    i = j;
  }

  // The real reads + extraction, and the virtual charges for them.
  std::vector<std::shared_ptr<const SubTable>> out;
  out.reserve(ids.size());
  double extract_bytes = 0;
  double shipped_bytes = 0;
  for (const auto& id : ids) {
    const ChunkMeta& cm = meta_.chunk(id);
    const auto chunk_bytes = store_->read(cm.location);
    extract_bytes += static_cast<double>(chunk_bytes.size());
    auto st = std::make_shared<const SubTable>(extract_chunk(chunk_bytes));
    ORV_CHECK(st->id() == id, "extracted sub-table id mismatch");
    if (ranges != nullptr && !ranges->empty()) {
      st = std::make_shared<const SubTable>(filter_rows(*st, *ranges));
    }
    shipped_bytes += static_cast<double>(st->size_bytes());
    ++stats_.subtables_served;
    stats_.chunk_bytes_read += cm.location.size;
    stats_.subtable_bytes_shipped += st->size_bytes();
    publish_bds(cm.location.size, st->size_bytes());
    out.push_back(std::move(st));
  }

  const sim::Time extract_done = cluster_.storage_cpu(node_).reserve(
      extract_ops_per_byte_ * extract_bytes);
  auto* agg = net::context();
  if (agg != nullptr && !cluster_.is_local(node_, compute_node)) {
    // Same aggregated-reply shape as the single-chunk fetch: one posted
    // logical message for the whole coalesced batch.
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
    co_await cluster_.engine().wait_until(
        std::max(read_done, std::max(extract_done, sent)));
  }

  if (auto* ctx = obs::context()) {
    ctx->registry.counter("bds.coalesced_runs").add(num_runs);
    ctx->registry.counter("bds.coalesced_chunks").add(ids.size());
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
