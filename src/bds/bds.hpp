#pragma once

// Basic Data Source Service (paper Section 4).
//
// A BDS instance executes on a storage node and serves sub-tables for the
// node's local chunks: it reads the chunk bytes from the local disk
// (charged to the simulated spindle), runs the extractor that matches the
// chunk's layout (charged to the storage node's CPU), and — when the
// requester is a compute node — ships the sub-table across the network.

#include <memory>
#include <vector>

#include "chunkio/chunk_store.hpp"
#include "cluster/cluster.hpp"
#include "extract/extractor.hpp"
#include "meta/metadata.hpp"
#include "obs/span.hpp"
#include "sim/task.hpp"

namespace orv {

namespace fault {
class FaultInjector;
}

/// Per-node BDS statistics.
struct BdsStats {
  std::uint64_t subtables_served = 0;
  std::uint64_t chunk_bytes_read = 0;
  std::uint64_t subtable_bytes_shipped = 0;
};

class BdsInstance {
 public:
  /// `extract_ops_per_byte` models extractor CPU cost; the paper assumes it
  /// is much less than the chunk's I/O cost, which holds for the default.
  BdsInstance(Cluster& cluster, std::size_t storage_node,
              const MetaDataService& meta,
              std::shared_ptr<const ChunkStore> store,
              double extract_ops_per_byte = 1.0);

  std::size_t node() const { return node_; }
  const BdsStats& stats() const { return stats_; }

  /// Produces the basic sub-table (i, j) locally: disk read, then
  /// extraction, charged in sequence. The chunk must live on this node.
  /// `rpc` is the caller's trace context; the storage-side span parents on
  /// it so cross-node requests assemble into one DAG.
  sim::Task<std::shared_ptr<const SubTable>> produce(
      SubTableId id, obs::TraceContext rpc = {});

  /// Reads, extracts and ships a run of this node's chunks to the given
  /// compute node; a single-chunk fetch is a run of one. The run's chunks
  /// must be adjacent on disk (one file, contiguous offsets — datagen
  /// appends a table's chunks in order, so the prefetcher finds such runs
  /// often), so the whole run is one disk reservation: one seek per run
  /// instead of per chunk. Read, extraction and ship are streamed, so the
  /// fetch completes when the most-loaded stage does. Results come back in
  /// the order of `ids`. If `filter` is non-null, the record-level
  /// selection is pushed down: rows are filtered *at the
  /// storage node* and only survivors cross the network (an extension the
  /// extractor layer enables; the paper filters at the compute side).
  sim::Task<std::vector<std::shared_ptr<const SubTable>>> fetch_to_compute(
      std::vector<SubTableId> ids, std::size_t compute_node,
      const RowFilter* filter = nullptr, obs::TraceContext rpc = {});

 private:
  Cluster& cluster_;
  std::size_t node_;
  const MetaDataService& meta_;
  std::shared_ptr<const ChunkStore> store_;
  double extract_ops_per_byte_;
  BdsStats stats_;

  /// The chunk behind `id`, which must live on this node.
  const ChunkMeta& local_chunk(SubTableId id) const;

  /// Injected faults for one request of `chunks` chunks starting with
  /// `first`: a down storage node stalls the request until it serves
  /// again — or, for a `remote` caller, fails it with an RPC timeout once
  /// the outage outlasts the plan's fetch_timeout — and each chunk then
  /// rolls the read-error dice once.
  sim::Task<> fault_gate(fault::FaultInjector& inj, SubTableId first,
                         std::size_t chunks, bool remote);

  /// The real work of serving one chunk: read, extract, check, optionally
  /// filter (`filter`, in place), and count it in the stats. `shipped`
  /// books the sub-table's bytes as sent to a compute node.
  std::shared_ptr<const SubTable> serve_chunk(const ChunkMeta& cm,
                                              const RowFilter* filter,
                                              bool shipped);
};

/// All BDS instances of a dataset's storage nodes.
class BdsService {
 public:
  BdsService(Cluster& cluster, const MetaDataService& meta,
             std::vector<std::shared_ptr<ChunkStore>> stores,
             double extract_ops_per_byte = 1.0);

  BdsInstance& instance(std::size_t storage_node);

  /// The instance hosting sub-table `id`'s chunk.
  BdsInstance& instance_for(SubTableId id);

  std::size_t num_instances() const { return instances_.size(); }

  BdsStats total_stats() const;

 private:
  const MetaDataService& meta_;
  std::vector<std::unique_ptr<BdsInstance>> instances_;
};

}  // namespace orv
