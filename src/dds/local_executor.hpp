#pragma once

// Local (single-process) view executor: runs any ViewDef tree directly
// against the chunk stores, with chunk-level pruning through the MetaData
// Service's R-trees for selections over base tables. Joins run over the
// page-level join index (paper Section 4.1): one job per connected
// component of the sub-table connectivity graph, each building a hash
// table per left sub-table and probing it with that sub-table's
// neighbours. This is the ingestion-free query path a scientist uses on a
// workstation; the simulated cluster path (dds/distributed.hpp) handles
// the join-view DDS at cluster scale.

#include <memory>
#include <vector>

#include "chunkio/chunk_store.hpp"
#include "common/thread_pool.hpp"
#include "dds/view_def.hpp"
#include "subtable/subtable.hpp"

namespace orv {

/// Stable multi-key sort (+ optional limit) over materialized rows; shared
/// by the local executor's Sort operator and the distributed path's
/// post-sort of top-level ORDER BY.
SubTable sort_rows(const SubTable& in, const std::vector<SortKey>& keys,
                   std::uint64_t limit);

class LocalExecutor {
 public:
  /// `pool` (optional, non-owning) runs chunk scans and join components
  /// across threads; results are bit-identical to sequential execution
  /// (parts are concatenated in chunk or component order).
  LocalExecutor(const MetaDataService& meta,
                std::vector<std::shared_ptr<ChunkStore>> stores,
                ThreadPool* pool = nullptr)
      : meta_(meta), stores_(std::move(stores)), pool_(pool) {}

  /// Materializes the view's rows.
  SubTable execute(const ViewDef& view) const;

  /// Rows of one base table under optional ranges, with chunk pruning.
  SubTable scan(TableId table, const std::vector<AttrRange>& ranges) const;

  /// Attaches (or detaches, with nullptr) a thread pool after construction.
  void set_pool(ThreadPool* pool) { pool_ = pool; }

 private:
  /// Joins `view`'s inputs, then applies `above`, the ranges of a Select
  /// directly over the join: those on join attributes prune and filter
  /// both inputs, the rest filter the joined rows.
  SubTable execute_join(const ViewDef& view,
                        const std::vector<AttrRange>& above) const;

  /// One chunk read, extracted and filtered in place by `filter`.
  SubTable load_chunk(SubTableId id, const RowFilter& filter) const;

  const MetaDataService& meta_;
  std::vector<std::shared_ptr<ChunkStore>> stores_;
  ThreadPool* pool_;
};

}  // namespace orv
