#pragma once

// Host-side parallelism for the simulated compute nodes (DESIGN.md §5j).
//
// The joins keep every step that can move the virtual clock on the event
// loop — CPU charges, fault checks, cache traffic, the IJ hash-table build —
// and hand the rest of a pair's or bucket's real work (probe, optional
// filter, fingerprint) to JoinOffload as a job. Jobs run on the process-wide
// ThreadPool while the event loop goes on; their results fold back on the
// event-loop thread strictly in submission order, which is also the order
// the result sink sees the fragments. Folding only sums tuple counts and
// order-independent fingerprints, so the totals and the sink sequence are
// those of running each job at its submission point.
//
// Work in flight is bounded by constants, not settings: jobs are handed to
// the pool in batches of about kBatchRows probe rows (one wake-up per batch,
// not per small pair), at most kBatchesPerThread unfolded batches per pool
// thread are kept before the event loop waits for the oldest (running queued
// jobs itself meanwhile), and the pool runs a job on the submitting thread
// once its queue is full.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/thread_pool.hpp"
#include "join/hash_join.hpp"
#include "subtable/subtable.hpp"

namespace orv {

class JoinOffload {
 public:
  /// A job's real work: fill `out` and return the probe's tuple counts.
  using Work = std::function<JoinStats(SubTable& out)>;
  using Sink = std::function<void(std::size_t node, const SubTable& fragment)>;

  /// Probe rows per batch handed to the pool.
  static constexpr std::size_t kBatchRows = 4096;
  /// Unfolded batches per pool thread before the event loop waits.
  static constexpr std::size_t kBatchesPerThread = 2;

  /// `sink` (may be empty) receives every fragment when it folds. A job
  /// must own, or share ownership of, what it reads, or read state that
  /// outlives this object.
  explicit JoinOffload(Sink sink);
  JoinOffload(const JoinOffload&) = delete;
  JoinOffload& operator=(const JoinOffload&) = delete;
  /// Waits for every job still in flight and folds none of them.
  ~JoinOffload();

  /// Queues `work` for `node`'s fragment `out` (empty, with the result
  /// schema and fragment id). `rows` is its probe-side row count.
  void submit(std::size_t node, std::size_t rows, SubTable out, Work work);
  /// Folds the finished batches at the front; past the in-flight bound,
  /// waits for the oldest first. Rethrows a job's or the sink's exception.
  void poll();
  /// Hands over the open batch and folds every job, running queued jobs on
  /// this thread while it waits. Rethrows a job's or the sink's exception
  /// (the caller then abandons the rest).
  void finish();
  /// Waits for every job and drops the results (the query failed).
  void abandon();

  /// Folded totals: probe and result tuples, summed fragment fingerprints.
  const JoinStats& stats() const { return stats_; }
  std::uint64_t fingerprint() const { return fingerprint_; }

 private:
  struct Job {
    std::size_t node = 0;
    Work work;
    std::optional<SubTable> out;
    JoinStats stats;
    std::uint64_t fingerprint = 0;
    std::exception_ptr error;
  };
  struct Batch {
    explicit Batch(ThreadPool& pool) : group(pool) {}
    std::vector<Job> jobs;
    std::size_t rows = 0;
    std::size_t folded = 0;  // jobs [0, folded) are folded
    ThreadPool::TaskGroup group;
  };

  void hand_over();
  /// Waits for the front batch and folds it.
  void fold_front();

  ThreadPool& pool_;
  Sink sink_;
  std::unique_ptr<Batch> open_;                // filling, not yet handed over
  std::deque<std::unique_ptr<Batch>> flight_;  // handed over, unfolded
  JoinStats stats_;
  std::uint64_t fingerprint_ = 0;
};

}  // namespace orv
