#pragma once

// Thread pool with one FIFO job queue and two ways in.
//
// TaskGroup::submit queues a job; TaskGroup::wait runs queued jobs on the
// calling thread until every job of the group has finished (help-while-
// wait), then rethrows the first exception any of them threw. The queue is
// bounded without a setting: once it holds kQueuedPerWorker jobs per
// worker, submit runs the job on the calling thread instead, so a pool
// with no workers runs every job inline.
//
// parallel_for(n, fn) runs fn(0..n-1) across the workers plus the calling
// thread and returns when every index has completed. Indices are claimed
// in contiguous chunks of `grain` (default n / (8 * threads), at least 1)
// so cheap bodies don't pay one atomic claim per index. Exceptions from fn
// are captured and rethrown (first one wins) on the calling thread;
// remaining chunks are abandoned.
//
// ThreadPool::shared() is the process-wide pool the simulated compute
// nodes' join work runs on (DESIGN.md §5j).

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace orv {

class ThreadPool {
 public:
  /// Queued jobs per worker past which submit runs a job on the caller.
  static constexpr std::size_t kQueuedPerWorker = 4;

  /// Jobs submitted by one thread and awaited together. The destructor
  /// waits for the group's jobs (an exception nobody waited for is logged
  /// as an error); a group outlives its pool only once done().
  class TaskGroup {
   public:
    explicit TaskGroup(ThreadPool& pool) : pool_(pool) {}
    TaskGroup(const TaskGroup&) = delete;
    TaskGroup& operator=(const TaskGroup&) = delete;
    ~TaskGroup();

    /// Queues `job`, or runs it now on this thread when the queue is full.
    void submit(std::function<void()> job);
    /// True once every submitted job has finished (lock-free; a true
    /// result makes the jobs' writes visible to the caller).
    bool done() const { return pending_.load(std::memory_order_acquire) == 0; }
    /// Runs queued jobs (of any group) on this thread until this group's
    /// jobs have all finished, then rethrows the first exception one threw.
    void wait();

   private:
    friend class ThreadPool;
    ThreadPool& pool_;
    std::atomic<std::size_t> pending_{0};  // written under pool_.mutex_
    std::exception_ptr error_;             // guarded by pool_.mutex_
  };

  /// `threads` = total thread count including the caller; 0 picks
  /// hardware_concurrency. Spawns threads - 1 workers.
  explicit ThreadPool(std::size_t threads = 0);
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;
  /// Runs what is still queued, then joins the workers.
  ~ThreadPool();

  std::size_t num_threads() const { return workers_.size() + 1; }

  /// The process-wide pool: hardware_concurrency() - 1 workers, started on
  /// first use and joined at exit.
  static ThreadPool& shared();

  /// Runs fn(i) for every i in [0, n); blocks until all complete.
  /// `grain` = indices claimed per dispatch; 0 picks
  /// max(1, n / (8 * num_threads())) — 8 chunks per thread balances
  /// dispatch overhead against tail imbalance from uneven bodies.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                    std::size_t grain = 0);

 private:
  struct Job {
    std::function<void()> fn;
    TaskGroup* group;
  };

  void worker_loop();
  /// Runs `job` with `lock` released, then books its completion.
  void run(Job job, std::unique_lock<std::mutex>& lock);

  std::mutex mutex_;
  std::condition_variable work_cv_;  // workers: a job was queued, or stop
  std::condition_variable done_cv_;  // waiters: some job finished
  std::deque<Job> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace orv
