#include "common/thread_pool.hpp"

#include <algorithm>
#include <utility>

#include "common/log.hpp"

namespace orv {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  // The calling thread participates, so spawn threads-1 workers.
  for (std::size_t i = 1; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool;
  return pool;
}

void ThreadPool::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    work_cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
    if (queue_.empty()) return;  // stopping, and nothing left to run
    Job job = std::move(queue_.front());
    queue_.pop_front();
    run(std::move(job), lock);
  }
}

void ThreadPool::run(Job job, std::unique_lock<std::mutex>& lock) {
  lock.unlock();
  std::exception_ptr error;
  try {
    job.fn();
  } catch (...) {
    error = std::current_exception();
  }
  job.fn = nullptr;  // release what the job captured before it counts done
  lock.lock();
  TaskGroup& group = *job.group;
  if (error && !group.error_) group.error_ = error;
  // The group may be destroyed as soon as pending_ reads 0: touch it no
  // more after this.
  group.pending_.fetch_sub(1, std::memory_order_release);
  done_cv_.notify_all();
}

ThreadPool::TaskGroup::~TaskGroup() {
  try {
    wait();
  } catch (const std::exception& e) {
    ORV_LOG(Error) << "thread pool: job exception nobody waited for: "
                   << e.what();
  } catch (...) {
    ORV_LOG(Error) << "thread pool: job exception nobody waited for";
  }
}

void ThreadPool::TaskGroup::submit(std::function<void()> job) {
  std::unique_lock<std::mutex> lock(pool_.mutex_);
  pending_.fetch_add(1, std::memory_order_relaxed);
  if (pool_.queue_.size() >= kQueuedPerWorker * pool_.workers_.size()) {
    pool_.run(Job{std::move(job), this}, lock);
    return;
  }
  pool_.queue_.push_back(Job{std::move(job), this});
  lock.unlock();
  pool_.work_cv_.notify_one();
}

void ThreadPool::TaskGroup::wait() {
  if (done() && !error_) return;  // touches no pool state
  std::unique_lock<std::mutex> lock(pool_.mutex_);
  auto finished = [this] {
    return pending_.load(std::memory_order_relaxed) == 0;
  };
  while (!finished()) {
    if (pool_.queue_.empty()) {
      // Woken by every job's completion; a job queued meanwhile is picked
      // up on the next one.
      pool_.done_cv_.wait(
          lock, [&] { return finished() || !pool_.queue_.empty(); });
      continue;
    }
    Job job = std::move(pool_.queue_.front());
    pool_.queue_.pop_front();
    pool_.run(std::move(job), lock);
  }
  if (error_) {
    std::exception_ptr error = std::exchange(error_, nullptr);
    lock.unlock();
    std::rethrow_exception(error);
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn,
                              std::size_t grain) {
  if (n == 0) return;
  if (grain == 0) grain = std::max<std::size_t>(1, n / (8 * num_threads()));
  // Every runner claims chunks until none are left; the first exception
  // stops further claims.
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  auto claim_chunks = [&] {
    while (!failed.load(std::memory_order_relaxed)) {
      const std::size_t begin = next.fetch_add(grain);
      if (begin >= n) return;
      const std::size_t end = std::min(n, begin + grain);
      try {
        for (std::size_t i = begin; i < end; ++i) fn(i);
      } catch (...) {
        failed = true;
        throw;
      }
    }
  };
  const std::size_t chunks = (n - 1) / grain + 1;
  std::exception_ptr error;
  {
    TaskGroup group(*this);
    for (std::size_t k = 1; k < std::min(chunks, num_threads()); ++k) {
      group.submit(claim_chunks);
    }
    try {
      claim_chunks();  // the caller participates
    } catch (...) {
      error = std::current_exception();
    }
    try {
      group.wait();
    } catch (...) {
      if (!error) error = std::current_exception();
    }
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace orv
