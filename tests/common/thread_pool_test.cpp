// ThreadPool: parallel_for coverage, reuse and exceptions; TaskGroup
// submit / help-while-wait, the bounded queue, exceptions, and teardown.

#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/error.hpp"

namespace orv {
namespace {

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> counts(1000);
  pool.parallel_for(1000, [&](std::size_t i) { counts[i]++; });
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(ThreadPool, ZeroIterationsIsNoop) {
  ThreadPool pool(2);
  pool.parallel_for(0, [&](std::size_t) { FAIL(); });
}

TEST(ThreadPool, SingleThreadWorks) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::atomic<int> sum{0};
  pool.parallel_for(100, [&](std::size_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum.load(), 4950);
}

TEST(ThreadPool, ReusableAcrossCalls) {
  ThreadPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> count{0};
    pool.parallel_for(17, [&](std::size_t) { count++; });
    ASSERT_EQ(count.load(), 17) << "round " << round;
  }
}

TEST(ThreadPool, ExceptionPropagatesToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(100,
                                 [&](std::size_t i) {
                                   if (i == 13) throw IoError("boom");
                                 }),
               IoError);
  // Pool still usable afterwards.
  std::atomic<int> count{0};
  pool.parallel_for(10, [&](std::size_t) { count++; });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, MoreIterationsThanThreads) {
  ThreadPool pool(2);
  std::atomic<long> sum{0};
  pool.parallel_for(100000, [&](std::size_t i) {
    sum += static_cast<long>(i % 7);
  });
  long expected = 0;
  for (std::size_t i = 0; i < 100000; ++i) expected += i % 7;
  EXPECT_EQ(sum.load(), expected);
}

TEST(ThreadPool, DefaultsToHardwareConcurrency) {
  ThreadPool pool;
  EXPECT_GE(pool.num_threads(), 1u);
}

TEST(ThreadPool, ExplicitGrainCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  for (std::size_t grain : {1u, 3u, 7u, 64u, 1000u, 5000u}) {
    std::vector<std::atomic<int>> counts(1000);
    pool.parallel_for(
        1000, [&](std::size_t i) { counts[i]++; }, grain);
    for (std::size_t i = 0; i < counts.size(); ++i) {
      ASSERT_EQ(counts[i].load(), 1) << "grain " << grain << " index " << i;
    }
  }
}

TEST(ThreadPool, GrainLargerThanRangeRunsSequentially) {
  ThreadPool pool(4);
  // One chunk swallows the whole range: indices must arrive in order on a
  // single thread.
  std::vector<std::size_t> order;
  pool.parallel_for(
      100, [&](std::size_t i) { order.push_back(i); }, 1000);
  ASSERT_EQ(order.size(), 100u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, ExceptionMidChunkPropagatesAndPoolStaysUsable) {
  ThreadPool pool(4);
  // The throwing index sits mid-chunk (grain 16): the chunk's remaining
  // indices are abandoned but the completion invariant must still hold —
  // a hang here means completed_ never catches up to next_index_.
  std::atomic<int> ran{0};
  EXPECT_THROW(pool.parallel_for(
                   1000,
                   [&](std::size_t i) {
                     if (i % 100 == 50) throw IoError("mid-chunk boom");
                     ran++;
                   },
                   16),
               IoError);
  EXPECT_LT(ran.load(), 1000);

  // Subsequent jobs see a clean pool: full coverage, fresh exception slot.
  for (int round = 0; round < 5; ++round) {
    std::atomic<int> count{0};
    pool.parallel_for(
        333, [&](std::size_t) { count++; }, 8);
    ASSERT_EQ(count.load(), 333) << "round " << round;
  }
}

TEST(ThreadPool, ExceptionInEveryChunkStillCompletes) {
  ThreadPool pool(3);
  // First exception wins; the rest are swallowed without deadlocking the
  // done_cv_ wait.
  EXPECT_THROW(pool.parallel_for(
                   300, [&](std::size_t) { throw IoError("all boom"); }, 10),
               IoError);
  std::atomic<int> count{0};
  pool.parallel_for(10, [&](std::size_t) { count++; });
  EXPECT_EQ(count.load(), 10);
}

// --- TaskGroup ---------------------------------------------------------------

TEST(TaskGroup, EveryJobRunsExactlyOnce) {
  for (const std::size_t threads : {1u, 2u, 4u}) {
    ThreadPool pool(threads);
    std::vector<std::atomic<int>> counts(2000);
    {
      // Two groups interleave on one queue; each waits for its own jobs.
      ThreadPool::TaskGroup even(pool);
      ThreadPool::TaskGroup odd(pool);
      for (std::size_t i = 0; i < counts.size(); ++i) {
        (i % 2 ? odd : even).submit([&counts, i] { counts[i]++; });
      }
      even.wait();
      odd.wait();
      EXPECT_TRUE(even.done());
      EXPECT_TRUE(odd.done());
    }
    for (std::size_t i = 0; i < counts.size(); ++i) {
      ASSERT_EQ(counts[i].load(), 1) << threads << " threads, job " << i;
    }
  }
}

TEST(TaskGroup, OneThreadPoolRunsEveryJobOnTheSubmitter) {
  ThreadPool pool(1);
  const auto caller = std::this_thread::get_id();
  ThreadPool::TaskGroup group(pool);
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) {
    group.submit([&, i] {
      EXPECT_EQ(std::this_thread::get_id(), caller);
      order.push_back(i);
    });
    EXPECT_TRUE(group.done());  // ran inline, in submission order
  }
  group.wait();
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[i], i);
}

TEST(TaskGroup, WaiterRunsQueuedJobsItself) {
  // The only worker blocks in job A until job B runs; B sits in the queue
  // behind A, so the group completes only if wait() runs B itself.
  ThreadPool pool(2);
  std::atomic<bool> a_started{false};
  std::atomic<bool> b_ran{false};
  std::thread::id b_thread;
  ThreadPool::TaskGroup group(pool);
  group.submit([&] {
    a_started = true;
    while (!b_ran) std::this_thread::yield();
  });
  while (!a_started) std::this_thread::yield();
  group.submit([&] {
    b_thread = std::this_thread::get_id();
    b_ran = true;
  });
  group.wait();
  EXPECT_TRUE(b_ran);
  EXPECT_EQ(b_thread, std::this_thread::get_id());
}

TEST(TaskGroup, FullQueueRunsTheJobOnTheSubmitter) {
  ThreadPool pool(2);  // one worker: the bound is kQueuedPerWorker jobs
  std::atomic<bool> release{false};
  std::atomic<bool> started{false};
  const auto caller = std::this_thread::get_id();
  ThreadPool::TaskGroup group(pool);
  group.submit([&] {
    started = true;
    while (!release) std::this_thread::yield();
  });
  while (!started) std::this_thread::yield();
  std::atomic<int> queued_ran{0};
  for (std::size_t i = 0; i < ThreadPool::kQueuedPerWorker; ++i) {
    group.submit([&] { queued_ran++; });
  }
  EXPECT_EQ(queued_ran.load(), 0);  // all queued behind the blocked worker
  std::thread::id overflow_thread;
  group.submit([&] { overflow_thread = std::this_thread::get_id(); });
  EXPECT_EQ(overflow_thread, caller);
  release = true;
  group.wait();
  EXPECT_EQ(queued_ran.load(),
            static_cast<int>(ThreadPool::kQueuedPerWorker));
}

TEST(TaskGroup, FirstExceptionWinsAndPoolStaysUsable) {
  for (const std::size_t threads : {1u, 3u}) {
    ThreadPool pool(threads);
    std::atomic<int> ran{0};
    ThreadPool::TaskGroup group(pool);
    for (int i = 0; i < 200; ++i) {
      group.submit([&, i] {
        ran++;
        if (i % 7 == 3) throw std::runtime_error("job " + std::to_string(i));
      });
    }
    std::string what;
    try {
      group.wait();
    } catch (const std::runtime_error& e) {
      what = e.what();
    }
    // Every job ran; exactly one exception surfaced, and with no worker it
    // is the first one submitted.
    EXPECT_EQ(ran.load(), 200);
    ASSERT_FALSE(what.empty());
    if (threads == 1) {
      EXPECT_EQ(what, "job 3");
    }
    EXPECT_NO_THROW(group.wait());  // consumed

    ThreadPool::TaskGroup again(pool);
    std::atomic<int> count{0};
    for (int i = 0; i < 50; ++i) again.submit([&] { count++; });
    again.wait();
    EXPECT_EQ(count.load(), 50);
    pool.parallel_for(10, [&](std::size_t) { count++; });
    EXPECT_EQ(count.load(), 60);
  }
}

TEST(TaskGroup, UnwaitedExceptionStaysInsideTheDestructor) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  {
    ThreadPool::TaskGroup group(pool);
    group.submit([&] {
      ran++;
      throw std::runtime_error("never waited for");
    });
  }  // logged, not rethrown
  EXPECT_EQ(ran.load(), 1);
}

TEST(TaskGroup, DestroyingAnIdlePoolIsSafe) {
  for (int round = 0; round < 20; ++round) {
    ThreadPool fresh(4);  // workers may still be starting
  }
  ThreadPool pool(4);
  {
    ThreadPool::TaskGroup group(pool);
    for (int i = 0; i < 10; ++i) group.submit([] {});
  }  // the group's destructor waits; the workers then go idle
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
}

TEST(TaskGroup, DestroyingAPoolRunsItsQueuedJobs) {
  std::atomic<int> ran{0};
  auto pool = std::make_unique<ThreadPool>(3);
  auto group = std::make_unique<ThreadPool::TaskGroup>(*pool);
  for (int i = 0; i < 64; ++i) {
    group->submit([&] {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      ran++;
    });
  }
  pool.reset();  // jobs still queued run before the workers exit
  EXPECT_EQ(ran.load(), 64);
  EXPECT_TRUE(group->done());
  group.reset();
}

TEST(TaskGroup, SharedPoolIsOneProcessWidePool) {
  ThreadPool& pool = ThreadPool::shared();
  EXPECT_EQ(&pool, &ThreadPool::shared());
  const std::size_t hc = std::thread::hardware_concurrency();
  EXPECT_EQ(pool.num_threads(), hc == 0 ? 1 : hc);
  ThreadPool::TaskGroup group(pool);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) group.submit([&] { count++; });
  group.wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, NestedParallelForInsideAJobCompletes) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  pool.parallel_for(
      6,
      [&](std::size_t) {
        pool.parallel_for(50, [&](std::size_t) { count++; }, 1);
      },
      1);
  EXPECT_EQ(count.load(), 300);
}

}  // namespace
}  // namespace orv
