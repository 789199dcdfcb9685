#include "engine/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace cpsinw::engine {
namespace {

TEST(ThreadPool, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 1000; ++i)
    pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 1000);
}

TEST(ThreadPool, WaitIdleWithNoWorkReturnsImmediately) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
  SUCCEED();
}

TEST(ThreadPool, ZeroSelectsHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.thread_count(), 1);
  EXPECT_EQ(pool.thread_count(), ThreadPool::hardware_threads());
}

TEST(ThreadPool, SingleThreadPoolStillDrains) {
  ThreadPool pool(1);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i)
    pool.submit([&count] { ++count; });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, TasksMaySubmitMoreTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 16; ++i) {
    pool.submit([&pool, &count] {
      ++count;
      for (int k = 0; k < 4; ++k)
        pool.submit([&count] { ++count; });
    });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 16 + 16 * 4);
}

TEST(ThreadPool, StealingDrainsUnbalancedWork) {
  // More tasks than threads with wildly uneven durations: completion of
  // everything (without wait_idle hanging) exercises the steal path.
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 64; ++i) {
    pool.submit([&count, i] {
      if (i % 8 == 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      ++count;
    });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPool, DestructorFinishesOutstandingWork) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 200; ++i)
      pool.submit([&count] { ++count; });
    // No wait_idle: teardown must drain before joining.
  }
  EXPECT_EQ(count.load(), 200);
}

TEST(ThreadPool, FirstEscapedExceptionIsCapturedNotSwallowed) {
  ThreadPool pool(2);
  EXPECT_EQ(pool.first_exception(), nullptr);
  std::atomic<int> count{0};
  for (int i = 0; i < 50; ++i)
    pool.submit([&count, i] {
      if (i == 25) throw std::runtime_error("task 25 failed");
      ++count;
    });
  pool.wait_idle();
  // The throwing task did not kill its worker or lose other tasks...
  EXPECT_EQ(count.load(), 49);
  // ...and its exception is retrievable instead of silently dropped.
  const std::exception_ptr err = pool.first_exception();
  ASSERT_NE(err, nullptr);
  try {
    std::rethrow_exception(err);
    FAIL() << "expected a runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 25 failed");
  }

  // The pool stays usable and the captured exception stays sticky.
  pool.submit([&count] { ++count; });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 50);
  EXPECT_NE(pool.first_exception(), nullptr);
}

TEST(ThreadPool, ReusableAcrossWaves) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  for (int wave = 0; wave < 5; ++wave) {
    for (int i = 0; i < 50; ++i)
      pool.submit([&count] { ++count; });
    pool.wait_idle();
    EXPECT_EQ(count.load(), (wave + 1) * 50);
  }
}

/// Runs parallel_for(n) on `pool` and returns how often each index ran.
std::vector<int> run_counts(ThreadPool& pool, std::size_t n) {
  std::vector<std::atomic<int>> hits(n);
  pool.parallel_for(n, [&hits](std::size_t i) { ++hits[i]; });
  std::vector<int> out;
  for (const std::atomic<int>& h : hits) out.push_back(h.load());
  return out;
}

TEST(ThreadPoolParallelFor, RunsEveryIndexExactlyOnce) {
  for (const int threads : {1, 2, 4}) {
    ThreadPool pool(threads);
    for (const std::size_t n : {std::size_t{0}, std::size_t{1},
                                std::size_t{3}, std::size_t{1000}}) {
      SCOPED_TRACE(testing::Message() << threads << " threads, n " << n);
      EXPECT_EQ(run_counts(pool, n), std::vector<int>(n, 1));
      // The same from inside a pool task.
      std::vector<int> from_task;
      pool.submit([&] { from_task = run_counts(pool, n); });
      pool.wait_idle();
      EXPECT_EQ(from_task, std::vector<int>(n, 1));
    }
    EXPECT_EQ(pool.first_exception(), nullptr);
  }
}

TEST(ThreadPoolParallelFor, ReturnsWhenCalledFromTheOnlyWorker) {
  // The one worker runs the task, so no helper can ever start: the caller
  // must run every index itself instead of waiting for one.
  ThreadPool pool(1);
  std::atomic<int> count{0};
  pool.submit([&] {
    pool.parallel_for(100, [&count](std::size_t) { ++count; });
  });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolParallelFor, ConcurrentAndNestedCallsFinish) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int t = 0; t < 2; ++t)
    pool.submit([&] {
      pool.parallel_for(500, [&count](std::size_t) { ++count; });
    });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 1000);

  std::atomic<int> nested{0};
  pool.parallel_for(8, [&](std::size_t) {
    pool.parallel_for(8, [&nested](std::size_t) { ++nested; });
  });
  EXPECT_EQ(nested.load(), 64);
}

TEST(ThreadPoolParallelFor, RethrowsTheLowestFailingIndex) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  try {
    pool.parallel_for(hits.size(), [&hits](std::size_t i) {
      ++hits[i];
      // Index 3 fails late, so on several threads index 7 most likely
      // fails first on the wall clock: the choice must not follow it.
      if (i == 3) std::this_thread::sleep_for(std::chrono::milliseconds(20));
      if (i == 7 || i == 3)
        throw std::runtime_error("index " + std::to_string(i));
    });
    FAIL() << "expected a runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "index 3");
  }
  // Every other index still ran, once.
  for (std::size_t i = 0; i < hits.size(); ++i)
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  // The failure belonged to the call, not to the pool, which keeps working.
  EXPECT_EQ(pool.first_exception(), nullptr);
  std::atomic<int> count{0};
  pool.submit([&count] { ++count; });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 1);
  EXPECT_EQ(pool.first_exception(), nullptr);
}

}  // namespace
}  // namespace cpsinw::engine
