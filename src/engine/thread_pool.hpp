// Work-stealing thread pool for fault-campaign shards.  Each worker owns a
// deque: it pushes/pops its own work LIFO (cache-warm) and steals FIFO from
// victims (oldest, largest-granularity work first).  The pool guarantees
// nothing about execution order — campaign determinism comes from the
// shard decomposition and the merge order, never from scheduling.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace cpsinw::engine {

class ThreadPool {
 public:
  using Task = std::function<void()>;

  /// @param threads worker count; 0 selects the hardware concurrency
  explicit ThreadPool(int threads);

  /// Drains nothing: outstanding tasks are finished before teardown.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task (round-robin across worker deques).  Thread-safe;
  /// tasks may themselves submit.  An exception escaping a task does not
  /// kill the worker: the first one is captured and exposed through
  /// first_exception() (the rest are dropped) — run_campaign surfaces it
  /// on the campaign report's error slot.
  void submit(Task task);

  /// Blocks until every submitted task has finished executing.  A task
  /// must never call it: the calling task keeps the pool busy, so the wait
  /// never ends.  A task fans out with parallel_for instead.
  void wait_idle();

  /// Runs body(i) once for every i in [0, n) and returns when all have
  /// finished.  The caller and up to thread_count() - 1 helper tasks claim
  /// indices from one shared counter; the caller waits only for indices a
  /// running thread has claimed, never for a helper that has not started,
  /// so the call is safe from inside a task (even on a one-thread pool,
  /// where the caller runs every index) and may nest.  Every index runs
  /// even when some throw; the exception of the lowest failing index is
  /// then rethrown (first_exception() is not touched).
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t)>& body);

  /// The first exception that escaped a task, or nullptr when every task
  /// returned cleanly.  Sticky for the pool's lifetime; read it after
  /// wait_idle() for a complete answer.
  [[nodiscard]] std::exception_ptr first_exception();

  [[nodiscard]] int thread_count() const {
    return static_cast<int>(threads_.size());
  }

  /// Detected hardware concurrency (>= 1).
  [[nodiscard]] static int hardware_threads();

 private:
  struct WorkerQueue {
    std::mutex mutex;
    std::deque<Task> tasks;
  };

  void worker_loop(std::size_t index);
  [[nodiscard]] bool try_pop_local(std::size_t index, Task& out);
  [[nodiscard]] bool try_steal(std::size_t thief, Task& out);

  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> threads_;

  std::mutex wake_mutex_;
  std::condition_variable wake_cv_;  ///< workers sleep here
  std::condition_variable idle_cv_;  ///< wait_idle sleeps here
  std::size_t queued_ = 0;           ///< tasks sitting in deques
  std::size_t pending_ = 0;          ///< queued + executing
  std::exception_ptr first_exception_;  ///< first escaped task exception
  bool stop_ = false;
  std::atomic<std::size_t> next_queue_{0};
};

}  // namespace cpsinw::engine
