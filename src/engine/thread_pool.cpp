#include "engine/thread_pool.hpp"

#include <algorithm>
#include <utility>

namespace cpsinw::engine {

int ThreadPool::hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

ThreadPool::ThreadPool(int threads) {
  const int n = threads > 0 ? threads : hardware_threads();
  queues_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    queues_.push_back(std::make_unique<WorkerQueue>());
  threads_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    threads_.emplace_back(
        [this, i] { worker_loop(static_cast<std::size_t>(i)); });
}

ThreadPool::~ThreadPool() {
  wait_idle();
  {
    std::lock_guard<std::mutex> lock(wake_mutex_);
    stop_ = true;
  }
  wake_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::submit(Task task) {
  const std::size_t slot =
      next_queue_.fetch_add(1, std::memory_order_relaxed) % queues_.size();
  // Count before publishing: a nested submit's task can be popped and
  // finished the moment it lands in a deque, and its -- must never see the
  // counters pre-increment (underflow, premature wait_idle return).  A
  // worker waking between the increment and the push just re-scans.
  {
    std::lock_guard<std::mutex> lock(wake_mutex_);
    ++queued_;
    ++pending_;
  }
  {
    std::lock_guard<std::mutex> lock(queues_[slot]->mutex);
    queues_[slot]->tasks.push_back(std::move(task));
  }
  wake_cv_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(wake_mutex_);
  idle_cv_.wait(lock, [this] { return pending_ == 0; });
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  // Helpers hold the state by shared_ptr: one that starts after this call
  // has returned finds the counter exhausted and never reaches `body`.
  struct State {
    std::size_t n = 0;
    const std::function<void(std::size_t)>* body = nullptr;
    std::atomic<std::size_t> next{0};
    std::mutex mutex;
    std::condition_variable done_cv;
    std::size_t done = 0;
    std::size_t error_index = 0;
    std::exception_ptr error;
  };
  const auto state = std::make_shared<State>();
  state->n = n;
  state->body = &body;
  const auto drain = [](State& s) {
    for (;;) {
      const std::size_t i = s.next.fetch_add(1);
      if (i >= s.n) return;
      std::exception_ptr error;
      try {
        (*s.body)(i);
      } catch (...) {
        error = std::current_exception();
      }
      std::lock_guard<std::mutex> lock(s.mutex);
      if (error && (!s.error || i < s.error_index)) {
        s.error = std::move(error);
        s.error_index = i;
      }
      if (++s.done == s.n) s.done_cv.notify_all();
    }
  };
  const std::size_t helpers =
      std::min(static_cast<std::size_t>(thread_count() - 1), n - 1);
  for (std::size_t h = 0; h < helpers; ++h)
    submit([state, drain] { drain(*state); });
  drain(*state);
  // Every index is claimed by now, each by a thread that is running it.
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(state->mutex);
    state->done_cv.wait(lock, [&] { return state->done == n; });
    // Taken out of the state, so a late helper that drops the state last
    // never releases the exception this thread is handling.
    error = std::move(state->error);
  }
  if (error) std::rethrow_exception(error);
}

std::exception_ptr ThreadPool::first_exception() {
  std::lock_guard<std::mutex> lock(wake_mutex_);
  return first_exception_;
}

bool ThreadPool::try_pop_local(std::size_t index, Task& out) {
  WorkerQueue& q = *queues_[index];
  std::lock_guard<std::mutex> lock(q.mutex);
  if (q.tasks.empty()) return false;
  out = std::move(q.tasks.back());
  q.tasks.pop_back();
  return true;
}

bool ThreadPool::try_steal(std::size_t thief, Task& out) {
  const std::size_t n = queues_.size();
  for (std::size_t k = 1; k < n; ++k) {
    WorkerQueue& q = *queues_[(thief + k) % n];
    std::lock_guard<std::mutex> lock(q.mutex);
    if (q.tasks.empty()) continue;
    out = std::move(q.tasks.front());
    q.tasks.pop_front();
    return true;
  }
  return false;
}

void ThreadPool::worker_loop(std::size_t index) {
  for (;;) {
    Task task;
    if (try_pop_local(index, task) || try_steal(index, task)) {
      {
        std::lock_guard<std::mutex> lock(wake_mutex_);
        --queued_;
      }
      try {
        task();
      } catch (...) {
        std::lock_guard<std::mutex> lock(wake_mutex_);
        if (!first_exception_) first_exception_ = std::current_exception();
      }
      bool idle = false;
      {
        std::lock_guard<std::mutex> lock(wake_mutex_);
        idle = (--pending_ == 0);
      }
      if (idle) idle_cv_.notify_all();
      continue;
    }
    std::unique_lock<std::mutex> lock(wake_mutex_);
    wake_cv_.wait(lock, [this] { return stop_ || queued_ > 0; });
    if (stop_ && queued_ == 0) return;
  }
}

}  // namespace cpsinw::engine
