#include "runtime/thread_pool.hpp"

#include <cassert>
#include <utility>

namespace pmcast::runtime {
namespace {

/// Which pool (and which worker slot) the current thread belongs to, so
/// submit() from inside a task lands on the caller's own deque.
thread_local const ThreadPool* t_pool = nullptr;
thread_local std::size_t t_index = 0;

}  // namespace

ThreadPool::ThreadPool(int threads) {
  assert(threads >= 0);
  queues_.reserve(static_cast<std::size_t>(threads));
  for (int i = 0; i < threads; ++i) {
    queues_.push_back(std::make_unique<Queue>());
  }
  workers_.reserve(static_cast<std::size_t>(threads));
  for (int i = 0; i < threads; ++i) {
    workers_.emplace_back(
        [this, i] { worker_loop(static_cast<std::size_t>(i)); });
  }
}

ThreadPool::~ThreadPool() {
  {
    // The lock pairs the flag flip with the workers' predicate check so no
    // worker can test the predicate and then sleep past the notify.
    std::lock_guard<std::mutex> lock(sleep_mutex_);
    stopping_.store(true, std::memory_order_relaxed);
  }
  sleep_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  if (queues_.empty()) {
    task();  // no workers: degenerate inline mode
    return;
  }
  std::size_t slot;
  if (t_pool == this) {
    slot = t_index;  // worker self-submission: keep it local (LIFO reuse)
  } else {
    slot = next_queue_.fetch_add(1, std::memory_order_relaxed) %
           queues_.size();
  }
  in_flight_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(queues_[slot]->mutex);
    queues_[slot]->tasks.push_back(std::move(task));
  }
  queued_.fetch_add(1, std::memory_order_release);
  {
    // Empty critical section: a worker between its failed try_pop and its
    // predicate check holds sleep_mutex_, so taking it here guarantees the
    // notify cannot land in that window and get lost.
    std::lock_guard<std::mutex> lock(sleep_mutex_);
  }
  sleep_cv_.notify_one();
}

std::size_t ThreadPool::pending() const {
  return in_flight_.load(std::memory_order_relaxed);
}

bool ThreadPool::try_pop(std::size_t self, std::function<void()>& task) {
  // Own deque, newest first.
  {
    Queue& q = *queues_[self];
    std::lock_guard<std::mutex> lock(q.mutex);
    if (!q.tasks.empty()) {
      task = std::move(q.tasks.back());
      q.tasks.pop_back();
      queued_.fetch_sub(1, std::memory_order_relaxed);
      return true;
    }
  }
  // Steal oldest task from the first non-empty victim.
  for (std::size_t i = 1; i < queues_.size(); ++i) {
    Queue& q = *queues_[(self + i) % queues_.size()];
    std::lock_guard<std::mutex> lock(q.mutex);
    if (!q.tasks.empty()) {
      task = std::move(q.tasks.front());
      q.tasks.pop_front();
      queued_.fetch_sub(1, std::memory_order_relaxed);
      return true;
    }
  }
  return false;
}

void ThreadPool::worker_loop(std::size_t self) {
  t_pool = this;
  t_index = self;
  std::function<void()> task;
  while (true) {
    if (try_pop(self, task)) {
      task();
      task = nullptr;  // release captures before sleeping
      if (in_flight_.fetch_sub(1, std::memory_order_acq_rel) == 1 &&
          stopping_.load(std::memory_order_relaxed)) {
        // Last task during shutdown: wake the workers parked on the
        // drain predicate below.
        { std::lock_guard<std::mutex> lock(sleep_mutex_); }
        sleep_cv_.notify_all();
      }
      continue;
    }
    std::unique_lock<std::mutex> lock(sleep_mutex_);
    sleep_cv_.wait(lock, [&] {
      // Wake for queued work, or to exit once stopping *and* drained
      // (pending tasks still run to completion — nothing is dropped).
      return queued_.load(std::memory_order_acquire) > 0 ||
             (stopping_.load(std::memory_order_relaxed) && pending() == 0);
    });
    if (stopping_.load(std::memory_order_relaxed) && pending() == 0) return;
  }
}

}  // namespace pmcast::runtime
