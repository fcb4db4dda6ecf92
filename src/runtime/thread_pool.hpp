#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace aic::runtime {

/// Point-in-time counters of a ThreadPool (see ThreadPool::stats()).
struct ThreadPoolStats {
  /// Tasks that ran on a worker thread. A fanned-out `parallel_for`
  /// adds one per helper it posts, not one per chunk.
  std::uint64_t tasks_executed = 0;
  /// Re-entrant submits that ran inline on the calling worker instead of
  /// being queued (see ThreadPool::submit).
  std::uint64_t tasks_inlined = 0;
  /// High-water mark of the task queue since construction / reset_stats().
  std::uint64_t peak_queue_depth = 0;
};

/// A fixed-size worker pool with a single FIFO task queue.
///
/// The pool is the execution backend for `parallel_for` and for the
/// accelerator simulators' host-side math. Tasks are arbitrary
/// `void()` callables; `submit` additionally returns a future for
/// callables with a result. `parallel_for` uses neither futures nor one
/// task per chunk: it `post`s at most one helper per worker, and the
/// helpers and the calling thread claim chunks from one shared cursor.
///
/// Re-entry safety: a `submit` issued from one of the pool's own worker
/// threads runs inline on that worker instead of being queued. Queueing
/// would let every worker block on futures only the same pool can
/// serve — a guaranteed deadlock at size 1 and oversubscription above it.
///
/// Threads are joined in the destructor (RAII); submitting after
/// `shutdown()` throws.
class ThreadPool {
 public:
  /// Creates `num_threads` workers. `num_threads == 0` picks
  /// `std::thread::hardware_concurrency()` (at least 1).
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads.
  std::size_t size() const noexcept { return workers_.size(); }

  /// True when the calling thread is one of *this* pool's workers.
  bool in_worker_thread() const noexcept;

  /// Enqueues a fire-and-forget task.
  void post(std::function<void()> task);

  /// Enqueues a task and returns a future for its result. Called from a
  /// worker of this pool, the task runs inline on the caller and the
  /// returned future is already ready (re-entry guard, see class docs).
  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto packaged =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> result = packaged->get_future();
    if (in_worker_thread()) {
      tasks_inlined_.fetch_add(1, std::memory_order_relaxed);
      (*packaged)();
      return result;
    }
    post([packaged]() { (*packaged)(); });
    return result;
  }

  /// Blocks until every queued and running task has finished.
  void wait_idle();

  /// Stops accepting tasks and joins workers after draining the queue.
  void shutdown();

  /// Cumulative execution counters (thread-safe).
  ThreadPoolStats stats() const;

  /// Zeroes the counters returned by stats().
  void reset_stats();

  // There are intentionally no process-wide accessors or resizers here.
  // The process-default pool is owned by aic::Context (runtime/context.cpp):
  // reach it via Context::process_default().pool(), bind a session pool
  // with Context::PoolScope, and resize with Context::set_process_threads
  // — which rejects the resize while anyone holds the pool instead of
  // racing in-flight submitters.

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  mutable std::mutex mutex_;
  std::condition_variable task_available_;
  std::condition_variable idle_;
  std::size_t in_flight_ = 0;
  bool stopping_ = false;
  // tasks_executed_ / peak_queue_depth_ are guarded by mutex_;
  // tasks_inlined_ is atomic because inline submits bypass the lock.
  std::uint64_t tasks_executed_ = 0;
  std::uint64_t peak_queue_depth_ = 0;
  std::atomic<std::uint64_t> tasks_inlined_{0};
};

}  // namespace aic::runtime
