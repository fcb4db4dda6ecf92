#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace aic::runtime {

/// Point-in-time counters of a ThreadPool (see ThreadPool::stats()).
struct ThreadPoolStats {
  /// Tasks that ran on a worker thread. A fanned-out `parallel_for`
  /// adds one per helper it posts, not one per chunk.
  std::uint64_t tasks_executed = 0;
  /// Re-entrant posts that ran inline on the calling worker instead of
  /// being queued (see ThreadPool::post).
  std::uint64_t tasks_inlined = 0;
  /// High-water mark of the task queue since construction / reset_stats().
  std::uint64_t peak_queue_depth = 0;
};

/// A fixed-size worker pool with a single FIFO task queue.
///
/// The pool is the execution backend for `parallel_for` and the archive
/// pipeline. `post` is its one way to accept a task, an arbitrary
/// `void()` callable; a caller that needs the task's end waits on a
/// `std::latch` the task counts down, and a task's exception travels
/// back through an `std::exception_ptr` it stores. `parallel_for` posts
/// at most one helper per worker, and the helpers and the calling thread
/// claim chunks from one shared cursor.
///
/// Re-entry safety: a `post` issued from one of the pool's own worker
/// threads runs inline on that worker instead of being queued. Queueing
/// would let every worker block on latches only the same pool can
/// count down — a guaranteed deadlock at size 1 and oversubscription
/// above it.
///
/// Threads are joined in the destructor (RAII); posting after
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

  /// Enqueues a task. Called from a worker of this pool, the task runs
  /// inline on the caller before `post` returns (re-entry guard, see
  /// class docs). A task must not throw.
  void post(std::function<void()> task);

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
  // racing in-flight posters.

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  mutable std::mutex mutex_;
  std::condition_variable task_available_;
  bool stopping_ = false;
  // tasks_executed_ / peak_queue_depth_ are guarded by mutex_;
  // tasks_inlined_ is atomic because inline posts bypass the lock.
  std::uint64_t tasks_executed_ = 0;
  std::uint64_t peak_queue_depth_ = 0;
  std::atomic<std::uint64_t> tasks_inlined_{0};
};

}  // namespace aic::runtime
