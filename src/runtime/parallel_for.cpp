#include "runtime/parallel_for.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <latch>
#include <memory>
#include <mutex>

#include "runtime/context.hpp"
#include "runtime/thread_pool.hpp"

namespace aic::runtime {

namespace {

struct AtomicParallelForStats {
  std::atomic<std::uint64_t> inline_runs{0};
  std::atomic<std::uint64_t> parallel_runs{0};
  std::atomic<std::uint64_t> last_total{0};
  std::atomic<std::uint64_t> last_chunk{0};
  std::atomic<std::uint64_t> last_tasks{0};
};

AtomicParallelForStats& stats_slot() {
  static AtomicParallelForStats stats;
  return stats;
}

// Set while this thread runs a chunk of a fanned-out parallel_for.
thread_local bool tls_in_chunk = false;

// The one shared state of a fanned-out call, co-owned by the caller and
// its helpers.
class ForkJoin {
 public:
  ForkJoin(const std::function<void(std::size_t, std::size_t)>& body,
           std::size_t begin, std::size_t end, std::size_t chunk,
           std::size_t chunks)
      : body_(body), begin_(begin), end_(end), chunk_(chunk),
        chunks_(chunks), done_(static_cast<std::ptrdiff_t>(chunks)) {}

  /// Runs chunks until none is left unclaimed. A failing chunk's
  /// exception is kept if its index is the lowest so far; the other
  /// chunks still run.
  void run() {
    for (std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
         i < chunks_; i = next_.fetch_add(1, std::memory_order_relaxed)) {
      const std::size_t lo = begin_ + i * chunk_;
      tls_in_chunk = true;
      try {
        body_(lo, std::min(end_, lo + chunk_));
      } catch (...) {
        std::lock_guard lock(error_mutex_);
        if (i < error_index_) {
          error_index_ = i;
          error_ = std::current_exception();
        }
      }
      tls_in_chunk = false;
      done_.count_down();
    }
  }

  /// Blocks until every chunk has run.
  void wait() { done_.wait(); }

  /// The lowest failing chunk's exception, if any (call after wait()).
  std::exception_ptr take_error() {
    std::lock_guard lock(error_mutex_);
    return std::move(error_);
  }

 private:
  // Valid until the caller returns, which is after every claimed chunk.
  const std::function<void(std::size_t, std::size_t)>& body_;
  const std::size_t begin_, end_, chunk_, chunks_;
  std::atomic<std::size_t> next_{0};
  std::latch done_;
  std::mutex error_mutex_;
  std::size_t error_index_ = SIZE_MAX;
  std::exception_ptr error_;
};

}  // namespace

ParallelForStats parallel_for_stats() {
  const AtomicParallelForStats& s = stats_slot();
  ParallelForStats out;
  out.inline_runs = s.inline_runs.load(std::memory_order_relaxed);
  out.parallel_runs = s.parallel_runs.load(std::memory_order_relaxed);
  out.last_total = s.last_total.load(std::memory_order_relaxed);
  out.last_chunk = s.last_chunk.load(std::memory_order_relaxed);
  out.last_tasks = s.last_tasks.load(std::memory_order_relaxed);
  return out;
}

void reset_parallel_for_stats() {
  AtomicParallelForStats& s = stats_slot();
  s.inline_runs.store(0, std::memory_order_relaxed);
  s.parallel_runs.store(0, std::memory_order_relaxed);
  s.last_total.store(0, std::memory_order_relaxed);
  s.last_chunk.store(0, std::memory_order_relaxed);
  s.last_tasks.store(0, std::memory_order_relaxed);
}

void parallel_for_chunks(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& body,
    ParallelOptions options) {
  if (begin >= end) return;
  const std::size_t total = end - begin;
  // The transient shared_ptr also pins the pool across the fan-out, so a
  // concurrent Context::set_process_threads rejects instead of tearing
  // down a pool whose workers run our chunks.
  const std::shared_ptr<ThreadPool> pool_handle = current_pool();
  ThreadPool& pool = *pool_handle;
  const std::size_t grain = std::max<std::size_t>(options.grain, 1);

  // Re-entrant calls (a pool task or a chunk invoking parallel_for) run
  // inline: a worker waiting on chunks queued behind itself deadlocks at
  // pool size 1 and oversubscribes above it. A chunk the caller runs
  // counts as re-entrant too, so nested chunking does not depend on which
  // thread claimed the outer chunk.
  if (total <= grain || pool.size() == 1 || pool.in_worker_thread() ||
      tls_in_chunk) {
    stats_slot().inline_runs.fetch_add(1, std::memory_order_relaxed);
    body(begin, end);
    return;
  }

  // Chunk-count policy: one chunk per grain unit, capped at 4 per pool
  // worker. A chunk costs one cursor claim, not a task, so grain-sized
  // chunks give the caller and every helper a share of a range of few
  // grain units (a 4-chunk archive decode on 2 workers keeps all three
  // threads busy); the cap bounds the claims on ample ranges while still
  // balancing unevenly priced chunks.
  const std::size_t grain_tasks = (total + grain - 1) / grain;
  const std::size_t tasks = std::min(grain_tasks, 4 * pool.size());
  const std::size_t chunk = std::max(grain, (total + tasks - 1) / tasks);

  const std::size_t chunks = (total + chunk - 1) / chunk;
  {
    AtomicParallelForStats& s = stats_slot();
    s.parallel_runs.fetch_add(1, std::memory_order_relaxed);
    s.last_total.store(total, std::memory_order_relaxed);
    s.last_chunk.store(chunk, std::memory_order_relaxed);
    s.last_tasks.store(chunks, std::memory_order_relaxed);
  }

  // Fork-join: up to chunks - 1 helpers join the caller, and every
  // thread claims chunk indices from one cursor, so the chunk boundaries
  // are fixed but which thread runs a chunk is not. The caller waits only
  // for chunks already claimed; a helper a long pool task delayed finds
  // none left and exits, co-owning the state it touched.
  const auto job = std::make_shared<ForkJoin>(body, begin, end, chunk, chunks);
  const std::size_t helpers = std::min(pool.size(), chunks - 1);
  try {
    for (std::size_t h = 0; h < helpers; ++h) {
      pool.post([job] { job->run(); });
    }
  } catch (...) {
    // A pool that takes no more helpers (shut down) leaves the rest of
    // the chunks to the caller; unwinding here would leave posted
    // helpers running `body` after it is gone.
  }
  job->run();
  job->wait();
  // Moved out here, the exception_ptr's last reference drops on this
  // thread rather than on a helper still holding `job`: its refcount is
  // uninstrumented, so ThreadSanitizer would not see that order.
  if (std::exception_ptr error = job->take_error()) {
    std::rethrow_exception(error);
  }
}

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body,
                  ParallelOptions options) {
  parallel_for_chunks(
      begin, end,
      [&body](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) body(i);
      },
      options);
}

}  // namespace aic::runtime
