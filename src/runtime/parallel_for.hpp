#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

namespace aic::runtime {

/// Grain-size policy for `parallel_for`.
struct ParallelOptions {
  /// Minimum number of iterations per chunk; ranges smaller than this run
  /// inline on the calling thread.
  std::size_t grain = 1024;
};

/// Process-wide counters describing how `parallel_for` partitioned its
/// most recent ranges (see parallel_for_stats()). Split decisions are
/// otherwise invisible, which made grain regressions (N tasks for 2
/// chunks of work) impossible to assert on.
struct ParallelForStats {
  /// Ranges executed inline on the caller (small range, size-1 pool, or
  /// re-entrant call from a pool task or a parallel_for chunk).
  std::uint64_t inline_runs = 0;
  /// Ranges fanned out over the caller and pool helpers.
  std::uint64_t parallel_runs = 0;
  /// Iterations, chosen chunk size, and chunk count of the most recent
  /// fanned-out range.
  std::uint64_t last_total = 0;
  std::uint64_t last_chunk = 0;
  std::uint64_t last_tasks = 0;
};

/// Snapshot of the partitioning counters (thread-safe, relaxed reads).
ParallelForStats parallel_for_stats();

/// Zeroes the partitioning counters.
void reset_parallel_for_stats();

/// Runs `body(i)` for every i in [begin, end) across the current thread
/// pool, splitting the range into contiguous chunks.
///
/// The caller runs chunks too: it and up to `chunks - 1` pool helpers
/// claim chunks from one cursor, and the call returns once every chunk
/// has run. A call from inside a chunk or a pool task runs inline.
/// Every chunk runs even when one throws; the exception of the lowest
/// failing chunk is then rethrown on the calling thread.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body,
                  ParallelOptions options = {});

/// Chunked variant: `body(chunk_begin, chunk_end)` is invoked once per
/// contiguous chunk, which avoids per-iteration call overhead in kernels.
void parallel_for_chunks(std::size_t begin, std::size_t end,
                         const std::function<void(std::size_t, std::size_t)>& body,
                         ParallelOptions options = {});

}  // namespace aic::runtime
