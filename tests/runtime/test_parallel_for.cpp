#include "runtime/parallel_for.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <latch>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "runtime/context.hpp"
#include "runtime/env.hpp"
#include "runtime/thread_pool.hpp"

namespace aic::runtime {
namespace {

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  constexpr std::size_t kN = 10'000;
  std::vector<std::atomic<int>> hits(kN);
  parallel_for(0, kN, [&](std::size_t i) { hits[i].fetch_add(1); },
               {.grain = 128});
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelFor, EmptyRangeDoesNothing) {
  std::atomic<int> calls{0};
  parallel_for(5, 5, [&](std::size_t) { calls.fetch_add(1); });
  parallel_for(7, 3, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelFor, NonZeroBeginRespected) {
  std::atomic<long long> total{0};
  parallel_for(100, 200, [&](std::size_t i) { total.fetch_add(static_cast<long long>(i)); },
               {.grain = 8});
  long long expected = 0;
  for (std::size_t i = 100; i < 200; ++i) expected += static_cast<long long>(i);
  EXPECT_EQ(total.load(), expected);
}

TEST(ParallelFor, SmallRangeRunsInline) {
  // A range under the grain must execute on the calling thread.
  const auto caller = std::this_thread::get_id();
  std::atomic<bool> same_thread{true};
  parallel_for(0, 4,
               [&](std::size_t) {
                 if (std::this_thread::get_id() != caller) same_thread = false;
               },
               {.grain = 1024});
  EXPECT_TRUE(same_thread.load());
}

TEST(ParallelFor, PropagatesBodyException) {
  EXPECT_THROW(
      parallel_for(0, 10'000,
                   [](std::size_t i) {
                     if (i == 4321) throw std::runtime_error("bad index");
                   },
                   {.grain = 16}),
      std::runtime_error);
}

TEST(ParallelForChunks, ChunksPartitionRange) {
  constexpr std::size_t kN = 4096;
  std::vector<std::atomic<int>> hits(kN);
  parallel_for_chunks(
      0, kN,
      [&](std::size_t lo, std::size_t hi) {
        ASSERT_LT(lo, hi);
        for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
      },
      {.grain = 64});
  for (std::size_t i = 0; i < kN; ++i) ASSERT_EQ(hits[i].load(), 1);
}

TEST(ParallelForNested, InnerLoopInsideOuterLoopCompletes) {
  // Regression for the sandwich hot-path bug: an outer parallel_for whose
  // body issues another parallel_for re-enters the global pool. Before the
  // inline-degrade guard, every worker could end up blocked on futures
  // only the same pool could serve (deadlock at AIC_THREADS=1 without
  // the size-1 short-circuit, oversubscription above it). The CMake-level
  // test_runtime_nested_pool{1,4} entries rerun this with pinned pool
  // sizes and a timeout.
  constexpr std::size_t kOuter = 64;
  constexpr std::size_t kInner = 256;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  parallel_for(
      0, kOuter,
      [&](std::size_t i) {
        parallel_for(
            0, kInner,
            [&](std::size_t j) { hits[i * kInner + j].fetch_add(1); },
            {.grain = 16});
      },
      {.grain = 1});
  for (std::size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForNested, TripleNestingCompletes) {
  std::atomic<long long> total{0};
  parallel_for(0, 8, [&](std::size_t) {
    parallel_for(0, 8, [&](std::size_t) {
      parallel_for(
          0, 64, [&](std::size_t k) { total.fetch_add(static_cast<long long>(k)); },
          {.grain = 4});
    }, {.grain = 1});
  }, {.grain = 1});
  EXPECT_EQ(total.load(), 8 * 8 * (63 * 64 / 2));
}

TEST(ParallelForNested, ExceptionFromInnerLoopPropagates) {
  EXPECT_THROW(
      parallel_for(
          0, 16,
          [&](std::size_t i) {
            parallel_for(
                0, 64,
                [&](std::size_t j) {
                  if (i == 7 && j == 13) throw std::runtime_error("inner");
                },
                {.grain = 4});
          },
          {.grain = 1}),
      std::runtime_error);
}

/// Pins the process pool to a known size for stats assertions and
/// restores the environment-configured size on scope exit, so the
/// env-pinned nested_pool{1,4} reruns keep their configuration.
struct PinnedPool {
  explicit PinnedPool(std::size_t size) {
    Context::set_process_threads(size);
  }
  ~PinnedPool() {
    Context::set_process_threads(Context::resolve_thread_count(0));
  }
};

TEST(ParallelForStatsCounters, SmallRangeCountsAsInlineRun) {
  PinnedPool pin(4);
  reset_parallel_for_stats();
  parallel_for(0, 4, [](std::size_t) {}, {.grain = 1024});
  const ParallelForStats stats = parallel_for_stats();
  EXPECT_EQ(stats.inline_runs, 1u);
  EXPECT_EQ(stats.parallel_runs, 0u);
}

TEST(ParallelForStatsCounters, GrainHeuristicExposedInStats) {
  PinnedPool pin(4);

  // 2 grain-units of work on a 4-worker pool: exactly 2 equal tasks, not
  // one idle task per worker.
  reset_parallel_for_stats();
  std::atomic<int> count{0};
  const auto body = [&](std::size_t) { count.fetch_add(1, std::memory_order_relaxed); };
  parallel_for(0, 64, body, {.grain = 32});
  ParallelForStats stats = parallel_for_stats();
  EXPECT_EQ(stats.parallel_runs, 1u);
  EXPECT_EQ(stats.last_total, 64u);
  EXPECT_EQ(stats.last_tasks, 2u);
  EXPECT_EQ(stats.last_chunk, 32u);

  // Mid-size range (8 grain-units, under 4x the pool): one grain-sized
  // chunk per unit, so the caller and every helper get a share.
  parallel_for(0, 256, body, {.grain = 32});
  stats = parallel_for_stats();
  EXPECT_EQ(stats.last_tasks, 8u);
  EXPECT_EQ(stats.last_chunk, 32u);

  // Ample work (64 grain-units): 4x oversubscription kicks in.
  parallel_for(0, 2048, body, {.grain = 32});
  stats = parallel_for_stats();
  EXPECT_EQ(stats.last_tasks, 16u);
  EXPECT_EQ(stats.last_chunk, 128u);
  EXPECT_EQ(stats.parallel_runs, 3u);
  EXPECT_EQ(count.load(), 64 + 256 + 2048);
}

TEST(ParallelForStatsCounters, FourGrainUnitsOnTwoWorkersGetFourChunks) {
  // The loader's decode shape: 4 grain units on a 2-worker pool get 4
  // grain-sized chunks, so the caller and both helpers each get work.
  PinnedPool pin(2);
  reset_parallel_for_stats();
  std::atomic<int> count{0};
  parallel_for(
      0, 4, [&](std::size_t) { count.fetch_add(1, std::memory_order_relaxed); },
      {.grain = 1});
  const ParallelForStats stats = parallel_for_stats();
  EXPECT_EQ(stats.parallel_runs, 1u);
  EXPECT_EQ(stats.last_tasks, 4u);
  EXPECT_EQ(stats.last_chunk, 1u);
  EXPECT_EQ(count.load(), 4);
}

TEST(ParallelForNested, ReentrantCallFromWorkerInlinesAndIsCounted) {
  // A pool task that itself calls parallel_for must degrade to inline
  // execution on its worker — queueing sub-chunks behind itself is the
  // configuration that deadlocked at pool size 1. The stats counters make
  // the degrade observable instead of inferred from "it didn't hang".
  PinnedPool pin(4);
  reset_parallel_for_stats();
  std::atomic<int> count{0};
  std::latch done(1);
  Context::process_default().pool().post([&] {
    parallel_for(
        0, 4096,
        [&](std::size_t) { count.fetch_add(1, std::memory_order_relaxed); },
        {.grain = 1});
    done.count_down();
  });
  done.wait();
  EXPECT_EQ(count.load(), 4096);
  const ParallelForStats stats = parallel_for_stats();
  EXPECT_GE(stats.inline_runs, 1u);
  EXPECT_EQ(stats.parallel_runs, 0u);
}

/// A private pool of `threads` workers bound to this thread for the
/// scope's lifetime.
struct PrivatePool {
  explicit PrivatePool(std::size_t threads)
      : ctx(options(threads)), scope(ctx) {}
  static Context::Options options(std::size_t threads) {
    Context::Options out;
    out.threads = threads;
    return out;
  }
  Context ctx;
  Context::PoolScope scope;
};

/// Parks every worker of `pool` until release() (or a ~2 s timeout, so a
/// caller that waits on the workers fails its test instead of hanging).
class ParkedWorkers {
 public:
  explicit ParkedWorkers(ThreadPool& pool) : released_(release_.get_future()) {
    for (std::size_t w = 0; w < pool.size(); ++w) {
      pool.post([released = released_] {
        released.wait_for(std::chrono::seconds(2));
      });
    }
  }
  ~ParkedWorkers() { release(); }
  void release() {
    if (!done_) release_.set_value();
    done_ = true;
  }

 private:
  std::promise<void> release_;
  std::shared_future<void> released_;
  bool done_ = false;
};

TEST(ParallelFor, CallerFinishesWhileWorkersAreBusy) {
  // Both workers are parked, so every chunk must run on the caller, and
  // the call must return before the workers are released.
  PrivatePool pool(2);
  ParkedWorkers parked(pool.ctx.pool());
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran_on(8);
  reset_parallel_for_stats();
  parallel_for_chunks(
      0, 8,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          ran_on[i] = std::this_thread::get_id();
        }
      },
      {.grain = 1});
  EXPECT_EQ(parallel_for_stats().last_tasks, 8u);
  for (std::size_t i = 0; i < ran_on.size(); ++i) {
    EXPECT_EQ(ran_on[i], caller) << "chunk " << i;
  }
  parked.release();
}

TEST(ParallelFor, HelpersStartedLateFindNoWork) {
  // Each call's helpers queue behind a slow pool task, so most start
  // after the caller has run every chunk and returned. They must find no
  // chunk left and touch nothing of the finished call (ASan would flag a
  // read of `hits` after its scope).
  for (const std::size_t threads : {1, 2, 4}) {
    PrivatePool pool(threads);
    for (int call = 0; call < 32; ++call) {
      pool.ctx.pool().post(
          [] { std::this_thread::sleep_for(std::chrono::microseconds(300)); });
      std::vector<int> hits(512, 0);
      parallel_for_chunks(
          0, hits.size(),
          [&](std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i) ++hits[i];
          },
          {.grain = 16});
      for (std::size_t i = 0; i < hits.size(); ++i) {
        ASSERT_EQ(hits[i], 1) << "threads " << threads << " call " << call
                              << " index " << i;
      }
    }
  }
}

TEST(ParallelFor, LowestFailingChunkExceptionIsRethrown) {
  // Two chunks throw; every chunk still runs, and the caller sees the
  // exception of the lower-index chunk, though it throws later.
  PrivatePool pool(4);
  for (int rep = 0; rep < 20; ++rep) {
    std::atomic<int> ran{0};
    try {
      parallel_for_chunks(
          0, 16,
          [&](std::size_t lo, std::size_t) {
            ran.fetch_add(1);
            if (lo == 5) {
              std::this_thread::sleep_for(std::chrono::milliseconds(1));
            }
            if (lo == 5 || lo == 11) {
              throw std::runtime_error("chunk " + std::to_string(lo));
            }
          },
          {.grain = 1});
      FAIL() << "no exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "chunk 5");
    }
    EXPECT_EQ(ran.load(), 16);
  }
}

TEST(ParallelForNested, CallerChunkRunsNestedCallInline) {
  // With the workers parked, the caller runs every outer chunk; a nested
  // call from those chunks must run inline, as it does on a worker,
  // instead of fanning out on its own.
  PrivatePool pool(2);
  ParkedWorkers parked(pool.ctx.pool());
  std::atomic<int> count{0};
  reset_parallel_for_stats();
  parallel_for_chunks(
      0, 8,
      [&](std::size_t, std::size_t) {
        parallel_for(
            0, 4096,
            [&](std::size_t) { count.fetch_add(1, std::memory_order_relaxed); },
            {.grain = 1});
      },
      {.grain = 1});
  parked.release();
  EXPECT_EQ(count.load(), 8 * 4096);
  const ParallelForStats stats = parallel_for_stats();
  EXPECT_EQ(stats.parallel_runs, 1u);
  EXPECT_EQ(stats.inline_runs, 8u);
}

TEST(ParallelForChunks, GrainZeroIsTreatedAsOne) {
  std::atomic<int> count{0};
  parallel_for_chunks(
      0, 100,
      [&](std::size_t lo, std::size_t hi) {
        count.fetch_add(static_cast<int>(hi - lo));
      },
      {.grain = 0});
  EXPECT_EQ(count.load(), 100);
}

}  // namespace
}  // namespace aic::runtime
