#include "runtime/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <latch>
#include <stdexcept>
#include <thread>

#include "runtime/context.hpp"

namespace aic::runtime {
namespace {

TEST(ThreadPool, RunsPostedTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  std::latch done(100);
  for (int i = 0; i < 100; ++i) {
    pool.post([&] {
      counter.fetch_add(1, std::memory_order_relaxed);
      done.count_down();
    });
  }
  done.wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, SizeMatchesRequest) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPool, DefaultSizeIsAtLeastOne) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, PostAfterShutdownThrows) {
  ThreadPool pool(1);
  pool.shutdown();
  EXPECT_THROW(pool.post([] {}), std::runtime_error);
}

TEST(ThreadPool, ShutdownDrainsQueue) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 50; ++i) {
      pool.post([&counter] { counter.fetch_add(1); });
    }
    // Destructor performs shutdown and must run the entire queue.
  }
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, ManyConcurrentSubmitters) {
  // Four threads post at once; every task runs exactly once.
  ThreadPool pool(4);
  std::atomic<long long> total{0};
  std::latch done(200);
  std::thread posters[4];
  for (int t = 0; t < 4; ++t) {
    posters[t] = std::thread([&, t] {
      for (int i = t; i < 200; i += 4) {
        pool.post([&, i] {
          total.fetch_add(i, std::memory_order_relaxed);
          done.count_down();
        });
      }
    });
  }
  for (std::thread& poster : posters) poster.join();
  done.wait();
  EXPECT_EQ(total.load(), 199 * 200 / 2);
}

TEST(ThreadPool, ProcessPoolIsStableAcrossDefaultContexts) {
  // The process-wide pool is reached through Context now; every
  // process-default context observes the same instance.
  EXPECT_EQ(&Context::process_default().pool(),
            &Context::process_default().pool());
  EXPECT_GE(Context::process_default().pool().size(), 1u);
}

TEST(ThreadPool, InWorkerThreadDetection) {
  ThreadPool pool(2);
  EXPECT_FALSE(pool.in_worker_thread());
  bool inside = false;
  std::latch done(1);
  pool.post([&] {
    inside = pool.in_worker_thread();
    done.count_down();
  });
  done.wait();
  EXPECT_TRUE(inside);
}

TEST(ThreadPool, WorkerOfOtherPoolIsNotDetected) {
  ThreadPool a(1);
  ThreadPool b(1);
  bool from_b = true;
  std::latch done(1);
  b.post([&] {
    from_b = a.in_worker_thread();
    done.count_down();
  });
  done.wait();
  EXPECT_FALSE(from_b);
}

TEST(ThreadPool, ReentrantSubmitRunsInlineOnSizeOnePool) {
  // The only worker posts a task and waits on its latch. Queued, the task
  // would sit behind the very worker that waits for it: a deadlock.
  ThreadPool pool(1);
  int result = 0;
  std::latch done(1);
  pool.post([&] {
    int inner = 0;
    std::latch inner_done(1);
    pool.post([&] {
      inner = 21;
      inner_done.count_down();
    });
    inner_done.wait();
    result = 2 * inner;
    done.count_down();
  });
  done.wait();
  EXPECT_EQ(result, 42);
}

TEST(ThreadPool, PostFromOnlyWorkerRunsInline) {
  // The re-entry guard runs a post from the pool's own worker on that
  // worker, before post returns, and counts it as inlined.
  ThreadPool pool(1);
  std::thread::id outer_id;
  std::thread::id inner_id;
  bool ran_before_return = false;
  std::latch done(1);
  pool.post([&] {
    outer_id = std::this_thread::get_id();
    bool ran = false;
    pool.post([&] {
      inner_id = std::this_thread::get_id();
      ran = true;
    });
    ran_before_return = ran;
    done.count_down();
  });
  done.wait();
  EXPECT_TRUE(ran_before_return);
  EXPECT_EQ(inner_id, outer_id);
  const ThreadPoolStats stats = pool.stats();
  EXPECT_EQ(stats.tasks_executed, 1u);
  EXPECT_EQ(stats.tasks_inlined, 1u);
}

TEST(ThreadPool, ReentrantSubmitNestsDeeply) {
  ThreadPool pool(1);
  std::function<int(int)> countdown = [&](int depth) -> int {
    if (depth == 0) return 0;
    int inner = -1;
    pool.post([&, depth] { inner = countdown(depth - 1); });
    return 1 + inner;
  };
  int result = 0;
  std::latch done(1);
  pool.post([&] {
    result = countdown(16);
    done.count_down();
  });
  done.wait();
  EXPECT_EQ(result, 16);
  EXPECT_EQ(pool.stats().tasks_inlined, 16u);
}

TEST(ThreadPool, StatsCountExecutedAndInlinedTasks) {
  ThreadPool pool(2);
  for (int i = 0; i < 10; ++i) {
    std::latch done(1);
    pool.post([&] { done.count_down(); });
    done.wait();
  }
  std::latch nested(1);
  pool.post([&] {
    pool.post([] {});
    nested.count_down();
  });
  nested.wait();
  const ThreadPoolStats stats = pool.stats();
  EXPECT_EQ(stats.tasks_executed, 11u);
  EXPECT_EQ(stats.tasks_inlined, 1u);
  EXPECT_GE(stats.peak_queue_depth, 1u);
}

TEST(ThreadPool, ResetStatsZeroesCounters) {
  ThreadPool pool(1);
  std::latch done(1);
  pool.post([&] {
    pool.post([] {});
    done.count_down();
  });
  done.wait();
  EXPECT_EQ(pool.stats().tasks_executed, 1u);
  EXPECT_EQ(pool.stats().tasks_inlined, 1u);
  pool.reset_stats();
  const ThreadPoolStats stats = pool.stats();
  EXPECT_EQ(stats.tasks_executed, 0u);
  EXPECT_EQ(stats.tasks_inlined, 0u);
  EXPECT_EQ(stats.peak_queue_depth, 0u);
}

}  // namespace
}  // namespace aic::runtime
