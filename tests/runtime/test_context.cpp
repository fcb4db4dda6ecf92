#include "runtime/context.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cli/archive.hpp"
#include "core/dct_chop.hpp"
#include "core/plan_cache.hpp"
#include "obs/metrics.hpp"
#include "runtime/rng.hpp"
#include "runtime/thread_pool.hpp"
#include "tensor/tensor.hpp"

namespace aic {
namespace {

using tensor::Shape;
using tensor::Tensor;

Context session(Context::Options options = {}) { return Context(options); }

// --- process_default backward compatibility --------------------------------

TEST(Context, ProcessDefaultIsOneStableSession) {
  const Context a = Context::process_default();
  const Context b = Context::process_default();
  const Context c;  // default-construction is the same session
  EXPECT_TRUE(a.same_session(b));
  EXPECT_TRUE(a.same_session(c));
  EXPECT_TRUE(a.is_process_default());
  EXPECT_EQ(&a.pool(), &b.pool());
  // One plan cache for the whole process-default session — the old
  // PlanCache::global() contract, now spelled PlanCache::of(ctx).
  EXPECT_EQ(&core::PlanCache::of(a), &core::PlanCache::of(b));
  EXPECT_TRUE(a.obs_prefix().empty());
}

TEST(Context, SessionsAreIsolatedFromProcessDefault) {
  const Context session_ctx = session();
  EXPECT_FALSE(session_ctx.is_process_default());
  EXPECT_FALSE(session_ctx.same_session(Context::process_default()));
  // A threads=0 session shares the process pool but owns its own cache.
  EXPECT_EQ(&session_ctx.pool(), &Context::process_default().pool());
  EXPECT_NE(&core::PlanCache::of(session_ctx),
            &core::PlanCache::of(Context::process_default()));
  // Copies are the same session.
  const Context copy = session_ctx;  // NOLINT(performance-unnecessary-copy)
  EXPECT_TRUE(copy.same_session(session_ctx));
  EXPECT_EQ(&core::PlanCache::of(copy), &core::PlanCache::of(session_ctx));
}

// --- per-context plan-cache isolation --------------------------------------

TEST(Context, PlanCachesAreIsolatedPerContext) {
  const Context a = session();
  const Context b = session();
  core::PlanCache& cache_a = core::PlanCache::of(a);
  core::PlanCache& cache_b = core::PlanCache::of(b);
  ASSERT_NE(&cache_a, &cache_b);

  const auto plan_a = core::resolve_dct_chop_plan(
      a, 16, 16, 4, 8, core::TransformKind::kDct2);
  // Resolving through `a` must not touch `b`'s cache at all.
  EXPECT_EQ(cache_a.snapshot().builds, 1u);
  EXPECT_EQ(cache_b.snapshot().builds, 0u);
  EXPECT_EQ(cache_b.size(), 0u);

  const auto plan_b = core::resolve_dct_chop_plan(
      b, 16, 16, 4, 8, core::TransformKind::kDct2);
  // Same key, different cache: a separate build and a separate instance.
  EXPECT_EQ(cache_b.snapshot().builds, 1u);
  EXPECT_NE(plan_a.get(), plan_b.get());
  // Second resolve through `b` is a hit in `b` only.
  (void)core::resolve_dct_chop_plan(b, 16, 16, 4, 8,
                                    core::TransformKind::kDct2);
  EXPECT_EQ(cache_b.snapshot().hits, 1u);
  EXPECT_EQ(cache_a.snapshot().hits, 0u);
}

TEST(Context, PlanCacheBudgetIsPerContext) {
  // `tight` evicts under its tiny budget; `roomy` keeps everything.
  Context::Options tight_options;
  tight_options.plan_cache_bytes = 1;
  const Context tight = session(tight_options);
  const Context roomy = session();

  for (const std::size_t res : {16, 24, 32}) {
    (void)core::resolve_dct_chop_plan(tight, res, res, 4, 8,
                                      core::TransformKind::kDct2);
    (void)core::resolve_dct_chop_plan(roomy, res, res, 4, 8,
                                      core::TransformKind::kDct2);
  }
  EXPECT_EQ(core::PlanCache::of(tight).size(), 1u);
  EXPECT_GE(core::PlanCache::of(tight).snapshot().evictions, 2u);
  EXPECT_EQ(core::PlanCache::of(roomy).size(), 3u);
  EXPECT_EQ(core::PlanCache::of(roomy).snapshot().evictions, 0u);
}

// --- context-scoped metric labels -------------------------------------------

std::uint64_t global_counter(const std::string& name) {
  for (const auto& [key, value] : obs::Registry::global().counters()) {
    if (key == name) return value;
  }
  return 0;
}

bool global_histogram_has_samples(const std::string& name) {
  for (const auto& [key, snap] : obs::Registry::global().histograms()) {
    if (key == name) return snap.count > 0;
  }
  return false;
}

TEST(Context, ObsPrefixScopesMetricsIntoGlobalRegistry) {
  Context::Options options;
  options.obs_prefix = "ctxtest.";
  const Context ctx = session(options);
  EXPECT_EQ(ctx.metric_name("iterations"), "ctxtest.iterations");

  obs::Counter& iterations = ctx.counter("iterations");
  iterations.add();
  EXPECT_GE(global_counter("ctxtest.iterations"), 1u);

  // A codec built into the context publishes its latency series and its
  // plan-cache counters under the same prefix.
  runtime::Rng rng(3);
  const core::DctChopCodec codec({.cf = 4, .block = 8}, ctx);
  (void)codec.round_trip(Tensor::uniform(Shape::bchw(1, 1, 16, 16), rng));
  EXPECT_GE(global_counter("ctxtest.plan_cache.build_count"), 1u);
  EXPECT_TRUE(global_histogram_has_samples("ctxtest.codec.compress.ns"));
  EXPECT_TRUE(global_histogram_has_samples("ctxtest.codec.decompress.ns"));
}

TEST(Context, AnonymousSessionsKeepPlanCacheMetricsPrivate) {
  const std::uint64_t before = global_counter("plan_cache.build_count");
  const Context ctx = session();  // no obs_prefix
  (void)core::resolve_dct_chop_plan(ctx, 16, 16, 2, 8,
                                    core::TransformKind::kDct2);
  // The private build shows in the context's own snapshot but does not
  // move the process-wide series.
  EXPECT_EQ(core::PlanCache::of(ctx).snapshot().builds, 1u);
  EXPECT_EQ(global_counter("plan_cache.build_count"), before);
}

// --- concurrent sessions: bitwise archive parity under contention -----------

TEST(Context, ConcurrentSessionsProduceBitwiseIdenticalArchives) {
  runtime::Rng rng(11);
  const Tensor input = Tensor::uniform(Shape::bchw(2, 3, 32, 32), rng);
  const cli::ArchiveWriteOptions write{.chunk_bytes = 2048};

  // Reference computed with zero concurrent load, on a 1-thread pool.
  Context::Options single_options;
  single_options.threads = 1;
  const std::string reference = cli::compress_to_archive_bytes(
      input, "dctchop:cf=4,block=8", write, nullptr,
      Context(single_options));
  ASSERT_FALSE(reference.empty());

  constexpr std::size_t kSessions = 4;
  constexpr std::size_t kReps = 6;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> workers;
  workers.reserve(kSessions);
  for (std::size_t s = 0; s < kSessions; ++s) {
    workers.emplace_back([&, s] {
      // threads=0: all sessions contend on the one shared process pool.
      Context::Options options;
      options.obs_prefix = "parity" + std::to_string(s) + ".";
      const Context ctx{options};
      for (std::size_t rep = 0; rep < kReps; ++rep) {
        const std::string bytes = cli::compress_to_archive_bytes(
            input, "dctchop:cf=4,block=8", write, nullptr, ctx);
        if (bytes != reference) mismatches.fetch_add(1);
        const cli::Archive back = cli::deserialize_archive(bytes, ctx);
        if (back.original_shape != input.shape()) mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// --- process-pool resize safety ---------------------------------------------

TEST(Context, SetProcessThreadsRejectedWhileASessionHoldsThePool) {
  {
    const Context holder = session();  // durable handle to the process pool
    (void)holder.pool();
    EXPECT_THROW(Context::set_process_threads(2), std::runtime_error);
  }
  // Holder gone: the resize succeeds, and process-default contexts see
  // the new size immediately.
  Context::set_process_threads(2);
  EXPECT_EQ(Context::process_default().pool().size(), 2u);
  // Restore the env-configured size for the rest of the suite.
  Context::set_process_threads(Context::resolve_thread_count(0));
}

TEST(Context, ResolveThreadCountPrecedence) {
  // The flag wins outright; 0 defers to the environment (whatever it is,
  // the resolved value must be self-consistent between calls).
  EXPECT_EQ(Context::resolve_thread_count(3), 3u);
  EXPECT_EQ(Context::resolve_thread_count(0), Context::resolve_thread_count());
}

}  // namespace
}  // namespace aic
