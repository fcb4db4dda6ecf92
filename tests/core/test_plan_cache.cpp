#include "core/plan_cache.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "core/chop.hpp"
#include "core/codec_factory.hpp"
#include "core/dct_chop.hpp"
#include "core/partial_serializer.hpp"
#include "core/triangle.hpp"
#include "obs/metrics.hpp"
#include "runtime/rng.hpp"

namespace aic::core {
namespace {

using tensor::Shape;
using tensor::Tensor;

void expect_bitwise_equal(const Tensor& a, const Tensor& b,
                          const std::string& what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  for (std::size_t i = 0; i < a.numel(); ++i) {
    ASSERT_EQ(a.at(i), b.at(i)) << what << " at flat index " << i;
  }
}

// --- operand tile (RHS = LHSᵀ, both axes share one tile pair) ---

TEST(PlanOperands, RhsIsBitwiseTransposeOfLhs) {
  const auto plan = resolve_dct_chop_plan(Context::process_default(), 32, 64,
                                          4, 8, TransformKind::kDct2);
  expect_bitwise_equal(plan->tile_t(), plan->tile().transposed(), "tile_t");
  expect_bitwise_equal(make_rhs(64, 4, 8, TransformKind::kDct2),
                       make_lhs(64, 4, 8, TransformKind::kDct2).transposed(),
                       "make_rhs");
  // The plan tile is every diagonal block of the dense operator.
  const Tensor lhs = make_lhs(32, 4, 8, TransformKind::kDct2);
  for (std::size_t blk = 0; blk < 32 / 8; ++blk) {
    for (std::size_t r = 0; r < 4; ++r) {
      for (std::size_t c = 0; c < 8; ++c) {
        ASSERT_EQ(plan->tile().at(r, c), lhs.at(blk * 4 + r, blk * 8 + c))
            << "block " << blk << " (" << r << "," << c << ")";
      }
    }
  }
}

TEST(PlanOperands, SquarePlanSharesOneOperandPair) {
  // Square or not, a plan holds one cf×block tile and its transpose.
  for (const auto& [h, w] : {std::pair<std::size_t, std::size_t>{32, 32},
                             {32, 64}}) {
    const auto plan = resolve_dct_chop_plan(Context::process_default(), h, w,
                                            4, 8, TransformKind::kDct2);
    EXPECT_EQ(plan->tile().shape(), Shape::matrix(4, 8));
    EXPECT_EQ(plan->tile_t().shape(), Shape::matrix(8, 4));
    EXPECT_EQ(plan->resident_bytes(),
              plan->tile().size_bytes() + plan->tile_t().size_bytes());
  }
}

TEST(PlanOperands, ColdBuildHoldsOneTilePairAndRunsNoGemm) {
  struct Case {
    std::size_t h, w, cf, block;
  };
  // The last case would need ~2 TB of dense operators; the tile is all
  // a plan resolution allocates, whatever dims a header supplies.
  for (const Case c : {Case{8, 8, 1, 8}, Case{32, 64, 4, 8},
                       Case{1024, 1024, 4, 8}, Case{48, 16, 16, 16},
                       Case{1u << 20, 1u << 20, 8, 8}}) {
    for (const TransformKind kind :
         {TransformKind::kDct2, TransformKind::kWalshHadamard,
          TransformKind::kDst2}) {
      PlanCache cold(/*byte_budget=*/0);
      obs::Counter& gemm_calls =
          obs::Registry::global().counter("kernel.gemm_calls");
      const std::uint64_t gemms = gemm_calls.value();
      const auto plan =
          cold.resolve(dct_chop_plan_key(c.h, c.w, c.cf, c.block, kind));
      EXPECT_EQ(gemm_calls.value(), gemms);
      EXPECT_EQ(plan->resident_bytes(), 2 * c.cf * c.block * sizeof(float))
          << c.h << "x" << c.w << " cf=" << c.cf;
    }
  }
}

// --- bitwise parity: fresh (uncached) plan vs cache-resolved plan ---

class PlanParity : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PlanParity, FreshVsCacheHitDctChopSquareAndRect) {
  const std::size_t cf = GetParam();
  runtime::Rng rng(101);
  struct Dims {
    std::size_t h, w;
  };
  for (const Dims d : {Dims{32, 32}, Dims{16, 32}, Dims{40, 16}}) {
    const PlanKey key =
        dct_chop_plan_key(d.h, d.w, cf, 8, TransformKind::kDct2);
    // Fresh: built directly, never cached. Cached: through the global
    // cache (a hit on every run after the first resolve).
    const auto fresh =
        std::static_pointer_cast<const DctChopPlan>(build_core_plan(key));
    const auto cached = resolve_dct_chop_plan(Context::process_default(), d.h,
                                              d.w, cf, 8, TransformKind::kDct2);
    const Tensor in = Tensor::uniform(Shape::bchw(2, 3, d.h, d.w), rng,
                                      -1.0f, 1.0f);
    Tensor packed_fresh(fresh->packed_shape(in.shape()));
    Tensor packed_cached(cached->packed_shape(in.shape()));
    fresh->compress_into(in, packed_fresh);
    cached->compress_into(in, packed_cached);
    expect_bitwise_equal(packed_fresh, packed_cached, "compress");

    Tensor out_fresh(in.shape());
    Tensor out_cached(in.shape());
    fresh->decompress_into(packed_fresh, out_fresh);
    cached->decompress_into(packed_cached, out_cached);
    expect_bitwise_equal(out_fresh, out_cached, "decompress");
  }
}

TEST_P(PlanParity, PinnedVsShapeAgnosticCodecsMatchBitwise) {
  const std::size_t cf = GetParam();
  runtime::Rng rng(102);
  struct Dims {
    std::size_t h, w;
  };
  for (const Dims d : {Dims{32, 32}, Dims{16, 32}}) {
    const DctChopCodec pinned(
        {.height = d.h, .width = d.w, .cf = cf, .block = 8});
    const DctChopCodec agnostic({.cf = cf, .block = 8});
    const Tensor in = Tensor::uniform(Shape::bchw(1, 2, d.h, d.w), rng,
                                      -1.0f, 1.0f);
    expect_bitwise_equal(pinned.compress(in), agnostic.compress(in),
                         "pinned vs agnostic compress");
    expect_bitwise_equal(pinned.round_trip(in), agnostic.round_trip(in),
                         "pinned vs agnostic round trip");
  }
}

INSTANTIATE_TEST_SUITE_P(ChopFactors, PlanParity,
                         ::testing::Values(2, 4, 6));

class PartialParity : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PartialParity, FreshVsCachedAcrossSubdivisions) {
  const std::size_t s = GetParam();
  runtime::Rng rng(103);
  const std::size_t res = 32 * s;  // chunks stay 32×32
  // First codec's construction builds (or reuses) the cached plan; the
  // second is a guaranteed cache hit. The serial chunk walk must produce
  // bitwise-identical streams either way.
  const PartialSerialCodec first({.height = res,
                                  .width = res,
                                  .cf = 4,
                                  .block = 8,
                                  .subdivision = s});
  const PartialSerialCodec second({.height = res,
                                   .width = res,
                                   .cf = 4,
                                   .block = 8,
                                   .subdivision = s});
  const Tensor in =
      Tensor::uniform(Shape::bchw(2, 1, res, res), rng, -1.0f, 1.0f);
  expect_bitwise_equal(first.compress(in), second.compress(in), "ps compress");
  expect_bitwise_equal(first.round_trip(in), second.round_trip(in),
                       "ps round trip");
}

INSTANTIATE_TEST_SUITE_P(Subdivisions, PartialParity,
                         ::testing::Values(1, 2, 4));

TEST(PlanParity, TriangleFreshVsCached) {
  runtime::Rng rng(104);
  const TriangleCodec first({.height = 32, .width = 32, .cf = 4, .block = 8});
  const TriangleCodec second({.height = 32, .width = 32, .cf = 4, .block = 8});
  const Tensor in =
      Tensor::uniform(Shape::bchw(2, 2, 32, 32), rng, -1.0f, 1.0f);
  expect_bitwise_equal(first.compress(in), second.compress(in), "sg compress");
  expect_bitwise_equal(first.round_trip(in), second.round_trip(in),
                       "sg round trip");
}

// --- cache mechanics on a standalone (non-global) instance ---

TEST(PlanCacheLocal, BuildsOncePerKeyAndCountsHits) {
  PlanCache cache(/*byte_budget=*/0);
  const PlanKey key = dct_chop_plan_key(16, 16, 4, 8, TransformKind::kDct2);
  const auto a = cache.resolve(key);
  const auto b = cache.resolve(key);
  EXPECT_EQ(a.get(), b.get());
  const PlanCache::Snapshot snap = cache.snapshot();
  EXPECT_EQ(snap.builds, 1u);
  EXPECT_EQ(snap.misses, 1u);
  EXPECT_EQ(snap.hits, 1u);
  EXPECT_EQ(snap.entries, 1u);
  EXPECT_EQ(snap.resident_bytes, a->resident_bytes());
}

TEST(PlanCacheLocal, LruEvictionRespectsByteBudget) {
  PlanCache cache(/*byte_budget=*/0);
  const PlanKey k16 = dct_chop_plan_key(16, 16, 4, 8, TransformKind::kDct2);
  const PlanKey k24 = dct_chop_plan_key(24, 24, 4, 8, TransformKind::kDct2);
  const PlanKey k32 = dct_chop_plan_key(32, 32, 4, 8, TransformKind::kDct2);
  const auto p16 = cache.resolve(k16);

  // Budget for roughly one-and-a-half small plans: inserting more must
  // evict the least recently used entries.
  cache.set_byte_budget(p16->resident_bytes() * 3 / 2);
  cache.resolve(k24);  // evicts k16 (LRU), keeps k24 (MRU is never evicted)
  EXPECT_GE(cache.snapshot().evictions, 1u);
  EXPECT_EQ(cache.size(), 1u);

  cache.resolve(k32);
  EXPECT_EQ(cache.size(), 1u);

  // Re-resolving an evicted key is a miss that rebuilds.
  const std::uint64_t builds_before = cache.snapshot().builds;
  cache.resolve(k16);
  EXPECT_EQ(cache.snapshot().builds, builds_before + 1);

  // An evicted plan stays usable while someone holds the shared_ptr.
  runtime::Rng rng(7);
  const Tensor in = Tensor::uniform(Shape::bchw(1, 1, 16, 16), rng);
  const auto* chop = dynamic_cast<const DctChopPlan*>(p16.get());
  ASSERT_NE(chop, nullptr);
  Tensor packed(chop->packed_shape(in.shape()));
  chop->compress_into(in, packed);  // must not crash
}

TEST(PlanCacheLocal, NeverEvictsTheEntryJustInserted) {
  PlanCache cache(/*byte_budget=*/1);  // absurdly small budget
  const PlanKey key = dct_chop_plan_key(32, 32, 2, 8, TransformKind::kDct2);
  const auto plan = cache.resolve(key);
  // The MRU entry survives even though it alone exceeds the budget, so
  // an immediate second resolve is still a hit.
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.resolve(key).get(), plan.get());
}

TEST(PlanCacheLocal, ConcurrentResolveBuildsEachKeyExactlyOnce) {
  PlanCache cache(/*byte_budget=*/0);
  const std::vector<PlanKey> keys = {
      dct_chop_plan_key(16, 16, 2, 8, TransformKind::kDct2),
      dct_chop_plan_key(16, 16, 4, 8, TransformKind::kDct2),
      dct_chop_plan_key(16, 32, 4, 8, TransformKind::kDct2),
      dct_chop_plan_key(32, 32, 4, 8, TransformKind::kDct2),
      dct_chop_plan_key(32, 32, 6, 8, TransformKind::kDct2),
      dct_chop_plan_key(24, 24, 3, 8, TransformKind::kWalshHadamard),
  };
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kIters = 40;
  std::atomic<bool> mismatch{false};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (std::size_t i = 0; i < kIters; ++i) {
        const PlanKey& key = keys[(t + i) % keys.size()];
        const auto plan = cache.resolve(key);
        if (!plan || !(plan->key() == key)) mismatch = true;
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_FALSE(mismatch.load());
  const PlanCache::Snapshot snap = cache.snapshot();
  EXPECT_EQ(snap.builds, keys.size());
  EXPECT_EQ(snap.entries, keys.size());
  EXPECT_EQ(snap.hits + snap.misses, kThreads * kIters);
}

// --- zero rebuilds / zero reallocations on the cache-hit path ---

TEST(PlanCacheProcessDefault, MixedShapeSteadyStateBuildsStayFlat) {
  runtime::Rng rng(55);
  const CodecPtr codec = make_codec("dctchop:cf=4,block=8");
  const Tensor large = Tensor::uniform(Shape::bchw(2, 3, 32, 32), rng);
  const Tensor small = Tensor::uniform(Shape::bchw(2, 3, 16, 16), rng);

  // Warm both shapes: plans compile once.
  (void)codec->round_trip(large);
  (void)codec->round_trip(small);

  const std::uint64_t builds = PlanCache::of(Context::process_default()).snapshot().builds;
  for (int rep = 0; rep < 5; ++rep) {
    (void)codec->round_trip(large);
    (void)codec->round_trip(small);
  }
  const PlanCache::Snapshot after = PlanCache::of(Context::process_default()).snapshot();
  EXPECT_EQ(after.builds, builds)
      << "cache-hit compress must construct zero operands";
  EXPECT_GE(after.hits, 10u);
}

}  // namespace
}  // namespace aic::core
