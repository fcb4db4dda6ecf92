// Steady-state allocation gate of the codec transform: once warm, a
// DctChopCodec compress_into / decompress_into pair on a 1024² batch
// (whole tensors, or a plane range of caller memory) makes no heap
// allocation of 1 KiB or more, at pool sizes 1 and 4.
// Links aic_memprobe, which counts every operator new of this binary
// (pool workers included).

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/dct_chop.hpp"
#include "runtime/context.hpp"
#include "runtime/rng.hpp"
#include "support/memory_probe.hpp"

namespace aic::core {
namespace {

using tensor::Shape;
using tensor::Tensor;

class CodecAllocations : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CodecAllocations, WarmTransformMakesNoLargeAllocations) {
  Context::Options options;
  options.threads = GetParam();
  options.own_pool = true;
  const Context ctx(options);
  const DctChopCodec codec({.cf = 4, .block = 8}, ctx);
  runtime::Rng rng(17);
  const Tensor in =
      Tensor::uniform(Shape::bchw(1, 3, 1024, 1024), rng, -1.0f, 1.0f);
  Tensor packed(codec.compressed_shape(in.shape()));
  Tensor restored(in.shape());
  // Warm: the plan compiles and the pool's workers start.
  codec.compress_into(in, packed);
  codec.decompress_into(packed, in.shape(), restored);

  testsupport::set_large_alloc_threshold(1024);
  const std::uint64_t before = testsupport::alloc_stats().large_allocs;
  for (int rep = 0; rep < 3; ++rep) {
    codec.compress_into(in, packed);
    codec.decompress_into(packed, in.shape(), restored);
  }
  const std::uint64_t after = testsupport::alloc_stats().large_allocs;
  testsupport::set_large_alloc_threshold(std::size_t{1} << 20);
  EXPECT_EQ(after, before) << "allocations >= 1 KiB in warm transform calls";
}

TEST_P(CodecAllocations, WarmPlaneRangeTransformMakesNoLargeAllocations) {
  // The plane-range calls run over caller memory: here planes 1..2 of a
  // batch whose floats start 44 bytes into a buffer, like the data of a
  // mapped .aict. They allocate nothing once warm and give the bytes of
  // the whole-tensor calls.
  Context::Options options;
  options.threads = GetParam();
  options.own_pool = true;
  const Context ctx(options);
  const DctChopCodec codec({.cf = 4, .block = 8}, ctx);
  runtime::Rng rng(19);
  const Tensor in =
      Tensor::uniform(Shape::bchw(1, 3, 1024, 1024), rng, -1.0f, 1.0f);
  const std::size_t plane = 1024 * 1024;
  const std::size_t packed_plane = 512 * 512;
  std::vector<float> file(11 + in.numel());
  std::copy_n(in.raw(), in.numel(), file.data() + 11);
  const float* planes = file.data() + 11 + plane;
  const Shape range = Shape::bchw(1, 2, 1024, 1024);
  std::vector<float> packed(2 * packed_plane);
  std::vector<float> restored(2 * plane);
  codec.compress_into(planes, range, packed.data());
  codec.decompress_into(packed.data(), range, restored.data());

  testsupport::set_large_alloc_threshold(1024);
  const std::uint64_t before = testsupport::alloc_stats().large_allocs;
  for (int rep = 0; rep < 3; ++rep) {
    codec.compress_into(planes, range, packed.data());
    codec.decompress_into(packed.data(), range, restored.data());
  }
  const std::uint64_t after = testsupport::alloc_stats().large_allocs;
  testsupport::set_large_alloc_threshold(std::size_t{1} << 20);
  EXPECT_EQ(after, before) << "allocations >= 1 KiB in warm plane-range calls";

  const Tensor whole_packed = codec.compress(in);
  const Tensor whole_restored = codec.decompress(whole_packed, in.shape());
  EXPECT_TRUE(std::equal(packed.begin(), packed.end(),
                         whole_packed.raw() + packed_plane));
  EXPECT_TRUE(std::equal(restored.begin(), restored.end(),
                         whole_restored.raw() + plane));
}

INSTANTIATE_TEST_SUITE_P(PoolSizes, CodecAllocations,
                         ::testing::Values(std::size_t{1}, std::size_t{4}));

}  // namespace
}  // namespace aic::core
