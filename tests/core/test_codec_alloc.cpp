// Steady-state allocation gate of the codec transform: once warm, a
// compress_into / decompress_into pair of each archive codec (dctchop,
// triangle, partial) on a 1024² batch (whole tensors, or a plane range
// of caller memory) makes no heap allocation of 1 KiB or more, at pool
// sizes 1 and 4. And the header parse of a crafted archive whose `block`
// field is huge builds only the kept rows of the block transform, and
// none at all when its `cf` is as huge as the payload is not.
// Links aic_memprobe, which counts every operator new of this binary
// (pool workers included).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "cli/archive.hpp"
#include "cli/robustness_suite.hpp"
#include "core/codec_factory.hpp"
#include "io/error.hpp"
#include "runtime/context.hpp"
#include "runtime/rng.hpp"
#include "support/memory_probe.hpp"

namespace aic::core {
namespace {

using tensor::Shape;
using tensor::Tensor;

struct AllocCase {
  const char* spec;
  std::size_t threads;
};

// The instantiation names the codec; the test name carries the pool size.
void PrintTo(const AllocCase& c, std::ostream* os) { *os << c.threads; }

class CodecAllocations : public ::testing::TestWithParam<AllocCase> {
 protected:
  Context make_context() const {
    Context::Options options;
    options.threads = GetParam().threads;
    return Context(options);
  }
  CodecPtr make(const Context& ctx) const {
    return make_codec(GetParam().spec, ctx);
  }
};

TEST_P(CodecAllocations, WarmTransformMakesNoLargeAllocations) {
  const Context ctx = make_context();
  const CodecPtr owner = make(ctx);
  const Codec& codec = *owner;
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
  const Context ctx = make_context();
  const CodecPtr owner = make(ctx);
  const Codec& codec = *owner;
  runtime::Rng rng(19);
  const Tensor in =
      Tensor::uniform(Shape::bchw(1, 3, 1024, 1024), rng, -1.0f, 1.0f);
  const std::size_t plane = 1024 * 1024;
  const Shape range = Shape::bchw(1, 2, 1024, 1024);
  const std::size_t packed_plane = codec.compressed_shape(range).numel() / 2;
  std::vector<float> file(11 + in.numel());
  std::copy_n(in.raw(), in.numel(), file.data() + 11);
  const float* planes = file.data() + 11 + plane;
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

INSTANTIATE_TEST_SUITE_P(
    PoolSizes, CodecAllocations,
    ::testing::Values(AllocCase{"dctchop:cf=4,block=8", 1},
                      AllocCase{"dctchop:cf=4,block=8", 4}));
INSTANTIATE_TEST_SUITE_P(
    TrianglePoolSizes, CodecAllocations,
    ::testing::Values(AllocCase{"triangle:cf=4,block=8", 1},
                      AllocCase{"triangle:cf=4,block=8", 4}));
INSTANTIATE_TEST_SUITE_P(
    PartialPoolSizes, CodecAllocations,
    ::testing::Values(AllocCase{"partial:cf=4,block=8,s=2", 1},
                      AllocCase{"partial:cf=4,block=8,s=2", 4}));

/// The u16 `block` header field is bounded only by "H and W are multiples
/// of it", so a tiny archive may claim block 4096. Its header parse builds
/// the pinned codec, whose tile holds only the CF kept rows of the block
/// transform: no block×block matrix is built for any transform.
TEST(HostileBlock, HeaderParseBuildsOnlyTheKeptRows) {
  runtime::Rng rng(23);
  const Tensor input =
      Tensor::uniform(Shape::bchw(1, 1, 8, 8), rng, -1.0f, 1.0f);
  for (const char* transform : {"dct", "wht", "dst2"}) {
    const std::string spec =
        std::string("dctchop:cf=1,block=8,transform=") + transform;
    std::string bytes = cli::compress_to_archive_bytes(input, spec);
    // Header field offsets: u16 block @4, u64 dims[4] @12 (H @28, W @36).
    const std::uint16_t block = 4096;
    const std::uint64_t dim = 4096;
    bytes = cli::patch_header_field(bytes, 4, 4, &block, sizeof(block));
    bytes = cli::patch_header_field(bytes, 4, 28, &dim, sizeof(dim));
    bytes = cli::patch_header_field(bytes, 4, 36, &dim, sizeof(dim));
    const Context ctx{Context::Options{}};  // its own, empty plan cache

    testsupport::set_large_alloc_threshold(std::size_t{1} << 20);
    const std::uint64_t before = testsupport::alloc_stats().large_allocs;
    const cli::Archive archive = cli::deserialize_archive(bytes, ctx);
    const std::uint64_t after = testsupport::alloc_stats().large_allocs;
    EXPECT_EQ(after, before) << transform << ": allocations >= 1 MiB";
    EXPECT_EQ(archive.original_shape, Shape::bchw(1, 1, 4096, 4096));
    EXPECT_EQ(archive.packed.shape(), Shape::bchw(1, 1, 1, 1));
  }
}

/// cf is bounded only by block, so a crafted header may also claim
/// cf = block = H = W = 4096 over an 8×8 payload. The payload length is
/// checked against the shape those fields promise before the codec, its
/// 4096×4096 tile or the triangle's cell table is built.
TEST(HostileBlock, ChopFactorAtBlockFailsBeforeTheTileIsBuilt) {
  runtime::Rng rng(24);
  const Tensor input =
      Tensor::uniform(Shape::bchw(1, 1, 8, 8), rng, -1.0f, 1.0f);
  for (const char* spec : {"dctchop:cf=1,block=8", "triangle:cf=1,block=8"}) {
    std::string bytes = cli::compress_to_archive_bytes(input, spec);
    // Header field offsets: u16 cf @2, u16 block @4, u64 dims[4] @12
    // (H @28, W @36).
    const std::uint16_t edge = 4096;
    const std::uint64_t dim = 4096;
    bytes = cli::patch_header_field(bytes, 4, 2, &edge, sizeof(edge));
    bytes = cli::patch_header_field(bytes, 4, 4, &edge, sizeof(edge));
    bytes = cli::patch_header_field(bytes, 4, 28, &dim, sizeof(dim));
    bytes = cli::patch_header_field(bytes, 4, 36, &dim, sizeof(dim));
    const Context ctx{Context::Options{}};  // its own, empty plan cache

    testsupport::set_large_alloc_threshold(std::size_t{1} << 20);
    const std::uint64_t before = testsupport::alloc_stats().large_allocs;
    try {
      (void)cli::deserialize_archive(bytes, ctx);
      ADD_FAILURE() << spec << ": the crafted header was accepted";
    } catch (const io::CorruptStream& error) {
      EXPECT_EQ(error.kind(), io::CorruptKind::kPayloadMismatch)
          << spec << ": " << error.what();
    }
    const std::uint64_t after = testsupport::alloc_stats().large_allocs;
    EXPECT_EQ(after, before) << spec << ": allocations >= 1 MiB";
  }
}

}  // namespace
}  // namespace aic::core
