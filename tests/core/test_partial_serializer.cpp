#include "core/partial_serializer.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/dct_chop.hpp"
#include "io/error.hpp"
#include "runtime/rng.hpp"
#include "tensor/ops.hpp"

namespace aic::core {
namespace {

using tensor::Shape;
using tensor::Tensor;
using tensor::allclose;

TEST(PartialSerial, CompressedShapeMatchesUnserialized) {
  const PartialSerialCodec ps(
      {.height = 64, .width = 64, .cf = 4, .block = 8, .subdivision = 2});
  const DctChopCodec plain({.height = 64, .width = 64, .cf = 4, .block = 8});
  const Shape in = Shape::bchw(2, 3, 64, 64);
  EXPECT_EQ(ps.compressed_shape(in), plain.compressed_shape(in));
}

TEST(PartialSerial, SubdivisionOneEqualsPlainCodec) {
  runtime::Rng rng(1);
  const PartialSerialCodec ps(
      {.height = 32, .width = 32, .cf = 5, .block = 8, .subdivision = 1});
  const DctChopCodec plain({.height = 32, .width = 32, .cf = 5, .block = 8});
  const Tensor in = Tensor::uniform(Shape::bchw(2, 2, 32, 32), rng);
  EXPECT_TRUE(allclose(ps.compress(in), plain.compress(in), 1e-5));
}

TEST(PartialSerial, RoundTripEqualsUnserializedRoundTrip) {
  // The key correctness property of §3.5.1: chunked processing changes the
  // schedule, not the math. Chunk boundaries align with 8×8 blocks, so the
  // reconstruction is identical to the one-shot codec.
  runtime::Rng rng(2);
  for (std::size_t s : {1u, 2u, 4u}) {
    const PartialSerialCodec ps(
        {.height = 64, .width = 64, .cf = 3, .block = 8, .subdivision = s});
    const DctChopCodec plain({.height = 64, .width = 64, .cf = 3, .block = 8});
    const Tensor in = Tensor::uniform(Shape::bchw(2, 1, 64, 64), rng);
    EXPECT_TRUE(allclose(ps.round_trip(in), plain.round_trip(in), 1e-4))
        << "s=" << s;
  }
}

TEST(PartialSerial, OperatorBytesShrinkBySSquared) {
  const std::size_t n = 512, cf = 4;
  const PartialSerialCodec ps(
      {.height = n, .width = n, .cf = cf, .block = 8, .subdivision = 2});
  const std::size_t full = PartialSerialCodec::unserialized_operator_bytes(n, cf);
  EXPECT_EQ(ps.operator_bytes() * 4, full);
}

TEST(PartialSerial, EnablesSn30PmuScaleResolutions) {
  // §3.5.1's motivating numbers: one SN30 PMU holds 0.5 MB — a single
  // 362×362 fp32 matrix. At 512×512, an unserialized LHS (CF=4: 256×512
  // floats) plus the input plane exceeds it; with s=2 each chunk operator
  // fits comfortably.
  const std::size_t pmu_bytes = 512 * 1024;
  const std::size_t full_plane = 512 * 512 * sizeof(float);
  EXPECT_GT(full_plane, pmu_bytes);  // the problem
  const PartialSerialCodec ps(
      {.height = 512, .width = 512, .cf = 4, .block = 8, .subdivision = 2});
  const std::size_t chunk_plane = 256 * 256 * sizeof(float);
  EXPECT_LT(chunk_plane, pmu_bytes);  // the fix
  EXPECT_LT(ps.operator_bytes() / 2, pmu_bytes);
}

TEST(PartialSerial, NonSquareRoundTripMatchesPlainCodec) {
  // H≠W: chunk boundaries still align with 8×8 blocks, so chunked and
  // one-shot processing agree.
  runtime::Rng rng(3);
  const PartialSerialCodec ps(
      {.height = 32, .width = 64, .cf = 4, .block = 8, .subdivision = 2});
  const DctChopCodec plain({.height = 32, .width = 64, .cf = 4, .block = 8});
  const Shape original = Shape::bchw(2, 3, 32, 64);
  EXPECT_EQ(ps.compressed_shape(original), plain.compressed_shape(original));
  EXPECT_EQ(ps.compressed_shape(original), Shape::bchw(2, 3, 16, 32));
  const Tensor in = Tensor::uniform(original, rng, -1.0f, 1.0f);
  const Tensor packed = ps.compress(in);
  EXPECT_NEAR(static_cast<double>(in.size_bytes()) / packed.size_bytes(),
              ps.compression_ratio(), 1e-9);
  EXPECT_TRUE(allclose(packed, plain.compress(in), 1e-5));
  EXPECT_TRUE(allclose(ps.decompress(packed, original),
                       plain.round_trip(in), 1e-4));
}

TEST(PartialSerial, ChunkCopiesAreExact) {
  // The s×s chunked schedule computes the bits of one full-resolution
  // DCT+Chop call, in both directions, for every s.
  runtime::Rng rng(4);
  for (std::size_t s : {1u, 2u, 4u}) {
    const PartialSerialCodec ps(
        {.height = 32, .width = 64, .cf = 8, .block = 8, .subdivision = s});
    const DctChopCodec plain({.height = 32, .width = 64, .cf = 8, .block = 8});
    const Tensor in = Tensor::uniform(Shape::bchw(2, 1, 32, 64), rng);
    const Tensor a = ps.compress(in);
    const Tensor b = plain.compress(in);
    ASSERT_EQ(a.shape(), b.shape()) << "s=" << s;
    for (std::size_t i = 0; i < a.numel(); ++i) {
      ASSERT_EQ(a.at(i), b.at(i)) << "s=" << s << " flat index " << i;
    }
    const Tensor ra = ps.decompress(a, in.shape());
    const Tensor rb = plain.decompress(b, in.shape());
    for (std::size_t i = 0; i < ra.numel(); ++i) {
      ASSERT_EQ(ra.at(i), rb.at(i)) << "s=" << s << " restored index " << i;
    }
  }
}

TEST(PartialSerial, CompressionRatioUnchanged) {
  const PartialSerialCodec ps(
      {.height = 64, .width = 64, .cf = 4, .block = 8, .subdivision = 2});
  EXPECT_DOUBLE_EQ(ps.compression_ratio(), 4.0);
}

TEST(PartialSerial, DecompressRejectsWrongShape) {
  const PartialSerialCodec ps(
      {.height = 32, .width = 32, .cf = 4, .block = 8, .subdivision = 2});
  const Tensor bad(Shape::bchw(1, 1, 15, 16));
  EXPECT_THROW(ps.decompress(bad, Shape::bchw(1, 1, 32, 32)),
               io::CorruptStream);
}

TEST(PartialSerial, InvalidConfigThrows) {
  EXPECT_THROW(PartialSerialCodec({.height = 32,
                                   .width = 32,
                                   .cf = 4,
                                   .block = 8,
                                   .subdivision = 0}),
               std::invalid_argument);
  EXPECT_THROW(PartialSerialCodec({.height = 32,
                                   .width = 32,
                                   .cf = 4,
                                   .block = 8,
                                   .subdivision = 3}),
               std::invalid_argument);  // 32 % 3 != 0
  // Chunk resolution must stay block-aligned: 32/4 = 8 is fine but 16/4=4
  // is not divisible by block=8.
  EXPECT_THROW(PartialSerialCodec({.height = 16,
                                   .width = 16,
                                   .cf = 4,
                                   .block = 8,
                                   .subdivision = 4}),
               std::invalid_argument);
}

TEST(PartialSerial, NameEncodesSubdivision) {
  const PartialSerialCodec ps(
      {.height = 64, .width = 64, .cf = 6, .block = 8, .subdivision = 2});
  EXPECT_EQ(ps.name(), "dct+chop+ps(cf=6,s=2)");
}

}  // namespace
}  // namespace aic::core
