#include "core/triangle.hpp"

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

TriangleCodec make_codec(std::size_t n, std::size_t cf) {
  return TriangleCodec({.height = n, .width = n, .cf = cf, .block = 8});
}

TEST(Triangle, PackedShapeIsBlocksByTriangle) {
  const TriangleCodec codec = make_codec(24, 5);
  const Shape out = codec.compressed_shape(Shape::bchw(2, 3, 24, 24));
  // 9 blocks per plane, 15 retained values per block.
  EXPECT_EQ(out, Shape::bchw(2, 3, 9, 15));
}

TEST(Triangle, RetainedValuesPerBlockMatchesFormula) {
  for (std::size_t cf = 1; cf <= 8; ++cf) {
    EXPECT_EQ(make_codec(16, cf).values_per_block(), cf * (cf + 1) / 2);
  }
}

TEST(Triangle, CompressionRatioImprovesBy2CfOverCfPlus1) {
  for (std::size_t cf = 2; cf <= 7; ++cf) {
    const TriangleCodec sg = make_codec(16, cf);
    const DctChopCodec dc({.height = 16, .width = 16, .cf = cf, .block = 8});
    EXPECT_NEAR(sg.compression_ratio() / dc.compression_ratio(),
                2.0 * cf / (cf + 1.0), 1e-9);
  }
}

TEST(Triangle, GatherScatterRoundTripsRetainedCoefficients) {
  // scatter(gather(y)) keeps every triangle coefficient bit-exact and
  // zeroes the rest: compressing the scattered result again must match.
  runtime::Rng rng(1);
  const TriangleCodec codec = make_codec(16, 4);
  const Tensor in = Tensor::uniform(Shape::bchw(2, 2, 16, 16), rng);
  const Tensor packed = codec.compress(in);
  const Tensor restored = codec.decompress(packed, in.shape());
  const Tensor packed2 = codec.compress(restored);
  EXPECT_TRUE(allclose(packed, packed2, 1e-4));
}

TEST(Triangle, FirstPackedValuePerBlockIsDc) {
  runtime::Rng rng(2);
  const std::size_t cf = 4;
  const TriangleCodec codec = make_codec(16, cf);
  const DctChopCodec inner({.height = 16, .width = 16, .cf = cf, .block = 8});
  const Tensor in = Tensor::uniform(Shape::bchw(1, 1, 16, 16), rng);
  const Tensor chopped = inner.compress(in);
  const Tensor packed = codec.compress(in);
  // Block (bi, bj) of the chopped plane starts at (bi*cf, bj*cf); its DC
  // coefficient must be the first packed value of that block.
  for (std::size_t bi = 0; bi < 2; ++bi) {
    for (std::size_t bj = 0; bj < 2; ++bj) {
      EXPECT_EQ(packed.at(0, 0, bi * 2 + bj, 0),
                chopped.at(0, 0, bi * cf, bj * cf));
    }
  }
}

TEST(Triangle, MoreLossyThanSquareChopSameCf) {
  runtime::Rng rng(3);
  const Tensor in = Tensor::uniform(Shape::bchw(1, 3, 32, 32), rng);
  for (std::size_t cf = 2; cf <= 7; ++cf) {
    const TriangleCodec sg = make_codec(32, cf);
    const DctChopCodec dc({.height = 32, .width = 32, .cf = cf, .block = 8});
    const double err_sg = tensor::mse(in, sg.round_trip(in));
    const double err_dc = tensor::mse(in, dc.round_trip(in));
    EXPECT_GE(err_sg, err_dc) << "cf=" << cf;
  }
}

TEST(Triangle, ConstantImageStillLossless) {
  // DC survives the triangle for every CF.
  for (std::size_t cf = 1; cf <= 8; ++cf) {
    const TriangleCodec codec = make_codec(16, cf);
    const Tensor in = Tensor::full(Shape::bchw(1, 1, 16, 16), -0.4f);
    EXPECT_TRUE(allclose(codec.round_trip(in), in, 1e-5)) << cf;
  }
}

TEST(Triangle, ByteRatioMatchesNominalRatio) {
  runtime::Rng rng(4);
  const TriangleCodec codec = make_codec(32, 5);
  const Tensor in = Tensor::uniform(Shape::bchw(2, 3, 32, 32), rng);
  const Tensor packed = codec.compress(in);
  EXPECT_NEAR(static_cast<double>(in.size_bytes()) / packed.size_bytes(),
              codec.compression_ratio(), 1e-9);
}

TEST(Triangle, IndicesAreCompileTimeSized) {
  // 9 blocks × 15 values.
  EXPECT_EQ(triangle_plane_indices(24, 24, 5, 8).size(), 9u * 15u);
}

TEST(Triangle, PackedShapeMismatchThrows) {
  const TriangleCodec codec = make_codec(16, 4);
  const Tensor bad(Shape::bchw(1, 1, 4, 9));
  EXPECT_THROW(codec.decompress(bad, Shape::bchw(1, 1, 16, 16)),
               io::CorruptStream);
}

TEST(Triangle, NameEncodesCf) {
  EXPECT_EQ(make_codec(16, 3).name(), "dct+chop+sg(cf=3)");
}

}  // namespace
}  // namespace aic::core
