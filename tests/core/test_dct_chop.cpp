#include "core/dct_chop.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "core/dct.hpp"
#include "io/error.hpp"
#include "runtime/rng.hpp"
#include "tensor/matmul.hpp"
#include "tensor/ops.hpp"

namespace aic::core {
namespace {

using tensor::Shape;
using tensor::Tensor;
using tensor::allclose;

DctChopCodec make_codec(std::size_t n, std::size_t cf) {
  return DctChopCodec({.height = n, .width = n, .cf = cf, .block = 8});
}

TEST(DctChop, CompressedShapeMatchesEq4) {
  const DctChopCodec codec = make_codec(24, 5);
  const Shape out = codec.compressed_shape(Shape::bchw(2, 3, 24, 24));
  EXPECT_EQ(out, Shape::bchw(2, 3, 15, 15));
}

TEST(DctChop, CompressionRatioMatchesEq3) {
  EXPECT_DOUBLE_EQ(make_codec(32, 4).compression_ratio(), 4.0);
  EXPECT_DOUBLE_EQ(make_codec(32, 2).compression_ratio(), 16.0);
}

TEST(DctChop, RatioEqualsByteRatio) {
  runtime::Rng rng(1);
  for (std::size_t cf = 1; cf <= 8; ++cf) {
    const DctChopCodec codec = make_codec(32, cf);
    const Tensor in = Tensor::uniform(Shape::bchw(2, 3, 32, 32), rng);
    const Tensor packed = codec.compress(in);
    EXPECT_NEAR(static_cast<double>(in.size_bytes()) / packed.size_bytes(),
                codec.compression_ratio(), 1e-9)
        << "cf=" << cf;
  }
}

TEST(DctChop, CfEightIsLossless) {
  runtime::Rng rng(2);
  const DctChopCodec codec = make_codec(16, 8);
  const Tensor in = Tensor::uniform(Shape::bchw(1, 2, 16, 16), rng, -1.0f, 1.0f);
  EXPECT_TRUE(allclose(codec.round_trip(in), in, 1e-4));
}

TEST(DctChop, ConstantImageIsLosslessForAnyCf) {
  // A constant block has only a DC coefficient, which every CF >= 1 keeps.
  for (std::size_t cf = 1; cf <= 8; ++cf) {
    const DctChopCodec codec = make_codec(16, cf);
    const Tensor in = Tensor::full(Shape::bchw(1, 1, 16, 16), 0.7f);
    EXPECT_TRUE(allclose(codec.round_trip(in), in, 1e-5)) << "cf=" << cf;
  }
}

TEST(DctChop, MatchesPerBlockReferencePipeline) {
  // Property: Eq. 4's two-matmul form equals reference blockwise DCT
  // followed by explicit corner extraction.
  runtime::Rng rng(3);
  const std::size_t n = 16, cf = 3;
  const DctChopCodec codec = make_codec(n, cf);
  const Tensor in = Tensor::uniform(Shape::bchw(1, 1, n, n), rng, -1.0f, 1.0f);
  const Tensor packed = codec.compress(in);

  const Tensor coeffs = blockwise_dct_reference(in.slice_plane(0, 0), 8);
  for (std::size_t bi = 0; bi < n / 8; ++bi) {
    for (std::size_t bj = 0; bj < n / 8; ++bj) {
      for (std::size_t r = 0; r < cf; ++r) {
        for (std::size_t c = 0; c < cf; ++c) {
          EXPECT_NEAR(packed.at(0, 0, bi * cf + r, bj * cf + c),
                      coeffs.at(bi * 8 + r, bj * 8 + c), 1e-4);
        }
      }
    }
  }
}

TEST(DctChop, DecompressIsExactOnChoppedSubspace) {
  // compress(decompress(y)) == y: the codec is a projection, so data
  // already in the retained subspace round-trips exactly.
  runtime::Rng rng(4);
  const DctChopCodec codec = make_codec(16, 4);
  const Shape original = Shape::bchw(2, 1, 16, 16);
  const Tensor y = Tensor::uniform(codec.compressed_shape(original), rng);
  const Tensor restored = codec.decompress(y, original);
  const Tensor y2 = codec.compress(restored);
  EXPECT_TRUE(allclose(y, y2, 1e-4));
}

TEST(DctChop, RoundTripIsIdempotent) {
  // round_trip(round_trip(x)) == round_trip(x): projection property.
  runtime::Rng rng(5);
  const DctChopCodec codec = make_codec(24, 3);
  const Tensor in = Tensor::uniform(Shape::bchw(1, 2, 24, 24), rng);
  const Tensor once = codec.round_trip(in);
  const Tensor twice = codec.round_trip(once);
  EXPECT_TRUE(allclose(once, twice, 1e-4));
}

TEST(DctChop, ErrorDecreasesWithCf) {
  runtime::Rng rng(6);
  // Smooth-ish signal: random low-frequency mixture plus mild noise.
  Tensor in(Shape::bchw(1, 1, 32, 32));
  for (std::size_t h = 0; h < 32; ++h) {
    for (std::size_t w = 0; w < 32; ++w) {
      in.at(0, 0, h, w) = static_cast<float>(
          std::sin(h * 0.3) + std::cos(w * 0.2) + 0.05 * rng.normal());
    }
  }
  double last = 1e30;
  for (std::size_t cf = 1; cf <= 8; ++cf) {
    const double err = tensor::mse(in, make_codec(32, cf).round_trip(in));
    EXPECT_LE(err, last + 1e-9) << "cf=" << cf;
    last = err;
  }
}

TEST(DctChop, PreservesBlockMeans) {
  // CF >= 1 keeps the DC coefficient, so every 8×8 block mean survives.
  runtime::Rng rng(7);
  const DctChopCodec codec = make_codec(16, 1);
  const Tensor in = Tensor::uniform(Shape::bchw(1, 1, 16, 16), rng);
  const Tensor out = codec.round_trip(in);
  for (std::size_t bi = 0; bi < 2; ++bi) {
    for (std::size_t bj = 0; bj < 2; ++bj) {
      double mean_in = 0.0, mean_out = 0.0;
      for (std::size_t r = 0; r < 8; ++r) {
        for (std::size_t c = 0; c < 8; ++c) {
          mean_in += in.at(0, 0, bi * 8 + r, bj * 8 + c);
          mean_out += out.at(0, 0, bi * 8 + r, bj * 8 + c);
        }
      }
      EXPECT_NEAR(mean_in / 64, mean_out / 64, 1e-4);
    }
  }
}

TEST(DctChop, ChannelsAreIndependent) {
  runtime::Rng rng(8);
  const DctChopCodec codec = make_codec(16, 4);
  Tensor in = Tensor::uniform(Shape::bchw(1, 3, 16, 16), rng);
  const Tensor out_all = codec.round_trip(in);
  // Round-tripping channel 1 alone gives the same plane.
  Tensor single(Shape::bchw(1, 1, 16, 16));
  single.set_plane(0, 0, in.slice_plane(0, 1));
  const Tensor out_single = codec.round_trip(single);
  EXPECT_TRUE(allclose(out_all.slice_plane(0, 1),
                       out_single.slice_plane(0, 0), 1e-5));
}

TEST(DctChop, FastPathMatchesReferenceMatmulSandwichExactly) {
  // The codec's block kernel must reproduce the plain
  // two-matmul sandwich of Eq. 4/6 element-for-element (identical
  // contributions in identical order — no new rounding).
  runtime::Rng rng(20);
  for (std::size_t cf : {1u, 3u, 4u, 8u}) {
    const DctChopCodec codec(
        {.height = 32, .width = 64, .cf = cf, .block = 8});
    const Tensor in = Tensor::uniform(Shape::bchw(2, 2, 32, 64), rng, -1.0f, 1.0f);
    const Tensor packed = codec.compress(in);
    for (std::size_t b = 0; b < 2; ++b) {
      for (std::size_t c = 0; c < 2; ++c) {
        const Tensor expected = tensor::matmul(
            make_lhs(32, cf), tensor::matmul(in.slice_plane(b, c),
                                             make_rhs(64, cf)));
        const Tensor got = packed.slice_plane(b, c);
        for (std::size_t i = 0; i < expected.numel(); ++i) {
          ASSERT_EQ(got.at(i), expected.at(i)) << "cf=" << cf << " plane "
                                               << b << "," << c;
        }
      }
    }
  }
}

TEST(DctChop, NonSquareRoundTripThroughCodec) {
  runtime::Rng rng(21);
  const DctChopCodec codec({.height = 32, .width = 64, .cf = 4, .block = 8});
  const Shape original = Shape::bchw(2, 3, 32, 64);
  EXPECT_EQ(codec.compressed_shape(original), Shape::bchw(2, 3, 16, 32));
  EXPECT_DOUBLE_EQ(codec.compression_ratio(), 4.0);
  const Tensor in = Tensor::uniform(original, rng, -1.0f, 1.0f);
  const Tensor packed = codec.compress(in);
  EXPECT_NEAR(static_cast<double>(in.size_bytes()) / packed.size_bytes(),
              codec.compression_ratio(), 1e-9);
  const Tensor restored = codec.decompress(packed, original);
  EXPECT_EQ(restored.shape(), original);
  // Projection property holds on rectangles too.
  EXPECT_TRUE(allclose(codec.compress(restored), packed, 1e-4));
}

TEST(DctChop, NonSquareCfEightIsLossless) {
  runtime::Rng rng(22);
  const DctChopCodec codec({.height = 16, .width = 40, .cf = 8, .block = 8});
  const Tensor in = Tensor::uniform(Shape::bchw(1, 2, 16, 40), rng, -1.0f, 1.0f);
  EXPECT_TRUE(allclose(codec.round_trip(in), in, 1e-4));
}

TEST(DctChop, RectangularResolutionSupported) {
  runtime::Rng rng(9);
  const DctChopCodec codec(
      {.height = 16, .width = 32, .cf = 4, .block = 8});
  const Tensor in = Tensor::uniform(Shape::bchw(2, 1, 16, 32), rng);
  const Tensor packed = codec.compress(in);
  EXPECT_EQ(packed.shape(), Shape::bchw(2, 1, 8, 16));
  const Tensor out = codec.decompress(packed, in.shape());
  EXPECT_EQ(out.shape(), in.shape());
}

TEST(DctChop, WrongResolutionThrows) {
  const DctChopCodec codec = make_codec(16, 4);
  const Tensor wrong(Shape::bchw(1, 1, 24, 24));
  EXPECT_THROW(codec.compress(wrong), std::invalid_argument);
}

TEST(DctChop, WrongPackedShapeThrows) {
  const DctChopCodec codec = make_codec(16, 4);
  const Tensor packed(Shape::bchw(1, 1, 9, 8));
  EXPECT_THROW(codec.decompress(packed, Shape::bchw(1, 1, 16, 16)),
               io::CorruptStream);
}

TEST(DctChop, InvalidConfigThrows) {
  EXPECT_THROW(DctChopCodec({.height = 20, .width = 16, .cf = 4, .block = 8}),
               std::invalid_argument);
  EXPECT_THROW(DctChopCodec({.height = 16, .width = 16, .cf = 0, .block = 8}),
               std::invalid_argument);
  EXPECT_THROW(DctChopCodec({.height = 16, .width = 16, .cf = 9, .block = 8}),
               std::invalid_argument);
}

TEST(DctChop, NameEncodesConfig) {
  EXPECT_EQ(make_codec(16, 4).name(), "dct+chop(cf=4,block=8)");
}

class DctChopFlops : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DctChopFlops, ClosedFormMatchesTwoMatmulDecomposition) {
  // Eq. 5/7 with the (2k−1) dot-product convention must equal the sum of
  // the two chained matmul costs.
  const std::size_t cf = GetParam();
  for (std::size_t n : {8u, 16u, 64u, 256u}) {
    const std::size_t cn = cf * n / 8;
    // compress: (n×n)·(n×cn) then (cn×n)·(n×cn)
    const std::size_t c1 = (2 * n - 1) * n * cn;
    const std::size_t c2 = (2 * n - 1) * cn * cn;
    EXPECT_EQ(DctChopCodec::flops_compress(n, cf), c1 + c2) << n;
    // decompress: (cn×cn)·(cn×n) then (n×cn)·(cn×n)
    const std::size_t d1 = (2 * cn - 1) * cn * n;
    const std::size_t d2 = (2 * cn - 1) * n * n;
    EXPECT_EQ(DctChopCodec::flops_decompress(n, cf), d1 + d2) << n;
  }
}

TEST_P(DctChopFlops, DecompressionCheaperBelowCfEight) {
  const std::size_t cf = GetParam();
  if (cf < 8) {
    EXPECT_LT(DctChopCodec::flops_decompress(64, cf),
              DctChopCodec::flops_compress(64, cf));
  } else {
    // At CF = 8 the paper's formulas coincide up to the n² correction.
    EXPECT_LE(DctChopCodec::flops_decompress(64, cf),
              DctChopCodec::flops_compress(64, cf));
  }
}

INSTANTIATE_TEST_SUITE_P(ChopFactors, DctChopFlops,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(DctChopFlopsEq5, MatchesPaperPolynomialForm) {
  // Eq. 5: 2n³CF/8·(CF/8+1) − n²(CF/8 + CF²/64), evaluated in exact
  // integer arithmetic via a common denominator of 64.
  for (std::size_t n : {8u, 16u, 32u, 128u}) {
    for (std::size_t cf = 1; cf <= 8; ++cf) {
      const std::size_t lhs = 64 * DctChopCodec::flops_compress(n, cf);
      const std::size_t rhs =
          2 * n * n * n * cf * (cf + 8) - n * n * (8 * cf + cf * cf);
      EXPECT_EQ(lhs, rhs) << "n=" << n << " cf=" << cf;
    }
  }
}

TEST(DctChopFlopsEq7, MatchesPaperPolynomialForm) {
  // Eq. 7: 2n³CF/8·(CF/8+1) − n²(CF/8 + 1), common denominator 64.
  for (std::size_t n : {8u, 16u, 32u, 128u}) {
    for (std::size_t cf = 1; cf <= 8; ++cf) {
      const std::size_t lhs = 64 * DctChopCodec::flops_decompress(n, cf);
      const std::size_t rhs =
          2 * n * n * n * cf * (cf + 8) - n * n * (8 * cf + 64);
      EXPECT_EQ(lhs, rhs) << "n=" << n << " cf=" << cf;
    }
  }
}

}  // namespace
}  // namespace aic::core
