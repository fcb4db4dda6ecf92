#include "core/chop.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <stdexcept>

#include "runtime/rng.hpp"
#include "tensor/matmul.hpp"
#include "tensor/ops.hpp"

namespace aic::core {
namespace {

using tensor::Shape;
using tensor::Tensor;
using tensor::allclose;

TEST(ChopMask, ShapeIsCfBlocksByN) {
  const Tensor m = chop_mask(24, 5, 8);
  EXPECT_EQ(m.shape(), Shape::matrix(15, 24));
}

TEST(ChopMask, EachRowHasExactlyOneOne) {
  const Tensor m = chop_mask(32, 3, 8);
  for (std::size_t r = 0; r < m.shape()[0]; ++r) {
    int ones = 0;
    for (std::size_t c = 0; c < m.shape()[1]; ++c) {
      const float v = m.at(r, c);
      EXPECT_TRUE(v == 0.0f || v == 1.0f);
      if (v == 1.0f) ++ones;
    }
    EXPECT_EQ(ones, 1) << "row " << r;
  }
}

TEST(ChopMask, SelectsLeadingCfColumnsPerBlock) {
  const Tensor m = chop_mask(16, 4, 8);
  // Block 0 rows 0..3 pick columns 0..3; block 1 rows 4..7 pick 8..11.
  for (std::size_t blk = 0; blk < 2; ++blk) {
    for (std::size_t r = 0; r < 4; ++r) {
      EXPECT_EQ(m.at(blk * 4 + r, blk * 8 + r), 1.0f);
    }
  }
}

TEST(ChopMask, SandwichExtractsUpperLeftCorners) {
  runtime::Rng rng(1);
  const std::size_t n = 24, cf = 5;
  const Tensor d = Tensor::uniform(Shape::matrix(n, n), rng, -1.0f, 1.0f);
  const Tensor m = chop_mask(n, cf, 8);
  const Tensor y = tensor::matmul(tensor::matmul(m, d), m.transposed());
  ASSERT_EQ(y.shape(), Shape::matrix(cf * 3, cf * 3));
  for (std::size_t bi = 0; bi < 3; ++bi) {
    for (std::size_t bj = 0; bj < 3; ++bj) {
      for (std::size_t r = 0; r < cf; ++r) {
        for (std::size_t c = 0; c < cf; ++c) {
          EXPECT_EQ(y.at(bi * cf + r, bj * cf + c),
                    d.at(bi * 8 + r, bj * 8 + c));
        }
      }
    }
  }
}

TEST(ChopMask, MTransposeMRestoresWithZeros) {
  // Mᵀ·(M·D·Mᵀ)·M puts the corners back and zeroes everything else —
  // the idempotent "chop" projection.
  runtime::Rng rng(2);
  const std::size_t n = 16, cf = 3;
  const Tensor d = Tensor::uniform(Shape::matrix(n, n), rng, -1.0f, 1.0f);
  const Tensor m = chop_mask(n, cf, 8);
  const Tensor y = tensor::matmul(tensor::matmul(m, d), m.transposed());
  const Tensor restored =
      tensor::matmul(tensor::matmul(m.transposed(), y), m);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const bool kept = (i % 8) < cf && (j % 8) < cf;
      EXPECT_EQ(restored.at(i, j), kept ? d.at(i, j) : 0.0f);
    }
  }
}

TEST(ChopMask, CfEqualsBlockIsPermutationIdentity) {
  const Tensor m = chop_mask(16, 8, 8);
  EXPECT_TRUE(allclose(m, Tensor::identity(16), 0.0));
}

TEST(ChopMask, InvalidArgumentsThrow) {
  EXPECT_THROW(chop_mask(20, 4, 8), std::invalid_argument);  // n % block
  EXPECT_THROW(chop_mask(16, 0, 8), std::invalid_argument);  // cf = 0
  EXPECT_THROW(chop_mask(16, 9, 8), std::invalid_argument);  // cf > block
  EXPECT_THROW(chop_mask(0, 4, 8), std::invalid_argument);   // n = 0
}

TEST(ChopRatio, MatchesEq3) {
  EXPECT_DOUBLE_EQ(chop_ratio(2), 16.0);
  EXPECT_DOUBLE_EQ(chop_ratio(3), 64.0 / 9.0);
  EXPECT_DOUBLE_EQ(chop_ratio(4), 4.0);
  EXPECT_DOUBLE_EQ(chop_ratio(5), 2.56);
  EXPECT_NEAR(chop_ratio(6), 1.78, 0.01);
  EXPECT_NEAR(chop_ratio(7), 1.31, 0.01);
  EXPECT_DOUBLE_EQ(chop_ratio(8), 1.0);
}

TEST(TriangleRatio, MatchesSection352) {
  // CR = 64 / (CF(CF+1)/2); improvement factor over square is 2CF/(CF+1).
  EXPECT_DOUBLE_EQ(triangle_ratio(2), 64.0 / 3.0);
  EXPECT_DOUBLE_EQ(triangle_ratio(7), 64.0 / 28.0);
  for (std::size_t cf = 2; cf <= 7; ++cf) {
    const double factor = triangle_ratio(cf) / chop_ratio(cf);
    EXPECT_NEAR(factor, 2.0 * cf / (cf + 1.0), 1e-9) << "cf=" << cf;
  }
}

TEST(MakeLhsRhs, ShapesMatchFig4) {
  const std::size_t n = 24, cf = 5;
  const Tensor lhs = make_lhs(n, cf);
  const Tensor rhs = make_rhs(n, cf);
  EXPECT_EQ(lhs.shape(), Shape::matrix(cf * n / 8, n));
  EXPECT_EQ(rhs.shape(), Shape::matrix(n, cf * n / 8));
}

TEST(MakeLhsRhs, RhsIsLhsTranspose) {
  const Tensor lhs = make_lhs(16, 4);
  const Tensor rhs = make_rhs(16, 4);
  EXPECT_TRUE(allclose(rhs, lhs.transposed(), 0.0));
}

TEST(MakeLhsRhs, LhsTimesRhsIsIdentity) {
  // LHS · RHS = M·T_L·T_Lᵀ·Mᵀ = M·Mᵀ = I (rows of M are orthonormal).
  const Tensor lhs = make_lhs(32, 3);
  const Tensor rhs = make_rhs(32, 3);
  EXPECT_TRUE(
      allclose(tensor::matmul(lhs, rhs), Tensor::identity(12), 1e-5));
}

TEST(MakeLhsRhs, ClosedFormIsBitwiseTheMaskTimesTransformProduct) {
  // make_lhs places chop_tile on the block diagonal; the reference is the
  // M · T_L product it replaced, through the same GEMM the codec once
  // ran. Compared as bit patterns, so a -0 / +0 difference would fail.
  for (const TransformKind kind :
       {TransformKind::kDct2, TransformKind::kWalshHadamard,
        TransformKind::kDst2}) {
    for (const std::size_t block : {4u, 8u, 16u}) {
      for (std::size_t cf = 1; cf <= block; ++cf) {
        for (const std::size_t n : {block, 4 * block}) {
          const Tensor reference = tensor::matmul(
              chop_mask(n, cf, block), block_diagonal_transform(kind, n, block));
          const Tensor lhs = make_lhs(n, cf, block, kind);
          ASSERT_EQ(lhs.shape(), reference.shape());
          for (std::size_t i = 0; i < lhs.numel(); ++i) {
            ASSERT_EQ(std::bit_cast<std::uint32_t>(lhs.at(i)),
                      std::bit_cast<std::uint32_t>(reference.at(i)))
                << transform_name(kind) << " block=" << block << " cf=" << cf
                << " n=" << n << " flat " << i;
          }
          // The plan tile is each diagonal block of that operator.
          const Tensor tile = chop_tile(cf, block, kind);
          for (std::size_t r = 0; r < cf; ++r) {
            for (std::size_t c = 0; c < block; ++c) {
              ASSERT_EQ(std::bit_cast<std::uint32_t>(tile.at(r, c)),
                        std::bit_cast<std::uint32_t>(
                            reference.at((n / block - 1) * cf + r,
                                         (n / block - 1) * block + c)));
            }
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace aic::core
