#include "tensor/matmul.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "runtime/rng.hpp"
#include "tensor/ops.hpp"

namespace aic::tensor {
namespace {

// Naive triple loop used as ground truth.
Tensor matmul_naive(const Tensor& a, const Tensor& b) {
  const std::size_t m = a.shape()[0];
  const std::size_t k = a.shape()[1];
  const std::size_t n = b.shape()[1];
  Tensor c(Shape::matrix(m, n));
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t p = 0; p < k; ++p) {
        acc += static_cast<double>(a.at(i, p)) * b.at(p, j);
      }
      c.at(i, j) = static_cast<float>(acc);
    }
  }
  return c;
}

TEST(Matmul, SmallKnownProduct) {
  const Tensor a(Shape::matrix(2, 3), {1, 2, 3, 4, 5, 6});
  const Tensor b(Shape::matrix(3, 2), {7, 8, 9, 10, 11, 12});
  const Tensor c = matmul(a, b);
  EXPECT_FLOAT_EQ(c.at(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 64.0f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 139.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 154.0f);
}

TEST(Matmul, IdentityIsNeutral) {
  runtime::Rng rng(2);
  const Tensor a = Tensor::uniform(Shape::matrix(9, 9), rng, -1.0f, 1.0f);
  EXPECT_TRUE(allclose(matmul(a, Tensor::identity(9)), a, 1e-6));
  EXPECT_TRUE(allclose(matmul(Tensor::identity(9), a), a, 1e-6));
}

TEST(Matmul, MatchesNaiveOnRandomRectangles) {
  runtime::Rng rng(3);
  for (auto [m, k, n] : {std::tuple<std::size_t, std::size_t, std::size_t>{1, 1, 1},
                         {5, 7, 3},
                         {16, 16, 16},
                         {33, 65, 17},
                         {128, 40, 64}}) {
    const Tensor a = Tensor::uniform(Shape::matrix(m, k), rng, -1.0f, 1.0f);
    const Tensor b = Tensor::uniform(Shape::matrix(k, n), rng, -1.0f, 1.0f);
    EXPECT_TRUE(allclose(matmul(a, b), matmul_naive(a, b), 1e-3))
        << m << "x" << k << "x" << n;
  }
}

TEST(Matmul, InnerDimensionMismatchThrows) {
  const Tensor a(Shape::matrix(2, 3));
  const Tensor b(Shape::matrix(4, 2));
  EXPECT_THROW(matmul(a, b), std::invalid_argument);
}

TEST(Matmul, Rank4OperandThrows) {
  const Tensor a(Shape::bchw(1, 1, 2, 2));
  const Tensor b(Shape::matrix(2, 2));
  EXPECT_THROW(matmul(a, b), std::invalid_argument);
}

TEST(MatmulInto, AccumulateAddsToExisting) {
  const Tensor a = Tensor::identity(3);
  const Tensor b = Tensor::full(Shape::matrix(3, 3), 2.0f);
  Tensor out = Tensor::full(Shape::matrix(3, 3), 1.0f);
  matmul_into(a, b, out, /*accumulate=*/true);
  for (float v : out.data()) EXPECT_FLOAT_EQ(v, 3.0f);
}

TEST(MatmulInto, NonAccumulateOverwrites) {
  const Tensor a = Tensor::identity(3);
  const Tensor b = Tensor::full(Shape::matrix(3, 3), 2.0f);
  Tensor out = Tensor::full(Shape::matrix(3, 3), 100.0f);
  matmul_into(a, b, out, /*accumulate=*/false);
  for (float v : out.data()) EXPECT_FLOAT_EQ(v, 2.0f);
}

TEST(MatmulInto, WrongOutputShapeThrows) {
  const Tensor a(Shape::matrix(2, 3));
  const Tensor b(Shape::matrix(3, 4));
  Tensor out(Shape::matrix(2, 5));
  EXPECT_THROW(matmul_into(a, b, out), std::invalid_argument);
}

TEST(Matmul, AssociativityWithinTolerance) {
  runtime::Rng rng(5);
  const Tensor a = Tensor::uniform(Shape::matrix(12, 8), rng, -1.0f, 1.0f);
  const Tensor b = Tensor::uniform(Shape::matrix(8, 10), rng, -1.0f, 1.0f);
  const Tensor c = Tensor::uniform(Shape::matrix(10, 6), rng, -1.0f, 1.0f);
  EXPECT_TRUE(
      allclose(matmul(matmul(a, b), c), matmul(a, matmul(b, c)), 1e-3));
}

TEST(MatmulFlops, CountsTwoMNK) {
  const Tensor a(Shape::matrix(3, 4));
  const Tensor b(Shape::matrix(4, 5));
  EXPECT_EQ(matmul_flops(a, b), 2u * 3u * 4u * 5u);
}

TEST(MatmulDtype, RejectsNonFloat32Operands) {
  const Tensor a(Shape::matrix(2, 2));
  Tensor half(Shape::matrix(2, 2));
  half.set_dtype(DType::kFloat16);
  Tensor out(Shape::matrix(2, 2));
  EXPECT_THROW(matmul(a, half), std::invalid_argument);
  EXPECT_THROW(matmul(half, a), std::invalid_argument);
  EXPECT_THROW(matmul_into(a, a, half), std::invalid_argument);

  Tensor bf_in(Shape::bchw(1, 1, 2, 2));
  bf_in.set_dtype(DType::kBfloat16);
  Tensor plane_out(Shape::bchw(1, 1, 2, 2));
  EXPECT_THROW(block_sandwich_into(a, bf_in, a, plane_out),
               std::invalid_argument);
  Tensor bf_op = a;
  bf_op.set_dtype(DType::kBfloat16);
  const Tensor in(Shape::bchw(1, 1, 2, 2));
  EXPECT_THROW(block_sandwich_into(bf_op, in, a, plane_out),
               std::invalid_argument);
  EXPECT_THROW(block_sandwich_into(a, in, bf_op, plane_out),
               std::invalid_argument);
}

// The dense operator with `tile` repeated `blocks` times on its diagonal.
Tensor block_diagonal(const Tensor& tile, std::size_t blocks) {
  const std::size_t rows = tile.shape()[0], cols = tile.shape()[1];
  Tensor m(Shape::matrix(blocks * rows, blocks * cols));
  for (std::size_t blk = 0; blk < blocks; ++blk) {
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < cols; ++c) {
        m.at(blk * rows + r, blk * cols + c) = tile.at(r, c);
      }
    }
  }
  return m;
}

TEST(SandwichPlanes, MatchesPerPlaneProducts) {
  runtime::Rng rng(6);
  const Tensor left = Tensor::uniform(Shape::matrix(4, 8), rng, -1.0f, 1.0f);
  const Tensor right = Tensor::uniform(Shape::matrix(8, 4), rng, -1.0f, 1.0f);
  const Tensor in =
      Tensor::uniform(Shape::bchw(3, 2, 16, 24), rng, -1.0f, 1.0f);
  Tensor out(Shape::bchw(3, 2, 8, 12));
  block_sandwich_into(left, in, right, out);
  const Tensor lhs = block_diagonal(left, 2);
  const Tensor rhs = block_diagonal(right, 3);
  for (std::size_t b = 0; b < 3; ++b) {
    for (std::size_t c = 0; c < 2; ++c) {
      const Tensor expected =
          matmul_naive(lhs, matmul_naive(in.slice_plane(b, c), rhs));
      EXPECT_TRUE(allclose(out.slice_plane(b, c), expected, 1e-4));
    }
  }
}

TEST(SandwichPlanes, ShapeMismatchThrows) {
  const Tensor left(Shape::matrix(4, 8));
  const Tensor right(Shape::matrix(8, 4));
  const Tensor in(Shape::bchw(1, 1, 8, 8));
  Tensor wrong(Shape::bchw(1, 1, 4, 5));
  EXPECT_THROW(block_sandwich_into(left, in, right, wrong),
               std::invalid_argument);
  // Tiles whose block grid does not tile the plane.
  Tensor out(Shape::bchw(1, 1, 4, 4));
  EXPECT_THROW(block_sandwich_into(Tensor(Shape::matrix(4, 3)), in, right,
                                   out),
               std::invalid_argument);
  EXPECT_THROW(block_sandwich_into(left, in, Tensor(Shape::matrix(3, 4)),
                                   out),
               std::invalid_argument);
  EXPECT_THROW(block_sandwich_into(left, Tensor(Shape::matrix(8, 8)), right,
                                   out),
               std::invalid_argument);
}

TEST(SandwichPlanesInto, BandedMatchesDensePathExactly) {
  // The block kernel must produce the same bits as the plane-by-plane
  // two-matmul sandwich over the dense block-diagonal operators: the
  // skipped terms are exact zeros, the rest run in the same order.
  runtime::Rng rng(12);
  const std::size_t bands_h = 4, bands_w = 3;
  const std::size_t cf = 4, block = 8;
  const Tensor left =
      Tensor::uniform(Shape::matrix(cf, block), rng, -1.0f, 1.0f);
  const Tensor right = left.transposed();
  const Tensor lhs = block_diagonal(left, bands_h);
  const Tensor rhs = block_diagonal(right, bands_w);
  const std::size_t h = bands_h * block, w = bands_w * block;
  const Tensor in = Tensor::uniform(Shape::bchw(2, 3, h, w), rng, -1.0f, 1.0f);
  Tensor out(Shape::bchw(2, 3, bands_h * cf, bands_w * cf));
  block_sandwich_into(left, in, right, out);
  for (std::size_t b = 0; b < 2; ++b) {
    for (std::size_t c = 0; c < 3; ++c) {
      const Tensor expected = matmul(lhs, matmul(in.slice_plane(b, c), rhs));
      const Tensor got = out.slice_plane(b, c);
      for (std::size_t i = 0; i < expected.numel(); ++i) {
        ASSERT_EQ(got.at(i), expected.at(i)) << "plane " << b << "," << c;
      }
    }
  }
}

}  // namespace
}  // namespace aic::tensor
