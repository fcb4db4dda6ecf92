#include "core/transforms.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "core/dct_chop.hpp"
#include "runtime/rng.hpp"
#include "tensor/matmul.hpp"
#include "tensor/ops.hpp"

namespace aic::core {
namespace {

using tensor::Shape;
using tensor::Tensor;
using tensor::allclose;

class TransformFamily : public ::testing::TestWithParam<TransformKind> {};

TEST_P(TransformFamily, IsOrthonormal) {
  const TransformKind kind = GetParam();
  for (std::size_t n : {4u, 8u, 16u}) {
    const Tensor t = transform_matrix(kind, n);
    EXPECT_TRUE(allclose(tensor::matmul(t, t.transposed()),
                         Tensor::identity(n), 1e-5))
        << transform_name(kind) << " n=" << n;
  }
}

TEST_P(TransformFamily, ChopCodecRoundTripsLosslesslyAtFullCf) {
  const TransformKind kind = GetParam();
  runtime::Rng rng(1);
  const DctChopCodec codec({.height = 16,
                            .width = 16,
                            .cf = 8,
                            .block = 8,
                            .transform = kind});
  const Tensor in = Tensor::uniform(Shape::bchw(1, 2, 16, 16), rng, -1, 1);
  EXPECT_TRUE(allclose(codec.round_trip(in), in, 1e-4))
      << transform_name(kind);
}

TEST_P(TransformFamily, ErrorDecreasesWithCf) {
  const TransformKind kind = GetParam();
  runtime::Rng rng(2);
  Tensor in(Shape::bchw(1, 1, 32, 32));
  for (std::size_t h = 0; h < 32; ++h) {
    for (std::size_t w = 0; w < 32; ++w) {
      in.at(0, 0, h, w) =
          static_cast<float>(std::sin(h * 0.25) + std::cos(w * 0.35));
    }
  }
  double last = 1e30;
  for (std::size_t cf = 1; cf <= 8; ++cf) {
    const DctChopCodec codec({.height = 32,
                              .width = 32,
                              .cf = cf,
                              .block = 8,
                              .transform = kind});
    const double err = tensor::mse(in, codec.round_trip(in));
    EXPECT_LE(err, last + 1e-9) << transform_name(kind) << " cf=" << cf;
    last = err;
  }
}

TEST_P(TransformFamily, RowsAreTheLeadingRowsBitwise) {
  const TransformKind kind = GetParam();
  for (std::size_t n : {1u, 2u, 8u, 64u}) {
    const Tensor t = transform_matrix(kind, n);
    for (std::size_t rows : {std::size_t{1}, n / 2, n}) {
      const Tensor head = transform_rows(kind, rows, n);
      ASSERT_EQ(head.shape(), Shape::matrix(rows, n));
      for (std::size_t i = 0; i < rows * n; ++i) {
        ASSERT_EQ(std::bit_cast<std::uint32_t>(head.at(i)),
                  std::bit_cast<std::uint32_t>(t.at(i)))
            << transform_name(kind) << " n=" << n << " rows=" << rows;
      }
    }
  }
  EXPECT_THROW(transform_rows(kind, 9, 8), std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(Kinds, TransformFamily,
                         ::testing::Values(TransformKind::kDct2,
                                           TransformKind::kWalshHadamard,
                                           TransformKind::kDst2),
                         [](const auto& info) {
                           return transform_name(info.param);
                         });

TEST(WalshHadamard, EntriesArePlusMinusInvSqrtN) {
  const Tensor t = transform_matrix(TransformKind::kWalshHadamard, 8);
  const float expected = 1.0f / std::sqrt(8.0f);
  for (float v : t.data()) {
    EXPECT_NEAR(std::fabs(v), expected, 1e-6f);
  }
}

TEST(WalshHadamard, SequencyOrdered) {
  const Tensor t = transform_matrix(TransformKind::kWalshHadamard, 8);
  auto changes = [&](std::size_t row) {
    int count = 0;
    for (std::size_t j = 1; j < 8; ++j) {
      if ((t.at(row, j) > 0) != (t.at(row, j - 1) > 0)) ++count;
    }
    return count;
  };
  // Row k changes sign exactly k times; row 0 is constant, like the
  // DCT's DC row.
  for (std::size_t row = 0; row < 8; ++row) {
    EXPECT_EQ(changes(row), static_cast<int>(row)) << row;
  }
}

TEST(WalshHadamard, NonPowerOfTwoThrows) {
  EXPECT_THROW(transform_matrix(TransformKind::kWalshHadamard, 6), std::invalid_argument);
  EXPECT_THROW(transform_matrix(TransformKind::kWalshHadamard, 0), std::invalid_argument);
}

TEST(Dst2, FirstRowIsLowestFrequency) {
  const Tensor t = transform_matrix(TransformKind::kDst2, 8);
  // Row 0 = sin(pi(2j+1)/16): strictly positive and unimodal.
  for (std::size_t j = 0; j < 8; ++j) {
    EXPECT_GT(t.at(0, j), 0.0f);
  }
}

TEST(Transforms, BlockDiagonalMatchesDctHelper) {
  const Tensor via_generic =
      block_diagonal_transform(TransformKind::kDct2, 24, 8);
  const Tensor via_dct = block_diagonal_dct(24, 8);
  EXPECT_TRUE(allclose(via_generic, via_dct, 0.0));
}

TEST(Transforms, DctBeatsWhtOnSmoothData) {
  // The DCT concentrates smooth-signal energy better than the WHT —
  // the reason it is the paper's default.
  runtime::Rng rng(3);
  Tensor in(Shape::bchw(1, 1, 32, 32));
  for (std::size_t h = 0; h < 32; ++h) {
    for (std::size_t w = 0; w < 32; ++w) {
      in.at(0, 0, h, w) =
          static_cast<float>(std::sin(h * 0.2) * std::cos(w * 0.15));
    }
  }
  const DctChopCodec dct({.height = 32, .width = 32, .cf = 3, .block = 8});
  const DctChopCodec wht({.height = 32,
                          .width = 32,
                          .cf = 3,
                          .block = 8,
                          .transform = TransformKind::kWalshHadamard});
  EXPECT_LT(tensor::mse(in, dct.round_trip(in)),
            tensor::mse(in, wht.round_trip(in)));
}

TEST(Transforms, NamesEncodeFamily) {
  const DctChopCodec wht({.height = 16,
                          .width = 16,
                          .cf = 4,
                          .block = 8,
                          .transform = TransformKind::kWalshHadamard});
  EXPECT_EQ(wht.name(), "wht+chop(cf=4,block=8)");
}

}  // namespace
}  // namespace aic::core
