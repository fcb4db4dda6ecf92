#include "core/dct.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "core/transforms.hpp"

namespace aic::core {

using tensor::Shape;
using tensor::Tensor;

Tensor dct_matrix(std::size_t n) {
  return transform_rows(TransformKind::kDct2, n, n);
}

Tensor block_diagonal_dct(std::size_t n, std::size_t block) {
  if (block == 0 || n % block != 0) {
    throw std::invalid_argument(
        "block_diagonal_dct: n must be a positive multiple of block");
  }
  const Tensor t = dct_matrix(block);
  Tensor t_l(Shape::matrix(n, n));
  for (std::size_t base = 0; base < n; base += block) {
    for (std::size_t i = 0; i < block; ++i) {
      for (std::size_t j = 0; j < block; ++j) {
        t_l.at(base + i, base + j) = t.at(i, j);
      }
    }
  }
  return t_l;
}

Tensor dct2d_reference(const Tensor& block) {
  if (block.shape().rank() != 2 || block.shape()[0] != block.shape()[1]) {
    throw std::invalid_argument("dct2d_reference: block must be square");
  }
  const std::size_t n = block.shape()[0];
  const double dn = static_cast<double>(n);
  auto c = [](std::size_t w) {
    return w == 0 ? 1.0 / std::numbers::sqrt2 : 1.0;
  };
  auto s = [dn](std::size_t u, std::size_t v) {
    return std::cos((2.0 * u + 1.0) * v * std::numbers::pi / (2.0 * dn));
  };
  Tensor out(Shape::matrix(n, n));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t x = 0; x < n; ++x) {
        for (std::size_t y = 0; y < n; ++y) {
          acc += block.at(x, y) * s(x, i) * s(y, j);
        }
      }
      // Eq. 1 normalization: (1/sqrt(2N)) C(i) C(j) ... applied twice for
      // the separable 2-D transform gives 2/N overall together with C().
      out.at(i, j) =
          static_cast<float>(acc * c(i) * c(j) * 2.0 / dn);
    }
  }
  return out;
}

Tensor blockwise_dct_reference(const Tensor& plane, std::size_t block) {
  const std::size_t h = plane.shape()[0];
  const std::size_t w = plane.shape()[1];
  if (h % block != 0 || w % block != 0) {
    throw std::invalid_argument(
        "blockwise_dct_reference: plane not divisible by block");
  }
  Tensor out(Shape::matrix(h, w));
  Tensor tile(Shape::matrix(block, block));
  for (std::size_t bi = 0; bi < h; bi += block) {
    for (std::size_t bj = 0; bj < w; bj += block) {
      for (std::size_t i = 0; i < block; ++i) {
        for (std::size_t j = 0; j < block; ++j) {
          tile.at(i, j) = plane.at(bi + i, bj + j);
        }
      }
      const Tensor coeffs = dct2d_reference(tile);
      for (std::size_t i = 0; i < block; ++i) {
        for (std::size_t j = 0; j < block; ++j) {
          out.at(bi + i, bj + j) = coeffs.at(i, j);
        }
      }
    }
  }
  return out;
}

}  // namespace aic::core
