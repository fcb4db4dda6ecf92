#include "core/transforms.hpp"

#include <bit>
#include <cmath>
#include <numbers>
#include <stdexcept>
#include <vector>

namespace aic::core {

using tensor::Shape;
using tensor::Tensor;

std::string transform_name(TransformKind kind) {
  switch (kind) {
    case TransformKind::kDct2: return "dct";
    case TransformKind::kWalshHadamard: return "wht";
    case TransformKind::kDst2: return "dst2";
  }
  return "?";
}

namespace {

/// The rows×n matrix whose (i, j) entry is entry(i, j).
template <typename Entry>
Tensor rows_of(std::size_t rows, std::size_t n, Entry entry) {
  Tensor t(Shape::matrix(rows, n));
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < n; ++j) t.at(i, j) = entry(i, j);
  }
  return t;
}

/// Orthonormal DCT-II (Eq. 2).
Tensor dct_rows(std::size_t rows, std::size_t n) {
  if (n == 0) throw std::invalid_argument("dct_matrix: n must be positive");
  const double inv_sqrt_n = 1.0 / std::sqrt(static_cast<double>(n));
  const double scale = std::sqrt(2.0 / static_cast<double>(n));
  return rows_of(rows, n, [&](std::size_t i, std::size_t j) {
    if (i == 0) return static_cast<float>(inv_sqrt_n);
    const double angle = std::numbers::pi * (2.0 * j + 1.0) * i /
                         (2.0 * static_cast<double>(n));
    return static_cast<float>(scale * std::cos(angle));
  });
}

/// Sequency-ordered Walsh-Hadamard: sequency row k is natural (Sylvester)
/// Hadamard row r = bit_reverse(gray(k)), whose entry j is
/// (-1)^popcount(r & j).
Tensor walsh_hadamard_rows(std::size_t rows, std::size_t n) {
  if (n == 0 || (n & (n - 1)) != 0) {
    throw std::invalid_argument(
        "walsh_hadamard_matrix: n must be a power of two");
  }
  const int bits = std::countr_zero(n);
  const float scale = 1.0f / std::sqrt(static_cast<float>(n));
  std::vector<std::size_t> natural(rows);
  for (std::size_t k = 0; k < rows; ++k) {
    const std::size_t gray = k ^ (k >> 1);
    for (int b = 0; b < bits; ++b) {
      natural[k] |= ((gray >> b) & 1u) << (bits - 1 - b);
    }
  }
  return rows_of(rows, n, [&](std::size_t i, std::size_t j) {
    return scale * (std::popcount(natural[i] & j) % 2 == 0 ? 1.0f : -1.0f);
  });
}

/// Orthonormal DST-II: T[i][j] = s(i)·sqrt(2/N)·sin(pi(i+1)(2j+1)/2N),
/// with the last row scaled by 1/sqrt(2).
Tensor dst2_rows(std::size_t rows, std::size_t n) {
  if (n == 0) throw std::invalid_argument("dst2_matrix: n must be positive");
  const double scale = std::sqrt(2.0 / static_cast<double>(n));
  return rows_of(rows, n, [&](std::size_t i, std::size_t j) {
    const double row_scale =
        (i == n - 1) ? scale / std::numbers::sqrt2 : scale;
    const double angle = std::numbers::pi * (i + 1.0) * (2.0 * j + 1.0) /
                         (2.0 * static_cast<double>(n));
    return static_cast<float>(row_scale * std::sin(angle));
  });
}

}  // namespace

Tensor transform_rows(TransformKind kind, std::size_t rows, std::size_t n) {
  if (rows > n) {
    throw std::invalid_argument("transform_rows: rows must be at most n");
  }
  switch (kind) {
    case TransformKind::kDct2: return dct_rows(rows, n);
    case TransformKind::kWalshHadamard: return walsh_hadamard_rows(rows, n);
    case TransformKind::kDst2: return dst2_rows(rows, n);
  }
  throw std::invalid_argument("unknown transform");
}

Tensor transform_matrix(TransformKind kind, std::size_t n) {
  return transform_rows(kind, n, n);
}

Tensor block_diagonal_transform(TransformKind kind, std::size_t n,
                                std::size_t block) {
  if (block == 0 || n % block != 0) {
    throw std::invalid_argument(
        "block_diagonal_transform: n must be a positive multiple of block");
  }
  const Tensor t = transform_matrix(kind, block);
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

}  // namespace aic::core
