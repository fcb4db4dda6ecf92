#include "core/chop.hpp"

#include <stdexcept>

namespace aic::core {

using tensor::Shape;
using tensor::Tensor;

namespace {

void validate(std::size_t n, std::size_t cf, std::size_t block) {
  if (block == 0 || n == 0 || n % block != 0) {
    throw std::invalid_argument("chop: n must be a positive multiple of block");
  }
  if (cf == 0 || cf > block) {
    throw std::invalid_argument("chop: cf must be in [1, block]");
  }
}

}  // namespace

Tensor chop_mask(std::size_t n, std::size_t cf, std::size_t block) {
  validate(n, cf, block);
  const std::size_t nblocks = n / block;
  Tensor m(Shape::matrix(cf * nblocks, n));
  for (std::size_t blk = 0; blk < nblocks; ++blk) {
    for (std::size_t r = 0; r < cf; ++r) {
      m.at(blk * cf + r, blk * block + r) = 1.0f;
    }
  }
  return m;
}

double chop_ratio(std::size_t cf, std::size_t block) {
  validate(block, cf, block);
  return static_cast<double>(block * block) / static_cast<double>(cf * cf);
}

double triangle_ratio(std::size_t cf, std::size_t block) {
  validate(block, cf, block);
  const double retained = static_cast<double>(cf * (cf + 1)) / 2.0;
  return static_cast<double>(block * block) / retained;
}

Tensor chop_tile(std::size_t cf, std::size_t block, TransformKind kind) {
  validate(block, cf, block);
  return transform_rows(kind, cf, block);
}

Tensor make_lhs(std::size_t n, std::size_t cf, std::size_t block,
                TransformKind kind) {
  validate(n, cf, block);
  const Tensor tile = chop_tile(cf, block, kind);
  Tensor lhs(Shape::matrix(cf * n / block, n));
  for (std::size_t base = 0; base < n / block; ++base) {
    for (std::size_t r = 0; r < cf; ++r) {
      for (std::size_t j = 0; j < block; ++j) {
        lhs.at(base * cf + r, base * block + j) = tile.at(r, j);
      }
    }
  }
  return lhs;
}

Tensor make_rhs(std::size_t n, std::size_t cf, std::size_t block,
                TransformKind kind) {
  return make_lhs(n, cf, block, kind).transposed();
}

}  // namespace aic::core
