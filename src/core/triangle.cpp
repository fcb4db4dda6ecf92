#include "core/triangle.hpp"

#include <algorithm>
#include <sstream>

#include "core/zigzag.hpp"
#include "runtime/buffer_pool.hpp"

namespace aic::core {

using tensor::Shape;

TriangleCodec::TriangleCodec(DctChopConfig config, Context ctx)
    : ChopFamilyCodec(config, /*subdivision=*/1, "sg.compress",
                      "sg.decompress", std::move(ctx)) {
  for (const std::size_t offset : triangle_indices(config.cf, config.cf)) {
    cells_.push_back({offset / config.cf, offset % config.cf});
  }
}

std::string TriangleCodec::name() const {
  std::ostringstream out;
  out << "dct+chop+sg(cf=" << config().cf << ")";
  return out.str();
}

std::string TriangleCodec::spec() const {
  const DctChopConfig& c = config();
  std::ostringstream out;
  out << "triangle:cf=" << c.cf << ",block=" << c.block;
  if (c.transform != TransformKind::kDct2) {
    out << ",transform=" << transform_name(c.transform);
  }
  if (pinned()) {
    out << ",h=" << c.height << ",w=" << c.width;
  }
  return out.str();
}

double TriangleCodec::compression_ratio() const {
  return triangle_ratio(config().cf, config().block);
}

Shape TriangleCodec::compressed_shape(const Shape& input) const {
  const Shape chopped = ChopFamilyCodec::compressed_shape(input);
  const std::size_t cf = config().cf;
  const std::size_t blocks = (chopped[2] / cf) * (chopped[3] / cf);
  return Shape::bchw(input[0], input[1], blocks, cells_.size());
}

// The chopped planes of a call are contiguous and CF divides their
// height, so one walk over every plane's block rows visits the blocks in
// packed order.

void TriangleCodec::transform_compress(const DctChopPlan& plan,
                                       const float* in, float* out,
                                       std::size_t planes) const {
  const std::size_t cf = config().cf;
  const std::size_t rows = planes * cf * plan.key().height / config().block;
  const std::size_t cw = cf * plan.key().width / config().block;
  const runtime::BufferPool::Buffer chopped =
      ctx_.buffer_pool().acquire(rows * cw * sizeof(float));
  float* staged = reinterpret_cast<float*>(chopped.data());
  plan.compress_into(in, staged, planes);
  // torch.gather: packed[k] = chopped[index[k]].
  for (std::size_t row = 0; row < rows; row += cf) {
    for (std::size_t col = 0; col < cw; col += cf) {
      const float* block = staged + row * cw + col;
      for (const Cell& cell : cells_) *out++ = block[cell.row * cw + cell.col];
    }
  }
}

void TriangleCodec::transform_decompress(const DctChopPlan& plan,
                                         const float* packed, float* out,
                                         std::size_t planes) const {
  const std::size_t cf = config().cf;
  const std::size_t rows = planes * cf * plan.key().height / config().block;
  const std::size_t cw = cf * plan.key().width / config().block;
  const runtime::BufferPool::Buffer chopped =
      ctx_.buffer_pool().acquire(rows * cw * sizeof(float));
  float* staged = reinterpret_cast<float*>(chopped.data());
  // torch.scatter: chopped[index[k]] = packed[k]. Each block row is
  // written whole, the chopped-away zeros included, so the recycled
  // buffer needs no fill of its own.
  for (std::size_t row = 0; row < rows; row += cf) {
    float* block_row = staged + row * cw;
    std::fill_n(block_row, cf * cw, 0.0f);
    for (std::size_t col = 0; col < cw; col += cf) {
      for (const Cell& cell : cells_) {
        block_row[cell.row * cw + col + cell.col] = *packed++;
      }
    }
  }
  plan.decompress_into(staged, out, planes);
}

std::vector<std::size_t> triangle_plane_indices(std::size_t height,
                                                std::size_t width,
                                                std::size_t cf,
                                                std::size_t block) {
  const std::size_t ch = cf * (height / block);
  const std::size_t cw = cf * (width / block);
  const std::vector<std::size_t> offsets = triangle_indices(cf, cw);
  std::vector<std::size_t> indices;
  indices.reserve((ch / cf) * (cw / cf) * offsets.size());
  for (std::size_t row = 0; row < ch; row += cf) {
    for (std::size_t col = 0; col < cw; col += cf) {
      for (const std::size_t offset : offsets) {
        indices.push_back(row * cw + col + offset);
      }
    }
  }
  return indices;
}

}  // namespace aic::core
