#include "core/triangle.hpp"

#include <sstream>
#include <stdexcept>

#include "core/plan_cache.hpp"
#include "io/error.hpp"
#include "obs/trace.hpp"
#include "runtime/timer.hpp"

namespace aic::core {

using tensor::Shape;
using tensor::Tensor;

TriangleCodec::TriangleCodec(DctChopConfig config, Context ctx)
    : Codec(std::move(ctx)),
      config_(config),
      compress_series_(ctx_, "sg.compress"),
      decompress_series_(ctx_, "sg.decompress"),
      inner_(std::make_unique<DctChopCodec>(config, ctx_)) {
  per_block_ = config_.cf * (config_.cf + 1) / 2;
  if (config_.height != 0 || config_.width != 0) {
    pinned_ = resolve_triangle_plan(ctx_, config_.height, config_.width,
                                    config_.cf, config_.block,
                                    config_.transform);
  }
}

std::shared_ptr<const TrianglePlan> TriangleCodec::plan_for(
    std::size_t height, std::size_t width) const {
  if (pinned_) {
    if (height != config_.height || width != config_.width) {
      throw std::invalid_argument(
          "TriangleCodec: codec compiled for " +
          std::to_string(config_.height) + "x" +
          std::to_string(config_.width) + ", got " + std::to_string(height) +
          "x" + std::to_string(width));
    }
    return pinned_;
  }
  return resolve_triangle_plan(ctx_, height, width, config_.cf, config_.block,
                               config_.transform);
}

const std::vector<std::size_t>& TriangleCodec::plane_indices() const {
  if (!pinned_) {
    throw std::logic_error(
        "TriangleCodec::plane_indices: shape-agnostic codec has one index "
        "table per resolution");
  }
  return pinned_->plane_indices();
}

std::string TriangleCodec::name() const {
  std::ostringstream out;
  out << "dct+chop+sg(cf=" << config_.cf << ")";
  return out.str();
}

std::string TriangleCodec::spec() const {
  std::ostringstream out;
  out << "triangle:cf=" << config_.cf << ",block=" << config_.block;
  if (config_.transform != TransformKind::kDct2) {
    out << ",transform=" << transform_name(config_.transform);
  }
  if (pinned_) {
    out << ",h=" << config_.height << ",w=" << config_.width;
  }
  return out.str();
}

double TriangleCodec::compression_ratio() const {
  return triangle_ratio(config_.cf, config_.block);
}

Shape TriangleCodec::compressed_shape(const Shape& input) const {
  // Validates rank, resolution and block-divisibility via the inner codec.
  (void)inner_->compressed_shape(input);
  const std::size_t blocks =
      (input[2] / config_.block) * (input[3] / config_.block);
  return Shape::bchw(input[0], input[1], blocks, per_block_);
}

Tensor TriangleCodec::compress(const Tensor& input) const {
  Tensor out(compressed_shape(input.shape()));
  compress_into(input.raw(), input.shape(), out.raw());
  return out;
}

void TriangleCodec::compress_into(const float* in, const Shape& input,
                                  float* out) const {
  AIC_TRACE_SCOPE("sg.compress");
  Context::PoolScope pool_scope(ctx_);
  runtime::Timer timer;
  const Shape packed_shape = compressed_shape(input);
  const std::size_t planes = input[0] * input[1];
  const std::size_t h = input[2];
  const std::size_t w = input[3];
  plan_for(h, w)->compress_into(in, out, planes);
  compress_series_.record(
      planes,
      planes * DctChopCodec::flops_compress_hw(h, w, config_.cf,
                                               config_.block),
      planes * DctChopCodec::flops_executed_hw(h, w, config_.cf,
                                               config_.block),
      input.numel() * sizeof(float), packed_shape.numel() * sizeof(float),
      timer.nanos());
}

Tensor TriangleCodec::decompress(const Tensor& packed,
                                 const Shape& original) const {
  if (packed.shape() != compressed_shape(original)) {
    io::raise_corrupt(io::CorruptKind::kPayloadMismatch,
                      "TriangleCodec: packed shape " +
                          packed.shape().to_string() + " does not match " +
                          compressed_shape(original).to_string() + " for " +
                          original.to_string());
  }
  Tensor out(original);
  decompress_into(packed.raw(), original, out.raw());
  return out;
}

void TriangleCodec::decompress_into(const float* packed,
                                    const Shape& original, float* out) const {
  AIC_TRACE_SCOPE("sg.decompress");
  Context::PoolScope pool_scope(ctx_);
  runtime::Timer timer;
  const Shape packed_shape = compressed_shape(original);
  const std::size_t planes = original[0] * original[1];
  const std::size_t h = original[2];
  const std::size_t w = original[3];
  plan_for(h, w)->decompress_into(packed, out, planes);
  decompress_series_.record(
      planes,
      planes * DctChopCodec::flops_decompress_hw(h, w, config_.cf,
                                                 config_.block),
      planes * DctChopCodec::flops_executed_hw(h, w, config_.cf,
                                               config_.block),
      packed_shape.numel() * sizeof(float), original.numel() * sizeof(float),
      timer.nanos());
}

}  // namespace aic::core
