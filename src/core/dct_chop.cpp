#include "core/dct_chop.hpp"

#include <sstream>
#include <stdexcept>

#include "core/plan_cache.hpp"
#include "io/error.hpp"
#include "obs/trace.hpp"
#include "runtime/timer.hpp"

namespace aic::core {

using tensor::Shape;
using tensor::Tensor;

DctChopCodec::DctChopCodec(DctChopConfig config, Context ctx)
    : Codec(std::move(ctx)),
      config_(config),
      compress_series_(ctx_, "codec.compress"),
      decompress_series_(ctx_, "codec.decompress") {
  const auto& c = config_;
  if (c.block == 0 || c.cf == 0 || c.cf > c.block) {
    throw std::invalid_argument("DctChopCodec: cf must be in [1, block]");
  }
  if (c.height != 0 || c.width != 0) {
    // Pinned mode: compile (or share) the plan now, validating geometry
    // exactly the way the per-shape constructor always did.
    pinned_ = resolve_dct_chop_plan(ctx_, c.height, c.width, c.cf, c.block,
                                    c.transform);
  }
}

std::shared_ptr<const DctChopPlan> DctChopCodec::plan_for(
    std::size_t height, std::size_t width) const {
  if (pinned_) {
    if (height != config_.height || width != config_.width) {
      throw std::invalid_argument(
          "DctChopCodec: codec compiled for " + std::to_string(config_.height) +
          "x" + std::to_string(config_.width) + ", got " +
          std::to_string(height) + "x" + std::to_string(width));
    }
    return pinned_;
  }
  return resolve_dct_chop_plan(ctx_, height, width, config_.cf, config_.block,
                               config_.transform);
}

std::string DctChopCodec::name() const {
  std::ostringstream out;
  out << transform_name(config_.transform) << "+chop(cf=" << config_.cf
      << ",block=" << config_.block << ")";
  return out.str();
}

std::string DctChopCodec::spec() const {
  std::ostringstream out;
  out << "dctchop:cf=" << config_.cf << ",block=" << config_.block;
  if (config_.transform != TransformKind::kDct2) {
    out << ",transform=" << transform_name(config_.transform);
  }
  if (pinned_) {
    out << ",h=" << config_.height << ",w=" << config_.width;
  }
  return out.str();
}

double DctChopCodec::compression_ratio() const {
  return chop_ratio(config_.cf, config_.block);
}

Shape DctChopCodec::compressed_shape(const Shape& input) const {
  if (input.rank() != 4) {
    throw std::invalid_argument("DctChopCodec: input must be BCHW");
  }
  if (pinned_ &&
      (input[2] != config_.height || input[3] != config_.width)) {
    throw std::invalid_argument(
        "DctChopCodec: codec compiled for " + std::to_string(config_.height) +
        "x" + std::to_string(config_.width) + ", got " + input.to_string());
  }
  const std::size_t h = input[2];
  const std::size_t w = input[3];
  if (h == 0 || w == 0 || h % config_.block != 0 || w % config_.block != 0) {
    throw std::invalid_argument(
        "DctChopCodec: input height/width must be positive multiples of "
        "block, got " +
        input.to_string());
  }
  const std::size_t ch = config_.cf * h / config_.block;
  const std::size_t cw = config_.cf * w / config_.block;
  return Shape::bchw(input[0], input[1], ch, cw);
}

Tensor DctChopCodec::compress(const Tensor& input) const {
  Tensor out;
  compress_into(input, out);
  return out;
}

void DctChopCodec::compress_into(const Tensor& input, Tensor& out) const {
  const Shape packed_shape = compressed_shape(input.shape());
  if (out.shape() != packed_shape) out = Tensor(packed_shape);
  compress_into(input.raw(), input.shape(), out.raw());
}

void DctChopCodec::compress_into(const float* in, const Shape& input,
                                 float* out) const {
  AIC_TRACE_SCOPE("codec.compress");
  // Route the plan executor's parallel_for (and nested gemms) onto this
  // codec's session pool.
  Context::PoolScope pool_scope(ctx_);
  runtime::Timer timer;
  const Shape packed_shape = compressed_shape(input);
  const std::size_t planes = input[0] * input[1];
  const std::size_t h = input[2];
  const std::size_t w = input[3];
  plan_for(h, w)->compress_into(in, out, planes);
  compress_series_.record(
      planes, planes * flops_compress_hw(h, w, config_.cf, config_.block),
      planes * flops_executed_hw(h, w, config_.cf, config_.block),
      input.numel() * sizeof(float), packed_shape.numel() * sizeof(float),
      timer.nanos());
}

Tensor DctChopCodec::decompress(const Tensor& packed,
                                const Shape& original) const {
  Tensor out;
  decompress_into(packed, original, out);
  return out;
}

void DctChopCodec::decompress_into(const Tensor& packed,
                                   const Shape& original, Tensor& out) const {
  if (packed.shape() != compressed_shape(original)) {
    // The packed tensor is decode-side input (it may come straight from
    // an archive), so a mismatch is a data error, not a caller bug.
    io::raise_corrupt(io::CorruptKind::kPayloadMismatch,
                      "DctChopCodec: packed shape " +
                          packed.shape().to_string() + " does not match " +
                          compressed_shape(original).to_string() + " for " +
                          original.to_string());
  }
  if (out.shape() != original) out = Tensor(original);
  decompress_into(packed.raw(), original, out.raw());
}

void DctChopCodec::decompress_into(const float* packed, const Shape& original,
                                   float* out) const {
  AIC_TRACE_SCOPE("codec.decompress");
  Context::PoolScope pool_scope(ctx_);
  runtime::Timer timer;
  const Shape packed_shape = compressed_shape(original);
  const std::size_t planes = original[0] * original[1];
  const std::size_t h = original[2];
  const std::size_t w = original[3];
  plan_for(h, w)->decompress_into(packed, out, planes);
  decompress_series_.record(
      planes, planes * flops_decompress_hw(h, w, config_.cf, config_.block),
      planes * flops_executed_hw(h, w, config_.cf, config_.block),
      packed_shape.numel() * sizeof(float), original.numel() * sizeof(float),
      timer.nanos());
}

std::size_t DctChopCodec::flops_compress(std::size_t n, std::size_t cf,
                                         std::size_t block) {
  // Eq. 5 generalized to any block edge b:
  //   (2n−1) · (CF·n/b) · (n + CF·n/b)
  const std::size_t cn = cf * n / block;
  return (2 * n - 1) * cn * (n + cn);
}

std::size_t DctChopCodec::flops_decompress(std::size_t n, std::size_t cf,
                                           std::size_t block) {
  // Eq. 7 generalized: (2·CF·n/b − 1) · n · (CF·n/b + n)
  const std::size_t cn = cf * n / block;
  return (2 * cn - 1) * n * (cn + n);
}

std::size_t DctChopCodec::flops_compress_hw(std::size_t h, std::size_t w,
                                            std::size_t cf,
                                            std::size_t block) {
  // (h×w)·(w×cw) then (ch×h)·(h×cw), (2k−1) ops per dot product.
  const std::size_t ch = cf * h / block;
  const std::size_t cw = cf * w / block;
  return (2 * w - 1) * h * cw + (2 * h - 1) * ch * cw;
}

std::size_t DctChopCodec::flops_decompress_hw(std::size_t h, std::size_t w,
                                              std::size_t cf,
                                              std::size_t block) {
  // (ch×cw)·(cw×w) then (h×ch)·(ch×w).
  const std::size_t ch = cf * h / block;
  const std::size_t cw = cf * w / block;
  return (2 * cw - 1) * ch * w + (2 * ch - 1) * h * w;
}

std::size_t DctChopCodec::flops_executed_hw(std::size_t h, std::size_t w,
                                            std::size_t cf,
                                            std::size_t block) {
  return 2 * h * w * cf * (block + cf) / block;
}

}  // namespace aic::core
