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

ChopFamilyCodec::ChopFamilyCodec(const DctChopConfig& chop,
                                 std::size_t subdivision,
                                 const char* compress_stem,
                                 const char* decompress_stem, Context ctx)
    : Codec(std::move(ctx)),
      chop_(chop),
      subdivision_(subdivision),
      compress_stem_(compress_stem),
      decompress_stem_(decompress_stem),
      compress_series_(ctx_, compress_stem),
      decompress_series_(ctx_, decompress_stem) {
  if (subdivision_ == 0) {
    throw std::invalid_argument("DCT+Chop: subdivision must be >= 1");
  }
  if (chop_.block == 0 || chop_.cf == 0 || chop_.cf > chop_.block) {
    throw std::invalid_argument("DCT+Chop: cf must be in [1, block]");
  }
  if (chop_.height != 0 || chop_.width != 0) {
    // Pinned mode: validate the geometry and compile (or share) the plan
    // now.
    (void)ChopFamilyCodec::compressed_shape(
        Shape::bchw(1, 1, chop_.height, chop_.width));
    pinned_ = resolve_dct_chop_plan(ctx_, chop_.height, chop_.width, chop_.cf,
                                    chop_.block, chop_.transform);
  }
}

std::shared_ptr<const DctChopPlan> ChopFamilyCodec::plan_for(
    std::size_t height, std::size_t width) const {
  if (pinned_) return pinned_;  // compressed_shape checked the resolution
  return resolve_dct_chop_plan(ctx_, height, width, chop_.cf, chop_.block,
                               chop_.transform);
}

Shape ChopFamilyCodec::compressed_shape(const Shape& input) const {
  if (input.rank() != 4) {
    throw std::invalid_argument("DCT+Chop: input must be BCHW");
  }
  const std::size_t h = input[2];
  const std::size_t w = input[3];
  if (pinned_ && (h != chop_.height || w != chop_.width)) {
    throw std::invalid_argument(
        "DCT+Chop: codec compiled for " + std::to_string(chop_.height) + "x" +
        std::to_string(chop_.width) + ", got " + input.to_string());
  }
  // s×s chunks of whole blocks (s = 1: whole blocks).
  const std::size_t s = subdivision_;
  if (h == 0 || w == 0 || h % s != 0 || w % s != 0 ||
      (h / s) % chop_.block != 0 || (w / s) % chop_.block != 0) {
    throw std::invalid_argument(
        "DCT+Chop: input height/width must be positive multiples of s·block "
        "(s=" +
        std::to_string(s) + ", block=" + std::to_string(chop_.block) +
        "), got " + input.to_string());
  }
  return Shape::bchw(input[0], input[1], chop_.cf * h / chop_.block,
                     chop_.cf * w / chop_.block);
}

Tensor ChopFamilyCodec::compress(const Tensor& input) const {
  Tensor out;
  compress_into(input, out);
  return out;
}

Tensor ChopFamilyCodec::decompress(const Tensor& packed,
                                   const Shape& original) const {
  Tensor out;
  decompress_into(packed, original, out);
  return out;
}

void ChopFamilyCodec::compress_into(const Tensor& input, Tensor& out) const {
  const Shape packed_shape = compressed_shape(input.shape());
  if (out.shape() != packed_shape) out = Tensor(packed_shape);
  compress_into(input.raw(), input.shape(), out.raw());
}

void ChopFamilyCodec::decompress_into(const Tensor& packed,
                                      const Shape& original,
                                      Tensor& out) const {
  const Shape packed_shape = compressed_shape(original);
  if (packed.shape() != packed_shape) {
    io::raise_corrupt(io::CorruptKind::kPayloadMismatch,
                      name() + ": packed shape " + packed.shape().to_string() +
                          " does not match " + packed_shape.to_string() +
                          " for " + original.to_string());
  }
  if (out.shape() != original) out = Tensor(original);
  decompress_into(packed.raw(), original, out.raw());
}

void ChopFamilyCodec::compress_into(const float* in, const Shape& input,
                                    float* out) const {
  AIC_TRACE_SCOPE(compress_stem_);
  // Route the plan executor's parallel_for (and nested gemms) onto this
  // codec's session pool.
  Context::PoolScope pool_scope(ctx_);
  runtime::Timer timer;
  const Shape packed_shape = compressed_shape(input);
  const std::size_t planes = input[0] * input[1];
  const std::size_t h = input[2];
  const std::size_t w = input[3];
  const std::size_t s = subdivision_;
  transform_compress(*plan_for(h, w), in, out, planes);
  compress_series_.record(
      planes,
      planes * s * s *
          DctChopCodec::flops_compress_hw(h / s, w / s, chop_.cf, chop_.block),
      planes * DctChopCodec::flops_executed_hw(h, w, chop_.cf, chop_.block),
      input.numel() * sizeof(float), packed_shape.numel() * sizeof(float),
      timer.nanos());
}

void ChopFamilyCodec::decompress_into(const float* packed,
                                      const Shape& original,
                                      float* out) const {
  AIC_TRACE_SCOPE(decompress_stem_);
  Context::PoolScope pool_scope(ctx_);
  runtime::Timer timer;
  const Shape packed_shape = compressed_shape(original);
  const std::size_t planes = original[0] * original[1];
  const std::size_t h = original[2];
  const std::size_t w = original[3];
  const std::size_t s = subdivision_;
  transform_decompress(*plan_for(h, w), packed, out, planes);
  decompress_series_.record(
      planes,
      planes * s * s *
          DctChopCodec::flops_decompress_hw(h / s, w / s, chop_.cf,
                                            chop_.block),
      planes * DctChopCodec::flops_executed_hw(h, w, chop_.cf, chop_.block),
      packed_shape.numel() * sizeof(float), original.numel() * sizeof(float),
      timer.nanos());
}

void ChopFamilyCodec::transform_compress(const DctChopPlan& plan,
                                         const float* in, float* out,
                                         std::size_t planes) const {
  plan.compress_into(in, out, planes);
}

void ChopFamilyCodec::transform_decompress(const DctChopPlan& plan,
                                           const float* packed, float* out,
                                           std::size_t planes) const {
  plan.decompress_into(packed, out, planes);
}

// ---------------------------------------------------------------------------
// DctChopCodec

DctChopCodec::DctChopCodec(DctChopConfig config, Context ctx)
    : ChopFamilyCodec(config, /*subdivision=*/1, "codec.compress",
                      "codec.decompress", std::move(ctx)) {}

std::string DctChopCodec::name() const {
  const DctChopConfig& c = config();
  std::ostringstream out;
  out << transform_name(c.transform) << "+chop(cf=" << c.cf
      << ",block=" << c.block << ")";
  return out.str();
}

std::string DctChopCodec::spec() const {
  const DctChopConfig& c = config();
  std::ostringstream out;
  out << "dctchop:cf=" << c.cf << ",block=" << c.block;
  if (c.transform != TransformKind::kDct2) {
    out << ",transform=" << transform_name(c.transform);
  }
  if (pinned()) {
    out << ",h=" << c.height << ",w=" << c.width;
  }
  return out.str();
}

double DctChopCodec::compression_ratio() const {
  return chop_ratio(config().cf, config().block);
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
