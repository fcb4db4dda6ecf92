#include "core/partial_serializer.hpp"

#include <cstring>
#include <future>
#include <sstream>
#include <stdexcept>

#include "core/plan_cache.hpp"
#include "runtime/thread_pool.hpp"
#include "io/error.hpp"
#include "obs/trace.hpp"
#include "runtime/timer.hpp"

namespace aic::core {

using tensor::Shape;
using tensor::Tensor;

namespace {

/// Copies an aligned sub-window between two BCHW tensors row by row
/// (rows are contiguous in W, so each is one memcpy).
///
/// For every (batch, channel) plane, the `rows`×`cols` window at
/// (src_h, src_w) of `src` lands at (dst_h, dst_w) of `dst`.
void copy_window(const Tensor& src, std::size_t src_h, std::size_t src_w,
                 Tensor& dst, std::size_t dst_h, std::size_t dst_w,
                 std::size_t rows, std::size_t cols) {
  const std::size_t planes = src.shape()[0] * src.shape()[1];
  const std::size_t src_stride = src.shape()[3];
  const std::size_t dst_stride = dst.shape()[3];
  const std::size_t src_plane = src.shape()[2] * src_stride;
  const std::size_t dst_plane = dst.shape()[2] * dst_stride;
  const float* from = src.raw() + src_h * src_stride + src_w;
  float* to = dst.raw() + dst_h * dst_stride + dst_w;
  for (std::size_t plane = 0; plane < planes; ++plane) {
    const float* from_row = from + plane * src_plane;
    float* to_row = to + plane * dst_plane;
    for (std::size_t r = 0; r < rows; ++r) {
      std::memcpy(to_row, from_row, cols * sizeof(float));
      from_row += src_stride;
      to_row += dst_stride;
    }
  }
}

}  // namespace

PartialSerialCodec::PartialSerialCodec(PartialSerialConfig config, Context ctx)
    : Codec(std::move(ctx)),
      config_(config),
      compress_series_(ctx_, "ps.compress"),
      decompress_series_(ctx_, "ps.decompress") {
  const auto& c = config_;
  if (c.subdivision == 0) {
    throw std::invalid_argument("PartialSerialCodec: subdivision must be >= 1");
  }
  if (c.block == 0 || c.cf == 0 || c.cf > c.block) {
    throw std::invalid_argument("PartialSerialCodec: cf must be in [1, block]");
  }
  if (c.height != 0 || c.width != 0) {
    pinned_ = resolve_partial_serial_plan(ctx_, c.height, c.width, c.cf,
                                          c.block, c.transform, c.subdivision);
    chunk_codec_ = std::make_unique<DctChopCodec>(
        DctChopConfig{.height = pinned_->chunk_h(),
                      .width = pinned_->chunk_w(),
                      .cf = c.cf,
                      .block = c.block,
                      .transform = c.transform},
        ctx_);
  } else {
    // Shape-agnostic: one chunk codec serves every incoming resolution,
    // resolving the per-chunk plan from the cache.
    chunk_codec_ = std::make_unique<DctChopCodec>(
        DctChopConfig{.cf = c.cf, .block = c.block, .transform = c.transform},
        ctx_);
  }
}

std::shared_ptr<const PartialSerialPlan> PartialSerialCodec::plan_for(
    std::size_t height, std::size_t width) const {
  if (pinned_) {
    if (height != config_.height || width != config_.width) {
      throw std::invalid_argument("PartialSerialCodec: codec compiled for " +
                                  std::to_string(config_.height) + "x" +
                                  std::to_string(config_.width) + ", got " +
                                  std::to_string(height) + "x" +
                                  std::to_string(width));
    }
    return pinned_;
  }
  return resolve_partial_serial_plan(ctx_, height, width, config_.cf,
                                     config_.block, config_.transform,
                                     config_.subdivision);
}

std::string PartialSerialCodec::name() const {
  std::ostringstream out;
  out << "dct+chop+ps(cf=" << config_.cf << ",s=" << config_.subdivision
      << ")";
  return out.str();
}

std::string PartialSerialCodec::spec() const {
  std::ostringstream out;
  out << "partial:cf=" << config_.cf << ",block=" << config_.block
      << ",s=" << config_.subdivision;
  if (config_.transform != TransformKind::kDct2) {
    out << ",transform=" << transform_name(config_.transform);
  }
  if (pinned_) {
    out << ",h=" << config_.height << ",w=" << config_.width;
  }
  return out.str();
}

double PartialSerialCodec::compression_ratio() const {
  return chop_ratio(config_.cf, config_.block);
}

Shape PartialSerialCodec::compressed_shape(const Shape& input) const {
  if (input.rank() != 4 ||
      (pinned_ &&
       (input[2] != config_.height || input[3] != config_.width))) {
    throw std::invalid_argument("PartialSerialCodec: bad input shape " +
                                input.to_string());
  }
  // Validates chunk geometry (divisibility by s, chunk multiple of block).
  (void)partial_serial_plan_key(input[2], input[3], config_.cf, config_.block,
                                config_.transform, config_.subdivision);
  const std::size_t ch = config_.cf * input[2] / config_.block;
  const std::size_t cw = config_.cf * input[3] / config_.block;
  return Shape::bchw(input[0], input[1], ch, cw);
}

Tensor PartialSerialCodec::compress(const Tensor& input) const {
  AIC_TRACE_SCOPE("ps.compress");
  Context::PoolScope pool_scope(ctx_);
  runtime::Timer timer;
  Tensor out(compressed_shape(input.shape()));
  const std::size_t batch = input.shape()[0];
  const std::size_t channels = input.shape()[1];
  const std::size_t s = config_.subdivision;
  const std::size_t chunk_h = input.shape()[2] / s;
  const std::size_t chunk_w = input.shape()[3] / s;
  const std::size_t chunk_ch = config_.cf * chunk_h / config_.block;
  const std::size_t chunk_cw = config_.cf * chunk_w / config_.block;

  // Chunks are still transformed serially — only one chunk's transform
  // working set is alive at a time, the point of the optimization — but
  // the NEXT chunk's input window is gathered on the pool while the
  // current chunk runs its GEMM sandwich. Double buffering costs one
  // extra input staging tensor (still O(plane / s^2)) and hides the
  // strided copy_window latency behind the transform.
  Tensor staging[2] = {
      Tensor(Shape::bchw(batch, channels, chunk_h, chunk_w)),
      Tensor(Shape::bchw(batch, channels, chunk_h, chunk_w))};
  const std::size_t total = s * s;
  const auto stage = [&](std::size_t index, Tensor& dst) {
    copy_window(input, (index / s) * chunk_h, (index % s) * chunk_w, dst, 0,
                0, chunk_h, chunk_w);
  };
  runtime::ThreadPool& pool = ctx_.pool();
  std::future<void> pending;
  stage(0, staging[0]);
  try {
    for (std::size_t index = 0; index < total; ++index) {
      AIC_TRACE_SCOPE("ps.chunk");
      if (pending.valid()) pending.get();  // chunk `index` fully staged
      const Tensor& chunk = staging[index & 1];
      if (index + 1 < total) {
        Tensor* next = &staging[(index + 1) & 1];
        pending =
            pool.submit([&stage, next, index] { stage(index + 1, *next); });
      }
      const Tensor packed = chunk_codec_->compress(chunk);
      copy_window(packed, 0, 0, out, (index / s) * chunk_ch,
                  (index % s) * chunk_cw, chunk_ch, chunk_cw);
    }
  } catch (...) {
    // A queued prefetch must not outlive the tensors it writes into.
    if (pending.valid()) pending.wait();
    throw;
  }
  const std::size_t launches = batch * channels * s * s;
  compress_series_.record(
      batch * channels,
      launches * DctChopCodec::flops_compress_hw(chunk_h, chunk_w, config_.cf,
                                                 config_.block),
      launches * DctChopCodec::flops_executed_hw(chunk_h, chunk_w, config_.cf,
                                                 config_.block),
      input.size_bytes(), out.size_bytes(), timer.nanos());
  return out;
}

Tensor PartialSerialCodec::decompress(const Tensor& packed,
                                      const Shape& original) const {
  AIC_TRACE_SCOPE("ps.decompress");
  Context::PoolScope pool_scope(ctx_);
  runtime::Timer timer;
  if (packed.shape() != compressed_shape(original)) {
    io::raise_corrupt(io::CorruptKind::kPayloadMismatch,
                      "PartialSerialCodec: packed shape " +
                          packed.shape().to_string() + " does not match " +
                          compressed_shape(original).to_string() + " for " +
                          original.to_string());
  }
  Tensor out(original);
  const std::size_t batch = original[0];
  const std::size_t channels = original[1];
  const std::size_t s = config_.subdivision;
  const std::size_t chunk_h = original[2] / s;
  const std::size_t chunk_w = original[3] / s;
  const std::size_t chunk_ch = config_.cf * chunk_h / config_.block;
  const std::size_t chunk_cw = config_.cf * chunk_w / config_.block;
  const Shape chunk_shape = Shape::bchw(batch, channels, chunk_h, chunk_w);

  Tensor chunk_packed(Shape::bchw(batch, channels, chunk_ch, chunk_cw));
  for (std::size_t si = 0; si < s; ++si) {
    for (std::size_t sj = 0; sj < s; ++sj) {
      AIC_TRACE_SCOPE("ps.chunk");
      copy_window(packed, si * chunk_ch, sj * chunk_cw, chunk_packed, 0, 0,
                  chunk_ch, chunk_cw);
      const Tensor chunk = chunk_codec_->decompress(chunk_packed, chunk_shape);
      copy_window(chunk, 0, 0, out, si * chunk_h, sj * chunk_w, chunk_h,
                  chunk_w);
    }
  }
  const std::size_t launches = batch * channels * s * s;
  decompress_series_.record(
      batch * channels,
      launches * DctChopCodec::flops_decompress_hw(chunk_h, chunk_w,
                                                   config_.cf, config_.block),
      launches * DctChopCodec::flops_executed_hw(chunk_h, chunk_w, config_.cf,
                                                 config_.block),
      packed.size_bytes(), out.size_bytes(), timer.nanos());
  return out;
}

std::size_t PartialSerialCodec::operator_bytes() const {
  if (!pinned_) {
    throw std::logic_error(
        "PartialSerialCodec::operator_bytes: requires a pinned codec");
  }
  const std::size_t h = pinned_->chunk_h();
  const std::size_t w = pinned_->chunk_w();
  return (config_.cf * h / config_.block * h +
          w * (config_.cf * w / config_.block)) *
         sizeof(float);
}

std::size_t PartialSerialCodec::workspace_bytes(std::size_t batch,
                                                std::size_t channels) const {
  if (!pinned_) {
    throw std::logic_error(
        "PartialSerialCodec::workspace_bytes: requires a pinned codec");
  }
  return pinned_->workspace_bytes(batch, channels);
}

std::size_t PartialSerialCodec::unserialized_operator_bytes(std::size_t n,
                                                            std::size_t cf,
                                                            std::size_t block) {
  const std::size_t rows = cf * n / block;
  return 2 * rows * n * sizeof(float);
}

}  // namespace aic::core
