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

/// Copies a `rows`×`cols` window out of every one of `planes` planes:
/// `src` and `dst` point at the window's first element in plane 0, rows
/// are `*_stride` floats apart and planes `*_plane` floats apart (rows
/// are contiguous, so each is one memcpy).
void copy_window(std::size_t planes, std::size_t rows, std::size_t cols,
                 const float* src, std::size_t src_stride,
                 std::size_t src_plane, float* dst, std::size_t dst_stride,
                 std::size_t dst_plane) {
  for (std::size_t plane = 0; plane < planes; ++plane) {
    const float* from_row = src + plane * src_plane;
    float* to_row = dst + plane * dst_plane;
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
  Tensor out(compressed_shape(input.shape()));
  compress_into(input.raw(), input.shape(), out.raw());
  return out;
}

void PartialSerialCodec::compress_into(const float* in, const Shape& input,
                                       float* out) const {
  AIC_TRACE_SCOPE("ps.compress");
  Context::PoolScope pool_scope(ctx_);
  runtime::Timer timer;
  const Shape packed_shape = compressed_shape(input);
  const std::size_t batch = input[0];
  const std::size_t channels = input[1];
  const std::size_t planes = batch * channels;
  const std::size_t h = input[2];
  const std::size_t w = input[3];
  const std::size_t ch = packed_shape[2];
  const std::size_t cw = packed_shape[3];
  const std::size_t s = config_.subdivision;
  const std::size_t chunk_h = h / s;
  const std::size_t chunk_w = w / s;
  const std::size_t chunk_ch = ch / s;
  const std::size_t chunk_cw = cw / s;

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
    copy_window(planes, chunk_h, chunk_w,
                in + (index / s) * chunk_h * w + (index % s) * chunk_w, w,
                h * w, dst.raw(), chunk_w, chunk_h * chunk_w);
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
      copy_window(planes, chunk_ch, chunk_cw, packed.raw(), chunk_cw,
                  chunk_ch * chunk_cw,
                  out + (index / s) * chunk_ch * cw + (index % s) * chunk_cw,
                  cw, ch * cw);
    }
  } catch (...) {
    // A queued prefetch must not outlive the tensors it writes into.
    if (pending.valid()) pending.wait();
    throw;
  }
  compress_series_.record(
      planes,
      planes * total *
          DctChopCodec::flops_compress_hw(chunk_h, chunk_w, config_.cf,
                                          config_.block),
      planes * total *
          DctChopCodec::flops_executed_hw(chunk_h, chunk_w, config_.cf,
                                          config_.block),
      input.numel() * sizeof(float), packed_shape.numel() * sizeof(float),
      timer.nanos());
}

Tensor PartialSerialCodec::decompress(const Tensor& packed,
                                      const Shape& original) const {
  if (packed.shape() != compressed_shape(original)) {
    io::raise_corrupt(io::CorruptKind::kPayloadMismatch,
                      "PartialSerialCodec: packed shape " +
                          packed.shape().to_string() + " does not match " +
                          compressed_shape(original).to_string() + " for " +
                          original.to_string());
  }
  Tensor out(original);
  decompress_into(packed.raw(), original, out.raw());
  return out;
}

void PartialSerialCodec::decompress_into(const float* packed,
                                         const Shape& original,
                                         float* out) const {
  AIC_TRACE_SCOPE("ps.decompress");
  Context::PoolScope pool_scope(ctx_);
  runtime::Timer timer;
  const Shape packed_shape = compressed_shape(original);
  const std::size_t batch = original[0];
  const std::size_t channels = original[1];
  const std::size_t planes = batch * channels;
  const std::size_t h = original[2];
  const std::size_t w = original[3];
  const std::size_t ch = packed_shape[2];
  const std::size_t cw = packed_shape[3];
  const std::size_t s = config_.subdivision;
  const std::size_t chunk_h = h / s;
  const std::size_t chunk_w = w / s;
  const std::size_t chunk_ch = ch / s;
  const std::size_t chunk_cw = cw / s;
  const Shape chunk_shape = Shape::bchw(batch, channels, chunk_h, chunk_w);

  Tensor chunk_packed(Shape::bchw(batch, channels, chunk_ch, chunk_cw));
  for (std::size_t si = 0; si < s; ++si) {
    for (std::size_t sj = 0; sj < s; ++sj) {
      AIC_TRACE_SCOPE("ps.chunk");
      copy_window(planes, chunk_ch, chunk_cw,
                  packed + si * chunk_ch * cw + sj * chunk_cw, cw, ch * cw,
                  chunk_packed.raw(), chunk_cw, chunk_ch * chunk_cw);
      const Tensor chunk = chunk_codec_->decompress(chunk_packed, chunk_shape);
      copy_window(planes, chunk_h, chunk_w, chunk.raw(), chunk_w,
                  chunk_h * chunk_w, out + si * chunk_h * w + sj * chunk_w, w,
                  h * w);
    }
  }
  decompress_series_.record(
      planes,
      planes * s * s *
          DctChopCodec::flops_decompress_hw(chunk_h, chunk_w, config_.cf,
                                            config_.block),
      planes * s * s *
          DctChopCodec::flops_executed_hw(chunk_h, chunk_w, config_.cf,
                                          config_.block),
      packed_shape.numel() * sizeof(float), original.numel() * sizeof(float),
      timer.nanos());
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
