#include "baseline/comparators.hpp"

#include <atomic>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "baseline/color_quant.hpp"
#include "baseline/zfp_like.hpp"
#include "core/codec_factory.hpp"
#include "core/plan_cache.hpp"
#include "obs/trace.hpp"
#include "runtime/parallel_for.hpp"
#include "runtime/timer.hpp"

namespace aic::baseline {

using tensor::Shape;
using tensor::Tensor;

namespace {

std::uint64_t param_milli(double value) {
  return static_cast<std::uint64_t>(std::llround(value * 1000.0));
}

/// Plan for parameter-only comparators (zfp, sz): nothing resident — the
/// plan exists so baseline codecs account through the same cache and
/// metrics as the core kinds.
class ParamPlan final : public core::CodecPlan {
 public:
  explicit ParamPlan(const core::PlanKey& key) : core::CodecPlan(key) {}
  std::size_t resident_bytes() const override { return 0; }
};

/// Plan holding the quality-scaled JPEG quantization table (the codec's
/// compile-time artifact) via a ready-to-run JpegLikeCodec.
class JpegPlan final : public core::CodecPlan {
 public:
  JpegPlan(const core::PlanKey& key, int quality, bool chroma)
      : core::CodecPlan(key), codec_(quality, chroma) {}
  const JpegLikeCodec& codec() const { return codec_; }
  std::size_t resident_bytes() const override { return sizeof(QuantTable); }

 private:
  JpegLikeCodec codec_;
};

core::PlanKey baseline_key(core::CodecKind kind, std::uint64_t param) {
  core::PlanKey key;
  key.kind = kind;
  key.param_milli = param;
  return key;
}

double achieved_ratio(const std::atomic<std::uint64_t>& bytes_in,
                      const std::atomic<std::uint64_t>& bytes_out) {
  const std::uint64_t out = bytes_out.load(std::memory_order_relaxed);
  if (out == 0) return 1.0;
  return static_cast<double>(bytes_in.load(std::memory_order_relaxed)) /
         static_cast<double>(out);
}

}  // namespace

// ---------------------------------------------------------------------------
// SzComparatorCodec

SzComparatorCodec::SzComparatorCodec(double error_bound, Context ctx)
    : Codec(std::move(ctx)),
      inner_(error_bound),
      compress_series_(ctx_, "sz.compress", /*counts_flops=*/false) {
  // Parameter-only plan: keeps baseline resolutions visible in
  // plan_cache.* metrics alongside the core kinds.
  (void)core::PlanCache::of(ctx_).resolve(
      baseline_key(core::CodecKind::kSz, param_milli(error_bound)),
      [error_bound] {
        return std::make_shared<ParamPlan>(
            baseline_key(core::CodecKind::kSz, param_milli(error_bound)));
      });
}

std::string SzComparatorCodec::name() const {
  std::ostringstream out;
  out << "sz-like(eb=" << inner_.error_bound() << ")";
  return out.str();
}

std::string SzComparatorCodec::spec() const {
  std::ostringstream out;
  out << "sz:eb=" << inner_.error_bound();
  return out.str();
}

double SzComparatorCodec::compression_ratio() const {
  return achieved_ratio(bytes_in_, bytes_out_);
}

Shape SzComparatorCodec::compressed_shape(const Shape& input) const {
  if (input.rank() != 4) {
    throw std::invalid_argument("SzComparatorCodec: input must be BCHW");
  }
  // The packed form is the reconstruction (variable-length streams have
  // no dense packed layout); the achieved size is recorded per call.
  return input;
}

Tensor SzComparatorCodec::compress(const Tensor& input) const {
  AIC_TRACE_SCOPE("sz.compress");
  Context::PoolScope pool_scope(ctx_);
  runtime::Timer timer;
  (void)compressed_shape(input.shape());
  const std::size_t planes = input.shape()[0] * input.shape()[1];
  // Planes are independent streams; fan them over the pool. The byte
  // total is a commutative sum, so the relaxed atomic keeps the byte
  // counts deterministic regardless of completion order.
  std::atomic<std::size_t> stream_bytes{0};
  Tensor out(input.shape());
  runtime::parallel_for(
      0, planes,
      [&](std::size_t p) {
        const std::size_t b = p / input.shape()[1];
        const std::size_t c = p % input.shape()[1];
        const SzLikeCodec::Stream stream =
            inner_.compress_plane(input.slice_plane(b, c));
        stream_bytes.fetch_add(stream.bytes.size(),
                               std::memory_order_relaxed);
        out.set_plane(b, c,
                      inner_.decompress_plane(stream, input.shape()[2],
                                              input.shape()[3]));
      },
      {.grain = 1});
  bytes_in_.fetch_add(input.size_bytes(), std::memory_order_relaxed);
  bytes_out_.fetch_add(stream_bytes.load(), std::memory_order_relaxed);
  compress_series_.record(planes, 0, 0, input.size_bytes(),
                          stream_bytes.load(), timer.nanos());
  return out;
}

Tensor SzComparatorCodec::decompress(const Tensor& packed,
                                     const Shape& original) const {
  if (packed.shape() != original) {
    throw std::invalid_argument("SzComparatorCodec: packed shape mismatch");
  }
  return packed;
}

// ---------------------------------------------------------------------------
// JpegComparatorCodec

JpegComparatorCodec::JpegComparatorCodec(int quality, bool chroma, Context ctx)
    : Codec(std::move(ctx)),
      quality_(quality),
      chroma_(chroma),
      compress_series_(ctx_, "jpeg.compress", /*counts_flops=*/false) {
  const core::PlanKey key = baseline_key(
      core::CodecKind::kJpeg,
      param_milli(static_cast<double>(quality)) + (chroma ? 1 : 0));
  plan_ = core::PlanCache::of(ctx_).resolve(key, [&key, quality, chroma] {
    return std::make_shared<JpegPlan>(key, quality, chroma);
  });
  inner_ = &static_cast<const JpegPlan*>(plan_.get())->codec();
}

std::string JpegComparatorCodec::name() const {
  std::ostringstream out;
  out << "jpeg-like(q=" << quality_ << ")";
  return out.str();
}

std::string JpegComparatorCodec::spec() const {
  std::ostringstream out;
  out << "jpeg:q=" << quality_;
  if (chroma_) out << ",chroma=1";
  return out.str();
}

double JpegComparatorCodec::compression_ratio() const {
  return achieved_ratio(bytes_in_, bytes_out_);
}

Shape JpegComparatorCodec::compressed_shape(const Shape& input) const {
  if (input.rank() != 4) {
    throw std::invalid_argument("JpegComparatorCodec: input must be BCHW");
  }
  if (input[2] % 8 != 0 || input[3] % 8 != 0) {
    throw std::invalid_argument(
        "JpegComparatorCodec: dims must be multiples of 8");
  }
  return input;
}

Tensor JpegComparatorCodec::compress(const Tensor& input) const {
  AIC_TRACE_SCOPE("jpeg.compress");
  Context::PoolScope pool_scope(ctx_);
  runtime::Timer timer;
  (void)compressed_shape(input.shape());
  const std::size_t planes = input.shape()[0] * input.shape()[1];
  std::atomic<std::size_t> stream_bytes{0};
  Tensor out(input.shape());
  runtime::parallel_for(
      0, planes,
      [&](std::size_t p) {
        const std::size_t b = p / input.shape()[1];
        const std::size_t c = p % input.shape()[1];
        const JpegLikeCodec::Stream stream =
            inner_->compress_plane(input.slice_plane(b, c));
        stream_bytes.fetch_add(stream.bytes.size(),
                               std::memory_order_relaxed);
        out.set_plane(b, c,
                      inner_->decompress_plane(stream, input.shape()[2],
                                               input.shape()[3]));
      },
      {.grain = 1});
  bytes_in_.fetch_add(input.size_bytes(), std::memory_order_relaxed);
  bytes_out_.fetch_add(stream_bytes.load(), std::memory_order_relaxed);
  compress_series_.record(planes, 0, 0, input.size_bytes(),
                          stream_bytes.load(), timer.nanos());
  return out;
}

Tensor JpegComparatorCodec::decompress(const Tensor& packed,
                                       const Shape& original) const {
  if (packed.shape() != original) {
    throw std::invalid_argument("JpegComparatorCodec: packed shape mismatch");
  }
  return packed;
}

// ---------------------------------------------------------------------------

void register_comparator_codecs() {
  core::CodecFactory& factory = core::CodecFactory::global();
  factory.register_codec(
      "zfp", "ZFP-style fixed-rate block codec (CPU comparator, Fig. 9)",
      [](const core::SpecParams& p, const Context& ctx) -> core::CodecPtr {
        const double rate = p.get_double("rate", 8.0);
        // Parameter-only plan resolution, for uniform cache accounting.
        const core::PlanKey key =
            baseline_key(core::CodecKind::kZfp, param_milli(rate));
        (void)core::PlanCache::of(ctx).resolve(key, [&key] {
          return std::make_shared<ParamPlan>(key);
        });
        return std::make_shared<ZfpLikeCodec>(rate, ctx);
      });
  factory.register_codec(
      "sz", "SZ-style error-bounded codec (round-trip comparator)",
      [](const core::SpecParams& p, const Context& ctx) -> core::CodecPtr {
        return std::make_shared<SzComparatorCodec>(p.get_double("eb", 1e-3),
                                                   ctx);
      });
  factory.register_codec(
      "jpeg", "JPEG-style codec (round-trip comparator, Fig. 3)",
      [](const core::SpecParams& p, const Context& ctx) -> core::CodecPtr {
        return std::make_shared<JpegComparatorCodec>(
            static_cast<int>(p.get_size("q", 75)),
            p.get_bool("chroma", false), ctx);
      });
  factory.register_codec(
      "colorquant", "uniform color quantization baseline (CR = 32/bits)",
      [](const core::SpecParams& p, const Context& ctx) -> core::CodecPtr {
        return std::make_shared<ColorQuantCodec>(
            p.get_size("bits", 8),
            static_cast<float>(p.get_double("lo", 0.0)),
            static_cast<float>(p.get_double("hi", 1.0)), ctx);
      },
      {"cq"});
}

}  // namespace aic::baseline
