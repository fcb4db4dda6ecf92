#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "baseline/jpeg_codec.hpp"
#include "baseline/sz_like.hpp"
#include "core/codec.hpp"
#include "core/plan.hpp"

namespace aic::baseline {

/// core::Codec adapter over the SZ-style error-bounded codec, so the
/// comparator is addressable through core::CodecFactory ("sz:eb=0.001")
/// and usable wherever a CodecPtr is (trainer, eval, CLI).
///
/// SZ produces a variable-length bitstream that has no dense-tensor
/// packed form, so the adapter is honest about what it can represent:
/// compress() performs the full encode+decode round trip and returns the
/// *reconstruction* (same shape as the input); decompress() is a
/// pass-through. The achieved stream size is recorded in the
/// `sz.compress.bytes_out` series and in this instance's own byte totals
/// — see compression_ratio().
class SzComparatorCodec final : public core::Codec {
 public:
  explicit SzComparatorCodec(double error_bound,
                             Context ctx = Context::process_default());

  std::string name() const override;
  std::string spec() const override;
  /// Mean achieved ratio over everything compressed so far through this
  /// instance; SZ is variable-rate, so there is no nominal a-priori
  /// ratio. 1.0 before the first compress().
  double compression_ratio() const override;
  tensor::Shape compressed_shape(const tensor::Shape& input) const override;
  tensor::Tensor compress(const tensor::Tensor& input) const override;
  tensor::Tensor decompress(const tensor::Tensor& packed,
                            const tensor::Shape& original) const override;

  double error_bound() const { return inner_.error_bound(); }

 private:
  SzLikeCodec inner_;
  core::CodecSeries compress_series_;
  // Per-instance byte totals behind compression_ratio().
  mutable std::atomic<std::uint64_t> bytes_in_{0};
  mutable std::atomic<std::uint64_t> bytes_out_{0};
};

/// core::Codec adapter over the JPEG-style codec ("jpeg:q=75"). Same
/// reconstruction-passthrough contract as SzComparatorCodec; the
/// quality-scaled quantization table is a compile-time artifact shared
/// through the PlanCache.
class JpegComparatorCodec final : public core::Codec {
 public:
  explicit JpegComparatorCodec(int quality, bool chroma = false,
                               Context ctx = Context::process_default());

  std::string name() const override;
  std::string spec() const override;
  double compression_ratio() const override;
  tensor::Shape compressed_shape(const tensor::Shape& input) const override;
  tensor::Tensor compress(const tensor::Tensor& input) const override;
  tensor::Tensor decompress(const tensor::Tensor& packed,
                            const tensor::Shape& original) const override;

  int quality() const { return quality_; }
  bool chroma() const { return chroma_; }

 private:
  int quality_;
  bool chroma_;
  std::shared_ptr<const core::CodecPlan> plan_;  // holds the quant table
  const JpegLikeCodec* inner_;                   // owned by plan_
  core::CodecSeries compress_series_;
  // Per-instance byte totals behind compression_ratio().
  mutable std::atomic<std::uint64_t> bytes_in_{0};
  mutable std::atomic<std::uint64_t> bytes_out_{0};
};

/// Registers the baseline comparators (zfp, sz, jpeg, colorquant) with
/// core::CodecFactory::global(). Idempotent; call before resolving a
/// baseline spec. Registration is explicit because static-library
/// registrar objects are dropped by the linker unless referenced.
void register_comparator_codecs();

}  // namespace aic::baseline
