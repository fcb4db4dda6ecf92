#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "core/codec.hpp"
#include "core/dct_chop.hpp"
#include "core/plan.hpp"

namespace aic::core {

/// Graphcore scatter/gather optimization (§3.5.2).
///
/// After DCT+Chop produces the CF×CF corner of each block, only the
/// upper-left *triangle* (r + c < CF, i.e. CF(CF+1)/2 values per block)
/// is significant, because the chopped square still contains
/// high-frequency corner coefficients. `torch.gather` with compile-time
/// indices packs the triangles densely; `torch.scatter` restores them
/// before the DCT+Chop decompression. CR improves from 64/CF² to
/// 64/(CF(CF+1)/2), a factor 2CF/(CF+1).
///
/// The gather index tables and the inner chop operands live in a
/// TrianglePlan shared through the PlanCache; the codec is the shell over
/// it that records the `sg.compress` / `sg.decompress` registry series.
class TriangleCodec final : public Codec {
 public:
  explicit TriangleCodec(DctChopConfig config,
                         Context ctx = Context::process_default());

  std::string name() const override;
  std::string spec() const override;
  double compression_ratio() const override;
  tensor::Shape compressed_shape(const tensor::Shape& input) const override;
  tensor::Tensor compress(const tensor::Tensor& input) const override;
  tensor::Tensor decompress(const tensor::Tensor& packed,
                            const tensor::Shape& original) const override;
  using Codec::compress_into;
  using Codec::decompress_into;
  void compress_into(const float* in, const tensor::Shape& input,
                     float* out) const override;
  void decompress_into(const float* packed, const tensor::Shape& original,
                       float* out) const override;

  const DctChopConfig& config() const { return config_; }
  bool pinned() const { return pinned_ != nullptr; }
  /// The shared inner DCT+Chop codec configuration (same shape mode).
  const DctChopCodec& inner() const { return *inner_; }

  /// The compiled plan serving a h×w input.
  std::shared_ptr<const TrianglePlan> plan_for(std::size_t height,
                                               std::size_t width) const;

  /// Retained coefficients per block: CF(CF+1)/2.
  std::size_t values_per_block() const { return per_block_; }
  /// The compile-time gather index table for one chopped plane (pinned
  /// codecs only — agnostic codecs hold one table per resolution).
  const std::vector<std::size_t>& plane_indices() const;

 private:
  DctChopConfig config_;
  CodecSeries compress_series_;
  CodecSeries decompress_series_;
  std::shared_ptr<const TrianglePlan> pinned_;  // null when shape-agnostic
  std::unique_ptr<DctChopCodec> inner_;
  std::size_t per_block_ = 0;
};

}  // namespace aic::core
