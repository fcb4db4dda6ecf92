#pragma once

#include <cstddef>
#include <memory>

#include "core/codec.hpp"
#include "core/dct_chop.hpp"
#include "core/plan.hpp"

namespace aic::core {

/// Partial-serialization optimization (§3.5.1).
///
/// Instead of compressing a BD×C×n×n tensor in one shot — which needs
/// LHS/RHS operators of size (CF·n/8)×n that can exceed a compute unit's
/// local memory — the sample is subdivided by a factor `s` into s×s
/// chunks of size (n/s)×(n/s). The chunks are processed *serially* with
/// a codec compiled for the chunk resolution, shrinking the working set
/// by s² at the cost of s² sequential launches.
struct PartialSerialConfig {
  /// Zero height/width makes the codec shape-agnostic (plans resolved
  /// per incoming resolution from the PlanCache); non-zero pins it.
  std::size_t height = 0;
  std::size_t width = 0;
  std::size_t cf = 4;
  std::size_t block = kDefaultBlock;
  TransformKind transform = TransformKind::kDct2;
  /// Subdivision factor s >= 1; s == 1 degenerates to plain DCT+Chop.
  std::size_t subdivision = 2;
};

class PartialSerialCodec final : public Codec {
 public:
  explicit PartialSerialCodec(PartialSerialConfig config,
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

  const PartialSerialConfig& config() const { return config_; }
  bool pinned() const { return pinned_ != nullptr; }
  /// The shared chunk-resolution codec driving every chunk launch. Its
  /// `codec.*` series count the s² launches per call; this codec records
  /// the whole call under `ps.*`.
  const DctChopCodec& chunk_codec() const { return *chunk_codec_; }

  /// The compiled plan serving a h×w input (pinned plan or PlanCache
  /// resolution).
  std::shared_ptr<const PartialSerialPlan> plan_for(std::size_t height,
                                                    std::size_t width) const;

  /// Bytes of the dense chunk operators (LHS + RHS) that the two-matmul
  /// graph of one chunk holds as constants — the quantity the
  /// optimization exists to shrink. Pinned codecs only.
  std::size_t operator_bytes() const;

  /// The *full* working set of one in-flight chunk beyond input+output:
  /// chunk input/packed staging (batch×channels deep) plus the chunk
  /// executor's own working set. operator_bytes() deliberately excludes
  /// these, which made accel memory-capacity checks optimistic — use this
  /// for capacity accounting. Pinned codecs only.
  std::size_t workspace_bytes(std::size_t batch, std::size_t channels) const;

  /// Operator bytes for an unserialized codec at the full resolution.
  static std::size_t unserialized_operator_bytes(std::size_t n, std::size_t cf,
                                                 std::size_t block = kDefaultBlock);

 private:
  PartialSerialConfig config_;
  CodecSeries compress_series_;
  CodecSeries decompress_series_;
  std::shared_ptr<const PartialSerialPlan> pinned_;  // null when agnostic
  std::unique_ptr<DctChopCodec> chunk_codec_;
};

}  // namespace aic::core
