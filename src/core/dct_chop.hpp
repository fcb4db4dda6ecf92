#pragma once

#include <cstddef>
#include <memory>

#include "core/chop.hpp"
#include "core/codec.hpp"
#include "core/dct.hpp"
#include "core/plan.hpp"

namespace aic::core {

/// Configuration of the DCT+Chop compressor.
struct DctChopConfig {
  /// Height/width of the samples the codec is compiled for. Non-zero
  /// pins the codec to one resolution — the operands are resolved
  /// eagerly at construction and feeding a different shape throws, the
  /// paper's per-shape compile contract (§3.1). Zero (the default) makes
  /// the codec shape-agnostic: the plan for each incoming resolution is
  /// resolved at compress() time from the codec's context's PlanCache.
  std::size_t height = 0;
  std::size_t width = 0;
  /// Chop factor CF ∈ [1, block]: the upper-left CF×CF coefficients of
  /// every block are retained. CR = block²/CF² (Eq. 3).
  std::size_t cf = 4;
  /// Transform block edge (8 in the paper and in JPEG).
  std::size_t block = kDefaultBlock;
  /// Block transform family; DCT-II is the paper's choice, the others
  /// implement the §6 alternative-transform future work.
  TransformKind transform = TransformKind::kDct2;
};

/// The shell the archive family shares: DCT+Chop and its §3.5 variants
/// (TriangleCodec, PartialSerialCodec). Each runs one DctChopPlan per
/// resolution — pinned at construction when the config names a
/// height/width (the paper's per-shape compile contract, §3.1), else
/// resolved per call from the context's PlanCache — straight between
/// plane ranges of caller memory, and records one registry stem per
/// direction. The Tensor calls adapt to the plane-range calls here.
class ChopFamilyCodec : public Codec {
 public:
  /// The chopped BCHW shape, CF·H/block × CF·W/block per plane. Throws
  /// unless `input` is BCHW at the pinned resolution (if any) and tiles
  /// into the s×s chunks of whole blocks the codec promises.
  tensor::Shape compressed_shape(const tensor::Shape& input) const override;
  tensor::Tensor compress(const tensor::Tensor& input) const final;
  /// Raises CorruptStream (kPayloadMismatch) when `packed` does not have
  /// compressed_shape(original): the packed tensor is decode-side input
  /// (it may come straight from an archive), so a mismatch is a data
  /// error, not a caller bug.
  tensor::Tensor decompress(const tensor::Tensor& packed,
                            const tensor::Shape& original) const final;
  /// Zero-allocation variants when `out` already has the right shape.
  void compress_into(const tensor::Tensor& input,
                     tensor::Tensor& out) const final;
  void decompress_into(const tensor::Tensor& packed,
                       const tensor::Shape& original,
                       tensor::Tensor& out) const final;
  void compress_into(const float* in, const tensor::Shape& input,
                     float* out) const final;
  void decompress_into(const float* packed, const tensor::Shape& original,
                       float* out) const final;

  /// True when the codec is pinned to one resolution.
  bool pinned() const { return pinned_ != nullptr; }

 protected:
  /// `subdivision` s ≥ 1 is partial serialization's chunk grid: inputs
  /// must tile into s×s chunks of whole blocks, and the nominal Eq. 5/7
  /// FLOPs count s² chunk-resolution launches. The stems name the
  /// registry series and trace spans of each direction.
  ChopFamilyCodec(const DctChopConfig& chop, std::size_t subdivision,
                  const char* compress_stem, const char* decompress_stem,
                  Context ctx);

  /// The packing after Eq. 4 and before Eq. 6: the identity here; the
  /// triangle codec gathers and scatters.
  virtual void transform_compress(const DctChopPlan& plan, const float* in,
                                  float* out, std::size_t planes) const;
  virtual void transform_decompress(const DctChopPlan& plan,
                                    const float* packed, float* out,
                                    std::size_t planes) const;

  const DctChopConfig& chop_config() const { return chop_; }

 private:
  /// The compiled plan serving a h×w input that compressed_shape
  /// accepted: the pinned plan, or a PlanCache resolution for
  /// shape-agnostic codecs.
  std::shared_ptr<const DctChopPlan> plan_for(std::size_t height,
                                              std::size_t width) const;

  DctChopConfig chop_;
  std::size_t subdivision_;
  const char* compress_stem_;
  const char* decompress_stem_;
  CodecSeries compress_series_;
  CodecSeries decompress_series_;
  std::shared_ptr<const DctChopPlan> pinned_;  // null when shape-agnostic
};

/// The paper's core contribution (§3.2–§3.4): a lossy fixed-rate codec
/// that is, end to end, two matrix multiplications per direction —
///
///   compress    Y  = LHS · A · RHS     (Eq. 4)
///   decompress  A' = RHS · Y · LHS     (Eq. 6)
///
/// with LHS = M·T_L precomputed in a DctChopPlan ("compile time") as the
/// one CF×block tile it repeats. The codec records its calls under the
/// `codec.compress` / `codec.decompress` registry series; plans are
/// shared through the PlanCache, so two codecs at the same (shape, cf,
/// block, transform) execute the same plan. The dense operators come from
/// make_lhs()/make_rhs().
class DctChopCodec final : public ChopFamilyCodec {
 public:
  explicit DctChopCodec(DctChopConfig config,
                        Context ctx = Context::process_default());

  std::string name() const override;
  std::string spec() const override;
  double compression_ratio() const override;

  const DctChopConfig& config() const { return chop_config(); }

  /// Closed-form FLOP count of compressing one n×n plane (Eq. 5),
  /// using the (2k−1)-ops-per-dot-product convention of the paper.
  static std::size_t flops_compress(std::size_t n, std::size_t cf,
                                    std::size_t block = kDefaultBlock);
  /// Closed-form FLOP count of decompressing one plane (Eq. 7).
  static std::size_t flops_decompress(std::size_t n, std::size_t cf,
                                      std::size_t block = kDefaultBlock);

  /// Eq. 5 generalized to one h×w plane (the two chained matmul costs).
  static std::size_t flops_compress_hw(std::size_t h, std::size_t w,
                                       std::size_t cf,
                                       std::size_t block = kDefaultBlock);
  /// Eq. 7 generalized to one h×w plane.
  static std::size_t flops_decompress_hw(std::size_t h, std::size_t w,
                                         std::size_t cf,
                                         std::size_t block = kDefaultBlock);
  /// FLOPs the block kernel executes on one h×w plane, either direction:
  /// CF MACs per pixel against the right tile plus CF²/block against the
  /// left, 2·h·w·CF·(1 + CF/block) (6 MACs per pixel at CF=4, block=8).
  static std::size_t flops_executed_hw(std::size_t h, std::size_t w,
                                       std::size_t cf,
                                       std::size_t block = kDefaultBlock);
};

}  // namespace aic::core
