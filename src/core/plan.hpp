#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/transforms.hpp"
#include "tensor/shape.hpp"
#include "tensor/tensor.hpp"

namespace aic::core {

/// Codec families addressable through the plan cache and the factory.
enum class CodecKind : std::uint8_t {
  kDctChop = 0,
  kPartialSerial = 1,
  kTriangle = 2,
  kZfp = 3,
  kSz = 4,
  kJpeg = 5,
  kColorQuant = 6,
};

const char* codec_kind_name(CodecKind kind);

/// Identity of one compiled plan: everything the paper's "compile time"
/// step depends on (§3.1). Two resolutions with the same key share one
/// plan; anything that changes an operand changes the key.
struct PlanKey {
  CodecKind kind = CodecKind::kDctChop;
  TransformKind transform = TransformKind::kDct2;
  std::uint32_t block = 0;
  std::uint32_t cf = 0;
  /// Partial-serialization factor s (1 when not applicable).
  std::uint32_t subdivision = 1;
  std::uint64_t height = 0;
  std::uint64_t width = 0;
  /// Fixed-point codec parameter for the baseline comparators (zfp rate,
  /// sz error bound, jpeg quality — scaled by 1000 so the key stays
  /// integral and hashable without float equality).
  std::uint64_t param_milli = 0;

  friend bool operator==(const PlanKey&, const PlanKey&) = default;
  std::string to_string() const;
};

struct PlanKeyHash {
  std::size_t operator()(const PlanKey& key) const noexcept;
};

/// An immutable compiled artifact: operand tiles, index tables and an
/// exact byte plan for one (codec kind, shape) pair. Plans are
/// built once, shared via shared_ptr through the PlanCache, and executed
/// by stateless `*_into` methods — executing a plan never mutates it and
/// never constructs an operand.
class CodecPlan {
 public:
  explicit CodecPlan(const PlanKey& key) : key_(key) {}
  virtual ~CodecPlan() = default;
  CodecPlan(const CodecPlan&) = delete;
  CodecPlan& operator=(const CodecPlan&) = delete;

  const PlanKey& key() const noexcept { return key_; }

  /// Bytes held resident by the plan (operands + index tables). This is
  /// the unit the PlanCache's LRU byte budget accounts in.
  virtual std::size_t resident_bytes() const = 0;

  /// Exact executor working set beyond the input and output buffers for
  /// one batch×channels call: the staging tensors the executor
  /// allocates. This is the quantity accel memory-capacity checks must
  /// add to activation bytes.
  virtual std::size_t workspace_bytes(std::size_t batch,
                                      std::size_t channels) const = 0;

 private:
  PlanKey key_;
};

/// Compiled plan for the paper's two-matmul codec (§3.2–3.4). LHS = M·T_L
/// is block-diagonal with every block the same CF×block tile, the first
/// CF rows of the block transform (Fig. 4), and RHS = LHSᵀ repeats its
/// transpose; both axes share the pair. The plan holds just that tile
/// and its transpose, whatever H and W are, and executes Eq. 4/6 with
/// tensor::block_sandwich_into.
class DctChopPlan final : public CodecPlan {
 public:
  explicit DctChopPlan(const PlanKey& key);

  /// The CF×block tile of LHS (chop_tile) and its block×CF transpose.
  const tensor::Tensor& tile() const { return tile_; }
  const tensor::Tensor& tile_t() const { return tile_t_; }

  tensor::Shape packed_shape(const tensor::Shape& input) const;

  /// Eq. 4 over caller memory: `planes` planes of height×width floats
  /// at `in` become planes of the packed shape at `out`,
  /// out[p] = LHS_H · in[p] · RHS_W. Only float alignment is required.
  void compress_into(const float* in, float* out, std::size_t planes) const;
  /// Eq. 6 over caller memory: out[p] = RHS_H · packed[p] · LHS_W.
  void decompress_into(const float* packed, float* out,
                       std::size_t planes) const;
  /// Tensor adapters; `out` must be preshaped.
  void compress_into(const tensor::Tensor& input, tensor::Tensor& out) const;
  void decompress_into(const tensor::Tensor& packed,
                       tensor::Tensor& out) const;

  std::size_t resident_bytes() const override;
  std::size_t workspace_bytes(std::size_t batch,
                              std::size_t channels) const override;

 private:
  tensor::Tensor tile_;    // cf × block
  tensor::Tensor tile_t_;  // block × cf
};

/// Compiled plan for partial serialization (§3.5.1): geometry of the s×s
/// chunk grid plus the shared chunk-resolution DctChopPlan. The chunk
/// plan is resolved through the PlanCache, so a 2× subdivided 32×32 plan
/// and a plain 16×16 plan share one cache entry.
class PartialSerialPlan final : public CodecPlan {
 public:
  PartialSerialPlan(const PlanKey& key,
                    std::shared_ptr<const DctChopPlan> chunk_plan);

  const DctChopPlan& chunk_plan() const { return *chunk_plan_; }
  std::shared_ptr<const DctChopPlan> chunk_plan_ptr() const {
    return chunk_plan_;
  }
  std::size_t chunk_h() const { return chunk_h_; }
  std::size_t chunk_w() const { return chunk_w_; }

  tensor::Shape packed_shape(const tensor::Shape& input) const;

  std::size_t resident_bytes() const override;
  std::size_t workspace_bytes(std::size_t batch,
                              std::size_t channels) const override;

 private:
  std::shared_ptr<const DctChopPlan> chunk_plan_;
  std::size_t chunk_h_ = 0;
  std::size_t chunk_w_ = 0;
};

/// Compiled plan for the scatter/gather triangle variant (§3.5.2): the
/// inner chop plan plus the compile-time gather index table.
class TrianglePlan final : public CodecPlan {
 public:
  TrianglePlan(const PlanKey& key,
               std::shared_ptr<const DctChopPlan> inner_plan);

  const DctChopPlan& inner_plan() const { return *inner_plan_; }
  std::shared_ptr<const DctChopPlan> inner_plan_ptr() const {
    return inner_plan_;
  }
  std::size_t values_per_block() const { return per_block_; }
  std::size_t blocks_per_plane() const { return blocks_; }
  const std::vector<std::size_t>& plane_indices() const { return indices_; }

  tensor::Shape packed_shape(const tensor::Shape& input) const;

  /// Inner chop (Eq. 4) followed by the compile-time gather, over
  /// `planes` planes of caller memory.
  void compress_into(const float* in, float* out, std::size_t planes) const;
  /// Scatter back into the chopped layout, then inner Eq. 6.
  void decompress_into(const float* packed, float* out,
                       std::size_t planes) const;
  /// Tensor adapters; `out` must be preshaped.
  void compress_into(const tensor::Tensor& input, tensor::Tensor& out) const;
  void decompress_into(const tensor::Tensor& packed,
                       tensor::Tensor& out) const;

  std::size_t resident_bytes() const override;
  std::size_t workspace_bytes(std::size_t batch,
                              std::size_t channels) const override;

 private:
  std::shared_ptr<const DctChopPlan> inner_plan_;
  std::size_t per_block_ = 0;
  std::size_t blocks_ = 0;
  std::size_t chopped_h_ = 0;
  std::size_t chopped_w_ = 0;
  std::vector<std::size_t> indices_;
};

/// Key constructors. Each validates the geometry the way the original
/// codec constructors did and throws std::invalid_argument on misuse.
PlanKey dct_chop_plan_key(std::size_t height, std::size_t width,
                          std::size_t cf, std::size_t block,
                          TransformKind transform);
PlanKey partial_serial_plan_key(std::size_t height, std::size_t width,
                                std::size_t cf, std::size_t block,
                                TransformKind transform,
                                std::size_t subdivision);
PlanKey triangle_plan_key(std::size_t height, std::size_t width,
                          std::size_t cf, std::size_t block,
                          TransformKind transform);

class PlanCache;

/// Builds the plan for a core codec key (kDctChop / kPartialSerial /
/// kTriangle), resolving nested chunk/inner plans through `cache` — the
/// cache that requested the build, so composites stay within one
/// context's budget. Baseline kinds must supply their own builder.
std::shared_ptr<const CodecPlan> build_core_plan(const PlanKey& key,
                                                 PlanCache& cache);

}  // namespace aic::core
