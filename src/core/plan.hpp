#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "core/transforms.hpp"
#include "tensor/shape.hpp"
#include "tensor/tensor.hpp"

namespace aic::core {

/// Codec families addressable through the plan cache and the factory.
enum class CodecKind : std::uint8_t {
  kDctChop = 0,
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

/// An immutable compiled artifact: the operand tile (or a comparator's
/// parameter tables) for one PlanKey. Plans are built once, shared via
/// shared_ptr through the PlanCache, and executed
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

 private:
  tensor::Tensor tile_;    // cf × block
  tensor::Tensor tile_t_;  // block × cf
};

/// The key of the DctChopPlan for one geometry. Validates it and throws
/// std::invalid_argument on misuse.
PlanKey dct_chop_plan_key(std::size_t height, std::size_t width,
                          std::size_t cf, std::size_t block,
                          TransformKind transform);

/// Builds the DctChopPlan of a kDctChop key: the one plan the chop family
/// (DCT+Chop, triangle, partial) executes. Baseline kinds must supply
/// their own builder.
std::shared_ptr<const CodecPlan> build_core_plan(const PlanKey& key);

}  // namespace aic::core
