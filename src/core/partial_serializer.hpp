#pragma once

#include <cstddef>

#include "core/dct_chop.hpp"

namespace aic::core {

/// Partial-serialization optimization (§3.5.1).
///
/// Instead of compressing a BD×C×n×n tensor in one shot — which needs
/// dense LHS/RHS operators of size (CF·n/8)×n that can exceed a compute
/// unit's local memory — the sample is subdivided by a factor `s` into
/// s×s chunks of size (n/s)×(n/s), each compressed by a graph compiled
/// for the chunk resolution: the operators shrink by s² at the cost of
/// s² sequential launches.
///
/// On the host the shared DctChopPlan already holds only one CF×block
/// tile pair for any resolution, and its block kernel is block-local, so
/// the chunked schedule computes the very bits of one full-resolution
/// plan call. The codec therefore runs that plan straight over the
/// plane range. What makes it partial serialization is the contract:
/// inputs must tile into s×s chunks of whole blocks, its spec and
/// archive kind carry s, it records the `ps.compress` / `ps.decompress`
/// series with the nominal Eq. 5/7 FLOPs of s² chunk launches, and
/// operator_bytes() reports the chunk graph's operators.
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

class PartialSerialCodec final : public ChopFamilyCodec {
 public:
  explicit PartialSerialCodec(PartialSerialConfig config,
                              Context ctx = Context::process_default());

  std::string name() const override;
  std::string spec() const override;
  double compression_ratio() const override;

  const PartialSerialConfig& config() const { return config_; }

  /// Bytes of the dense chunk operators (LHS + RHS) that the two-matmul
  /// graph of one chunk holds as constants — the quantity the
  /// optimization exists to shrink. Pinned codecs only.
  std::size_t operator_bytes() const;

  /// Operator bytes for an unserialized codec at the full resolution.
  static std::size_t unserialized_operator_bytes(std::size_t n, std::size_t cf,
                                                 std::size_t block = kDefaultBlock);

 private:
  PartialSerialConfig config_;
};

}  // namespace aic::core
