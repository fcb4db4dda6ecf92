#pragma once

#include <cstddef>
#include <vector>

#include "core/dct_chop.hpp"

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
/// The codec runs the shared DctChopPlan into a chopped-layout buffer
/// leased from its context's BufferPool and gathers in closed form:
/// blocks row-major, then each block's triangle_indices offsets (the
/// table triangle_plane_indices spells out). It records the
/// `sg.compress` / `sg.decompress` registry series.
class TriangleCodec final : public ChopFamilyCodec {
 public:
  explicit TriangleCodec(DctChopConfig config,
                         Context ctx = Context::process_default());

  std::string name() const override;
  std::string spec() const override;
  double compression_ratio() const override;
  /// blocks × CF(CF+1)/2 per plane.
  tensor::Shape compressed_shape(const tensor::Shape& input) const override;

  const DctChopConfig& config() const { return chop_config(); }
  /// Retained coefficients per block: CF(CF+1)/2.
  std::size_t values_per_block() const { return cells_.size(); }

 private:
  void transform_compress(const DctChopPlan& plan, const float* in,
                          float* out, std::size_t planes) const override;
  void transform_decompress(const DctChopPlan& plan, const float* packed,
                            float* out, std::size_t planes) const override;

  /// Row and column of each retained coefficient within a CF×CF block,
  /// in triangle_indices' zig-zag order.
  struct Cell {
    std::size_t row;
    std::size_t col;
  };
  std::vector<Cell> cells_;
};

/// The gather table of one chopped plane of a height×width input
/// (§3.5.2): for every block, row-major, the triangle_indices offsets at
/// the block's base, CF(CF+1)/2 per block. TriangleCodec packs in this
/// order; the graph builders gather and scatter with it.
std::vector<std::size_t> triangle_plane_indices(std::size_t height,
                                                std::size_t width,
                                                std::size_t cf,
                                                std::size_t block);

}  // namespace aic::core
