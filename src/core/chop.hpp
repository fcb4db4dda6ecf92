#pragma once

#include <cstddef>

#include "core/dct.hpp"
#include "core/transforms.hpp"
#include "tensor/tensor.hpp"

namespace aic::core {

/// The chop mask M of Fig. 4: a (CF·n/block) × n matrix of CF×CF identity
/// blocks placed every `block` columns. `M · D · Mᵀ` extracts the
/// upper-left CF×CF corner of every block×block tile of D and packs the
/// corners into a dense (CF·n/block)² matrix.
///
/// Requires 1 <= cf <= block and n a multiple of block.
tensor::Tensor chop_mask(std::size_t n, std::size_t cf,
                         std::size_t block = kDefaultBlock);

/// Compression ratio of square chopping (Eq. 3): block² / CF².
double chop_ratio(std::size_t cf, std::size_t block = kDefaultBlock);

/// Compression ratio of the triangle (scatter/gather) variant (§3.5.2):
/// block² / (CF(CF+1)/2).
double triangle_ratio(std::size_t cf, std::size_t block = kDefaultBlock);

/// The CF×block tile every diagonal block of LHS = M · T_L repeats
/// (Fig. 4): the first CF rows of the block transform, built in
/// O(CF·block) (transform_rows). `kind` selects the transform (DCT-II by
/// default; §6's alternative-transform future work plugs in here).
/// Requires 1 <= cf <= block.
tensor::Tensor chop_tile(std::size_t cf, std::size_t block = kDefaultBlock,
                         TransformKind kind = TransformKind::kDct2);

/// LHS = M · T_L, the (CF·n/block) × n compression operator applied on
/// the left of Eq. 4: chop_tile() on the block diagonal. The dense form
/// serves the accelerator graph constants; the codec executes the tile.
tensor::Tensor make_lhs(std::size_t n, std::size_t cf,
                        std::size_t block = kDefaultBlock,
                        TransformKind kind = TransformKind::kDct2);

/// RHS = T_Lᵀ · Mᵀ = LHSᵀ, the n × (CF·n/block) right operator of Eq. 4.
tensor::Tensor make_rhs(std::size_t n, std::size_t cf,
                        std::size_t block = kDefaultBlock,
                        TransformKind kind = TransformKind::kDct2);

}  // namespace aic::core
