#pragma once

#include <cstddef>
#include <string>

#include "tensor/tensor.hpp"

namespace aic::core {

/// Alternative orthonormal block transforms (§6 future work: "test using
/// the ZFP block transform instead of DCT-II"). Any orthonormal matrix
/// slots into the chop pipeline because Eq. 4/6 only require T·Tᵀ = I.
enum class TransformKind {
  /// DCT-II (Eq. 2) — the paper's default.
  kDct2,
  /// Walsh-Hadamard (sequency-ordered, normalized): ±1/√N entries, so
  /// the transform itself is multiply-free on real hardware — closer in
  /// spirit to ZFP's cheap integer block transform.
  kWalshHadamard,
  /// DST-II: the sine-basis sibling of the DCT; useful for data with
  /// zero boundary conditions.
  kDst2,
};

std::string transform_name(TransformKind kind);

/// The N×N orthonormal matrix of the chosen transform. N must be a
/// power of two for kWalshHadamard, whose rows are in sequency
/// (sign-change count) order, so "chop" keeps low-sequency rows the way
/// it keeps low-frequency DCT rows.
tensor::Tensor transform_matrix(TransformKind kind, std::size_t n);

/// The first `rows` rows of transform_matrix(kind, n), bitwise equal to
/// them, built in O(rows·n): each entry has a closed form, so chop's CF
/// kept rows of a large block cost no block² build.
tensor::Tensor transform_rows(TransformKind kind, std::size_t rows,
                              std::size_t n);

/// Block-diagonal extension of any block transform (the T_L of Fig. 4).
tensor::Tensor block_diagonal_transform(TransformKind kind, std::size_t n,
                                        std::size_t block);

}  // namespace aic::core
