#pragma once

#include <cstdint>

#include "tensor/gemm_kernels.hpp"
#include "tensor/tensor.hpp"

namespace aic::tensor {

/// C = A · B for rank-2 tensors; packed, register-blocked, runtime
/// ISA-dispatched (see gemm_kernels.hpp), parallel over row panels.
///
/// This is the workhorse of the whole repository: DCT+Chop compression and
/// decompression are each exactly two calls to this kernel (Eq. 4 / Eq. 6
/// of the paper).
Tensor matmul(const Tensor& a, const Tensor& b);

/// C (+)= op(A) · op(B) into a preallocated output. The transpose flags
/// are honored by the kernel's packing stage, so passing Trans::kYes is
/// free compared to materializing `transposed()` copies — the Linear and
/// conv2d backward passes rely on this.
void matmul_into(const Tensor& a, const Tensor& b, Tensor& out, Trans trans_a,
                 Trans trans_b, bool accumulate = false);

/// C (+)= A · B (both operands taken as stored).
void matmul_into(const Tensor& a, const Tensor& b, Tensor& out,
                 bool accumulate = false);

/// Block-diagonal sparsity pattern of a sandwich operator: band i spans
/// rows [i·row_block, (i+1)·row_block) and is non-zero only in columns
/// [i·col_block, (i+1)·col_block).
///
/// Every chop operator has this shape (Fig. 4): LHS = M·T_L keeps CF rows
/// per 8-column block ({row_block=CF, col_block=8}) and RHS = LHSᵀ keeps
/// CF columns per 8-row block ({row_block=8, col_block=CF}).
struct BandedSpec {
  std::size_t row_block = 0;
  std::size_t col_block = 0;

  /// A spec with zero blocks means "dense / unknown structure".
  bool valid() const noexcept { return row_block != 0 && col_block != 0; }
};

/// True when rank-2 `m` is exactly zero outside the bands of `spec` and
/// the band grid tiles the matrix (equal band counts on both axes).
bool is_block_banded(const Tensor& m, const BandedSpec& spec);

/// Structural hints for sandwich_planes_into. When both specs are valid
/// the kernel iterates only the live band entries of LHS/RHS — the
/// BD·C·n²/64 useful work of §3.2 — instead of scanning full rows and
/// relying on a scalar zero-skip.
struct SandwichOptions {
  BandedSpec lhs_bands;
  BandedSpec rhs_bands;
};

/// Applies `out[b,c] = lhs · in[b,c] · rhs` over every (batch, channel)
/// plane of a rank-4 tensor. `out` must be preshaped to
/// [B, C, lhs.rows, rhs.cols].
///
/// Zero-allocation batched kernel: parallelized once over (plane ×
/// row-band) work items, with per-thread aligned scratch reused across
/// calls — no per-plane tensors, no nested thread-pool submission.
/// Every element equals `matmul(lhs, matmul(plane, rhs))` exactly — both
/// paths issue the same ascending-k fused-accumulation chains through the
/// shared kernel layer, so no rounding drift (the only admissible
/// difference is the sign of exact zeros).
void sandwich_planes_into(const Tensor& lhs, const Tensor& in,
                          const Tensor& rhs, Tensor& out,
                          const SandwichOptions& options = {});

/// Convenience overload of sandwich_planes_into with dense operators.
///
/// This is the batched form the paper issues as a single framework-level
/// matmul pair; planes are independent and run in parallel.
void sandwich_planes(const Tensor& lhs, const Tensor& in, const Tensor& rhs,
                     Tensor& out);

/// Number of sandwich scratch buffer (re)allocations since process
/// start. Each calling thread sizes one buffer per worker of its pool
/// before fanning out, so the count is constant across repeated calls of
/// the same shapes whichever workers run the chunks — the steady state
/// allocates nothing.
std::uint64_t sandwich_scratch_reallocs() noexcept;

/// Floating-point-operation count of `matmul(a, b)` (2·m·n·k).
std::size_t matmul_flops(const Tensor& a, const Tensor& b);

}  // namespace aic::tensor
