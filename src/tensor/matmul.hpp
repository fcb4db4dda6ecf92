#pragma once

#include "tensor/gemm_kernels.hpp"
#include "tensor/tensor.hpp"

namespace aic::tensor {

/// C = A · B for rank-2 tensors; packed, register-blocked, runtime
/// ISA-dispatched (see gemm_kernels.hpp), parallel over row panels.
///
/// In the graph form the accelerators execute, DCT+Chop compression and
/// decompression are each exactly two calls to this kernel (Eq. 4 / Eq. 6
/// of the paper); the host codec runs block_sandwich_into instead.
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

/// Block-diagonal sandwich over every (batch, channel) plane of a rank-4
/// tensor: `out[b,c] = L · in[b,c] · R`, where L is block-diagonal with
/// every diagonal block equal to the rank-2 tile `left` (lr×lc) and R is
/// block-diagonal with every block equal to `right` (rr×rc). `in` is
/// [B, C, h, w] with h a multiple of lc and w a multiple of rr; `out`
/// must be preshaped to [B, C, h/lc·lr, w/rr·rc].
///
/// This is Eq. 4/6 of the paper: LHS = M·T_L repeats the CF×block tile
/// taken from the first CF rows of the block transform (Fig. 4), and
/// RHS = LHSᵀ repeats its transpose. Work items are (plane, block-row)
/// pairs run once over the pool through the register-resident block
/// kernel (gemm_kernels.hpp block_sandwich_items), so no call allocates.
/// Every element equals the one `matmul(L, matmul(plane, R))` produces
/// with the dense operators exactly (same ascending-k chains through the
/// shared kernel layer; the only admissible difference is the sign of
/// exact zeros). Adds the closed-form `kernel.block_mac_calls` and
/// `kernel.axpy_calls` once per call.
void block_sandwich_into(const Tensor& left, const Tensor& in,
                         const Tensor& right, Tensor& out);

/// The same sandwich over caller memory: `planes` planes of h×w floats at
/// `in` into `out`, which must hold planes × (h/lc·lr) × (w/rr·rc)
/// floats. The planes need only float alignment (a mapped file's data
/// may start at any 4-byte offset). The rank-4 overload checks its
/// tensors and forwards here; the bytes are the same.
void block_sandwich_into(const Tensor& left, const float* in,
                         std::size_t planes, std::size_t h, std::size_t w,
                         const Tensor& right, float* out);

/// Floating-point-operation count of `matmul(a, b)` (2·m·n·k).
std::size_t matmul_flops(const Tensor& a, const Tensor& b);

}  // namespace aic::tensor
