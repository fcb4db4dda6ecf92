#pragma once

#include <cstddef>
#include <cstdint>

#include "runtime/cpu_features.hpp"

namespace aic::obs {
class Counter;
}  // namespace aic::obs

namespace aic::tensor {

/// Operand orientation for gemm / matmul_into: kYes means the raw storage
/// holds the transpose of the logical operand, and the packing routines
/// read it transposed — callers never materialize a transposed copy.
enum class Trans : std::uint8_t { kNo, kYes };

/// Process-wide kernel-layer counters: the registry series `kernel.*`,
/// reached through one cached handle struct. Added once per gemm call /
/// block-kernel chunk (never per tile), so they stay always-on.
struct KernelCounters {
  obs::Counter& gemm_calls;
  /// MR-row A panels packed into per-thread scratch.
  obs::Counter& a_panels;
  /// NR-column B panels packed on the calling thread.
  obs::Counter& b_panels;
  obs::Counter& microkernel_calls;
  /// Microkernel invocations on partial tiles (mr < MR or nr < NR).
  obs::Counter& tail_tiles;
  /// Block sandwich output-row updates: one per non-zero left-tile entry
  /// per block row, each out_w wide (stage 2, closed form per call).
  obs::Counter& axpy_calls;
  /// Block sandwich mid products: one per (block row, right block), each
  /// lc×rr·rr×rc (stage 1, closed form per call).
  obs::Counter& block_mac_calls;
  /// 2·m·n·k FLOPs issued through gemm (excludes block sandwich work).
  obs::Counter& gemm_flops;
};

/// The `kernel.*` handles, registered on first use.
const KernelCounters& kernel_counters();

/// Microkernel geometry (exposed for tests and blocking documentation):
/// a kGemmMr × kGemmNr register accumulator tile — 6 rows × two 8-float
/// vectors on AVX2 — and kGemmMc-row packing blocks.
inline constexpr std::size_t kGemmMr = 6;
inline constexpr std::size_t kGemmNr = 16;
inline constexpr std::size_t kGemmMc = 120;

/// C = op(A)·op(B) (+ C when `accumulate`), row-major raw pointers with
/// leading dimensions. op(A) is m×k, op(B) is k×n, C is m×n.
///
/// Both operands are packed — transpose-aware, zero-padded to full
/// MR/NR panels — into per-thread 64-byte-aligned scratch that is reused
/// across calls, then a register-blocked microkernel sweeps the tiles.
/// Parallel over row blocks via the current pool (inline when invoked
/// from a pool task or a parallel_for chunk). Each output element is one
/// ascending-k accumulation chain regardless of shape, blocking, or
/// thread count, so results are deterministic and bit-identical to the
/// block sandwich kernel's chains on the same backend.
void gemm(Trans trans_a, Trans trans_b, std::size_t m, std::size_t n,
          std::size_t k, const float* a, std::size_t lda, const float* b,
          std::size_t ldb, float* c, std::size_t ldc, bool accumulate);

/// Geometry of a block-diagonal sandwich (matmul.hpp block_sandwich_into):
/// `planes` planes of h×w floats in, out_h×out_w out, the left tile lr×lc
/// and the right tile rr×rc. Item i is block row i % (h / lc) of plane
/// i / (h / lc).
struct SandwichDims {
  std::size_t planes, h, w, out_h, out_w;
  std::size_t lr, lc, rr, rc;
};

/// Items [lo, hi) of the sandwich, on the calling thread. An item's lr
/// output rows are left · (in_rows · R), R block-diagonal in `right`, one
/// right block at a time: the block's mid product sits in (at most) eight
/// vector registers while every output row of the block is formed from
/// it, and only the output is written. Each element keeps the chains of
/// the dense two-gemm sandwich: the mid is an ascending-k FMA chain from
/// +0, the output an ascending-q chain from +0 that skips the exact-zero
/// entries of `left` (structural zeros; only the sign of an exact-zero
/// result can differ from the dense path). Tiles wider than 8 columns run
/// in 8-column strips, and tiles with more than 8 mid rows in 8-row
/// passes that continue the output chains in memory. Allocates nothing;
/// adds no counters (block_sandwich_into adds them per call).
void block_sandwich_items(const float* left, const float* right,
                          const float* in, float* out, const SandwichDims& d,
                          std::size_t lo, std::size_t hi) noexcept;

}  // namespace aic::tensor
