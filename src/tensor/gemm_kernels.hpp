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
  /// Wide fused-multiply-add row updates (block sandwich stage 2).
  obs::Counter& axpy_calls;
  /// Small dense block MACs (block sandwich stage 1).
  obs::Counter& block_mac_calls;
  /// 2·m·n·k FLOPs issued through gemm (excludes axpy/block_mac work).
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
/// Parallel over row blocks via the global pool (degrades to inline when
/// invoked from a pool worker). Each output element is one ascending-k
/// accumulation chain regardless of shape, blocking, or thread count, so
/// results are deterministic and bit-identical to the axpy_row /
/// block_mac primitives on the same backend.
void gemm(Trans trans_a, Trans trans_b, std::size_t m, std::size_t n,
          std::size_t k, const float* a, std::size_t lda, const float* b,
          std::size_t ldb, float* c, std::size_t ldc, bool accumulate);

/// dst[0..n) += alpha · src[0..n), dispatched to the active backend with
/// the same per-element FMA semantics as the gemm microkernel.
void axpy_row(float alpha, const float* src, float* dst,
              std::size_t n) noexcept;

/// C += A·B for a small dense block (m×k · k×n, arbitrary leading
/// dimensions, no packing). Tuned for the block-sandwich inner blocks
/// where n is a handful of columns; accumulation order per element is
/// ascending k, matching gemm on the same backend bit-for-bit.
void block_mac(std::size_t m, std::size_t n, std::size_t k, const float* a,
               std::size_t lda, const float* b, std::size_t ldb, float* c,
               std::size_t ldc) noexcept;

}  // namespace aic::tensor
