#include "tensor/gemm_kernels.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define AIC_GEMM_X86 1
#else
#define AIC_GEMM_X86 0
#endif

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/aligned_buffer.hpp"
#include "runtime/parallel_for.hpp"

namespace aic::tensor {
namespace {

using runtime::KernelBackend;

constexpr std::size_t kMr = kGemmMr;
constexpr std::size_t kNr = kGemmNr;
constexpr std::size_t kMc = kGemmMc;
static_assert(kMc % kMr == 0, "row block must be a whole number of panels");

// Per-thread pack scratch, grown monotonically and reused across calls.
// A and B use distinct buffers because the thread that packs B also
// runs row chunks of its own parallel_for and packs A.
float* pack_scratch_a(std::size_t count) {
  thread_local runtime::AlignedBuffer<float> buffer;
  if (buffer.size() < count) buffer = runtime::AlignedBuffer<float>(count);
  return buffer.data();
}

float* pack_scratch_b(std::size_t count) {
  thread_local runtime::AlignedBuffer<float> buffer;
  if (buffer.size() < count) buffer = runtime::AlignedBuffer<float>(count);
  return buffer.data();
}

// Packs rows [i0, i0+rows) of op(A) into MR-row panels: panel ip holds
// rows [ip·MR, …) laid out as k consecutive MR-float columns
// (dst[p·MR + r]), zero-padded so the microkernel always sees MR rows.
void pack_a(Trans trans, const float* a, std::size_t lda, std::size_t i0,
            std::size_t rows, std::size_t k, float* dst) {
  const std::size_t panels = (rows + kMr - 1) / kMr;
  for (std::size_t ip = 0; ip < panels; ++ip) {
    const std::size_t r0 = ip * kMr;
    const std::size_t height = std::min(kMr, rows - r0);
    float* panel = dst + ip * k * kMr;
    if (trans == Trans::kNo) {
      for (std::size_t r = 0; r < height; ++r) {
        const float* src = a + (i0 + r0 + r) * lda;
        for (std::size_t p = 0; p < k; ++p) panel[p * kMr + r] = src[p];
      }
      for (std::size_t r = height; r < kMr; ++r) {
        for (std::size_t p = 0; p < k; ++p) panel[p * kMr + r] = 0.0f;
      }
    } else {
      // Logical A[i][p] lives at a[p·lda + i]: rows are contiguous in
      // storage, so the transposed pack reads sequentially.
      for (std::size_t p = 0; p < k; ++p) {
        const float* src = a + p * lda + i0 + r0;
        float* col = panel + p * kMr;
        std::size_t r = 0;
        for (; r < height; ++r) col[r] = src[r];
        for (; r < kMr; ++r) col[r] = 0.0f;
      }
    }
  }
}

// Packs op(B) (k×n) into NR-column panels: panel jp holds columns
// [jp·NR, …) as k consecutive NR-float rows (dst[p·NR + j]), zero-padded
// to NR columns.
void pack_b(Trans trans, const float* b, std::size_t ldb, std::size_t n,
            std::size_t k, float* dst) {
  const std::size_t panels = (n + kNr - 1) / kNr;
  for (std::size_t jp = 0; jp < panels; ++jp) {
    const std::size_t j0 = jp * kNr;
    const std::size_t width = std::min(kNr, n - j0);
    float* panel = dst + jp * k * kNr;
    if (trans == Trans::kNo) {
      for (std::size_t p = 0; p < k; ++p) {
        const float* src = b + p * ldb + j0;
        float* row = panel + p * kNr;
        std::size_t j = 0;
        for (; j < width; ++j) row[j] = src[j];
        for (; j < kNr; ++j) row[j] = 0.0f;
      }
    } else {
      // Logical B[p][j] lives at b[j·ldb + p]: read each storage row
      // (one logical column) sequentially, scatter into the panel.
      for (std::size_t j = 0; j < width; ++j) {
        const float* src = b + (j0 + j) * ldb;
        for (std::size_t p = 0; p < k; ++p) panel[p * kNr + j] = src[p];
      }
      for (std::size_t j = width; j < kNr; ++j) {
        for (std::size_t p = 0; p < k; ++p) panel[p * kNr + j] = 0.0f;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Scalar backend. Plain multiply-then-add (no fused rounding), ascending-k
// per element — the reference semantics the AVX2 backend's parity tests
// compare against within 1e-5.
// ---------------------------------------------------------------------------

void micro_tile_scalar(std::size_t k, const float* ap, const float* bp,
                       float* c, std::size_t ldc, std::size_t mr,
                       std::size_t nr, bool accumulate) {
  float acc[kMr][kNr] = {};
  for (std::size_t p = 0; p < k; ++p) {
    const float* arow = ap + p * kMr;
    const float* brow = bp + p * kNr;
    for (std::size_t r = 0; r < kMr; ++r) {
      const float av = arow[r];
      for (std::size_t j = 0; j < kNr; ++j) acc[r][j] += av * brow[j];
    }
  }
  for (std::size_t r = 0; r < mr; ++r) {
    float* crow = c + r * ldc;
    if (accumulate) {
      for (std::size_t j = 0; j < nr; ++j) crow[j] += acc[r][j];
    } else {
      for (std::size_t j = 0; j < nr; ++j) crow[j] = acc[r][j];
    }
  }
}

// One pass of the block sandwich over the right blocks of one block row:
// mid rows [q0, q0 + nq) and output columns [c0, c0 + lanes) of each
// block (block_sandwich_items sets the pointers at q0 and c0).
struct BlockPass {
  const float* in;     // pass row i of block jb at in + i·w + jb·rr
  std::size_t w;
  const float* right;  // row k at right + k·rc
  std::size_t rr, rc;
  const float* left;   // output row r's entries at left + r·lc
  std::size_t lc, lr;
  float* out;          // output row r of block jb at out + r·out_w + jb·rc
  std::size_t out_w;
  std::size_t blocks, lanes;
  bool accumulate;  // q0 > 0: continue the output chains held in `out`
};

constexpr std::size_t kPassRows = 8;   // mid rows per pass
constexpr std::size_t kPassLanes = 8;  // output columns per strip

void block_pass_scalar(const BlockPass& p, std::size_t nq) {
  for (std::size_t jb = 0; jb < p.blocks; ++jb) {
    const float* x = p.in + jb * p.rr;
    float mid[kPassRows][kPassLanes] = {};
    for (std::size_t i = 0; i < nq; ++i) {
      for (std::size_t k = 0; k < p.rr; ++k) {
        const float xv = x[i * p.w + k];
        const float* rrow = p.right + k * p.rc;
        for (std::size_t j = 0; j < p.lanes; ++j) mid[i][j] += xv * rrow[j];
      }
    }
    for (std::size_t r = 0; r < p.lr; ++r) {
      float* orow = p.out + r * p.out_w + jb * p.rc;
      float acc[kPassLanes] = {};
      if (p.accumulate) std::copy_n(orow, p.lanes, acc);
      const float* lrow = p.left + r * p.lc;
      for (std::size_t i = 0; i < nq; ++i) {
        if (lrow[i] == 0.0f) continue;
        for (std::size_t j = 0; j < p.lanes; ++j) acc[j] += lrow[i] * mid[i][j];
      }
      std::copy_n(acc, p.lanes, orow);
    }
  }
}

// ---------------------------------------------------------------------------
// AVX2+FMA backend. Compiled with target attributes so the TU itself
// builds with baseline flags; only executed after the cpuid probe says
// the host supports it. Every output element is an ascending-k chain of
// vector FMAs, so the block sandwich and the microkernel agree bitwise.
// ---------------------------------------------------------------------------

#if AIC_GEMM_X86

// -1 lane mask prefix: tail_mask(l) enables the first l of 8 lanes.
alignas(32) const std::int32_t kMaskSrc[16] = {-1, -1, -1, -1, -1, -1, -1, -1,
                                               0,  0,  0,  0,  0,  0,  0,  0};

__attribute__((target("avx2,fma"))) inline __m256i tail_mask(
    std::size_t lanes) {
  return _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kMaskSrc + 8 - lanes));
}

// The AVX2 kernels start on a 64-byte boundary. Their inner loops are a
// few instructions long, so where they fall relative to the 32- and
// 64-byte fetch boundaries decides their speed: a 32-byte shift of the
// code linked before them, from a size change elsewhere in the binary,
// cost perfbench batch_roundtrip_256 12% (4-vCPU Xeon). Pinning them
// keeps their speed independent of unrelated code size: the pin also
// aligns this file's code section to 64 bytes, so code linked ahead
// moves every function here by a multiple of 64 bytes (32 or 64 bytes of
// it: by 64) and none relative to a fetch boundary.
#define AIC_AVX2_KERNEL __attribute__((target("avx2,fma"), aligned(64)))

AIC_AVX2_KERNEL void micro_tile_avx2(
    std::size_t k, const float* ap, const float* bp, float* c,
    std::size_t ldc, std::size_t mr, std::size_t nr, bool accumulate) {
  // 6×16 accumulator: 12 ymm accumulators + 2 B vectors + 1 broadcast.
  __m256 acc00 = _mm256_setzero_ps(), acc01 = _mm256_setzero_ps();
  __m256 acc10 = _mm256_setzero_ps(), acc11 = _mm256_setzero_ps();
  __m256 acc20 = _mm256_setzero_ps(), acc21 = _mm256_setzero_ps();
  __m256 acc30 = _mm256_setzero_ps(), acc31 = _mm256_setzero_ps();
  __m256 acc40 = _mm256_setzero_ps(), acc41 = _mm256_setzero_ps();
  __m256 acc50 = _mm256_setzero_ps(), acc51 = _mm256_setzero_ps();
  for (std::size_t p = 0; p < k; ++p) {
    const __m256 b0 = _mm256_load_ps(bp + p * kNr);
    const __m256 b1 = _mm256_load_ps(bp + p * kNr + 8);
    const float* acol = ap + p * kMr;
    __m256 av;
    av = _mm256_broadcast_ss(acol + 0);
    acc00 = _mm256_fmadd_ps(av, b0, acc00);
    acc01 = _mm256_fmadd_ps(av, b1, acc01);
    av = _mm256_broadcast_ss(acol + 1);
    acc10 = _mm256_fmadd_ps(av, b0, acc10);
    acc11 = _mm256_fmadd_ps(av, b1, acc11);
    av = _mm256_broadcast_ss(acol + 2);
    acc20 = _mm256_fmadd_ps(av, b0, acc20);
    acc21 = _mm256_fmadd_ps(av, b1, acc21);
    av = _mm256_broadcast_ss(acol + 3);
    acc30 = _mm256_fmadd_ps(av, b0, acc30);
    acc31 = _mm256_fmadd_ps(av, b1, acc31);
    av = _mm256_broadcast_ss(acol + 4);
    acc40 = _mm256_fmadd_ps(av, b0, acc40);
    acc41 = _mm256_fmadd_ps(av, b1, acc41);
    av = _mm256_broadcast_ss(acol + 5);
    acc50 = _mm256_fmadd_ps(av, b0, acc50);
    acc51 = _mm256_fmadd_ps(av, b1, acc51);
  }
  const __m256 acc[kMr][2] = {{acc00, acc01}, {acc10, acc11},
                              {acc20, acc21}, {acc30, acc31},
                              {acc40, acc41}, {acc50, acc51}};
  const std::size_t lanes0 = std::min<std::size_t>(nr, 8);
  const std::size_t lanes1 = nr > 8 ? nr - 8 : 0;
  for (std::size_t r = 0; r < mr; ++r) {
    float* crow = c + r * ldc;
    if (lanes0 == 8) {
      __m256 v = acc[r][0];
      if (accumulate) v = _mm256_add_ps(_mm256_loadu_ps(crow), v);
      _mm256_storeu_ps(crow, v);
    } else {
      const __m256i mask = tail_mask(lanes0);
      __m256 v = acc[r][0];
      if (accumulate) v = _mm256_add_ps(_mm256_maskload_ps(crow, mask), v);
      _mm256_maskstore_ps(crow, mask, v);
    }
    if (lanes1 == 8) {
      __m256 v = acc[r][1];
      if (accumulate) v = _mm256_add_ps(_mm256_loadu_ps(crow + 8), v);
      _mm256_storeu_ps(crow + 8, v);
    } else if (lanes1 > 0) {
      const __m256i mask = tail_mask(lanes1);
      __m256 v = acc[r][1];
      if (accumulate) v = _mm256_add_ps(_mm256_maskload_ps(crow + 8, mask), v);
      _mm256_maskstore_ps(crow + 8, mask, v);
    }
  }
}

// block_pass_scalar with the NQ mid rows of a block in NQ registers.
template <std::size_t NQ>
AIC_AVX2_KERNEL void block_pass_avx2(const BlockPass& p) {
  const bool full = p.lanes == kPassLanes;
  const __m256i mask = tail_mask(p.lanes);
  for (std::size_t jb = 0; jb < p.blocks; ++jb) {
    const float* x = p.in + jb * p.rr;
    __m256 mid[NQ];
#pragma GCC unroll 8
    for (std::size_t i = 0; i < NQ; ++i) mid[i] = _mm256_setzero_ps();
    for (std::size_t k = 0; k < p.rr; ++k) {
      const float* rrow = p.right + k * p.rc;
      const __m256 rv =
          full ? _mm256_loadu_ps(rrow) : _mm256_maskload_ps(rrow, mask);
#pragma GCC unroll 8
      for (std::size_t i = 0; i < NQ; ++i) {
        mid[i] = _mm256_fmadd_ps(_mm256_broadcast_ss(x + i * p.w + k), rv,
                                 mid[i]);
      }
    }
    for (std::size_t r = 0; r < p.lr; ++r) {
      float* orow = p.out + r * p.out_w + jb * p.rc;
      __m256 acc = _mm256_setzero_ps();
      if (p.accumulate) {
        acc = full ? _mm256_loadu_ps(orow) : _mm256_maskload_ps(orow, mask);
      }
      const float* lrow = p.left + r * p.lc;
#pragma GCC unroll 8
      for (std::size_t i = 0; i < NQ; ++i) {
        if (lrow[i] != 0.0f) {
          acc = _mm256_fmadd_ps(_mm256_broadcast_ss(lrow + i), mid[i], acc);
        }
      }
      if (full) {
        _mm256_storeu_ps(orow, acc);
      } else {
        _mm256_maskstore_ps(orow, mask, acc);
      }
    }
  }
}

// block_pass_avx2<8> for 8×8 right blocks with at most 4 kept columns
// (compress at block 8, CF ≤ 4), two right blocks per vector and an even
// number of blocks. A row's 16 floats of blocks A and B become
// [A0..3 | B0..3] and [A4..7 | B4..7], and permute_ps broadcasts element
// k within each 128-bit lane against right row k copied into both lanes:
// lane j of half h of mid row q is mid[q][j] of block 2·pair + h, with
// the same chain.
AIC_AVX2_KERNEL void block_pairs_avx2(const BlockPass& p) {
  const __m128i mask = _mm_loadu_si128(
      reinterpret_cast<const __m128i*>(kMaskSrc + 8 - p.rc));
  __m256 rv[8];
#pragma GCC unroll 8
  for (std::size_t k = 0; k < 8; ++k) {
    const __m128 r = _mm_maskload_ps(p.right + k * p.rc, mask);
    rv[k] = _mm256_set_m128(r, r);
  }
  for (std::size_t jb = 0; jb < p.blocks; jb += 2) {
    const float* x = p.in + jb * 8;
    __m256 mid[8];
#pragma GCC unroll 8
    for (std::size_t q = 0; q < 8; ++q) {
      const __m256 x0 = _mm256_loadu_ps(x + q * p.w);
      const __m256 x1 = _mm256_loadu_ps(x + q * p.w + 8);
      const __m256 lo = _mm256_permute2f128_ps(x0, x1, 0x20);
      const __m256 hi = _mm256_permute2f128_ps(x0, x1, 0x31);
      __m256 m = _mm256_setzero_ps();
      m = _mm256_fmadd_ps(_mm256_permute_ps(lo, 0x00), rv[0], m);
      m = _mm256_fmadd_ps(_mm256_permute_ps(lo, 0x55), rv[1], m);
      m = _mm256_fmadd_ps(_mm256_permute_ps(lo, 0xAA), rv[2], m);
      m = _mm256_fmadd_ps(_mm256_permute_ps(lo, 0xFF), rv[3], m);
      m = _mm256_fmadd_ps(_mm256_permute_ps(hi, 0x00), rv[4], m);
      m = _mm256_fmadd_ps(_mm256_permute_ps(hi, 0x55), rv[5], m);
      m = _mm256_fmadd_ps(_mm256_permute_ps(hi, 0xAA), rv[6], m);
      m = _mm256_fmadd_ps(_mm256_permute_ps(hi, 0xFF), rv[7], m);
      mid[q] = m;
    }
    for (std::size_t r = 0; r < p.lr; ++r) {
      float* orow = p.out + r * p.out_w + jb * p.rc;
      __m256 acc = _mm256_setzero_ps();
      const float* lrow = p.left + r * p.lc;
#pragma GCC unroll 8
      for (std::size_t q = 0; q < 8; ++q) {
        if (lrow[q] != 0.0f) {
          acc = _mm256_fmadd_ps(_mm256_broadcast_ss(lrow + q), mid[q], acc);
        }
      }
      if (p.rc == 4) {
        _mm256_storeu_ps(orow, acc);
      } else {
        _mm_maskstore_ps(orow, mask, _mm256_castps256_ps128(acc));
        _mm_maskstore_ps(orow + p.rc, mask, _mm256_extractf128_ps(acc, 1));
      }
    }
  }
}

// One pass of nq mid rows: the paired kernel where it applies (its odd
// last block runs alone), else the NQ-register body.
void run_pass_avx2(const BlockPass& p, std::size_t nq) {
  if (nq == 8 && p.rr == 8 && p.rc <= 4 && !p.accumulate) {
    BlockPass pairs = p;
    pairs.blocks = p.blocks / 2 * 2;
    block_pairs_avx2(pairs);
    if (pairs.blocks == p.blocks) return;
    BlockPass last = p;
    last.in += pairs.blocks * p.rr;
    last.out += pairs.blocks * p.rc;
    last.blocks = 1;
    block_pass_avx2<8>(last);
    return;
  }
  using Pass = void (*)(const BlockPass&);
  static constexpr Pass kPasses[kPassRows] = {
      &block_pass_avx2<1>, &block_pass_avx2<2>, &block_pass_avx2<3>,
      &block_pass_avx2<4>, &block_pass_avx2<5>, &block_pass_avx2<6>,
      &block_pass_avx2<7>, &block_pass_avx2<8>};
  kPasses[nq - 1](p);
}

#endif  // AIC_GEMM_X86

bool avx2_active() noexcept {
#if AIC_GEMM_X86
  return runtime::kernel_backend() == KernelBackend::kAvx2;
#else
  return false;
#endif
}

void micro_tile(bool avx2, std::size_t k, const float* ap, const float* bp,
                float* c, std::size_t ldc, std::size_t mr, std::size_t nr,
                bool accumulate) {
#if AIC_GEMM_X86
  if (avx2) {
    micro_tile_avx2(k, ap, bp, c, ldc, mr, nr, accumulate);
    return;
  }
#else
  (void)avx2;
#endif
  micro_tile_scalar(k, ap, bp, c, ldc, mr, nr, accumulate);
}

}  // namespace

const KernelCounters& kernel_counters() {
  static const KernelCounters counters = [] {
    obs::Registry& registry = obs::Registry::global();
    return KernelCounters{registry.counter("kernel.gemm_calls"),
                          registry.counter("kernel.a_panels"),
                          registry.counter("kernel.b_panels"),
                          registry.counter("kernel.microkernel_calls"),
                          registry.counter("kernel.tail_tiles"),
                          registry.counter("kernel.axpy_calls"),
                          registry.counter("kernel.block_mac_calls"),
                          registry.counter("kernel.gemm_flops")};
  }();
  return counters;
}

void gemm(Trans trans_a, Trans trans_b, std::size_t m, std::size_t n,
          std::size_t k, const float* a, std::size_t lda, const float* b,
          std::size_t ldb, float* c, std::size_t ldc, bool accumulate) {
  if (m == 0 || n == 0) return;
  if (k == 0) {
    if (!accumulate) {
      for (std::size_t i = 0; i < m; ++i) std::fill_n(c + i * ldc, n, 0.0f);
    }
    return;
  }
  const bool avx2 = avx2_active();
  AIC_TRACE_SCOPE(avx2 ? "gemm.avx2" : "gemm.scalar");

  // B is packed once on the calling thread; the row chunks only read it
  // (the caller stays inside parallel_for until every chunk has run,
  // keeping the scratch alive).
  const std::size_t n_panels = (n + kNr - 1) / kNr;
  float* packed_b = pack_scratch_b(n_panels * kNr * k);
  pack_b(trans_b, b, ldb, n, k, packed_b);

  std::atomic<std::uint64_t> micro_total{0};
  std::atomic<std::uint64_t> tail_total{0};
  std::atomic<std::uint64_t> a_panel_total{0};
  runtime::parallel_for_chunks(
      0, m,
      [&](std::size_t lo, std::size_t hi) {
        float* packed_a = pack_scratch_a(kMc * k);
        std::uint64_t micro_local = 0, tail_local = 0, a_local = 0;
        for (std::size_t i0 = lo; i0 < hi; i0 += kMc) {
          const std::size_t rows = std::min(kMc, hi - i0);
          pack_a(trans_a, a, lda, i0, rows, k, packed_a);
          const std::size_t a_panels = (rows + kMr - 1) / kMr;
          a_local += a_panels;
          for (std::size_t jp = 0; jp < n_panels; ++jp) {
            const std::size_t j0 = jp * kNr;
            const std::size_t nr = std::min(kNr, n - j0);
            const float* b_panel = packed_b + jp * k * kNr;
            for (std::size_t ip = 0; ip < a_panels; ++ip) {
              const std::size_t r0 = i0 + ip * kMr;
              const std::size_t mr = std::min(kMr, i0 + rows - r0);
              micro_tile(avx2, k, packed_a + ip * k * kMr, b_panel,
                         c + r0 * ldc + j0, ldc, mr, nr, accumulate);
              ++micro_local;
              if (mr < kMr || nr < kNr) ++tail_local;
            }
          }
        }
        micro_total.fetch_add(micro_local, std::memory_order_relaxed);
        tail_total.fetch_add(tail_local, std::memory_order_relaxed);
        a_panel_total.fetch_add(a_local, std::memory_order_relaxed);
      },
      {.grain = kMc});

  const KernelCounters& counters = kernel_counters();
  counters.gemm_calls.add();
  counters.a_panels.add(a_panel_total.load(std::memory_order_relaxed));
  counters.b_panels.add(n_panels);
  counters.microkernel_calls.add(micro_total.load(std::memory_order_relaxed));
  counters.tail_tiles.add(tail_total.load(std::memory_order_relaxed));
  counters.gemm_flops.add(static_cast<std::uint64_t>(2) * m * n * k);
}

void block_sandwich_items(const float* left, const float* right,
                          const float* in, float* out, const SandwichDims& d,
                          std::size_t lo, std::size_t hi) noexcept {
  const bool avx2 = avx2_active();
  const std::size_t block_rows = d.h / d.lc;
  for (std::size_t item = lo; item < hi; ++item) {
    const std::size_t plane = item / block_rows;
    const std::size_t block_row = item % block_rows;
    const float* in_rows = in + plane * d.h * d.w + block_row * d.lc * d.w;
    float* out_rows =
        out + plane * d.out_h * d.out_w + block_row * d.lr * d.out_w;
    for (std::size_t c0 = 0; c0 < d.rc; c0 += kPassLanes) {
      for (std::size_t q0 = 0; q0 < d.lc; q0 += kPassRows) {
        const BlockPass pass{.in = in_rows + q0 * d.w,
                             .w = d.w,
                             .right = right + c0,
                             .rr = d.rr,
                             .rc = d.rc,
                             .left = left + q0,
                             .lc = d.lc,
                             .lr = d.lr,
                             .out = out_rows + c0,
                             .out_w = d.out_w,
                             .blocks = d.w / d.rr,
                             .lanes = std::min(kPassLanes, d.rc - c0),
                             .accumulate = q0 > 0};
        const std::size_t nq = std::min(kPassRows, d.lc - q0);
#if AIC_GEMM_X86
        if (avx2) {
          run_pass_avx2(pass, nq);
          continue;
        }
#else
        (void)avx2;
#endif
        block_pass_scalar(pass, nq);
      }
    }
  }
}

}  // namespace aic::tensor
