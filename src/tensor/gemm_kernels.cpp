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
// A and B use distinct buffers because the thread that packs B may also
// run row chunks (inline-degraded parallel_for) and pack A.
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

void axpy_scalar(float alpha, const float* src, float* dst, std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) dst[j] += alpha * src[j];
}

void block_mac_scalar(std::size_t m, std::size_t n, std::size_t k,
                      const float* a, std::size_t lda, const float* b,
                      std::size_t ldb, float* c, std::size_t ldc) {
  for (std::size_t i = 0; i < m; ++i) {
    float* crow = c + i * ldc;
    const float* arow = a + i * lda;
    for (std::size_t p = 0; p < k; ++p) {
      const float av = arow[p];
      const float* brow = b + p * ldb;
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

// ---------------------------------------------------------------------------
// AVX2+FMA backend. Compiled with target attributes so the TU itself
// builds with baseline flags; only executed after the cpuid probe says
// the host supports it. Every output element is an ascending-k chain of
// vector FMAs, so axpy_row / block_mac / the microkernel agree bitwise.
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
// keeps their speed independent of unrelated code size.
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

AIC_AVX2_KERNEL void axpy_avx2(float alpha, const float* src, float* dst,
                               std::size_t n) {
  const __m256 va = _mm256_set1_ps(alpha);
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    _mm256_storeu_ps(dst + j,
                     _mm256_fmadd_ps(va, _mm256_loadu_ps(src + j),
                                     _mm256_loadu_ps(dst + j)));
  }
  if (j < n) {
    const __m256i mask = tail_mask(n - j);
    const __m256 s = _mm256_maskload_ps(src + j, mask);
    const __m256 d = _mm256_maskload_ps(dst + j, mask);
    _mm256_maskstore_ps(dst + j, mask, _mm256_fmadd_ps(va, s, d));
  }
}

// One strip of ≤16 columns of the small-block MAC: C row segment stays in
// two (masked) vectors across the whole k loop.
AIC_AVX2_KERNEL void block_mac_avx2_strip(
    std::size_t m, std::size_t n, std::size_t k, const float* a,
    std::size_t lda, const float* b, std::size_t ldb, float* c,
    std::size_t ldc) {
  const std::size_t lanes0 = std::min<std::size_t>(n, 8);
  const std::size_t lanes1 = n > 8 ? n - 8 : 0;
  const __m256i mask0 = tail_mask(lanes0);
  const __m256i mask1 = tail_mask(lanes1);
  for (std::size_t i = 0; i < m; ++i) {
    float* crow = c + i * ldc;
    const float* arow = a + i * lda;
    __m256 c0 = _mm256_maskload_ps(crow, mask0);
    __m256 c1 = lanes1 ? _mm256_maskload_ps(crow + 8, mask1)
                       : _mm256_setzero_ps();
    for (std::size_t p = 0; p < k; ++p) {
      const __m256 av = _mm256_broadcast_ss(arow + p);
      const float* brow = b + p * ldb;
      c0 = _mm256_fmadd_ps(av, _mm256_maskload_ps(brow, mask0), c0);
      if (lanes1) {
        c1 = _mm256_fmadd_ps(av, _mm256_maskload_ps(brow + 8, mask1), c1);
      }
    }
    _mm256_maskstore_ps(crow, mask0, c0);
    if (lanes1) _mm256_maskstore_ps(crow + 8, mask1, c1);
  }
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

  // B is packed once on the calling thread; workers only read it (the
  // caller blocks inside parallel_for, keeping the scratch alive).
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

void axpy_row(float alpha, const float* src, float* dst,
              std::size_t n) noexcept {
#if AIC_GEMM_X86
  if (avx2_active()) {
    axpy_avx2(alpha, src, dst, n);
    return;
  }
#endif
  axpy_scalar(alpha, src, dst, n);
}

void block_mac(std::size_t m, std::size_t n, std::size_t k, const float* a,
               std::size_t lda, const float* b, std::size_t ldb, float* c,
               std::size_t ldc) noexcept {
#if AIC_GEMM_X86
  if (avx2_active()) {
    for (std::size_t j0 = 0; j0 < n; j0 += kNr) {
      const std::size_t width = std::min(kNr, n - j0);
      block_mac_avx2_strip(m, width, k, a, lda, b + j0, ldb, c + j0, ldc);
    }
    return;
  }
#endif
  block_mac_scalar(m, n, k, a, lda, b, ldb, c, ldc);
}

}  // namespace aic::tensor
