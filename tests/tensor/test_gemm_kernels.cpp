#include "tensor/gemm_kernels.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "obs/metrics.hpp"
#include "runtime/cpu_features.hpp"
#include "runtime/rng.hpp"
#include "tensor/matmul.hpp"
#include "tensor/ops.hpp"

namespace aic::tensor {
namespace {

using runtime::KernelBackend;

bool simd_supported() {
  return runtime::cpu_features().avx2 && runtime::cpu_features().fma;
}

/// Restores the process-default backend when the test scope exits.
class BackendGuard {
 public:
  BackendGuard() : saved_(runtime::kernel_backend()) {}
  ~BackendGuard() { runtime::set_kernel_backend(saved_); }

 private:
  KernelBackend saved_;
};

/// |x−y| ≤ tol·max(1, |x|, |y|) everywhere.
void expect_rel_close(const Tensor& x, const Tensor& y, double tol,
                      const std::string& label) {
  ASSERT_EQ(x.shape(), y.shape()) << label;
  for (std::size_t i = 0; i < x.numel(); ++i) {
    const double a = x.at(i), b = y.at(i);
    const double scale = std::max({1.0, std::abs(a), std::abs(b)});
    ASSERT_LE(std::abs(a - b), tol * scale)
        << label << " flat index " << i << ": " << a << " vs " << b;
  }
}

// Naive double-accumulated ground truth honoring transpose flags.
Tensor matmul_naive(const Tensor& a, const Tensor& b, Trans ta, Trans tb) {
  const std::size_t m = ta == Trans::kNo ? a.shape()[0] : a.shape()[1];
  const std::size_t k = ta == Trans::kNo ? a.shape()[1] : a.shape()[0];
  const std::size_t n = tb == Trans::kNo ? b.shape()[1] : b.shape()[0];
  Tensor c(Shape::matrix(m, n));
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t p = 0; p < k; ++p) {
        const float av = ta == Trans::kNo ? a.at(i, p) : a.at(p, i);
        const float bv = tb == Trans::kNo ? b.at(p, j) : b.at(j, p);
        acc += static_cast<double>(av) * bv;
      }
      c.at(i, j) = static_cast<float>(acc);
    }
  }
  return c;
}

TEST(CpuFeatures, BackendNamesAreStable) {
  EXPECT_STREQ(runtime::kernel_backend_name(KernelBackend::kScalar),
               "scalar");
  EXPECT_STREQ(runtime::kernel_backend_name(KernelBackend::kAvx2), "avx2");
  // The active backend must be one of the two names.
  const std::string active = runtime::kernel_backend_name();
  EXPECT_TRUE(active == "scalar" || active == "avx2") << active;
}

TEST(CpuFeatures, BackendOverrideRoundTrips) {
  BackendGuard guard;
  runtime::set_kernel_backend(KernelBackend::kScalar);
  EXPECT_EQ(runtime::kernel_backend(), KernelBackend::kScalar);
  EXPECT_STREQ(runtime::kernel_backend_name(), "scalar");
  if (simd_supported()) {
    runtime::set_kernel_backend(KernelBackend::kAvx2);
    EXPECT_EQ(runtime::kernel_backend(), KernelBackend::kAvx2);
  } else {
    EXPECT_THROW(runtime::set_kernel_backend(KernelBackend::kAvx2),
                 std::invalid_argument);
  }
}

// SIMD-vs-scalar parity fuzz over shapes that exercise every tail path:
// partial MR panels, partial NR panels (both halves of the 16-wide tile),
// k=1, and the 7×13×5 shape from the issue.
TEST(GemmParity, SimdMatchesScalarOnRandomShapes) {
  if (!simd_supported()) GTEST_SKIP() << "host lacks AVX2+FMA";
  BackendGuard guard;
  runtime::Rng rng(21);
  const std::vector<std::tuple<std::size_t, std::size_t, std::size_t>>
      shapes = {{1, 1, 1},    {7, 13, 5},   {6, 16, 32},  {17, 1, 9},
                {5, 300, 3},  {33, 47, 29}, {64, 64, 64}, {129, 63, 65},
                {2, 200, 11}, {61, 7, 123}};
  for (const auto& [m, k, n] : shapes) {
    const Tensor a = Tensor::uniform(Shape::matrix(m, k), rng, -1.0f, 1.0f);
    const Tensor b = Tensor::uniform(Shape::matrix(k, n), rng, -1.0f, 1.0f);
    Tensor scalar_out(Shape::matrix(m, n));
    Tensor simd_out(Shape::matrix(m, n));
    runtime::set_kernel_backend(KernelBackend::kScalar);
    matmul_into(a, b, scalar_out);
    runtime::set_kernel_backend(KernelBackend::kAvx2);
    matmul_into(a, b, simd_out);
    expect_rel_close(scalar_out, simd_out, 1e-5,
                     std::to_string(m) + "x" + std::to_string(k) + "x" +
                         std::to_string(n));
  }
}

// Transpose flags must match an explicit transposed() copy bit-for-bit on
// every backend (same kernel, same packing-normalized operand order).
TEST(GemmTranspose, FlagsMatchExplicitTransposeCopies) {
  runtime::Rng rng(22);
  const std::size_t m = 23, k = 31, n = 19;
  for (const KernelBackend backend :
       {KernelBackend::kScalar, KernelBackend::kAvx2}) {
    if (backend == KernelBackend::kAvx2 && !simd_supported()) continue;
    BackendGuard guard;
    runtime::set_kernel_backend(backend);
    const Tensor a = Tensor::uniform(Shape::matrix(m, k), rng, -1.0f, 1.0f);
    const Tensor b = Tensor::uniform(Shape::matrix(k, n), rng, -1.0f, 1.0f);
    const Tensor at = a.transposed();  // k×m storage of the same logical A
    const Tensor bt = b.transposed();  // n×k storage of the same logical B
    Tensor reference(Shape::matrix(m, n));
    matmul_into(a, b, reference);

    Tensor nt(Shape::matrix(m, n));
    matmul_into(a, bt, nt, Trans::kNo, Trans::kYes);
    Tensor tn(Shape::matrix(m, n));
    matmul_into(at, b, tn, Trans::kYes, Trans::kNo);
    Tensor tt(Shape::matrix(m, n));
    matmul_into(at, bt, tt, Trans::kYes, Trans::kYes);
    for (std::size_t i = 0; i < reference.numel(); ++i) {
      ASSERT_EQ(nt.at(i), reference.at(i)) << "NT flat " << i;
      ASSERT_EQ(tn.at(i), reference.at(i)) << "TN flat " << i;
      ASSERT_EQ(tt.at(i), reference.at(i)) << "TT flat " << i;
    }
  }
}

TEST(GemmTranspose, FlagsMatchNaiveReference) {
  runtime::Rng rng(23);
  const std::size_t m = 14, k = 40, n = 27;
  const Tensor at = Tensor::uniform(Shape::matrix(k, m), rng, -1.0f, 1.0f);
  const Tensor bt = Tensor::uniform(Shape::matrix(n, k), rng, -1.0f, 1.0f);
  Tensor out(Shape::matrix(m, n));
  matmul_into(at, bt, out, Trans::kYes, Trans::kYes);
  expect_rel_close(out, matmul_naive(at, bt, Trans::kYes, Trans::kYes), 1e-4,
                   "TT vs naive");
}

TEST(GemmTranspose, DimensionValidationHonorsFlags) {
  const Tensor a(Shape::matrix(4, 6));
  const Tensor b(Shape::matrix(4, 5));
  Tensor out(Shape::matrix(6, 5));
  // aᵀ (6×4) · b (4×5) fits; a · b does not.
  matmul_into(a, b, out, Trans::kYes, Trans::kNo);
  EXPECT_THROW(matmul_into(a, b, out, Trans::kNo, Trans::kNo),
               std::invalid_argument);
  Tensor wrong(Shape::matrix(4, 5));
  EXPECT_THROW(matmul_into(a, b, wrong, Trans::kYes, Trans::kNo),
               std::invalid_argument);
}

TEST(GemmAccumulate, AddsOntoExistingOutput) {
  runtime::Rng rng(24);
  for (const KernelBackend backend :
       {KernelBackend::kScalar, KernelBackend::kAvx2}) {
    if (backend == KernelBackend::kAvx2 && !simd_supported()) continue;
    BackendGuard guard;
    runtime::set_kernel_backend(backend);
    const std::size_t m = 9, k = 33, n = 21;  // tails on every axis
    const Tensor a = Tensor::uniform(Shape::matrix(m, k), rng, -1.0f, 1.0f);
    const Tensor b = Tensor::uniform(Shape::matrix(k, n), rng, -1.0f, 1.0f);
    const Tensor seed = Tensor::uniform(Shape::matrix(m, n), rng, -1.0f, 1.0f);
    Tensor product(Shape::matrix(m, n));
    matmul_into(a, b, product);
    Tensor accumulated = seed;
    matmul_into(a, b, accumulated, /*accumulate=*/true);
    // accumulate must be exactly seed + product: the kernel performs one
    // add of the same register tile the non-accumulating path stores.
    for (std::size_t i = 0; i < accumulated.numel(); ++i) {
      ASSERT_EQ(accumulated.at(i), seed.at(i) + product.at(i)) << i;
    }
  }
}

// The dense operator with `tile` repeated `blocks` times on its diagonal.
Tensor block_diagonal(const Tensor& tile, std::size_t blocks) {
  const std::size_t rows = tile.shape()[0], cols = tile.shape()[1];
  Tensor m(Shape::matrix(blocks * rows, blocks * cols));
  for (std::size_t blk = 0; blk < blocks; ++blk) {
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < cols; ++c) {
        m.at(blk * rows + r, blk * cols + c) = tile.at(r, c);
      }
    }
  }
  return m;
}

// Asserts block_sandwich_into(left, in, right) equals the per-plane dense
// two-matmul sandwich over the block-diagonal operators, element for
// element (== also accepts a differently signed zero).
void expect_block_matches_dense(const Tensor& left, const Tensor& in,
                                const Tensor& right) {
  const std::size_t h = in.shape()[2], w = in.shape()[3];
  const Tensor lhs = block_diagonal(left, h / left.shape()[1]);
  const Tensor rhs = block_diagonal(right, w / right.shape()[0]);
  Tensor out(Shape::bchw(in.shape()[0], in.shape()[1], lhs.shape()[0],
                         rhs.shape()[1]));
  block_sandwich_into(left, in, right, out);
  for (std::size_t b = 0; b < in.shape()[0]; ++b) {
    for (std::size_t c = 0; c < in.shape()[1]; ++c) {
      const Tensor expected = matmul(lhs, matmul(in.slice_plane(b, c), rhs));
      const Tensor got = out.slice_plane(b, c);
      for (std::size_t i = 0; i < expected.numel(); ++i) {
        ASSERT_EQ(got.at(i), expected.at(i))
            << runtime::kernel_backend_name() << " plane " << b << "," << c
            << " flat " << i;
      }
    }
  }
}

// The block kernel must agree with the dense path bit-for-bit under every
// backend: it issues the same ascending-k chains as the packed
// microkernel.
TEST(GemmSandwich, BandedMatchesDenseOnEveryBackend) {
  runtime::Rng rng(25);
  const std::size_t bands = 4, cf = 4, block = 8;
  const Tensor left =
      Tensor::uniform(Shape::matrix(cf, block), rng, -1.0f, 1.0f);
  const std::size_t edge = bands * block;
  const Tensor in =
      Tensor::uniform(Shape::bchw(2, 3, edge, edge), rng, -1.0f, 1.0f);
  const Tensor packed =
      Tensor::uniform(Shape::bchw(2, 3, bands * cf, bands * cf), rng, -1.0f,
                      1.0f);
  for (const KernelBackend backend :
       {KernelBackend::kScalar, KernelBackend::kAvx2}) {
    if (backend == KernelBackend::kAvx2 && !simd_supported()) continue;
    BackendGuard guard;
    runtime::set_kernel_backend(backend);
    expect_block_matches_dense(left, in, left.transposed());  // Eq. 4
    expect_block_matches_dense(left.transposed(), packed, left);  // Eq. 6
  }
}

// Tiles with more than 8 mid rows run in 8-row passes and tiles wider
// than 8 columns in 8-column strips (96×72 needs 12 passes × 9 strips);
// neither split may move a bit, and neither may a wide plane.
TEST(GemmSandwich, StripSplitsKeepTheDenseBits) {
  runtime::Rng rng(30);
  const Tensor tall = Tensor::uniform(Shape::matrix(3, 96), rng, -1.0f, 1.0f);
  const Tensor wide = Tensor::uniform(Shape::matrix(96, 72), rng, -1.0f, 1.0f);
  const Tensor small = Tensor::uniform(Shape::matrix(2, 8), rng, -1.0f, 1.0f);
  const Tensor in_rows =
      Tensor::uniform(Shape::bchw(1, 2, 192, 192), rng, -1.0f, 1.0f);
  const Tensor in_cols =
      Tensor::uniform(Shape::bchw(1, 1, 16, 3072), rng, -1.0f, 1.0f);
  for (const KernelBackend backend :
       {KernelBackend::kScalar, KernelBackend::kAvx2}) {
    if (backend == KernelBackend::kAvx2 && !simd_supported()) continue;
    BackendGuard guard;
    runtime::set_kernel_backend(backend);
    expect_block_matches_dense(tall, in_rows, wide);  // 96·72 > 4096
    expect_block_matches_dense(small, in_cols, small.transposed());
  }
}

// Each element of block_sandwich_into, spelled out: the mid is an
// ascending-k chain from +0 over every right-tile entry, the output an
// ascending-q chain from +0 that skips the exact-zero left-tile entries;
// FMA steps on AVX2, multiply-then-add on scalar.
std::vector<float> sandwich_chains(const Tensor& left, const Tensor& in,
                                   const Tensor& right, bool fused) {
  const std::size_t lr = left.shape()[0], lc = left.shape()[1];
  const std::size_t rr = right.shape()[0], rc = right.shape()[1];
  const std::size_t planes = in.shape()[0] * in.shape()[1];
  const std::size_t h = in.shape()[2], w = in.shape()[3];
  const std::size_t out_h = h / lc * lr, out_w = w / rr * rc;
  const auto step = [fused](float a, float b, float acc) {
    return fused ? std::fma(a, b, acc) : acc + a * b;
  };
  std::vector<float> out(planes * out_h * out_w);
  std::vector<float> mid(lc);
  for (std::size_t p = 0; p < planes; ++p) {
    const float* x = in.raw() + p * h * w;
    for (std::size_t bi = 0; bi < h / lc; ++bi) {
      for (std::size_t bj = 0; bj < w / rr; ++bj) {
        for (std::size_t c = 0; c < rc; ++c) {
          for (std::size_t q = 0; q < lc; ++q) {
            float m = 0.0f;
            for (std::size_t k = 0; k < rr; ++k) {
              m = step(x[(bi * lc + q) * w + bj * rr + k], right.at(k, c), m);
            }
            mid[q] = m;
          }
          for (std::size_t r = 0; r < lr; ++r) {
            float acc = 0.0f;
            for (std::size_t q = 0; q < lc; ++q) {
              if (left.at(r, q) != 0.0f) acc = step(left.at(r, q), mid[q], acc);
            }
            out[(p * out_h + bi * lr + r) * out_w + bj * rc + c] = acc;
          }
        }
      }
    }
  }
  return out;
}

// Tiles with structural zeros, including an all-zero row, over an input
// holding an infinity: every output element must equal its spelled-out
// chain bit for bit (sign of zero included), so the zero-skip stays
// pinned. Without the skip, 0·inf would turn the rows whose tile entry
// is zero into NaN. The shapes cover the compress- and decompress-shaped
// tiles at block 8 (two right blocks per vector, and an unpaired last
// block) and a tile needing two passes and two strips.
TEST(GemmSandwich, StructuralZerosAreSkippedBitwise) {
  runtime::Rng rng(31);
  struct Tiles {
    std::size_t lr, lc, rr, rc, h, w;
  };
  for (const Tiles t : {Tiles{3, 8, 8, 3, 16, 24}, Tiles{4, 8, 8, 4, 8, 40},
                        Tiles{6, 8, 8, 6, 16, 24}, Tiles{8, 3, 3, 8, 6, 9},
                        Tiles{5, 12, 12, 10, 24, 36}}) {
    Tensor left = Tensor::uniform(Shape::matrix(t.lr, t.lc), rng, -1.0f, 1.0f);
    Tensor right =
        Tensor::uniform(Shape::matrix(t.rr, t.rc), rng, -1.0f, 1.0f);
    for (std::size_t q = 0; q < t.lc; ++q) left.at(1, q) = 0.0f;  // a zero row
    for (std::size_t r = 0; r < t.lr; r += 2) left.at(r, 2) = 0.0f;
    left.at(t.lr - 1, t.lc - 1) = -0.0f;
    right.at(0, t.rc - 1) = 0.0f;
    Tensor in =
        Tensor::uniform(Shape::bchw(1, 2, t.h, t.w), rng, -1.0f, 1.0f);
    in.at(2 * t.w + t.w - 1) = INFINITY;  // mid row 2 of the last block
    for (const KernelBackend backend :
         {KernelBackend::kScalar, KernelBackend::kAvx2}) {
      if (backend == KernelBackend::kAvx2 && !simd_supported()) continue;
      BackendGuard guard;
      runtime::set_kernel_backend(backend);
      Tensor out(Shape::bchw(1, 2, t.h / t.lc * t.lr, t.w / t.rr * t.rc));
      block_sandwich_into(left, in, right, out);
      const std::vector<float> want =
          sandwich_chains(left, in, right, backend == KernelBackend::kAvx2);
      ASSERT_EQ(out.numel(), want.size());
      for (std::size_t i = 0; i < want.size(); ++i) {
        if (std::isnan(want[i])) {
          EXPECT_TRUE(std::isnan(out.at(i))) << runtime::kernel_backend_name() << " flat " << i;
        } else {
          EXPECT_EQ(std::signbit(out.at(i)), std::signbit(want[i]))
              << runtime::kernel_backend_name() << " flat " << i;
          EXPECT_EQ(out.at(i), want[i])
              << runtime::kernel_backend_name() << " flat " << i;
        }
      }
      // The all-zero row of the last block row is +0 despite the
      // infinity; the rows with a zero at q = 2 stay finite.
      const std::size_t out_w = t.w / t.rr * t.rc;
      for (std::size_t c = 0; c < out_w; ++c) {
        EXPECT_EQ(out.at(out_w + c), 0.0f);
        EXPECT_FALSE(std::signbit(out.at(out_w + c)));
        EXPECT_TRUE(std::isfinite(out.at(c))) << c;
      }
    }
  }
}

TEST(GemmSandwich, SimdAndScalarSandwichAgreeWithinTolerance) {
  if (!simd_supported()) GTEST_SKIP() << "host lacks AVX2+FMA";
  BackendGuard guard;
  runtime::Rng rng(26);
  const std::size_t bands = 3, cf = 2, block = 8;
  const Tensor left =
      Tensor::uniform(Shape::matrix(cf, block), rng, -1.0f, 1.0f);
  const Tensor right = left.transposed();
  const std::size_t edge = bands * block;
  const Tensor in =
      Tensor::uniform(Shape::bchw(2, 2, edge, edge), rng, -1.0f, 1.0f);
  Tensor scalar_out(Shape::bchw(2, 2, bands * cf, bands * cf));
  Tensor simd_out(Shape::bchw(2, 2, bands * cf, bands * cf));
  runtime::set_kernel_backend(KernelBackend::kScalar);
  block_sandwich_into(left, in, right, scalar_out);
  runtime::set_kernel_backend(KernelBackend::kAvx2);
  block_sandwich_into(left, in, right, simd_out);
  expect_rel_close(scalar_out, simd_out, 1e-5, "sandwich parity");
}

/// The `kernel.*` registry counters, keyed without the prefix (a counter
/// not registered yet reads 0).
std::map<std::string, std::uint64_t> kernel_counts() {
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, value] : obs::Registry::global().counters()) {
    if (name.starts_with("kernel.")) out[name.substr(7)] = value;
  }
  return out;
}

TEST(GemmCounters, AdvanceAcrossCallsAndCountTails) {
  std::map<std::string, std::uint64_t> before = kernel_counts();
  runtime::Rng rng(28);
  // 13×17: partial MR panels (13 = 2·6+1) and partial NR panels (17 = 16+1).
  const Tensor a = Tensor::uniform(Shape::matrix(13, 9), rng, -1.0f, 1.0f);
  const Tensor b = Tensor::uniform(Shape::matrix(9, 17), rng, -1.0f, 1.0f);
  Tensor c(Shape::matrix(13, 17));
  matmul_into(a, b, c);
  std::map<std::string, std::uint64_t> after = kernel_counts();
  EXPECT_EQ(after["gemm_calls"], before["gemm_calls"] + 1);
  EXPECT_EQ(after["gemm_flops"], before["gemm_flops"] + 2ull * 13 * 9 * 17);
  // ceil(13/6)=3 A panels (6,6,1 rows), ceil(17/16)=2 B panels (16,1
  // cols), 6 tiles of which only the two 6×16 ones are full.
  EXPECT_EQ(after["a_panels"], before["a_panels"] + 3);
  EXPECT_EQ(after["b_panels"], before["b_panels"] + 2);
  EXPECT_EQ(after["microkernel_calls"], before["microkernel_calls"] + 6);
  EXPECT_EQ(after["tail_tiles"], before["tail_tiles"] + 4);
}

TEST(GemmCounters, SandwichBandedRecordsPrimitiveCalls) {
  runtime::Rng rng(29);
  const std::size_t bands = 4, cf = 4, block = 8;
  const Tensor left = Tensor::uniform(Shape::matrix(cf, block), rng, 0.1f, 1.0f);
  const std::size_t edge = bands * block;
  const Tensor in = Tensor::uniform(Shape::bchw(1, 2, edge, edge), rng);
  Tensor out(Shape::bchw(1, 2, bands * cf, bands * cf));
  std::map<std::string, std::uint64_t> before = kernel_counts();
  block_sandwich_into(left, in, left.transposed(), out);
  std::map<std::string, std::uint64_t> after = kernel_counts();
  // 2 planes × 4 block rows × 4 right blocks block MACs.
  EXPECT_EQ(after["block_mac_calls"], before["block_mac_calls"] + 2 * 4 * 4);
  // One axpy row per non-zero tile entry per (plane, block row).
  EXPECT_EQ(after["axpy_calls"], before["axpy_calls"] + 2 * 4 * cf * block);
  EXPECT_EQ(after["gemm_calls"], before["gemm_calls"]);
}

}  // namespace
}  // namespace aic::tensor
