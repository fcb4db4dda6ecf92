#include "tensor/matmul.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/parallel_for.hpp"
#include "tensor/gemm_kernels.hpp"

namespace aic::tensor {
namespace {

// Work items per chunk when parallelizing over (plane × block-row); one
// item is small (CF·n·8 + CF·8·n MACs), so batch a handful per pool task.
constexpr std::size_t kBandGrain = 16;

// Floats in the per-chunk stack strip holding the mid product (16 KiB).
constexpr std::size_t kMidFloats = 4096;

void require_float32(const Tensor& t, const char* kernel, const char* what) {
  if (t.dtype() != DType::kFloat32) {
    throw std::invalid_argument(std::string(kernel) + ": " + what +
                                " must be float32, got " +
                                dtype_name(t.dtype()));
  }
}

struct BlockDims {
  std::size_t planes, h, w, out_h, out_w;
  std::size_t lr, lc, rr, rc;  // left / right tile shapes
};

// One (plane, block-row) item at a time: the lc input rows of the block
// row meet only the left tile, so the item's lr output rows are
//   out_rows = left · (in_rows · R),
// R the block-diagonal right operator. The mid product in_rows · R is
// formed column strip by column strip in `mid` (one block_mac per right
// block), then each output row takes one axpy_row per non-zero left tile
// entry. Zeros in a tile are structural, so they are skipped. When lc
// rows of a strip do not fit, the inner rows split as well; an output
// row then accumulates across the row strips in ascending order, so
// every element keeps one ascending-k chain whatever the split.
void block_sandwich_chunk(const float* left, const float* in,
                          const float* right, float* out, const BlockDims& d,
                          std::size_t lo, std::size_t hi) {
  alignas(64) float mid[kMidFloats];
  std::size_t cols = kMidFloats / d.lc / d.rc * d.rc;  // whole right blocks
  if (cols == 0) cols = std::min(d.rc, kMidFloats);
  cols = std::min(cols, d.out_w);
  const std::size_t rows = std::min(d.lc, kMidFloats / cols);
  const std::size_t block_rows = d.h / d.lc;
  std::uint64_t mac_local = 0, axpy_local = 0;
  for (std::size_t item = lo; item < hi; ++item) {
    const std::size_t plane = item / block_rows;
    const std::size_t block_row = item % block_rows;
    const float* in_rows = in + plane * d.h * d.w + block_row * d.lc * d.w;
    float* out_rows =
        out + plane * d.out_h * d.out_w + block_row * d.lr * d.out_w;
    for (std::size_t c0 = 0; c0 < d.out_w; c0 += cols) {
      const std::size_t width = std::min(cols, d.out_w - c0);
      for (std::size_t q0 = 0; q0 < d.lc; q0 += rows) {
        const std::size_t height = std::min(rows, d.lc - q0);
        // mid[q][c - c0] = Σ_k in_rows[q0 + q][jb·rr + k] · right[k][c % rc]
        std::fill_n(mid, height * width, 0.0f);
        for (std::size_t c = c0; c < c0 + width;) {
          const std::size_t jb = c / d.rc;
          const std::size_t j = c % d.rc;
          const std::size_t n = std::min(d.rc - j, c0 + width - c);
          block_mac(height, n, d.rr, in_rows + q0 * d.w + jb * d.rr, d.w,
                    right + j, d.rc, mid + (c - c0), width);
          ++mac_local;
          c += n;
        }
        for (std::size_t r = 0; r < d.lr; ++r) {
          float* out_row = out_rows + r * d.out_w + c0;
          if (q0 == 0) std::fill_n(out_row, width, 0.0f);
          const float* l_row = left + r * d.lc + q0;
          for (std::size_t q = 0; q < height; ++q) {
            if (l_row[q] == 0.0f) continue;
            axpy_row(l_row[q], mid + q * width, out_row, width);
            ++axpy_local;
          }
        }
      }
    }
  }
  const KernelCounters& counters = kernel_counters();
  counters.block_mac_calls.add(mac_local);
  counters.axpy_calls.add(axpy_local);
}

}  // namespace

void matmul_into(const Tensor& a, const Tensor& b, Tensor& out, Trans trans_a,
                 Trans trans_b, bool accumulate) {
  if (a.shape().rank() != 2 || b.shape().rank() != 2) {
    throw std::invalid_argument("matmul: operands must be rank 2");
  }
  require_float32(a, "matmul", "LHS");
  require_float32(b, "matmul", "RHS");
  require_float32(out, "matmul", "output");
  const std::size_t m =
      trans_a == Trans::kNo ? a.shape()[0] : a.shape()[1];
  const std::size_t k =
      trans_a == Trans::kNo ? a.shape()[1] : a.shape()[0];
  const std::size_t k_b =
      trans_b == Trans::kNo ? b.shape()[0] : b.shape()[1];
  const std::size_t n =
      trans_b == Trans::kNo ? b.shape()[1] : b.shape()[0];
  if (k_b != k) {
    throw std::invalid_argument("matmul: inner dimensions differ: " +
                                a.shape().to_string() + " x " +
                                b.shape().to_string());
  }
  if (out.shape() != Shape::matrix(m, n)) {
    throw std::invalid_argument("matmul_into: output shape mismatch");
  }
  gemm(trans_a, trans_b, m, n, k, a.raw(), a.shape()[1], b.raw(),
       b.shape()[1], out.raw(), n, accumulate);
}

void matmul_into(const Tensor& a, const Tensor& b, Tensor& out,
                 bool accumulate) {
  matmul_into(a, b, out, Trans::kNo, Trans::kNo, accumulate);
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  Tensor out(Shape::matrix(a.shape()[0], b.shape()[1]));
  matmul_into(a, b, out, /*accumulate=*/false);
  return out;
}

namespace {

// Checks the tiles against h×w planes; `planes` is left zero.
BlockDims block_dims(const Tensor& left, const Tensor& right, std::size_t h,
                     std::size_t w) {
  if (left.shape().rank() != 2 || right.shape().rank() != 2) {
    throw std::invalid_argument("block_sandwich: tiles must be rank 2");
  }
  require_float32(left, "block_sandwich", "left tile");
  require_float32(right, "block_sandwich", "right tile");
  BlockDims d{};
  d.lr = left.shape()[0];
  d.lc = left.shape()[1];
  d.rr = right.shape()[0];
  d.rc = right.shape()[1];
  d.h = h;
  d.w = w;
  if (d.lr == 0 || d.lc == 0 || d.rr == 0 || d.rc == 0 || d.h % d.lc != 0 ||
      d.w % d.rr != 0) {
    throw std::invalid_argument(
        "block_sandwich: tiles " + left.shape().to_string() + " / " +
        right.shape().to_string() + " do not tile " + std::to_string(h) +
        "x" + std::to_string(w) + " planes");
  }
  d.out_h = d.h / d.lc * d.lr;
  d.out_w = d.w / d.rr * d.rc;
  return d;
}

void run_block_sandwich(const float* left, const float* in,
                        const float* right, float* out, const BlockDims& d) {
  if (d.planes == 0 || d.h == 0 || d.w == 0) return;
  runtime::parallel_for_chunks(
      0, d.planes * (d.h / d.lc),
      [&](std::size_t lo, std::size_t hi) {
        AIC_TRACE_SCOPE("sandwich.block_chunk");
        block_sandwich_chunk(left, in, right, out, d, lo, hi);
      },
      {.grain = kBandGrain});
}

}  // namespace

void block_sandwich_into(const Tensor& left, const Tensor& in,
                         const Tensor& right, Tensor& out) {
  if (in.shape().rank() != 4 || out.shape().rank() != 4) {
    throw std::invalid_argument("block_sandwich: tensors must be rank 4");
  }
  const Shape& shape = in.shape();
  BlockDims d = block_dims(left, right, shape[2], shape[3]);
  require_float32(in, "block_sandwich", "input");
  require_float32(out, "block_sandwich", "output");
  if (out.shape() != Shape::bchw(shape[0], shape[1], d.out_h, d.out_w)) {
    throw std::invalid_argument("block_sandwich: output shape mismatch");
  }
  d.planes = shape[0] * shape[1];
  run_block_sandwich(left.raw(), in.raw(), right.raw(), out.raw(), d);
}

void block_sandwich_into(const Tensor& left, const float* in,
                         std::size_t planes, std::size_t h, std::size_t w,
                         const Tensor& right, float* out) {
  BlockDims d = block_dims(left, right, h, w);
  d.planes = planes;
  run_block_sandwich(left.raw(), in, right.raw(), out, d);
}

std::size_t matmul_flops(const Tensor& a, const Tensor& b) {
  return 2 * a.shape()[0] * a.shape()[1] * b.shape()[1];
}

}  // namespace aic::tensor
