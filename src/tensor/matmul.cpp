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

void require_float32(const Tensor& t, const char* kernel, const char* what) {
  if (t.dtype() != DType::kFloat32) {
    throw std::invalid_argument(std::string(kernel) + ": " + what +
                                " must be float32, got " +
                                dtype_name(t.dtype()));
  }
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
SandwichDims block_dims(const Tensor& left, const Tensor& right,
                        std::size_t h, std::size_t w) {
  if (left.shape().rank() != 2 || right.shape().rank() != 2) {
    throw std::invalid_argument("block_sandwich: tiles must be rank 2");
  }
  require_float32(left, "block_sandwich", "left tile");
  require_float32(right, "block_sandwich", "right tile");
  SandwichDims d{};
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
                        const float* right, float* out, const SandwichDims& d) {
  if (d.planes == 0 || d.h == 0 || d.w == 0) return;
  const std::size_t items = d.planes * (d.h / d.lc);
  runtime::parallel_for_chunks(
      0, items,
      [&](std::size_t lo, std::size_t hi) {
        AIC_TRACE_SCOPE("sandwich.block_chunk");
        block_sandwich_items(left, right, in, out, d, lo, hi);
      },
      {.grain = kBandGrain});
  const std::size_t nonzero = static_cast<std::size_t>(
      d.lr * d.lc - std::count(left, left + d.lr * d.lc, 0.0f));
  const KernelCounters& counters = kernel_counters();
  counters.block_mac_calls.add(items * (d.w / d.rr));
  counters.axpy_calls.add(items * nonzero);
}

}  // namespace

void block_sandwich_into(const Tensor& left, const Tensor& in,
                         const Tensor& right, Tensor& out) {
  if (in.shape().rank() != 4 || out.shape().rank() != 4) {
    throw std::invalid_argument("block_sandwich: tensors must be rank 4");
  }
  const Shape& shape = in.shape();
  SandwichDims d = block_dims(left, right, shape[2], shape[3]);
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
  SandwichDims d = block_dims(left, right, h, w);
  d.planes = planes;
  run_block_sandwich(left.raw(), in, right.raw(), out, d);
}

std::size_t matmul_flops(const Tensor& a, const Tensor& b) {
  return 2 * a.shape()[0] * a.shape()[1] * b.shape()[1];
}

}  // namespace aic::tensor
