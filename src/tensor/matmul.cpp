#include "tensor/matmul.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "runtime/aligned_buffer.hpp"
#include "runtime/context.hpp"
#include "runtime/parallel_for.hpp"
#include "runtime/thread_pool.hpp"
#include "tensor/gemm_kernels.hpp"

namespace aic::tensor {
namespace {

// Work items per chunk when parallelizing over (plane × band); one band is
// small (CF·n·8 + CF·8·n MACs), so batch a handful per pool task.
constexpr std::size_t kBandGrain = 16;

std::atomic<std::uint64_t> g_scratch_reallocs{0};

/// The sandwich mid-product scratch of one calling thread: one slot per
/// worker of the pool its call fans out on, all sized by the caller
/// before the fan-out. A chunk borrows a free slot for its duration, and
/// a worker runs one chunk at a time, so workers never allocate: how
/// often scratch grows depends on the call shapes and the pool size
/// alone, never on which workers pick up the chunks.
class MidScratch {
 public:
  /// The calling thread's scratch with every slot holding `floats`.
  static MidScratch& prepare(std::size_t floats) {
    thread_local MidScratch scratch;
    const std::size_t slots =
        std::max<std::size_t>(runtime::current_pool()->size(), 1);
    if (scratch.buffers_.size() < slots) scratch.buffers_.resize(slots);
    scratch.free_.clear();
    for (runtime::AlignedBuffer<float>& buffer : scratch.buffers_) {
      if (buffer.size() < floats) {
        buffer = runtime::AlignedBuffer<float>(floats);
        g_scratch_reallocs.fetch_add(1, std::memory_order_relaxed);
      }
      scratch.free_.push_back(buffer.data());
    }
    return scratch;
  }

  /// A slot borrowed for one chunk, returned when the lease ends.
  class Lease {
   public:
    explicit Lease(MidScratch& owner) : owner_(owner) {
      const std::lock_guard<std::mutex> lock(owner_.mutex_);
      if (owner_.free_.empty()) {
        throw std::logic_error("sandwich: more chunks in flight than slots");
      }
      slot_ = owner_.free_.back();
      owner_.free_.pop_back();
    }
    ~Lease() {
      const std::lock_guard<std::mutex> lock(owner_.mutex_);
      owner_.free_.push_back(slot_);
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

    float* data() const { return slot_; }

   private:
    MidScratch& owner_;
    float* slot_ = nullptr;
  };

 private:
  std::vector<runtime::AlignedBuffer<float>> buffers_;
  std::mutex mutex_;  // guards free_
  std::vector<float*> free_;
};

void require_float32(const Tensor& t, const char* kernel, const char* what) {
  if (t.dtype() != DType::kFloat32) {
    throw std::invalid_argument(std::string(kernel) + ": " + what +
                                " must be float32, got " +
                                dtype_name(t.dtype()));
  }
}

// One plane of the dense sandwich: out_plane = lhs · (plane · rhs), both
// stages through the shared gemm (which degrades to inline execution on
// pool workers — the caller owns the plane-level parallelism).
void sandwich_plane_dense(const float* lhs, const float* plane,
                          const float* rhs, float* out_plane, float* mid,
                          std::size_t h, std::size_t w, std::size_t out_h,
                          std::size_t out_w) {
  {
    AIC_TRACE_SCOPE("sandwich.rhs_mm");
    gemm(Trans::kNo, Trans::kNo, h, out_w, w, plane, w, rhs, out_w, mid,
         out_w, /*accumulate=*/false);
  }
  {
    AIC_TRACE_SCOPE("sandwich.lhs_mm");
    gemm(Trans::kNo, Trans::kNo, out_h, out_w, h, lhs, h, mid, out_w,
         out_plane, out_w, /*accumulate=*/false);
  }
}

struct SandwichDims {
  std::size_t planes, h, w, out_h, out_w;
};

void sandwich_dense(const float* lhs, const float* in, const float* rhs,
                    float* out, const SandwichDims& d) {
  MidScratch& scratch = MidScratch::prepare(d.h * d.out_w);
  runtime::parallel_for_chunks(
      0, d.planes,
      [&](std::size_t lo, std::size_t hi) {
        AIC_TRACE_SCOPE("sandwich.dense_chunk");
        const MidScratch::Lease mid(scratch);
        for (std::size_t plane = lo; plane < hi; ++plane) {
          sandwich_plane_dense(lhs, in + plane * d.h * d.w, rhs,
                               out + plane * d.out_h * d.out_w, mid.data(),
                               d.h, d.w, d.out_h, d.out_w);
        }
      },
      {.grain = 1});
}

// Structurally-sparse fast path. Band i of LHS couples output rows
// [i·lb_r, +lb_r) to input rows [i·lb_c, +lb_c) only, so each (plane,
// band) item is independent: form the lb_c×out_w mid strip in scratch,
// then the lb_r output rows, touching only live operator entries. The
// per-element work goes through the dispatched kernel primitives
// (block_mac for the narrow per-band RHS blocks, axpy_row for the wide
// output rows), which accumulate in the exact same ascending-k order as
// the dense gemm — banded and dense stay bit-identical per backend.
void sandwich_banded(const float* lhs, const float* in, const float* rhs,
                     float* out, const SandwichDims& d, std::size_t lb_r,
                     std::size_t lb_c, std::size_t rb_r, std::size_t rb_c) {
  const std::size_t bands = d.h / lb_c;
  const std::size_t rhs_bands = d.w / rb_r;
  MidScratch& scratch = MidScratch::prepare(lb_c * d.out_w);
  runtime::parallel_for_chunks(
      0, d.planes * bands,
      [&](std::size_t lo, std::size_t hi) {
        AIC_TRACE_SCOPE("sandwich.banded_chunk");
        const MidScratch::Lease lease(scratch);
        float* mid = lease.data();
        std::uint64_t mac_local = 0, axpy_local = 0;
        for (std::size_t item = lo; item < hi; ++item) {
          const std::size_t plane = item / bands;
          const std::size_t band = item % bands;
          const float* in_rows =
              in + plane * d.h * d.w + band * lb_c * d.w;
          // mid = in_rows · rhs, visiting only each RHS row's live band:
          // one lb_c×rb_c block MAC per RHS band.
          std::fill_n(mid, lb_c * d.out_w, 0.0f);
          for (std::size_t jb = 0; jb < rhs_bands; ++jb) {
            block_mac(lb_c, rb_c, rb_r, in_rows + jb * rb_r, d.w,
                      rhs + (jb * rb_r) * d.out_w + jb * rb_c, d.out_w,
                      mid + jb * rb_c, d.out_w);
          }
          mac_local += rhs_bands;
          // out band = (lb_r × lb_c) LHS block · mid, one wide fused
          // row update per live LHS entry. The zero-skip stays here —
          // zeros in chop operators are structural, not incidental.
          const float* l_block = lhs + (band * lb_r) * d.h + band * lb_c;
          float* out_rows = out + plane * d.out_h * d.out_w +
                            band * lb_r * d.out_w;
          for (std::size_t r = 0; r < lb_r; ++r) {
            float* out_row = out_rows + r * d.out_w;
            std::fill_n(out_row, d.out_w, 0.0f);
            const float* l_row = l_block + r * d.h;
            for (std::size_t q = 0; q < lb_c; ++q) {
              const float l_val = l_row[q];
              if (l_val == 0.0f) continue;
              axpy_row(l_val, mid + q * d.out_w, out_row, d.out_w);
              ++axpy_local;
            }
          }
        }
        GemmCounters delta;
        delta.block_mac_calls = mac_local;
        delta.axpy_calls = axpy_local;
        add_gemm_counters(delta);
      },
      {.grain = kBandGrain});
}

// A banded spec fits a rows×cols operator when the band grid tiles it.
bool spec_fits(const BandedSpec& spec, std::size_t rows, std::size_t cols) {
  return spec.valid() && rows % spec.row_block == 0 &&
         cols % spec.col_block == 0 &&
         rows / spec.row_block == cols / spec.col_block;
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

bool is_block_banded(const Tensor& m, const BandedSpec& spec) {
  if (m.shape().rank() != 2) return false;
  const std::size_t rows = m.shape()[0];
  const std::size_t cols = m.shape()[1];
  if (!spec_fits(spec, rows, cols)) return false;
  const float* p = m.raw();
  for (std::size_t i = 0; i < rows; ++i) {
    const std::size_t band = i / spec.row_block;
    const std::size_t live_lo = band * spec.col_block;
    const std::size_t live_hi = live_lo + spec.col_block;
    for (std::size_t j = 0; j < cols; ++j) {
      if ((j < live_lo || j >= live_hi) && p[i * cols + j] != 0.0f) {
        return false;
      }
    }
  }
  return true;
}

void sandwich_planes_into(const Tensor& lhs, const Tensor& in,
                          const Tensor& rhs, Tensor& out,
                          const SandwichOptions& options) {
  if (in.shape().rank() != 4 || out.shape().rank() != 4) {
    throw std::invalid_argument("sandwich_planes: tensors must be rank 4");
  }
  if (lhs.shape().rank() != 2 || rhs.shape().rank() != 2) {
    throw std::invalid_argument("sandwich_planes: operators must be rank 2");
  }
  require_float32(lhs, "sandwich_planes", "LHS");
  require_float32(rhs, "sandwich_planes", "RHS");
  require_float32(in, "sandwich_planes", "input");
  require_float32(out, "sandwich_planes", "output");
  const std::size_t batch = in.shape()[0];
  const std::size_t channels = in.shape()[1];
  const std::size_t h = in.shape()[2];
  const std::size_t w = in.shape()[3];
  const std::size_t out_h = lhs.shape()[0];
  const std::size_t out_w = rhs.shape()[1];
  if (lhs.shape()[1] != h || rhs.shape()[0] != w) {
    throw std::invalid_argument("sandwich_planes: LHS/RHS do not fit input");
  }
  if (out.shape() != Shape::bchw(batch, channels, out_h, out_w)) {
    throw std::invalid_argument("sandwich_planes: output shape mismatch");
  }
  const SandwichDims dims{batch * channels, h, w, out_h, out_w};
  if (dims.planes == 0) return;

  const bool want_banded =
      options.lhs_bands.valid() || options.rhs_bands.valid();
  if (want_banded) {
    // Half-specified or ill-fitting hints are caller bugs, not a reason to
    // silently fall back to the dense path.
    if (!spec_fits(options.lhs_bands, out_h, h) ||
        !spec_fits(options.rhs_bands, w, out_w)) {
      throw std::invalid_argument(
          "sandwich_planes: band structure does not tile the operators");
    }
    sandwich_banded(lhs.raw(), in.raw(), rhs.raw(), out.raw(), dims,
                    options.lhs_bands.row_block, options.lhs_bands.col_block,
                    options.rhs_bands.row_block, options.rhs_bands.col_block);
    return;
  }
  sandwich_dense(lhs.raw(), in.raw(), rhs.raw(), out.raw(), dims);
}

void sandwich_planes(const Tensor& lhs, const Tensor& in, const Tensor& rhs,
                     Tensor& out) {
  sandwich_planes_into(lhs, in, rhs, out, {});
}

std::uint64_t sandwich_scratch_reallocs() noexcept {
  return g_scratch_reallocs.load(std::memory_order_relaxed);
}

std::size_t matmul_flops(const Tensor& a, const Tensor& b) {
  return 2 * a.shape()[0] * a.shape()[1] * b.shape()[1];
}

}  // namespace aic::tensor
