// Eq. 4/6 as the codecs execute them, checked two ways for every chop
// codec kind, CF, block size, plane geometry and kernel backend:
//
//  * bitwise against the per-plane dense two-matmul sandwich
//    matmul(make_lhs(h), matmul(plane, make_rhs(w))) (and Eq. 6 likewise);
//  * against a float64 per-block reference T_c·X·T_cᵀ / T_cᵀ·Y·T_c with a
//    stated error bound.

#include <gtest/gtest.h>

#include <cmath>
#include <ostream>
#include <string>
#include <vector>

#include "core/chop.hpp"
#include "core/partial_serializer.hpp"
#include "core/plan_cache.hpp"
#include "core/triangle.hpp"
#include "runtime/cpu_features.hpp"
#include "runtime/rng.hpp"
#include "tensor/matmul.hpp"

namespace aic::core {
namespace {

using runtime::KernelBackend;
using tensor::Shape;
using tensor::Tensor;

enum class Kind { kDctChop, kPartial, kTriangle };

const char* kind_name(Kind kind) {
  switch (kind) {
    case Kind::kDctChop: return "dctchop";
    case Kind::kPartial: return "partial";
    case Kind::kTriangle: return "triangle";
  }
  return "?";
}

// Names the parameter in test output and in the names ctest lists.
void PrintTo(Kind kind, std::ostream* os) { *os << kind_name(kind); }

struct Dims {
  std::size_t h, w;
};

struct Case {
  Dims d;
  std::size_t cf, block;
};

// The geometry edges of the block kernel. At block 8: every CF (CF ≤ 4
// runs two right blocks per vector on AVX2, CF 5..8 one), square and
// rectangular planes, an odd number of blocks on each axis (40×24 is
// 5×3 blocks, so each compress row ends on an unpaired block) and a
// single-block plane. At block 16: 16-column blocks (two 8-column
// strips) and, at CF 9 and 16, more than 8 mid rows (two passes whose
// outputs continue in memory).
std::vector<Case> cases() {
  std::vector<Case> out;
  for (const Dims d : {Dims{32, 32}, Dims{32, 48}, Dims{40, 24}, Dims{8, 8}}) {
    for (std::size_t cf = 1; cf <= 8; ++cf) out.push_back({d, cf, 8});
  }
  for (const Dims d : {Dims{32, 32}, Dims{16, 48}}) {
    for (const std::size_t cf : {1, 4, 9, 16}) out.push_back({d, cf, 16});
  }
  return out;
}

// Partial serialization (s = 2) needs planes of whole 2×2 block groups.
bool runs(Kind kind, const Case& c) {
  return kind != Kind::kPartial ||
         (c.d.h % (2 * c.block) == 0 && c.d.w % (2 * c.block) == 0);
}

std::vector<KernelBackend> backends() {
  std::vector<KernelBackend> out = {KernelBackend::kScalar};
  if (runtime::cpu_features().avx2 && runtime::cpu_features().fma) {
    out.push_back(KernelBackend::kAvx2);
  }
  return out;
}

/// Restores the process-default backend when the scope exits.
class BackendGuard {
 public:
  explicit BackendGuard(KernelBackend backend)
      : saved_(runtime::kernel_backend()) {
    runtime::set_kernel_backend(backend);
  }
  ~BackendGuard() { runtime::set_kernel_backend(saved_); }

 private:
  KernelBackend saved_;
};

struct Outputs {
  Tensor packed;
  Tensor restored;
};

// Compress then decompress through the codec kind's executor: the
// DctChopPlan directly, partial and triangle through their codecs.
Outputs run(Kind kind, const Tensor& in, std::size_t cf, std::size_t block) {
  const Context ctx = Context::process_default();
  const std::size_t h = in.shape()[2], w = in.shape()[3];
  Outputs out;
  out.restored = Tensor(in.shape());
  switch (kind) {
    case Kind::kDctChop: {
      const auto plan = resolve_dct_chop_plan(ctx, h, w, cf, block,
                                              TransformKind::kDct2);
      out.packed = Tensor(plan->packed_shape(in.shape()));
      plan->compress_into(in, out.packed);
      plan->decompress_into(out.packed, out.restored);
      break;
    }
    case Kind::kPartial: {
      const PartialSerialCodec codec(
          {.cf = cf, .block = block, .subdivision = 2}, ctx);
      out.packed = codec.compress(in);
      out.restored = codec.decompress(out.packed, in.shape());
      break;
    }
    case Kind::kTriangle: {
      const TriangleCodec codec({.cf = cf, .block = block}, ctx);
      out.packed = codec.compress(in);
      out.restored = codec.decompress(out.packed, in.shape());
      break;
    }
  }
  return out;
}

// The triangle kinds' gather table for one plane (empty otherwise).
std::vector<std::size_t> gather_indices(Kind kind, const Case& c) {
  if (kind != Kind::kTriangle) return {};
  return triangle_plane_indices(c.d.h, c.d.w, c.cf, c.block);
}

// Flat values of plane p of a rank-4 tensor.
std::vector<float> plane_values(const Tensor& t, std::size_t p) {
  const std::size_t size = t.shape()[2] * t.shape()[3];
  return {t.raw() + p * size, t.raw() + (p + 1) * size};
}

// packed → chopped layout (rows × cols): the identity, or the triangle
// scatter with zeros in the positions chopped away.
std::vector<float> to_chopped(const std::vector<float>& packed,
                              const std::vector<std::size_t>& indices,
                              std::size_t chopped_size) {
  if (indices.empty()) return packed;
  std::vector<float> chopped(chopped_size, 0.0f);
  for (std::size_t k = 0; k < indices.size(); ++k) {
    chopped[indices[k]] = packed[k];
  }
  return chopped;
}

Tensor matrix(const std::vector<float>& values, std::size_t rows,
              std::size_t cols) {
  Tensor m(Shape::matrix(rows, cols));
  for (std::size_t i = 0; i < values.size(); ++i) m.at(i) = values[i];
  return m;
}

std::string case_name(const Case& c) {
  return std::to_string(c.d.h) + "x" + std::to_string(c.d.w) +
         " cf=" + std::to_string(c.cf) + " block=" + std::to_string(c.block) +
         " " + runtime::kernel_backend_name();
}

class TransformReference : public ::testing::TestWithParam<Kind> {};

TEST_P(TransformReference, BitwiseEqualsDenseOperatorsOnEveryBackend) {
  const Kind kind = GetParam();
  runtime::Rng rng(401);
  for (const KernelBackend backend : backends()) {
    const BackendGuard guard(backend);
    for (const Case& c : cases()) {
      if (!runs(kind, c)) continue;
      const Dims d = c.d;
      const Tensor in =
          Tensor::uniform(Shape::bchw(1, 2, d.h, d.w), rng, -1.0f, 1.0f);
      const Outputs got = run(kind, in, c.cf, c.block);
      const std::size_t ch = c.cf * d.h / c.block, cw = c.cf * d.w / c.block;
      const Tensor lhs_h = make_lhs(d.h, c.cf, c.block);
      const Tensor rhs_h = make_rhs(d.h, c.cf, c.block);
      const Tensor lhs_w = make_lhs(d.w, c.cf, c.block);
      const Tensor rhs_w = make_rhs(d.w, c.cf, c.block);
      const std::vector<std::size_t> indices = gather_indices(kind, c);
      for (std::size_t p = 0; p < 2; ++p) {
        // Eq. 4, then the triangle gather.
        const Tensor chopped = tensor::matmul(
            lhs_h, tensor::matmul(in.slice_plane(0, p), rhs_w));
        const std::vector<float> packed = plane_values(got.packed, p);
        for (std::size_t k = 0; k < packed.size(); ++k) {
          const float want = chopped.at(indices.empty() ? k : indices[k]);
          ASSERT_EQ(packed[k], want)
              << "Eq. 4 " << case_name(c) << " plane " << p << " at " << k;
        }
        // Eq. 6 on the codec's own packed plane.
        const Tensor y = matrix(to_chopped(packed, indices, ch * cw), ch, cw);
        const Tensor restored =
            tensor::matmul(rhs_h, tensor::matmul(y, lhs_w));
        const std::vector<float> out = plane_values(got.restored, p);
        for (std::size_t k = 0; k < out.size(); ++k) {
          ASSERT_EQ(out[k], restored.at(k))
              << "Eq. 6 " << case_name(c) << " plane " << p << " at " << k;
        }
      }
    }
  }
}

// Float64 Eq. 4 and Eq. 6, block by block, with the float tile the codec
// uses (chop_tile), and each element's error scale (|T_c|·|X|·|T_c|ᵀ).
struct Reference {
  std::vector<double> value;
  std::vector<double> scale;
};

Reference eq4_reference(const std::vector<float>& x, const Tensor& tile,
                        const Case& c) {
  const Dims d = c.d;
  const std::size_t b = c.block, cf = c.cf, cw = cf * d.w / b;
  Reference ref{std::vector<double>(cf * d.h / b * cw),
                std::vector<double>(cf * d.h / b * cw)};
  for (std::size_t bi = 0; bi < d.h / b; ++bi) {
    for (std::size_t bj = 0; bj < d.w / b; ++bj) {
      for (std::size_t r = 0; r < cf; ++r) {
        for (std::size_t col = 0; col < cf; ++col) {
          double sum = 0.0, scale = 0.0;
          for (std::size_t k = 0; k < b; ++k) {
            for (std::size_t l = 0; l < b; ++l) {
              const double term = static_cast<double>(tile.at(r, k)) *
                                  x[(bi * b + k) * d.w + bj * b + l] *
                                  tile.at(col, l);
              sum += term;
              scale += std::abs(term);
            }
          }
          const std::size_t at = (bi * cf + r) * cw + bj * cf + col;
          ref.value[at] = sum;
          ref.scale[at] = scale;
        }
      }
    }
  }
  return ref;
}

Reference eq6_reference(const std::vector<float>& y, const Tensor& tile,
                        const Case& c) {
  const Dims d = c.d;
  const std::size_t b = c.block, cf = c.cf, cw = cf * d.w / b;
  Reference ref{std::vector<double>(d.h * d.w), std::vector<double>(d.h * d.w)};
  for (std::size_t bi = 0; bi < d.h / b; ++bi) {
    for (std::size_t bj = 0; bj < d.w / b; ++bj) {
      for (std::size_t k = 0; k < b; ++k) {
        for (std::size_t l = 0; l < b; ++l) {
          double sum = 0.0, scale = 0.0;
          for (std::size_t r = 0; r < cf; ++r) {
            for (std::size_t col = 0; col < cf; ++col) {
              const double term = static_cast<double>(tile.at(r, k)) *
                                  y[(bi * cf + r) * cw + bj * cf + col] *
                                  tile.at(col, l);
              sum += term;
              scale += std::abs(term);
            }
          }
          const std::size_t at = (bi * b + k) * d.w + bj * b + l;
          ref.value[at] = sum;
          ref.scale[at] = scale;
        }
      }
    }
  }
  return ref;
}

// Error bound. Each output element is two chained float32 dot products of
// at most `block` terms (Eq. 4: block, then block; Eq. 6: CF, then CF),
// rounded per operation (mul-then-add on scalar, FMA on AVX2). The
// standard componentwise bound for such a product is
//   |got − exact| ≤ γ_{2·block} · (|T_c|·|X|·|T_c|ᵀ),  γ_k = k·u / (1 − k·u),
// with u = 2⁻²⁴ the float32 unit roundoff. The float64 reference's own
// error is ~2⁻²⁹ of that bound.
double gamma_2b(std::size_t block) {
  const double u = std::ldexp(1.0, -24);
  const double k = 2.0 * static_cast<double>(block);
  return k * u / (1.0 - k * u);
}

TEST_P(TransformReference, WithinFloat64BoundOnEveryBackend) {
  const Kind kind = GetParam();
  runtime::Rng rng(402);
  for (const KernelBackend backend : backends()) {
    const BackendGuard guard(backend);
    for (const Case& c : cases()) {
      if (!runs(kind, c)) continue;
      const Dims d = c.d;
      const Tensor in =
          Tensor::uniform(Shape::bchw(1, 2, d.h, d.w), rng, -1.0f, 1.0f);
      const Outputs got = run(kind, in, c.cf, c.block);
      const Tensor tile = chop_tile(c.cf, c.block);
      const std::size_t chopped_size =
          (c.cf * d.h / c.block) * (c.cf * d.w / c.block);
      const std::vector<std::size_t> indices = gather_indices(kind, c);
      const double gamma = gamma_2b(c.block);
      for (std::size_t p = 0; p < 2; ++p) {
        const Reference y_ref = eq4_reference(plane_values(in, p), tile, c);
        const std::vector<float> packed = plane_values(got.packed, p);
        for (std::size_t k = 0; k < packed.size(); ++k) {
          const std::size_t at = indices.empty() ? k : indices[k];
          ASSERT_LE(std::abs(packed[k] - y_ref.value[at]),
                    gamma * y_ref.scale[at])
              << "Eq. 4 " << case_name(c) << " plane " << p << " at " << k;
        }
        const Reference x_ref =
            eq6_reference(to_chopped(packed, indices, chopped_size), tile, c);
        const std::vector<float> out = plane_values(got.restored, p);
        for (std::size_t k = 0; k < out.size(); ++k) {
          ASSERT_LE(std::abs(out[k] - x_ref.value[k]), gamma * x_ref.scale[k])
              << "Eq. 6 " << case_name(c) << " plane " << p << " at " << k;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    CodecKinds, TransformReference,
    ::testing::Values(Kind::kDctChop, Kind::kPartial, Kind::kTriangle),
    [](const ::testing::TestParamInfo<Kind>& info) {
      return std::string(kind_name(info.param));
    });

}  // namespace
}  // namespace aic::core
