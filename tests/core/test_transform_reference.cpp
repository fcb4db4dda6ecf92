// Eq. 4/6 as the codecs execute them, checked two ways for every chop
// codec kind, CF, square and rectangular shape, and kernel backend:
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

constexpr std::size_t kBlock = 8;

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
const Dims kShapes[] = {{32, 32}, {32, 48}};
const std::size_t kChopFactors[] = {1, 3, 4, 8};

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
Outputs run(Kind kind, const Tensor& in, std::size_t cf) {
  const Context ctx = Context::process_default();
  const std::size_t h = in.shape()[2], w = in.shape()[3];
  Outputs out;
  out.restored = Tensor(in.shape());
  switch (kind) {
    case Kind::kDctChop: {
      const auto plan = resolve_dct_chop_plan(ctx, h, w, cf, kBlock,
                                              TransformKind::kDct2);
      out.packed = Tensor(plan->packed_shape(in.shape()));
      plan->compress_into(in, out.packed);
      plan->decompress_into(out.packed, out.restored);
      break;
    }
    case Kind::kPartial: {
      const PartialSerialCodec codec(
          {.cf = cf, .block = kBlock, .subdivision = 2}, ctx);
      out.packed = codec.compress(in);
      out.restored = codec.decompress(out.packed, in.shape());
      break;
    }
    case Kind::kTriangle: {
      const TriangleCodec codec({.cf = cf, .block = kBlock}, ctx);
      out.packed = codec.compress(in);
      out.restored = codec.decompress(out.packed, in.shape());
      break;
    }
  }
  return out;
}

// The triangle kinds' gather table for one plane (empty otherwise).
std::vector<std::size_t> gather_indices(Kind kind, Dims d, std::size_t cf) {
  if (kind != Kind::kTriangle) return {};
  return triangle_plane_indices(d.h, d.w, cf, kBlock);
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

std::string case_name(Dims d, std::size_t cf) {
  return std::to_string(d.h) + "x" + std::to_string(d.w) +
         " cf=" + std::to_string(cf) + " " + runtime::kernel_backend_name();
}

class TransformReference : public ::testing::TestWithParam<Kind> {};

TEST_P(TransformReference, BitwiseEqualsDenseOperatorsOnEveryBackend) {
  const Kind kind = GetParam();
  runtime::Rng rng(401);
  for (const KernelBackend backend : backends()) {
    const BackendGuard guard(backend);
    for (const Dims d : kShapes) {
      for (const std::size_t cf : kChopFactors) {
        const Tensor in =
            Tensor::uniform(Shape::bchw(1, 2, d.h, d.w), rng, -1.0f, 1.0f);
        const Outputs got = run(kind, in, cf);
        const std::size_t ch = cf * d.h / kBlock, cw = cf * d.w / kBlock;
        const Tensor lhs_h = make_lhs(d.h, cf, kBlock);
        const Tensor rhs_h = make_rhs(d.h, cf, kBlock);
        const Tensor lhs_w = make_lhs(d.w, cf, kBlock);
        const Tensor rhs_w = make_rhs(d.w, cf, kBlock);
        const std::vector<std::size_t> indices = gather_indices(kind, d, cf);
        for (std::size_t p = 0; p < 2; ++p) {
          // Eq. 4, then the triangle gather.
          const Tensor chopped = tensor::matmul(
              lhs_h, tensor::matmul(in.slice_plane(0, p), rhs_w));
          const std::vector<float> packed = plane_values(got.packed, p);
          for (std::size_t k = 0; k < packed.size(); ++k) {
            const float want =
                chopped.at(indices.empty() ? k : indices[k]);
            ASSERT_EQ(packed[k], want)
                << "Eq. 4 " << case_name(d, cf) << " plane " << p << " at "
                << k;
          }
          // Eq. 6 on the codec's own packed plane.
          const Tensor y = matrix(to_chopped(packed, indices, ch * cw), ch, cw);
          const Tensor restored =
              tensor::matmul(rhs_h, tensor::matmul(y, lhs_w));
          const std::vector<float> out = plane_values(got.restored, p);
          for (std::size_t k = 0; k < out.size(); ++k) {
            ASSERT_EQ(out[k], restored.at(k))
                << "Eq. 6 " << case_name(d, cf) << " plane " << p << " at "
                << k;
          }
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
                        Dims d, std::size_t cf) {
  const std::size_t cw = cf * d.w / kBlock;
  Reference ref{std::vector<double>(cf * d.h / kBlock * cw),
                std::vector<double>(cf * d.h / kBlock * cw)};
  for (std::size_t bi = 0; bi < d.h / kBlock; ++bi) {
    for (std::size_t bj = 0; bj < d.w / kBlock; ++bj) {
      for (std::size_t r = 0; r < cf; ++r) {
        for (std::size_t c = 0; c < cf; ++c) {
          double sum = 0.0, scale = 0.0;
          for (std::size_t k = 0; k < kBlock; ++k) {
            for (std::size_t l = 0; l < kBlock; ++l) {
              const double term =
                  static_cast<double>(tile.at(r, k)) *
                  x[(bi * kBlock + k) * d.w + bj * kBlock + l] * tile.at(c, l);
              sum += term;
              scale += std::abs(term);
            }
          }
          const std::size_t at = (bi * cf + r) * cw + bj * cf + c;
          ref.value[at] = sum;
          ref.scale[at] = scale;
        }
      }
    }
  }
  return ref;
}

Reference eq6_reference(const std::vector<float>& y, const Tensor& tile,
                        Dims d, std::size_t cf) {
  const std::size_t cw = cf * d.w / kBlock;
  Reference ref{std::vector<double>(d.h * d.w), std::vector<double>(d.h * d.w)};
  for (std::size_t bi = 0; bi < d.h / kBlock; ++bi) {
    for (std::size_t bj = 0; bj < d.w / kBlock; ++bj) {
      for (std::size_t k = 0; k < kBlock; ++k) {
        for (std::size_t l = 0; l < kBlock; ++l) {
          double sum = 0.0, scale = 0.0;
          for (std::size_t r = 0; r < cf; ++r) {
            for (std::size_t c = 0; c < cf; ++c) {
              const double term = static_cast<double>(tile.at(r, k)) *
                                  y[(bi * cf + r) * cw + bj * cf + c] *
                                  tile.at(c, l);
              sum += term;
              scale += std::abs(term);
            }
          }
          const std::size_t at = (bi * kBlock + k) * d.w + bj * kBlock + l;
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
double gamma_2b() {
  const double u = std::ldexp(1.0, -24);
  const double k = 2.0 * kBlock;
  return k * u / (1.0 - k * u);
}

TEST_P(TransformReference, WithinFloat64BoundOnEveryBackend) {
  const Kind kind = GetParam();
  runtime::Rng rng(402);
  for (const KernelBackend backend : backends()) {
    const BackendGuard guard(backend);
    for (const Dims d : kShapes) {
      for (const std::size_t cf : kChopFactors) {
        const Tensor in =
            Tensor::uniform(Shape::bchw(1, 2, d.h, d.w), rng, -1.0f, 1.0f);
        const Outputs got = run(kind, in, cf);
        const Tensor tile = chop_tile(cf, kBlock);
        const std::size_t chopped_size =
            (cf * d.h / kBlock) * (cf * d.w / kBlock);
        const std::vector<std::size_t> indices = gather_indices(kind, d, cf);
        for (std::size_t p = 0; p < 2; ++p) {
          const Reference y_ref =
              eq4_reference(plane_values(in, p), tile, d, cf);
          const std::vector<float> packed = plane_values(got.packed, p);
          for (std::size_t k = 0; k < packed.size(); ++k) {
            const std::size_t at = indices.empty() ? k : indices[k];
            ASSERT_LE(std::abs(packed[k] - y_ref.value[at]),
                      gamma_2b() * y_ref.scale[at])
                << "Eq. 4 " << case_name(d, cf) << " plane " << p << " at "
                << k;
          }
          const Reference x_ref = eq6_reference(
              to_chopped(packed, indices, chopped_size), tile, d, cf);
          const std::vector<float> out = plane_values(got.restored, p);
          for (std::size_t k = 0; k < out.size(); ++k) {
            ASSERT_LE(std::abs(out[k] - x_ref.value[k]),
                      gamma_2b() * x_ref.scale[k])
                << "Eq. 6 " << case_name(d, cf) << " plane " << p << " at "
                << k;
          }
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
