#include "core/plan.hpp"

#include <sstream>
#include <stdexcept>

#include "core/chop.hpp"
#include "core/plan_cache.hpp"
#include "core/zigzag.hpp"
#include "tensor/matmul.hpp"

namespace aic::core {

using tensor::Shape;
using tensor::Tensor;

const char* codec_kind_name(CodecKind kind) {
  switch (kind) {
    case CodecKind::kDctChop: return "dctchop";
    case CodecKind::kPartialSerial: return "partial";
    case CodecKind::kTriangle: return "triangle";
    case CodecKind::kZfp: return "zfp";
    case CodecKind::kSz: return "sz";
    case CodecKind::kJpeg: return "jpeg";
    case CodecKind::kColorQuant: return "colorquant";
  }
  return "?";
}

std::string PlanKey::to_string() const {
  std::ostringstream out;
  out << codec_kind_name(kind) << ":" << transform_name(transform)
      << ",block=" << block << ",cf=" << cf << ",s=" << subdivision << ","
      << height << "x" << width;
  if (param_milli != 0) out << ",param=" << param_milli << "m";
  return out.str();
}

std::size_t PlanKeyHash::operator()(const PlanKey& key) const noexcept {
  // splitmix64-style mixing over the packed fields.
  auto mix = [](std::uint64_t h, std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    h *= 0xff51afd7ed558ccdull;
    return h ^ (h >> 33);
  };
  std::uint64_t h = static_cast<std::uint64_t>(key.kind);
  h = mix(h, static_cast<std::uint64_t>(key.transform));
  h = mix(h, (static_cast<std::uint64_t>(key.block) << 32) | key.cf);
  h = mix(h, key.subdivision);
  h = mix(h, key.height);
  h = mix(h, key.width);
  h = mix(h, key.param_milli);
  return static_cast<std::size_t>(h);
}

namespace {

void validate_chop_geometry(const char* who, std::size_t height,
                            std::size_t width, std::size_t cf,
                            std::size_t block) {
  if (height == 0 || width == 0 || block == 0 || height % block != 0 ||
      width % block != 0) {
    throw std::invalid_argument(
        std::string(who) +
        ": height/width must be positive multiples of block");
  }
  if (cf == 0 || cf > block) {
    throw std::invalid_argument(std::string(who) +
                                ": cf must be in [1, block]");
  }
}

}  // namespace

PlanKey dct_chop_plan_key(std::size_t height, std::size_t width,
                          std::size_t cf, std::size_t block,
                          TransformKind transform) {
  validate_chop_geometry("DctChopCodec", height, width, cf, block);
  PlanKey key;
  key.kind = CodecKind::kDctChop;
  key.transform = transform;
  key.block = static_cast<std::uint32_t>(block);
  key.cf = static_cast<std::uint32_t>(cf);
  key.height = height;
  key.width = width;
  return key;
}

PlanKey partial_serial_plan_key(std::size_t height, std::size_t width,
                                std::size_t cf, std::size_t block,
                                TransformKind transform,
                                std::size_t subdivision) {
  if (subdivision == 0) {
    throw std::invalid_argument("PartialSerialCodec: subdivision must be >= 1");
  }
  if (height == 0 || width == 0 || height % subdivision != 0 ||
      width % subdivision != 0) {
    throw std::invalid_argument(
        "PartialSerialCodec: resolution not divisible by subdivision factor");
  }
  // The chunk resolution must itself be a valid chop geometry.
  validate_chop_geometry("PartialSerialCodec", height / subdivision,
                         width / subdivision, cf, block);
  PlanKey key;
  key.kind = CodecKind::kPartialSerial;
  key.transform = transform;
  key.block = static_cast<std::uint32_t>(block);
  key.cf = static_cast<std::uint32_t>(cf);
  key.subdivision = static_cast<std::uint32_t>(subdivision);
  key.height = height;
  key.width = width;
  return key;
}

PlanKey triangle_plan_key(std::size_t height, std::size_t width,
                          std::size_t cf, std::size_t block,
                          TransformKind transform) {
  PlanKey key = dct_chop_plan_key(height, width, cf, block, transform);
  key.kind = CodecKind::kTriangle;
  return key;
}

// ---------------------------------------------------------------------------
// DctChopPlan

DctChopPlan::DctChopPlan(const PlanKey& key) : CodecPlan(key) {
  validate_chop_geometry("DctChopPlan", key.height, key.width, key.cf,
                         key.block);
  tile_ = chop_tile(key.cf, key.block, key.transform);
  tile_t_ = tile_.transposed();
}

Shape DctChopPlan::packed_shape(const Shape& input) const {
  const PlanKey& k = key();
  if (input.rank() != 4 || input[2] != k.height || input[3] != k.width) {
    throw std::invalid_argument("DctChopPlan: plan compiled for " +
                                std::to_string(k.height) + "x" +
                                std::to_string(k.width) + ", got " +
                                input.to_string());
  }
  const std::size_t ch = k.cf * k.height / k.block;
  const std::size_t cw = k.cf * k.width / k.block;
  return Shape::bchw(input[0], input[1], ch, cw);
}

void DctChopPlan::compress_into(const float* in, float* out,
                                std::size_t planes) const {
  tensor::block_sandwich_into(tile_, in, planes, key().height, key().width,
                              tile_t_, out);
}

void DctChopPlan::decompress_into(const float* packed, float* out,
                                  std::size_t planes) const {
  // Eq. 6: A' = RHS · Y · LHS — the same tiles with roles swapped.
  const PlanKey& k = key();
  tensor::block_sandwich_into(tile_t_, packed, planes,
                              k.cf * k.height / k.block,
                              k.cf * k.width / k.block, tile_, out);
}

void DctChopPlan::compress_into(const Tensor& input, Tensor& out) const {
  tensor::block_sandwich_into(tile_, input, tile_t_, out);
}

void DctChopPlan::decompress_into(const Tensor& packed, Tensor& out) const {
  tensor::block_sandwich_into(tile_t_, packed, tile_, out);
}

std::size_t DctChopPlan::resident_bytes() const {
  return tile_.size_bytes() + tile_t_.size_bytes();
}

std::size_t DctChopPlan::workspace_bytes(std::size_t /*batch*/,
                                         std::size_t /*channels*/) const {
  // The block kernel's mid strip lives on each worker's stack.
  return 0;
}

// ---------------------------------------------------------------------------
// PartialSerialPlan

PartialSerialPlan::PartialSerialPlan(
    const PlanKey& key, std::shared_ptr<const DctChopPlan> chunk_plan)
    : CodecPlan(key),
      chunk_plan_(std::move(chunk_plan)),
      chunk_h_(key.height / key.subdivision),
      chunk_w_(key.width / key.subdivision) {}

Shape PartialSerialPlan::packed_shape(const Shape& input) const {
  const PlanKey& k = key();
  if (input.rank() != 4 || input[2] != k.height || input[3] != k.width) {
    throw std::invalid_argument("PartialSerialPlan: bad input shape " +
                                input.to_string());
  }
  const std::size_t ch = k.cf * k.height / k.block;
  const std::size_t cw = k.cf * k.width / k.block;
  return Shape::bchw(input[0], input[1], ch, cw);
}

std::size_t PartialSerialPlan::resident_bytes() const {
  // The chunk plan is a cache entry of its own (that sharing is the whole
  // point of §3.5.1) — counting it here would double-bill the budget.
  return 0;
}

std::size_t PartialSerialPlan::workspace_bytes(std::size_t batch,
                                               std::size_t channels) const {
  // Satellite fix: the working set of one in-flight chunk is NOT just the
  // chunk operands — it is chunk input staging + chunk packed staging
  // (both batch×channels deep) + the chunk executor's own scratch. Accel
  // memory-capacity checks add this to activation bytes, so report all
  // of it.
  const PlanKey& k = key();
  const std::size_t planes = batch * channels;
  const std::size_t chunk_ch = k.cf * chunk_h_ / k.block;
  const std::size_t chunk_cw = k.cf * chunk_w_ / k.block;
  const std::size_t staging_floats =
      planes * (chunk_h_ * chunk_w_ + chunk_ch * chunk_cw);
  return staging_floats * sizeof(float) +
         chunk_plan_->workspace_bytes(batch, channels);
}

// ---------------------------------------------------------------------------
// TrianglePlan

TrianglePlan::TrianglePlan(const PlanKey& key,
                           std::shared_ptr<const DctChopPlan> inner_plan)
    : CodecPlan(key), inner_plan_(std::move(inner_plan)) {
  per_block_ = key.cf * (key.cf + 1) / 2;
  const std::size_t blocks_h = key.height / key.block;
  const std::size_t blocks_w = key.width / key.block;
  blocks_ = blocks_h * blocks_w;
  chopped_h_ = key.cf * blocks_h;
  chopped_w_ = key.cf * blocks_w;

  // Compile-time index computation (§3.5.2): per-block triangle offsets,
  // replicated at each block's base position in the chopped plane.
  const std::vector<std::size_t> block_offsets =
      triangle_indices(key.cf, chopped_w_);
  indices_.reserve(blocks_ * per_block_);
  for (std::size_t bi = 0; bi < blocks_h; ++bi) {
    for (std::size_t bj = 0; bj < blocks_w; ++bj) {
      const std::size_t base = bi * key.cf * chopped_w_ + bj * key.cf;
      for (std::size_t offset : block_offsets) {
        indices_.push_back(base + offset);
      }
    }
  }
}

Shape TrianglePlan::packed_shape(const Shape& input) const {
  (void)inner_plan_->packed_shape(input);  // validates the resolution
  return Shape::bchw(input[0], input[1], blocks_, per_block_);
}

void TrianglePlan::compress_into(const float* in, float* out,
                                 std::size_t planes) const {
  const std::size_t plane = chopped_h_ * chopped_w_;
  const std::size_t packed_plane = blocks_ * per_block_;
  std::vector<float> chopped(planes * plane);
  inner_plan_->compress_into(in, chopped.data(), planes);
  for (std::size_t p = 0; p < planes; ++p) {
    const float* plane_src = chopped.data() + p * plane;
    float* plane_dst = out + p * packed_plane;
    // torch.gather: packed[k] = chopped[index[k]]
    for (std::size_t k = 0; k < indices_.size(); ++k) {
      plane_dst[k] = plane_src[indices_[k]];
    }
  }
}

void TrianglePlan::decompress_into(const float* packed, float* out,
                                   std::size_t planes) const {
  const std::size_t plane = chopped_h_ * chopped_w_;
  const std::size_t packed_plane = blocks_ * per_block_;
  // Untouched positions stay zero (they were chopped away).
  std::vector<float> chopped(planes * plane, 0.0f);
  for (std::size_t p = 0; p < planes; ++p) {
    const float* plane_src = packed + p * packed_plane;
    float* plane_dst = chopped.data() + p * plane;
    // torch.scatter: chopped[index[k]] = packed[k]
    for (std::size_t k = 0; k < indices_.size(); ++k) {
      plane_dst[indices_[k]] = plane_src[k];
    }
  }
  inner_plan_->decompress_into(chopped.data(), out, planes);
}

void TrianglePlan::compress_into(const Tensor& input, Tensor& out) const {
  compress_into(input.raw(), out.raw(),
                input.shape()[0] * input.shape()[1]);
}

void TrianglePlan::decompress_into(const Tensor& packed, Tensor& out) const {
  decompress_into(packed.raw(), out.raw(), out.shape()[0] * out.shape()[1]);
}

std::size_t TrianglePlan::resident_bytes() const {
  // The inner chop plan is its own cache entry; bill only the gather table.
  return indices_.size() * sizeof(std::size_t);
}

std::size_t TrianglePlan::workspace_bytes(std::size_t batch,
                                          std::size_t channels) const {
  // One full chopped-layout staging tensor per call plus the inner
  // executor's scratch.
  return batch * channels * chopped_h_ * chopped_w_ * sizeof(float) +
         inner_plan_->workspace_bytes(batch, channels);
}

// ---------------------------------------------------------------------------

std::shared_ptr<const CodecPlan> build_core_plan(const PlanKey& key,
                                                 PlanCache& cache) {
  switch (key.kind) {
    case CodecKind::kDctChop:
      return std::make_shared<DctChopPlan>(key);
    case CodecKind::kPartialSerial: {
      auto chunk = std::static_pointer_cast<const DctChopPlan>(cache.resolve(
          dct_chop_plan_key(key.height / key.subdivision,
                            key.width / key.subdivision, key.cf, key.block,
                            key.transform)));
      return std::make_shared<PartialSerialPlan>(key, std::move(chunk));
    }
    case CodecKind::kTriangle: {
      auto inner = std::static_pointer_cast<const DctChopPlan>(cache.resolve(
          dct_chop_plan_key(key.height, key.width, key.cf, key.block,
                            key.transform)));
      return std::make_shared<TrianglePlan>(key, std::move(inner));
    }
    default:
      throw std::invalid_argument(
          "build_core_plan: no default builder for key " + key.to_string() +
          " (baseline kinds register their own)");
  }
}

}  // namespace aic::core
