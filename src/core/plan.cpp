#include "core/plan.hpp"

#include <sstream>
#include <stdexcept>

#include "core/chop.hpp"
#include "tensor/matmul.hpp"

namespace aic::core {

using tensor::Shape;
using tensor::Tensor;

const char* codec_kind_name(CodecKind kind) {
  switch (kind) {
    case CodecKind::kDctChop: return "dctchop";
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
      << ",block=" << block << ",cf=" << cf << "," << height << "x" << width;
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

std::shared_ptr<const CodecPlan> build_core_plan(const PlanKey& key) {
  if (key.kind != CodecKind::kDctChop) {
    throw std::invalid_argument(
        "build_core_plan: no default builder for key " + key.to_string() +
        " (baseline kinds register their own)");
  }
  return std::make_shared<DctChopPlan>(key);
}

}  // namespace aic::core
