#include "core/partial_serializer.hpp"

#include <sstream>
#include <stdexcept>

namespace aic::core {

PartialSerialCodec::PartialSerialCodec(PartialSerialConfig config, Context ctx)
    : ChopFamilyCodec({.height = config.height,
                       .width = config.width,
                       .cf = config.cf,
                       .block = config.block,
                       .transform = config.transform},
                      config.subdivision, "ps.compress", "ps.decompress",
                      std::move(ctx)),
      config_(config) {}

std::string PartialSerialCodec::name() const {
  std::ostringstream out;
  out << "dct+chop+ps(cf=" << config_.cf << ",s=" << config_.subdivision
      << ")";
  return out.str();
}

std::string PartialSerialCodec::spec() const {
  std::ostringstream out;
  out << "partial:cf=" << config_.cf << ",block=" << config_.block
      << ",s=" << config_.subdivision;
  if (config_.transform != TransformKind::kDct2) {
    out << ",transform=" << transform_name(config_.transform);
  }
  if (pinned()) {
    out << ",h=" << config_.height << ",w=" << config_.width;
  }
  return out.str();
}

double PartialSerialCodec::compression_ratio() const {
  return chop_ratio(config_.cf, config_.block);
}

std::size_t PartialSerialCodec::operator_bytes() const {
  if (!pinned()) {
    throw std::logic_error(
        "PartialSerialCodec::operator_bytes: requires a pinned codec");
  }
  const std::size_t h = config_.height / config_.subdivision;
  const std::size_t w = config_.width / config_.subdivision;
  return (config_.cf * h / config_.block * h +
          w * (config_.cf * w / config_.block)) *
         sizeof(float);
}

std::size_t PartialSerialCodec::unserialized_operator_bytes(std::size_t n,
                                                            std::size_t cf,
                                                            std::size_t block) {
  const std::size_t rows = cf * n / block;
  return 2 * rows * n * sizeof(float);
}

}  // namespace aic::core
