#include "core/codec.hpp"

#include "obs/metrics.hpp"

namespace aic::core {

CodecSeries::CodecSeries(const Context& ctx, const std::string& stem)
    : ns_(ctx.histogram(stem + ".ns")),
      planes_(ctx.counter(stem + ".planes")),
      flops_(ctx.counter(stem + ".flops")),
      flops_executed_(ctx.counter(stem + ".flops_executed")),
      bytes_in_(ctx.counter(stem + ".bytes_in")),
      bytes_out_(ctx.counter(stem + ".bytes_out")) {}

void CodecSeries::record(std::uint64_t planes, std::uint64_t flops,
                         std::uint64_t flops_executed, std::uint64_t bytes_in,
                         std::uint64_t bytes_out,
                         std::uint64_t nanos) const noexcept {
  planes_.add(planes);
  flops_.add(flops);
  flops_executed_.add(flops_executed);
  bytes_in_.add(bytes_in);
  bytes_out_.add(bytes_out);
  ns_.record(nanos);
}

}  // namespace aic::core
