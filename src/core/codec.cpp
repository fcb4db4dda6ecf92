#include "core/codec.hpp"

#include <functional>
#include <map>
#include <mutex>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace aic::core {

using tensor::Shape;

struct CodecSeries::Instruments {
  obs::Histogram& ns;
  obs::Counter& planes;
  obs::Counter* flops;  // null when the stem counts no FLOPs
  obs::Counter* flops_executed;
  obs::Counter& bytes_in;
  obs::Counter& bytes_out;
};

namespace {

/// The stems a context has resolved (Context::Slot::kCodecSeries). Map
/// nodes never move, so handed-out references stay valid.
struct SeriesCache {
  std::mutex mutex;
  std::map<std::string, CodecSeries::Instruments, std::less<>> stems;
};

const CodecSeries::Instruments& resolve_series(const Context& ctx,
                                               std::string_view stem,
                                               bool counts_flops) {
  const auto cache = std::static_pointer_cast<SeriesCache>(
      ctx.slot(Context::Slot::kCodecSeries,
               [] { return std::make_shared<SeriesCache>(); }));
  std::lock_guard lock(cache->mutex);
  const auto it = cache->stems.find(stem);
  if (it != cache->stems.end()) return it->second;
  const std::string name(stem);
  return cache->stems
      .emplace(name,
               CodecSeries::Instruments{
                   ctx.histogram(name + ".ns"), ctx.counter(name + ".planes"),
                   counts_flops ? &ctx.counter(name + ".flops") : nullptr,
                   counts_flops ? &ctx.counter(name + ".flops_executed")
                                : nullptr,
                   ctx.counter(name + ".bytes_in"),
                   ctx.counter(name + ".bytes_out")})
      .first->second;
}

}  // namespace

CodecSeries::CodecSeries(const Context& ctx, std::string_view stem,
                         bool counts_flops)
    : series_(resolve_series(ctx, stem, counts_flops)) {}

void CodecSeries::record(std::uint64_t planes, std::uint64_t flops,
                         std::uint64_t flops_executed, std::uint64_t bytes_in,
                         std::uint64_t bytes_out,
                         std::uint64_t nanos) const noexcept {
  series_.planes.add(planes);
  if (series_.flops != nullptr) {
    series_.flops->add(flops);
    series_.flops_executed->add(flops_executed);
  }
  series_.bytes_in.add(bytes_in);
  series_.bytes_out.add(bytes_out);
  series_.ns.record(nanos);
}

void Codec::compress_into(const float*, const Shape&, float*) const {
  throw std::logic_error("Codec: " + name() + " has no plane-range compress");
}

void Codec::decompress_into(const float*, const Shape&, float*) const {
  throw std::logic_error("Codec: " + name() +
                         " has no plane-range decompress");
}

}  // namespace aic::core
