#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "runtime/context.hpp"
#include "tensor/shape.hpp"
#include "tensor/tensor.hpp"

namespace aic::core {

/// The registry series one codec direction records into, under the
/// context's metric prefix. For stem `codec.compress` they are the
/// histogram `codec.compress.ns` (count = calls, sum = wall nanoseconds)
/// and the counters `codec.compress.planes`, `.flops` (the dense Eq. 5/7
/// count), `.flops_executed` (what the block kernel issues), `.bytes_in`
/// and `.bytes_out`. A context resolves each stem's series once: later
/// codecs of the stem reuse the handles without a registry lookup.
/// `counts_flops` false leaves out the two FLOP counters (the baseline
/// comparators count none); a stem is one or the other. Recording is
/// lock-free.
class CodecSeries {
 public:
  CodecSeries(const Context& ctx, std::string_view stem,
              bool counts_flops = true);

  void record(std::uint64_t planes, std::uint64_t flops,
              std::uint64_t flops_executed, std::uint64_t bytes_in,
              std::uint64_t bytes_out, std::uint64_t nanos) const noexcept;

  struct Instruments;

 private:
  const Instruments& series_;
};

/// A fixed-rate lossy codec over BCHW tensors.
///
/// All codecs in this library honour the paper's compile-time-shape
/// constraint (§3.1): for a given codec configuration, the compressed
/// shape is a pure function of the input shape, so `compressed_shape`
/// can be evaluated before any data exists ("at compile time") and never
/// varies sample to sample.
class Codec {
 public:
  virtual ~Codec() = default;

  /// Human-readable codec identifier (e.g. "dct+chop(cf=4)").
  virtual std::string name() const = 0;

  /// Canonical factory spec string (e.g. "dctchop:cf=4,block=8"): feeding
  /// it back through core::CodecFactory reconstructs an equivalent codec.
  virtual std::string spec() const = 0;

  /// Nominal compression ratio (uncompressed bytes / compressed bytes).
  virtual double compression_ratio() const = 0;

  /// Shape of compress() output for a given input shape. Throws when the
  /// input shape is unsupported (wrong rank, not block-divisible, ...).
  virtual tensor::Shape compressed_shape(const tensor::Shape& input) const = 0;

  /// Compresses a BCHW tensor into the codec's packed representation.
  virtual tensor::Tensor compress(const tensor::Tensor& input) const = 0;

  /// Reconstructs a BCHW tensor; `original` is the uncompressed shape
  /// (codecs are fixed-rate, so the shape fully determines the layout).
  virtual tensor::Tensor decompress(const tensor::Tensor& packed,
                                    const tensor::Shape& original) const = 0;

  /// Allocation-reusing variants: write the result into `out`, reusing
  /// its storage when it already has the right shape. The base
  /// implementations fall back to the allocating calls; codecs on the
  /// steady-state serving path (DCT+Chop) override them to execute their
  /// plan directly into `out`, so a caller that holds its output tensors
  /// across iterations performs no per-call payload allocation.
  virtual void compress_into(const tensor::Tensor& input,
                             tensor::Tensor& out) const {
    out = compress(input);
  }
  virtual void decompress_into(const tensor::Tensor& packed,
                               const tensor::Shape& original,
                               tensor::Tensor& out) const {
    out = decompress(packed, original);
  }

  /// Plane-range variants over caller memory: `input` is the BCHW shape
  /// of the floats at `in`, which need only float alignment (a mapped
  /// file's data may start at any 4-byte offset), and `out` receives the
  /// compressed_shape(input) floats. The archive family (DCT+Chop,
  /// triangle, partial) transforms straight between the two spans, and
  /// its Tensor calls adapt to these; other codecs throw
  /// std::logic_error. decompress_into trusts `packed` to hold
  /// compressed_shape(original) floats.
  virtual void compress_into(const float* in, const tensor::Shape& input,
                             float* out) const;
  virtual void decompress_into(const float* packed,
                               const tensor::Shape& original,
                               float* out) const;

  /// Convenience: compress immediately followed by decompress, the
  /// transformation the paper applies to every training batch (§4.1).
  tensor::Tensor round_trip(const tensor::Tensor& input) const {
    return decompress(compress(input), input.shape());
  }

  /// The session this codec resolves plans in, executes on, and reports
  /// metrics under (instrumented codecs record into CodecSeries under its
  /// prefix). Copies of a codec's context refer to the same session.
  const Context& context() const noexcept { return ctx_; }

 protected:
  Codec() = default;
  explicit Codec(Context ctx) : ctx_(std::move(ctx)) {}

  Context ctx_;
};

using CodecPtr = std::shared_ptr<const Codec>;

}  // namespace aic::core
