// Codec counters are registry series under the codec's context prefix
// (`<prefix>codec.compress.planes`, ...). Each test reads a context of
// its own, so no other test (or earlier run in the same process) moves
// the series it checks.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <thread>

#include "core/codec.hpp"
#include "core/dct_chop.hpp"
#include "core/partial_serializer.hpp"
#include "core/triangle.hpp"
#include "obs/metrics.hpp"
#include "runtime/context.hpp"
#include "runtime/rng.hpp"
#include "tensor/tensor.hpp"

namespace aic::core {
namespace {

using tensor::Shape;
using tensor::Tensor;

Context fresh_context() {
  static int sessions = 0;
  Context::Options options;
  options.obs_prefix = "statstest" + std::to_string(sessions++) + ".";
  return Context(options);
}

/// One direction's series, read back from the registry.
struct Series {
  std::uint64_t calls = 0;
  std::uint64_t planes = 0;
  std::uint64_t flops = 0;
  std::uint64_t flops_executed = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t nanos = 0;
};

Series read(const Context& ctx, const std::string& stem) {
  const obs::HistogramSnapshot ns = ctx.histogram(stem + ".ns").snapshot();
  return {ns.count,
          ctx.counter(stem + ".planes").value(),
          ctx.counter(stem + ".flops").value(),
          ctx.counter(stem + ".flops_executed").value(),
          ctx.counter(stem + ".bytes_in").value(),
          ctx.counter(stem + ".bytes_out").value(),
          ns.sum};
}

std::uint64_t kernel_counter(const std::string& name) {
  return obs::Registry::global().counter("kernel." + name).value();
}

TEST(CodecStats, StartsAtZero) {
  const Context ctx = fresh_context();
  const DctChopCodec codec({.height = 16, .width = 16, .cf = 4, .block = 8},
                           ctx);
  for (const char* stem : {"codec.compress", "codec.decompress"}) {
    const Series s = read(ctx, stem);
    EXPECT_EQ(s.calls, 0u) << stem;
    EXPECT_EQ(s.planes, 0u) << stem;
    EXPECT_EQ(s.flops, 0u) << stem;
    EXPECT_EQ(s.flops_executed, 0u) << stem;
    EXPECT_EQ(s.bytes_in + s.bytes_out, 0u) << stem;
    EXPECT_EQ(s.nanos, 0u) << stem;
  }
}

TEST(CodecStats, DctChopCompressRecordsCallsPlanesFlopsBytes) {
  runtime::Rng rng(1);
  const std::size_t n = 16, cf = 4;
  const Context ctx = fresh_context();
  const DctChopCodec codec({.height = n, .width = n, .cf = cf, .block = 8},
                           ctx);
  const Tensor in = Tensor::uniform(Shape::bchw(3, 2, n, n), rng);
  const Tensor packed = codec.compress(in);
  const Series s = read(ctx, "codec.compress");
  EXPECT_EQ(s.calls, 1u);
  EXPECT_EQ(s.planes, 6u);
  EXPECT_EQ(s.flops, 6u * DctChopCodec::flops_compress(n, cf));
  EXPECT_EQ(s.flops_executed,
            6u * DctChopCodec::flops_executed_hw(n, n, cf));
  EXPECT_EQ(s.bytes_in, in.size_bytes());
  EXPECT_EQ(s.bytes_out, packed.size_bytes());
  EXPECT_EQ(read(ctx, "codec.decompress").calls, 0u);
}

TEST(CodecStats, DctChopDecompressRecordsEq7Flops) {
  runtime::Rng rng(2);
  const std::size_t n = 16, cf = 3;
  const Context ctx = fresh_context();
  const DctChopCodec codec({.height = n, .width = n, .cf = cf, .block = 8},
                           ctx);
  const Tensor in = Tensor::uniform(Shape::bchw(2, 2, n, n), rng);
  (void)codec.round_trip(in);
  const Series compress = read(ctx, "codec.compress");
  const Series decompress = read(ctx, "codec.decompress");
  EXPECT_EQ(compress.calls, 1u);
  EXPECT_EQ(decompress.calls, 1u);
  EXPECT_EQ(decompress.planes, 4u);
  EXPECT_EQ(decompress.flops, 4u * DctChopCodec::flops_decompress(n, cf));
  EXPECT_EQ(decompress.flops_executed,
            4u * DctChopCodec::flops_executed_hw(n, n, cf));
  EXPECT_EQ(compress.planes + decompress.planes, 8u);
}

TEST(CodecStats, RectangularFlopFormulasReduceToSquareForms) {
  for (std::size_t n : {16u, 32u, 64u}) {
    for (std::size_t cf = 1; cf <= 8; ++cf) {
      EXPECT_EQ(DctChopCodec::flops_compress_hw(n, n, cf),
                DctChopCodec::flops_compress(n, cf));
      EXPECT_EQ(DctChopCodec::flops_decompress_hw(n, n, cf),
                DctChopCodec::flops_decompress(n, cf));
    }
  }
}

// A measurement window is a context: a fresh one starts at zero while the
// old one keeps its totals.
TEST(CodecStats, AccumulatesAcrossCallsAndResets) {
  runtime::Rng rng(3);
  const Tensor in = Tensor::uniform(Shape::bchw(1, 1, 16, 16), rng);
  const DctChopConfig config{.height = 16, .width = 16, .cf = 4, .block = 8};
  const Context first = fresh_context();
  const DctChopCodec codec(config, first);
  for (int i = 0; i < 3; ++i) (void)codec.compress(in);
  EXPECT_EQ(read(first, "codec.compress").calls, 3u);
  EXPECT_EQ(read(first, "codec.compress").planes, 3u);
  const Context second = fresh_context();
  const DctChopCodec next(config, second);
  EXPECT_EQ(read(second, "codec.compress").calls, 0u);
  EXPECT_EQ(read(second, "codec.compress").flops, 0u);
  (void)next.compress(in);
  EXPECT_EQ(read(second, "codec.compress").calls, 1u);
  EXPECT_EQ(read(first, "codec.compress").calls, 3u);
}

TEST(CodecStats, PartialSerialRecordsChunkedFlops) {
  runtime::Rng rng(4);
  const std::size_t s = 2;
  const Context ctx = fresh_context();
  const PartialSerialCodec ps(
      {.height = 32, .width = 32, .cf = 4, .block = 8, .subdivision = s},
      ctx);
  const Tensor in = Tensor::uniform(Shape::bchw(2, 1, 32, 32), rng);
  (void)ps.round_trip(in);
  const Series compress = read(ctx, "ps.compress");
  const Series decompress = read(ctx, "ps.decompress");
  EXPECT_EQ(compress.calls, 1u);
  EXPECT_EQ(compress.planes, 2u);
  // s² chunk launches at the chunk resolution per plane.
  EXPECT_EQ(compress.flops, 2u * s * s * DctChopCodec::flops_compress(16, 4));
  EXPECT_EQ(decompress.flops,
            2u * s * s * DctChopCodec::flops_decompress(16, 4));
  // The block kernel's work does not depend on the chunking.
  EXPECT_EQ(compress.flops_executed,
            2u * DctChopCodec::flops_executed_hw(32, 32, 4));
  // The full-resolution plan runs under ps.* alone: no inner codec.
  EXPECT_EQ(read(ctx, "codec.compress").calls, 0u);
  EXPECT_EQ(read(ctx, "codec.decompress").calls, 0u);
}

TEST(CodecSeries, TriangleRecordsUnderItsOwnStem) {
  runtime::Rng rng(5);
  const Context ctx = fresh_context();
  const TriangleCodec codec({.height = 16, .width = 16, .cf = 4, .block = 8},
                            ctx);
  const Tensor in = Tensor::uniform(Shape::bchw(1, 3, 16, 16), rng);
  const Tensor packed = codec.compress(in);
  (void)codec.decompress(packed, in.shape());
  const Series s = read(ctx, "sg.compress");
  EXPECT_EQ(s.calls, 1u);
  EXPECT_EQ(s.planes, 3u);
  EXPECT_EQ(s.flops, 3u * DctChopCodec::flops_compress(16, 4));
  EXPECT_EQ(s.bytes_out, packed.size_bytes());
  EXPECT_EQ(read(ctx, "sg.decompress").calls, 1u);
  EXPECT_EQ(read(ctx, "codec.compress").calls, 0u);
}

TEST(CodecStats, ThroughputHelpersUseRecordedTime) {
  const Context ctx = fresh_context();
  const CodecSeries series(ctx, "codec.compress");
  series.record(/*planes=*/4, /*flops=*/2'000'000'000,
                /*flops_executed=*/1'000'000'000,
                /*bytes_in=*/1'000'000'000, /*bytes_out=*/250'000'000,
                /*nanos=*/2'000'000'000);
  const Series s = read(ctx, "codec.compress");
  // FLOPs per nanosecond is GFLOP/s; bytes per nanosecond is GB/s.
  EXPECT_NEAR(static_cast<double>(s.flops) / static_cast<double>(s.nanos),
              1.0, 1e-9);
  EXPECT_NEAR(static_cast<double>(s.bytes_in) / static_cast<double>(s.nanos),
              0.5, 1e-9);
}

TEST(CodecStats, SubMicrosecondCallsAccumulateWithoutLoss) {
  // A million 100 ns calls sum to exactly 0.1 s: wall time accumulates in
  // integer nanoseconds.
  const Context ctx = fresh_context();
  const CodecSeries series(ctx, "codec.compress");
  constexpr std::uint64_t kCalls = 1'000'000;
  for (std::uint64_t i = 0; i < kCalls; ++i) {
    series.record(/*planes=*/1, /*flops=*/1, /*flops_executed=*/1,
                  /*bytes_in=*/1, /*bytes_out=*/1, /*nanos=*/100);
  }
  const Series s = read(ctx, "codec.compress");
  EXPECT_EQ(s.calls, kCalls);
  EXPECT_EQ(s.planes, kCalls);
  EXPECT_EQ(s.nanos, kCalls * 100);
  EXPECT_DOUBLE_EQ(static_cast<double>(s.nanos) / 1e9, 0.1);
}

TEST(CodecSeries, ConcurrentContextsKeepTheirOwnSeries) {
  runtime::Rng rng(6);
  const Tensor in = Tensor::uniform(Shape::bchw(2, 3, 16, 16), rng);
  const Context a = fresh_context();
  const Context b = fresh_context();
  const DctChopCodec codec_a({.cf = 4, .block = 8}, a);
  const DctChopCodec codec_b({.cf = 2, .block = 8}, b);
  std::thread other([&] {
    for (int i = 0; i < 7; ++i) (void)codec_b.round_trip(in);
  });
  for (int i = 0; i < 5; ++i) (void)codec_a.compress(in);
  other.join();
  const Series sa = read(a, "codec.compress");
  const Series sb = read(b, "codec.compress");
  EXPECT_EQ(sa.calls, 5u);
  EXPECT_EQ(sa.planes, 5u * 6);
  EXPECT_EQ(sa.flops, 5u * 6 * DctChopCodec::flops_compress(16, 4));
  EXPECT_EQ(read(a, "codec.decompress").calls, 0u);
  EXPECT_EQ(sb.calls, 7u);
  EXPECT_EQ(sb.flops, 7u * 6 * DctChopCodec::flops_compress(16, 2));
  EXPECT_EQ(read(b, "codec.decompress").planes, 7u * 6);
}

// flops_executed is the closed form of the block kernel's work: on a
// 16×16 plane at CF=4, block 8, compress issues 8×4×8-MAC block_mac
// calls and 8-wide axpy rows (the packed width); decompress issues
// 4×8×4-MAC block_mac calls and 16-wide axpy rows.
TEST(CodecSeries, ExecutedFlopsMatchTheBlockKernelCalls) {
  runtime::Rng rng(7);
  const std::size_t n = 16, cf = 4, block = 8;
  const Context ctx = fresh_context();
  const DctChopCodec codec({.cf = cf, .block = block}, ctx);
  const Tensor in = Tensor::uniform(Shape::bchw(1, 2, n, n), rng);
  const auto executed_macs = [&](auto&& run, std::uint64_t mac_size,
                                 std::uint64_t axpy_len) {
    const std::uint64_t macs = kernel_counter("block_mac_calls");
    const std::uint64_t axpys = kernel_counter("axpy_calls");
    run();
    return (kernel_counter("block_mac_calls") - macs) * mac_size +
           (kernel_counter("axpy_calls") - axpys) * axpy_len;
  };
  Tensor packed;
  const std::uint64_t compress_macs = executed_macs(
      [&] { packed = codec.compress(in); }, block * cf * block,
      cf * n / block);
  const std::uint64_t decompress_macs = executed_macs(
      [&] { (void)codec.decompress(packed, in.shape()); }, cf * block * cf,
      n);
  const std::uint64_t closed_form =
      2 * DctChopCodec::flops_executed_hw(n, n, cf, block);
  EXPECT_EQ(2 * compress_macs, closed_form);
  EXPECT_EQ(2 * decompress_macs, closed_form);
  EXPECT_EQ(read(ctx, "codec.compress").flops_executed, closed_form);
  EXPECT_EQ(read(ctx, "codec.decompress").flops_executed, closed_form);
  // 6 MACs per pixel at CF=4, block 8.
  EXPECT_EQ(closed_form, 2u * 6 * 2 * n * n);
}

}  // namespace
}  // namespace aic::core
