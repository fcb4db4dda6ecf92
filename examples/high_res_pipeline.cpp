// Partial serialization for high-resolution samples (§3.5.1, Fig. 15).
//
// 512×512 samples do not compile on the SN30 (a single tensor plane
// exceeds one 0.5 MB PMU). Subdividing each sample by s=2 shrinks the
// working set 4× and the chunks compile — at the cost of s² serial
// launches. This example shows the failing compile, the fix, and the
// simulated cost of the trade.
//
//   ./build/examples/high_res_pipeline

#include <iostream>

#include "accel/registry.hpp"
#include "core/codec_factory.hpp"
#include "core/partial_serializer.hpp"
#include "graph/builders.hpp"
#include "io/table.hpp"

int main() {
  using namespace aic;
  using accel::Platform;

  constexpr std::size_t kRes = 512, kCf = 4, kSub = 2;
  const graph::BatchSpec batch{.batch = 100, .channels = 3};
  const accel::Accelerator sn30 = accel::make_accelerator(Platform::kSn30);

  // 1. The unserialized 512×512 graph is rejected.
  const core::DctChopConfig full{
      .height = kRes, .width = kRes, .cf = kCf, .block = 8};
  const auto rejected =
      sn30.compile_check(graph::build_decompress_graph(full, batch));
  std::cout << "512x512 direct compile on SN30: "
            << (rejected.ok ? "ok (unexpected)" : "FAILED") << "\n  "
            << rejected.error << "\n\n";

  // 2. Each s=2 chunk is a 256×256 problem that compiles.
  const core::DctChopConfig chunk{
      .height = kRes / kSub, .width = kRes / kSub, .cf = kCf, .block = 8};
  const auto accepted =
      sn30.compile_check(graph::build_decompress_graph(chunk, batch));
  std::cout << "256x256 chunk compile on SN30: "
            << (accepted.ok ? "ok" : accepted.error) << "\n\n";

  // 3. Cost of the trade: s² serial chunk invocations vs one shot.
  const double chunk_time =
      sn30.estimate(graph::build_decompress_graph(chunk, batch)).total_s();
  const double serialized_time = chunk_time * kSub * kSub;
  const std::size_t payload = batch.batch * batch.channels * kRes * kRes * 4;

  io::Table table({"configuration", "operator bytes", "time (ms)",
                   "throughput (GB/s)"});
  const core::CodecPtr codec = core::make_codec(
      "partial:cf=4,block=8,s=2,h=512,w=512");
  const auto& ps = dynamic_cast<const core::PartialSerialCodec&>(*codec);
  table.add_row(
      {"512x512 direct",
       std::to_string(
           core::PartialSerialCodec::unserialized_operator_bytes(kRes, kCf)),
       "compile error", "-"});
  table.add_row({"512x512, s=2 partial serialization",
                 std::to_string(ps.operator_bytes()),
                 io::Table::num(serialized_time * 1e3, 4),
                 io::Table::num(accel::throughput_gbps(payload,
                                                       serialized_time),
                                3)});
  table.print(std::cout);

  std::cout << "\nFig. 15 expectation: ~2.5-3.8x slowdown vs native "
               "256x256 processing, not the naive 4x.\n";
  return 0;
}
