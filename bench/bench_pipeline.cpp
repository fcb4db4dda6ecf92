// Measured (wall-clock) throughput of the chunked v4 archive pipeline:
// encode/decode GB/s against the thread count and the chunk-size sweep.
// Writes BENCH_pipeline.json (override with --json=PATH) for the CI
// artifact.
//
// The memory section (this binary links the aic_memprobe operator
// new/delete replacement) additionally measures steady-state heap
// allocations per compress call after warmup and per-phase peak RSS of
// the streaming vs in-memory codec paths (the streaming read is
// restore_archive over a mapped file), writing BENCH_memory.json
// (--mem-json=PATH). With --fail-on-steady-state-allocs the process
// exits 1 when a warmed-up compress call still makes any large
// (>= 256 KiB) allocation — the CI allocation gate.
//
// The acceptance target — >= 3x faster 8-thread round trip on the
// single-plane 1024x1024 CF=4 payload — is only observable on a host
// with >= 8 cores; the JSON records hardware_threads so a 1-core CI
// runner's numbers are not misread as a scaling regression.

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "baseline/chunk_entropy.hpp"
#include "cli/archive.hpp"
#include "io/mapped_file.hpp"
#include "runtime/buffer_pool.hpp"
#include "runtime/context.hpp"
#include "runtime/rng.hpp"
#include "runtime/thread_pool.hpp"
#include "runtime/timer.hpp"
#include "support/memory_probe.hpp"
#include "tensor/tensor.hpp"

namespace {

using aic::cli::ArchiveWriteOptions;
using aic::tensor::Shape;
using aic::tensor::Tensor;

constexpr const char* kSpec = "dctchop:cf=4,block=8";

/// A session with a private pool of exactly `threads` workers — sweep
/// points no longer resize a process-wide pool out from under each other.
aic::Context session(std::size_t threads) {
  aic::Context::Options options;
  options.threads = threads;
  return aic::Context(options);
}

/// Best-of-N wall seconds of `fn` (first call warm-up is included in the
/// reps: the plan cache hides behind the min).
template <typename Fn>
double best_seconds(int reps, Fn&& fn) {
  double best = 1e30;
  for (int i = 0; i < reps; ++i) {
    aic::runtime::Timer timer;
    fn();
    best = std::min(best, timer.seconds());
  }
  return best;
}

double gbps(std::size_t bytes, double seconds) {
  return static_cast<double>(bytes) / seconds / 1e9;
}

struct SweepPoint {
  std::size_t threads = 0;
  std::size_t chunk_bytes = 0;
  double encode_gbps = 0.0;
  double decode_gbps = 0.0;
  double roundtrip_s = 0.0;
  double encode_allocs = 0.0;  // heap allocations per encode call
  std::size_t peak_rss = 0;    // bytes, high-water after this point
};

void append_point(std::string& json, const SweepPoint& p, bool thread_axis) {
  json += "    {";
  json += thread_axis ? "\"threads\": " + std::to_string(p.threads)
                      : "\"chunk_bytes\": " + std::to_string(p.chunk_bytes);
  json += ", \"encode_gbps\": " + std::to_string(p.encode_gbps);
  json += ", \"decode_gbps\": " + std::to_string(p.decode_gbps);
  json += ", \"roundtrip_s\": " + std::to_string(p.roundtrip_s);
  json += ", \"encode_allocs\": " + std::to_string(p.encode_allocs);
  json += ", \"peak_rss_bytes\": " + std::to_string(p.peak_rss);
  json += "}";
}

double mb(std::size_t bytes) { return static_cast<double>(bytes) / 1e6; }

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_pipeline.json";
  std::string mem_json_path = "BENCH_memory.json";
  std::size_t res = 1024;
  int reps = 3;
  bool fail_on_steady_state_allocs = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) json_path = arg.substr(7);
    if (arg.rfind("--mem-json=", 0) == 0) mem_json_path = arg.substr(11);
    if (arg.rfind("--res=", 0) == 0) res = std::stoul(arg.substr(6));
    if (arg.rfind("--reps=", 0) == 0) reps = std::stoi(arg.substr(7));
    if (arg == "--fail-on-steady-state-allocs") {
      fail_on_steady_state_allocs = true;
    }
  }
  // Payload-sized staging must be pooled; per-chunk encode strings
  // (64 KiB default chunks) are allowed churn.
  aic::testsupport::set_large_alloc_threshold(256 * 1024);

  // The acceptance payload: single-plane 1024x1024, CF=4 (CR 4.0).
  aic::runtime::Rng rng(42);
  const Tensor input = Tensor::uniform(Shape::bchw(1, 1, res, res), rng);
  const std::size_t input_bytes = input.size_bytes();

  std::string json = "{\n  \"bench\": \"pipeline\",\n";
  json += "  \"resolution\": " + std::to_string(res) + ",\n";
  json += "  \"input_bytes\": " + std::to_string(input_bytes) + ",\n";
  json += "  \"hardware_threads\": " +
          std::to_string(std::thread::hardware_concurrency()) + ",\n";

  // ---- Thread sweep: fused encode and chunk-parallel decode ----------
  std::cout << "== thread sweep (" << res << "x" << res << ", CF=4, raw chunks)\n";
  double roundtrip_1t = 0.0, roundtrip_8t = 0.0;
  json += "  \"thread_sweep\": [\n";
  bool first = true;
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    const aic::Context ctx = session(threads);
    const ArchiveWriteOptions options{};  // v4, 64 KiB chunks, raw
    std::string bytes;
    // Warm lap so the plan cache + buffer pool are primed, then count
    // heap allocations across the timed laps (reused output string — the
    // steady-state serving shape).
    compress_to_archive_bytes(input, kSpec, options, nullptr, ctx, bytes);
    const aic::testsupport::AllocStats allocs_before =
        aic::testsupport::alloc_stats();
    const double encode_s = best_seconds(reps, [&] {
      compress_to_archive_bytes(input, kSpec, options, nullptr, ctx, bytes);
    });
    const aic::testsupport::AllocStats allocs_after =
        aic::testsupport::alloc_stats();
    const double decode_s = best_seconds(
        reps, [&] { (void)aic::cli::deserialize_archive(bytes, ctx); });
    const SweepPoint p{
        .threads = threads,
        .encode_gbps = gbps(input_bytes, encode_s),
        .decode_gbps = gbps(input_bytes, decode_s),
        .roundtrip_s = encode_s + decode_s,
        .encode_allocs =
            static_cast<double>(allocs_after.total_allocs -
                                allocs_before.total_allocs) /
            reps,
        .peak_rss = aic::testsupport::peak_rss_bytes()};
    if (threads == 1) roundtrip_1t = p.roundtrip_s;
    if (threads == 8) roundtrip_8t = p.roundtrip_s;
    if (!first) json += ",\n";
    first = false;
    append_point(json, p, /*thread_axis=*/true);
    std::cout << "  threads=" << threads << "  encode " << p.encode_gbps
              << " GB/s  decode " << p.decode_gbps << " GB/s  roundtrip "
              << p.roundtrip_s * 1e3 << " ms  allocs/encode "
              << p.encode_allocs << "  peakRSS " << mb(p.peak_rss) << " MB\n";
  }
  json += "\n  ],\n";

  // ---- Chunk-size sweep at 8 threads ---------------------------------
  std::cout << "== chunk-size sweep (8 threads)\n";
  json += "  \"chunk_sweep\": [\n";
  first = true;
  const aic::Context ctx8 = session(8);
  for (const std::size_t chunk_bytes :
       {std::size_t{4} << 10, std::size_t{16} << 10, std::size_t{64} << 10,
        std::size_t{256} << 10, std::size_t{1} << 20}) {
    const ArchiveWriteOptions options{.chunk_bytes = chunk_bytes};
    std::string bytes;
    const double encode_s = best_seconds(reps, [&] {
      bytes = compress_to_archive_bytes(input, kSpec, options, nullptr, ctx8);
    });
    const double decode_s = best_seconds(
        reps, [&] { (void)aic::cli::deserialize_archive(bytes, ctx8); });
    const SweepPoint p{.chunk_bytes = chunk_bytes,
                       .encode_gbps = gbps(input_bytes, encode_s),
                       .decode_gbps = gbps(input_bytes, decode_s),
                       .roundtrip_s = encode_s + decode_s};
    if (!first) json += ",\n";
    first = false;
    append_point(json, p, /*thread_axis=*/false);
    std::cout << "  chunk=" << (chunk_bytes >> 10) << "KiB  encode "
              << p.encode_gbps << " GB/s  decode " << p.decode_gbps
              << " GB/s\n";
  }
  json += "\n  ],\n";

  const double speedup = roundtrip_8t > 0.0 ? roundtrip_1t / roundtrip_8t : 0.0;
  json += "  \"roundtrip_speedup_8t_vs_1t\": " + std::to_string(speedup) + "\n}\n";
  std::cout << "== roundtrip speedup 8t vs 1t: " << speedup << "x\n";

  std::ofstream out(json_path);
  out << json;
  std::cout << "wrote " << json_path << "\n";

  // ---- Memory: steady-state allocations + per-phase peak RSS ---------
  // A multi-plane payload (batch 8 x 3 channels) so the streaming
  // window (one plane + one chunk) is genuinely smaller than the whole
  // archive — the single-plane acceptance tensor cannot show the
  // bounded-memory win because its plane IS the payload.
  std::cout << "== memory (8x3x" << res << "x" << res << ", 8 threads)\n";
  const aic::Context mem_ctx = session(8);
  const Tensor mem_input =
      Tensor::uniform(Shape::bchw(8, 3, res, res), rng);
  const ArchiveWriteOptions mem_options{};

  // Steady-state allocation gate: after a warm lap, compress with a
  // reused output string must make zero large (>= 256 KiB) allocations —
  // payload staging, scratch tensors, and the output all come from the
  // session's pools.
  std::string reused_bytes;
  compress_to_archive_bytes(mem_input, kSpec, mem_options, nullptr, mem_ctx,
                            reused_bytes);
  constexpr int kSteadyCalls = 5;
  const aic::testsupport::AllocStats steady_before =
      aic::testsupport::alloc_stats();
  for (int i = 0; i < kSteadyCalls; ++i) {
    compress_to_archive_bytes(mem_input, kSpec, mem_options, nullptr,
                              mem_ctx, reused_bytes);
  }
  const aic::testsupport::AllocStats steady_after =
      aic::testsupport::alloc_stats();
  const double steady_allocs =
      static_cast<double>(steady_after.total_allocs -
                          steady_before.total_allocs) /
      kSteadyCalls;
  const double steady_large =
      static_cast<double>(steady_after.large_allocs -
                          steady_before.large_allocs) /
      kSteadyCalls;
  std::cout << "  steady-state compress: " << steady_allocs
            << " allocs/call, " << steady_large << " large (>= "
            << aic::testsupport::large_alloc_threshold()
            << " B) allocs/call\n";

  // Per-phase peak RSS. Each phase gets a FRESH session so slabs and
  // scratch tensors cached by earlier phases (or the steady-state laps
  // above — trim() cannot reach leased scratch) don't inflate its
  // baseline, and streaming phases run FIRST so ascending-footprint
  // order keeps the comparison honest even when the kernel cannot reset
  // VmHWM. Freed heap is returned to the OS between phases.
  const std::string stream_path =
      (std::filesystem::temp_directory_path() /
       ("aic_bench_memory_" + std::to_string(res) + ".aicz"))
          .string();
  reused_bytes.clear();
  reused_bytes.shrink_to_fit();
  mem_ctx.buffer_pool().trim();
  aic::testsupport::release_freed_heap();
  const bool rss_resettable = aic::testsupport::reset_peak_rss();

  double encode_stream_s = 0.0;
  std::size_t encode_stream_rss = 0;
  {
    const aic::Context phase_ctx = session(8);
    std::ofstream file(stream_path, std::ios::binary | std::ios::trunc);
    aic::runtime::Timer timer;
    (void)compress_to_stream(mem_input, kSpec, file, mem_options, nullptr,
                             phase_ctx);
    encode_stream_s = timer.seconds();
    encode_stream_rss = aic::testsupport::peak_rss_bytes();
  }
  aic::testsupport::release_freed_heap();
  (void)aic::testsupport::reset_peak_rss();

  double decode_stream_s = 0.0;
  std::size_t decode_stream_rss = 0;
  {
    // The bounded-memory read: restore_archive over the mapped archive
    // with a null sink (decode and inverse transform, group by group).
    const aic::Context phase_ctx = session(8);
    aic::runtime::Timer timer;
    const aic::io::MappedFile file(stream_path);
    (void)aic::cli::restore_archive(file.view(), nullptr, phase_ctx);
    decode_stream_s = timer.seconds();
    decode_stream_rss = aic::testsupport::peak_rss_bytes();
  }
  aic::testsupport::release_freed_heap();
  (void)aic::testsupport::reset_peak_rss();

  double encode_inmem_s = 0.0;
  std::size_t encode_inmem_rss = 0;
  {
    const aic::Context phase_ctx = session(8);
    aic::runtime::Timer timer;
    const std::string bytes = compress_to_archive_bytes(
        mem_input, kSpec, mem_options, nullptr, phase_ctx);
    encode_inmem_s = timer.seconds();
    encode_inmem_rss = aic::testsupport::peak_rss_bytes();
  }
  aic::testsupport::release_freed_heap();
  (void)aic::testsupport::reset_peak_rss();

  double decode_inmem_s = 0.0;
  std::size_t decode_inmem_rss = 0;
  {
    const aic::Context phase_ctx = session(8);
    std::ifstream file(stream_path, std::ios::binary);
    std::ostringstream slurped;
    slurped << file.rdbuf();
    const std::string bytes = slurped.str();
    aic::runtime::Timer timer;
    (void)aic::cli::deserialize_archive(bytes, phase_ctx);
    decode_inmem_s = timer.seconds();
    decode_inmem_rss = aic::testsupport::peak_rss_bytes();
  }
  std::remove(stream_path.c_str());

  const auto reduction = [](std::size_t stream, std::size_t inmem) {
    return inmem == 0 ? 0.0
                      : 1.0 - static_cast<double>(stream) /
                                  static_cast<double>(inmem);
  };
  const std::size_t mem_bytes = mem_input.size_bytes();
  std::cout << "  encode: stream " << mb(encode_stream_rss)
            << " MB peak @ " << gbps(mem_bytes, encode_stream_s)
            << " GB/s vs in-memory " << mb(encode_inmem_rss) << " MB peak @ "
            << gbps(mem_bytes, encode_inmem_s) << " GB/s  ("
            << reduction(encode_stream_rss, encode_inmem_rss) * 100
            << "% peak-RSS reduction)\n";
  std::cout << "  decode: mapped restore " << mb(decode_stream_rss)
            << " MB peak @ " << gbps(mem_bytes, decode_stream_s)
            << " GB/s vs in-memory " << mb(decode_inmem_rss) << " MB peak @ "
            << gbps(mem_bytes, decode_inmem_s) << " GB/s  ("
            << reduction(decode_stream_rss, decode_inmem_rss) * 100
            << "% peak-RSS reduction)\n";

  std::string mem_json = "{\n  \"bench\": \"memory\",\n";
  mem_json += "  \"resolution\": " + std::to_string(res) + ",\n";
  mem_json += "  \"mem_input_bytes\": " + std::to_string(mem_bytes) + ",\n";
  mem_json += "  \"steady_state_calls\": " + std::to_string(kSteadyCalls) +
              ",\n";
  mem_json +=
      "  \"steady_state_allocs_per_compress\": " +
      std::to_string(steady_allocs) + ",\n";
  mem_json += "  \"steady_state_large_allocs_per_compress\": " +
              std::to_string(steady_large) + ",\n";
  mem_json += "  \"large_alloc_threshold_bytes\": " +
              std::to_string(aic::testsupport::large_alloc_threshold()) +
              ",\n";
  mem_json += std::string("  \"peak_rss_resettable\": ") +
              (rss_resettable ? "true" : "false") + ",\n";
  mem_json += "  \"encode_stream_peak_rss_bytes\": " +
              std::to_string(encode_stream_rss) + ",\n";
  mem_json += "  \"encode_inmemory_peak_rss_bytes\": " +
              std::to_string(encode_inmem_rss) + ",\n";
  mem_json += "  \"decode_stream_peak_rss_bytes\": " +
              std::to_string(decode_stream_rss) + ",\n";
  mem_json += "  \"decode_inmemory_peak_rss_bytes\": " +
              std::to_string(decode_inmem_rss) + ",\n";
  mem_json += "  \"encode_peak_rss_reduction\": " +
              std::to_string(reduction(encode_stream_rss,
                                       encode_inmem_rss)) + ",\n";
  mem_json += "  \"decode_peak_rss_reduction\": " +
              std::to_string(reduction(decode_stream_rss,
                                       decode_inmem_rss)) + ",\n";
  mem_json += "  \"encode_stream_gbps\": " +
              std::to_string(gbps(mem_bytes, encode_stream_s)) + ",\n";
  mem_json += "  \"encode_inmemory_gbps\": " +
              std::to_string(gbps(mem_bytes, encode_inmem_s)) + ",\n";
  mem_json += "  \"decode_stream_gbps\": " +
              std::to_string(gbps(mem_bytes, decode_stream_s)) + ",\n";
  mem_json += "  \"decode_inmemory_gbps\": " +
              std::to_string(gbps(mem_bytes, decode_inmem_s)) + "\n}\n";
  std::ofstream mem_out(mem_json_path);
  mem_out << mem_json;
  std::cout << "wrote " << mem_json_path << "\n";

  if (fail_on_steady_state_allocs && steady_large > 0.0) {
    std::cout << "FAIL: steady-state compress still makes " << steady_large
              << " large allocations per call after warmup\n";
    return 1;
  }
  return 0;
}
