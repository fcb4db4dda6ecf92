#pragma once

#include <cstddef>
#include <cstdint>

namespace aic::obs {

/// Central handles for the parallel-archive-pipeline metrics, so every
/// layer (chunk entropy coders, the archive chunk pipeline and v4
/// decode) records into the same registry names:
///
///   pipeline.chunks_encoded / pipeline.chunks_decoded   counters
///   pipeline.encode_reallocs                            counter
///   pipeline.chunk_encode.ns / pipeline.chunk_decode.ns histograms
///   pipeline.last_chunk_bytes / pipeline.last_chunks    gauges
///   pipeline.overlap_efficiency                         gauge
///
/// overlap_efficiency is (transform_ns + encode_ns) / wall_ns of the last
/// compress: 1.0 means fully serial, values above it
/// mean the producer (GEMM sandwich transform) and consumer (chunk
/// entropy encode) stages, or the chunk encodes themselves, ran
/// concurrently.
struct PipelineMetrics {
  void record_chunk_encoded(std::uint64_t nanos);
  void record_chunk_decoded(std::uint64_t nanos);
  /// Mid-encode byte-buffer growths (the exact-accounting reserve path
  /// keeps this at zero in steady state; tests assert on the counter).
  void record_encode_reallocs(std::size_t reallocs);
  void record_archive_layout(std::size_t chunk_bytes, std::size_t chunks);
  void record_overlap(std::uint64_t transform_ns, std::uint64_t encode_ns,
                      std::uint64_t wall_ns);

  static PipelineMetrics& global();
};

}  // namespace aic::obs
