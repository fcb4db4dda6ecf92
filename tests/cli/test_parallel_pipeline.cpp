#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "baseline/chunk_entropy.hpp"
#include "cli/archive.hpp"
#include "cli/robustness_suite.hpp"
#include "io/checksum.hpp"
#include "io/error.hpp"
#include "obs/metrics.hpp"
#include "runtime/context.hpp"
#include "runtime/rng.hpp"
#include "runtime/thread_pool.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"

namespace aic::cli {
namespace {

using tensor::Shape;
using tensor::Tensor;

Tensor seed_input(std::size_t batch, std::size_t channels, std::size_t res,
                  std::uint64_t seed = 7) {
  runtime::Rng rng(seed);
  return Tensor::uniform(Shape::bchw(batch, channels, res, res), rng);
}

std::uint64_t counter_value(const std::string& name) {
  for (const auto& [key, value] : obs::Registry::global().counters()) {
    if (key == name) return value;
  }
  return 0;
}

/// Patches `width` bytes at `field_offset` inside the v4 header and
/// recomputes the header CRC, so structural validation (not the
/// checksum) is what the decoder must reject the mutant with.
std::string patch_v4_header(const std::string& bytes,
                            std::size_t field_offset, const void* value,
                            std::size_t width) {
  constexpr std::size_t kHeaderOffset = 16;
  std::string out = bytes;
  std::memcpy(out.data() + kHeaderOffset + field_offset, value, width);
  std::uint32_t header_len;
  std::memcpy(&header_len, out.data() + 8, sizeof(header_len));
  const std::uint32_t crc = io::crc32c(out.data() + kHeaderOffset, header_len);
  std::memcpy(out.data() + 12, &crc, sizeof(crc));
  return out;
}

io::CorruptKind decode_kind(const std::string& bytes) {
  try {
    (void)deserialize_archive(bytes);
  } catch (const io::CorruptStream& error) {
    return error.kind();
  }
  ADD_FAILURE() << "mutant decoded cleanly";
  return io::CorruptKind::kTruncated;
}

// ---------------------------------------------------------------------------
// Determinism across pool sizes

TEST(ParallelPipeline, ArchiveBytesIdenticalAcrossPoolSizes) {
  const Tensor input = seed_input(2, 3, 32);
  const Archive archive = compress_to_archive(input, "dctchop:cf=4,block=8");
  const ArchiveWriteOptions options{.chunk_bytes = 1024,
                                    .entropy = baseline::ChunkEntropy::kAuto};

  // Sessions with private pools of different sizes, instead of resizing
  // the process pool under everyone's feet.
  const auto session = [](std::size_t threads) {
    Context::Options ctx_options;
    ctx_options.threads = threads;
    ctx_options.own_pool = true;
    return Context(ctx_options);
  };
  const Context single = session(1);
  const std::string reference = serialize_archive(archive, options, single);
  const std::string fused_reference = compress_to_archive_bytes(
      input, "dctchop:cf=4,block=8", options, nullptr, single);

  const std::size_t hw = std::thread::hardware_concurrency();
  for (std::size_t pool_size : {std::size_t{1}, std::size_t{4}, hw}) {
    const Context ctx = session(pool_size);
    EXPECT_EQ(serialize_archive(archive, options, ctx), reference)
        << "unfused, pool=" << pool_size;
    EXPECT_EQ(compress_to_archive_bytes(input, "dctchop:cf=4,block=8",
                                        options, nullptr, ctx),
              fused_reference)
        << "fused, pool=" << pool_size;
    // Decode is chunk-parallel too; the restored tensor must be exact.
    const Archive back = deserialize_archive(reference, ctx);
    EXPECT_TRUE(tensor::allclose(back.packed, archive.packed, 0.0))
        << "decode, pool=" << pool_size;
  }
}

TEST(ParallelPipeline, FusedMatchesUnfusedBitwise) {
  // Compressing in plane groups must match compressing the whole tensor
  // and serializing it, byte for byte: one group (small inputs, a single
  // plane) and several groups (5 planes of 256x256 are 1.25 MiB of input:
  // a four-plane group plus a ragged one-plane tail).
  const struct {
    std::size_t batch, channels, res;
  } shapes[] = {{4, 3, 32}, {1, 1, 32}, {1, 5, 256}};
  for (const auto& [batch, channels, res] : shapes) {
    const Tensor input = seed_input(batch, channels, res);
    for (const char* spec : {"dctchop:cf=4,block=8", "partial:cf=4,block=8,s=2",
                             "triangle:cf=4,block=8"}) {
      const ArchiveWriteOptions options{.chunk_bytes = 2048};
      const std::string unfused = serialize_archive(
          compress_to_archive(input, spec), options);
      const std::string fused =
          compress_to_archive_bytes(input, spec, options);
      const std::string label = std::string(spec) + " b=" +
                                std::to_string(batch) + " c=" +
                                std::to_string(channels) + " res=" +
                                std::to_string(res);
      EXPECT_EQ(fused, unfused) << label;
      std::ostringstream stream;
      compress_to_stream(input, spec, stream, options);
      EXPECT_EQ(stream.str(), unfused) << "streamed " << label;
    }
  }
}

TEST(ParallelPipeline, GoldenV4SeedsReproducedByEveryWriter) {
  // The checked-in v4 fuzz seeds pin the container bytes: each is
  // rebuilt from its spec, input seed, chunk size and entropy mode
  // through every writer entry point, at two pool sizes.
  const struct {
    const char* file;
    const char* spec;
    std::uint64_t seed;
    std::size_t chunk_bytes;
    baseline::ChunkEntropy entropy;
  } seeds[] = {
      {"seed_archive_dctchop_v4_raw.bin", "dctchop:cf=4,block=8", 15, 96,
       baseline::ChunkEntropy::kRaw},
      {"seed_archive_partial_v4_auto.bin", "partial:cf=4,block=8,s=2", 16,
       128, baseline::ChunkEntropy::kAuto},
      {"seed_archive_triangle_v4_huffman.bin", "triangle:cf=4,block=8", 17,
       80, baseline::ChunkEntropy::kHuffman},
      {"seed_archive_dctchop_v4_packed.bin", "dctchop:cf=4,block=8", 18, 64,
       baseline::ChunkEntropy::kPacked},
  };
  for (const std::size_t pool_size : {std::size_t{1}, std::size_t{4}}) {
    Context::Options ctx_options;
    ctx_options.threads = pool_size;
    ctx_options.own_pool = true;
    const Context ctx(ctx_options);
    for (const auto& s : seeds) {
      const std::string golden =
          read_corpus_seed(AIC_CORPUS_DIR, "archive", s.file);
      const Tensor input = corpus_seed_tensor(s.seed);
      const ArchiveWriteOptions options{.chunk_bytes = s.chunk_bytes,
                                        .entropy = s.entropy};
      const std::string label =
          std::string(s.file) + " pool=" + std::to_string(pool_size);
      EXPECT_EQ(serialize_archive(
                    compress_to_archive(input, s.spec, nullptr, ctx), options,
                    ctx),
                golden)
          << "serialize_archive " << label;
      EXPECT_EQ(compress_to_archive_bytes(input, s.spec, options, nullptr, ctx),
                golden)
          << "compress_to_archive_bytes " << label;
      std::string reused = "stale";
      compress_to_archive_bytes(input, s.spec, options, nullptr, ctx, reused);
      EXPECT_EQ(reused, golden) << "compress_to_archive_bytes(out) " << label;
      std::ostringstream stream;
      EXPECT_EQ(compress_to_stream(input, s.spec, stream, options, nullptr,
                                   ctx),
                golden.size())
          << label;
      EXPECT_EQ(stream.str(), golden) << "compress_to_stream " << label;
    }
  }
}

// ---------------------------------------------------------------------------
// Chunk geometry edges

TEST(ParallelPipeline, ChunkBoundaryEdgesRoundTrip) {
  const Tensor input = seed_input(1, 1, 32);
  const Archive archive = compress_to_archive(input, "dctchop:cf=4,block=8");
  // Payload is 44 header + 1024 data = 1068 bytes.
  const std::size_t payload_len = 44 + archive.packed.size_bytes();
  ASSERT_EQ(payload_len, 1068u);

  const struct {
    const char* label;
    std::size_t chunk_bytes;
    std::size_t expected_chunks;
  } cases[] = {
      {"payload smaller than one chunk", 1 << 20, 1},
      {"exact single chunk", 1068, 1},
      {"exact multiple", 267, 4},
      {"ragged tail", 500, 3},
      {"one-byte chunks", 1, 1068},
  };
  for (const auto& c : cases) {
    const ArchiveWriteOptions options{.chunk_bytes = c.chunk_bytes};
    const std::string bytes = serialize_archive(archive, options);
    const ArchiveProbe probe = probe_archive(bytes);
    EXPECT_EQ(probe.version, 4u) << c.label;
    EXPECT_EQ(probe.chunk_count, c.expected_chunks) << c.label;
    EXPECT_EQ(probe.payload_len, payload_len) << c.label;
    const Archive back = deserialize_archive(bytes);
    EXPECT_TRUE(tensor::allclose(back.packed, archive.packed, 0.0))
        << c.label;
  }
}

// ---------------------------------------------------------------------------
// Cross-version compatibility

TEST(ParallelPipeline, CrossVersionDecodeAgrees) {
  // Every checked-in seed, whatever its container version, decodes to
  // exactly what compressing its seed input gives today.
  const struct {
    const char* file;
    std::uint32_t version;
    const char* spec;
    std::uint64_t seed;
  } seeds[] = {
      {"seed_archive_dctchop_v2.bin", 2, "dctchop:cf=4,block=8", 14},
      {"seed_archive_dctchop_v3.bin", 3, "dctchop:cf=4,block=8", 11},
      {"seed_archive_partial_v3.bin", 3, "partial:cf=4,block=8,s=2", 12},
      {"seed_archive_triangle_v3.bin", 3, "triangle:cf=4,block=8", 13},
      {"seed_archive_partial_v4_auto.bin", 4, "partial:cf=4,block=8,s=2",
       16},
  };
  for (const auto& s : seeds) {
    const std::string bytes =
        read_corpus_seed(AIC_CORPUS_DIR, "archive", s.file);
    EXPECT_EQ(probe_archive(bytes).version, s.version) << s.file;
    const Archive archive =
        compress_to_archive(corpus_seed_tensor(s.seed), s.spec);
    const Archive back = deserialize_archive(bytes);
    EXPECT_EQ(back.triangle, archive.triangle) << s.file;
    EXPECT_EQ(back.subdivision, archive.subdivision) << s.file;
    EXPECT_EQ(back.original_shape, archive.original_shape) << s.file;
    EXPECT_TRUE(tensor::allclose(back.packed, archive.packed, 0.0))
        << s.file;
  }
}

// ---------------------------------------------------------------------------
// Entropy modes

TEST(ParallelPipeline, EntropyModesRoundTripAndAutoNeverLoses) {
  const Tensor input = seed_input(1, 1, 32);
  const Archive archive = compress_to_archive(input, "dctchop:cf=4,block=8");
  std::size_t raw_size = 0;
  for (const baseline::ChunkEntropy entropy :
       {baseline::ChunkEntropy::kRaw, baseline::ChunkEntropy::kPacked,
        baseline::ChunkEntropy::kHuffman, baseline::ChunkEntropy::kAuto}) {
    const ArchiveWriteOptions options{.chunk_bytes = 256, .entropy = entropy};
    const std::string bytes = serialize_archive(archive, options);
    if (entropy == baseline::ChunkEntropy::kRaw) raw_size = bytes.size();
    const Archive back = deserialize_archive(bytes);
    EXPECT_TRUE(tensor::allclose(back.packed, archive.packed, 0.0))
        << baseline::chunk_entropy_name(entropy);
    if (entropy == baseline::ChunkEntropy::kAuto) {
      // Auto picks the per-chunk minimum, so it can never exceed raw.
      EXPECT_LE(bytes.size(), raw_size);
    }
  }
}

TEST(ParallelPipeline, HuffmanEncodeStagesWithoutReallocation) {
  // The BitWriter is pre-sized from the exact encoded-bits accounting;
  // any mid-encode growth is a regression the counter must expose.
  const Tensor input = seed_input(1, 1, 32, 11);
  const Archive archive = compress_to_archive(input, "dctchop:cf=4,block=8");
  const std::uint64_t before = counter_value("pipeline.encode_reallocs");
  const ArchiveWriteOptions options{
      .chunk_bytes = 128, .entropy = baseline::ChunkEntropy::kHuffman};
  const std::string bytes = serialize_archive(archive, options);
  EXPECT_EQ(counter_value("pipeline.encode_reallocs"), before);
  const Archive back = deserialize_archive(bytes);
  EXPECT_TRUE(tensor::allclose(back.packed, archive.packed, 0.0));
}

// ---------------------------------------------------------------------------
// Typed rejection of corrupted chunked containers

TEST(ParallelPipeline, MutatedChunkTableIsRejectedTyped) {
  const Tensor input = seed_input(1, 1, 16);
  const ArchiveWriteOptions options{.chunk_bytes = 100};
  const std::string bytes = compress_to_archive_bytes(
      input, "dctchop:cf=4,block=8", options);
  ASSERT_GT(probe_archive(bytes).chunk_count, 1u);

  // Header field offsets past the 44 shared bytes (see cli/archive.hpp).
  constexpr std::size_t kPayloadLenOff = 44;
  constexpr std::size_t kChunkBytesOff = 52;
  constexpr std::size_t kChunkCountOff = 60;
  constexpr std::size_t kTableOff = 64;

  const std::uint64_t zero64 = 0;
  EXPECT_EQ(decode_kind(patch_v4_header(bytes, kChunkBytesOff, &zero64, 8)),
            io::CorruptKind::kBadHeaderField);
  const std::uint64_t huge = std::uint64_t{1} << 40;
  EXPECT_EQ(decode_kind(patch_v4_header(bytes, kChunkBytesOff, &huge, 8)),
            io::CorruptKind::kBadHeaderField);
  const std::uint64_t payload_lie = 1;
  EXPECT_EQ(decode_kind(patch_v4_header(bytes, kPayloadLenOff,
                                        &payload_lie, 8)),
            io::CorruptKind::kPayloadMismatch);
  const std::uint32_t count_lie = 1;
  EXPECT_EQ(decode_kind(patch_v4_header(bytes, kChunkCountOff,
                                        &count_lie, 4)),
            io::CorruptKind::kBadHeaderField);
  // Chunk 0 claims a zero-length encoding: structurally impossible.
  EXPECT_EQ(decode_kind(patch_v4_header(bytes, kTableOff, &zero64, 8)),
            io::CorruptKind::kPayloadMismatch);
  // A table bit flip without the CRC fixup trips the header checksum.
  {
    std::string mutant = bytes;
    mutant[16 + kTableOff] ^= 0x01;
    EXPECT_EQ(decode_kind(mutant), io::CorruptKind::kChecksumMismatch);
  }
}

TEST(ParallelPipeline, PerChunkCrcCatchesEncodedRegionFlips) {
  const Tensor input = seed_input(1, 1, 16);
  const ArchiveWriteOptions options{.chunk_bytes = 100};
  const std::string bytes =
      compress_to_archive_bytes(input, "dctchop:cf=4,block=8", options);
  std::uint32_t header_len;
  std::memcpy(&header_len, bytes.data() + 8, sizeof(header_len));
  const std::size_t encoded_begin = 16 + header_len;
  for (const std::size_t offset :
       {encoded_begin, (encoded_begin + bytes.size()) / 2,
        bytes.size() - 1}) {
    std::string mutant = bytes;
    mutant[offset] ^= 0x40;
    EXPECT_EQ(decode_kind(mutant), io::CorruptKind::kChecksumMismatch)
        << "flip at " << offset;
  }
}

TEST(ParallelPipeline, ChunkExpansionBoundRejectsHostileRatios) {
  // A one-byte encoded chunk may legitimately expand to at most
  // 8x + 64 plain bytes; anything beyond is rejected before allocation.
  EXPECT_TRUE(baseline::chunk_expansion_ok(1, 72));
  EXPECT_FALSE(baseline::chunk_expansion_ok(1, 73));
  std::vector<char> out(80);
  try {
    baseline::decode_chunk(std::string_view("\0", 1), 80, out.data());
    FAIL() << "hostile expansion accepted";
  } catch (const io::CorruptStream& error) {
    EXPECT_EQ(error.kind(), io::CorruptKind::kPayloadMismatch);
  }
}

TEST(ParallelPipeline, TruncatedChunkedArchiveIsRejected) {
  const Tensor input = seed_input(1, 1, 16);
  const std::string bytes = compress_to_archive_bytes(
      input, "dctchop:cf=4,block=8", {.chunk_bytes = 100});
  for (const double fraction : {0.3, 0.7, 0.99}) {
    const std::string cut =
        bytes.substr(0, static_cast<std::size_t>(
                            static_cast<double>(bytes.size()) * fraction));
    EXPECT_THROW((void)deserialize_archive(cut), io::CorruptStream)
        << "fraction " << fraction;
  }
}

}  // namespace
}  // namespace aic::cli
