#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

#include "baseline/chunk_entropy.hpp"
#include "core/codec.hpp"
#include "core/dct_chop.hpp"

namespace aic::cli {

/// Current on-disk archive container version (v4: chunked + checksummed).
inline constexpr std::uint32_t kArchiveVersion = 4;

/// Default fixed chunk budget of the v4 container: 64 KiB splits the
/// 1 MiB single-plane acceptance payload into 16 chunks — enough
/// parallelism for 8 workers with 2x load-balancing slack, while the
/// per-chunk table stays 12 bytes/chunk.
inline constexpr std::size_t kDefaultChunkBytes = 64 * 1024;

/// On-disk compressed-tensor archive written by the aicomp CLI.
///
/// v4 (chunked; the only version written):
///
///   magic "AICZ" | u32 version | u32 header_len | u32 header_crc32c
///   | header fields (header_len bytes, covered by header_crc32c):
///       u8 codec (0=square, 1=triangle, 2=partial) | u8 transform
///       | u16 cf | u16 block | u16 subdivision | u32 rank
///       | u64 dims[rank]
///       | u64 payload_len | u64 chunk_bytes | u32 chunk_count
///       | chunk table: (u64 encoded_len, u32 chunk_crc32c) * chunk_count
///   | encoded chunks, concatenated in order
///
/// The payload (io::serialize_tensor format) is split into fixed
/// `chunk_bytes` slices (ragged tail allowed); each chunk is entropy
/// coded independently (baseline::ChunkEntropy) and CRC'd over its
/// encoded bytes, so chunks encode AND decode in parallel across the
/// thread pool with no cross-chunk state. Chunk boundaries depend only
/// on (payload_len, chunk_bytes) and each chunk's encoding is a pure
/// function of its bytes, so the container is bitwise-identical for
/// every thread count. There is no separate payload CRC: the chunk CRCs
/// jointly cover the payload, and the table itself is covered by the
/// header CRC.
///
/// Every writer emits v4 through one chunk pipeline: payload bytes fill
/// pooled chunk buffers in order, full chunks encode on the session pool
/// while later planes are still transformed, and encoded chunks go to a
/// string or seekable-stream sink in index order before the chunk table
/// and header CRC are back-patched.
///
/// v3 (unchunked; magic | version | header_len | header_crc32c
/// | payload_crc32c | header | payload) and v2 (no CRC block at all) are
/// read-only: nothing writes them any more, but existing archives still
/// decode. Decode rejects corrupt or truncated input of any version with
/// a typed aic::io::CorruptStream before a wrong tensor can be
/// reconstructed.
///
/// The header carries everything needed to rebuild the codec and the
/// original shape, so decompression needs no side information.
struct Archive {
  bool triangle = false;
  /// Partial-serialization factor; 1 means plain (or triangle) chop.
  std::size_t subdivision = 1;
  core::DctChopConfig config;     // height/width filled from dims
  tensor::Shape original_shape;   // BCHW
  tensor::Tensor packed;
};

/// The canonical factory spec string an archive header describes.
std::string archive_codec_spec(const Archive& archive);

/// Builds the codec an archive describes into `ctx`, through
/// core::CodecFactory (plans resolve from ctx's PlanCache; compress /
/// decompress fan out on ctx's pool).
core::CodecPtr make_archive_codec(
    const Archive& archive, const Context& ctx = Context::process_default());

/// Compresses `input` (BCHW) through a factory spec string (any of the
/// dctchop / triangle / partial family — other kinds have no archive
/// representation and throw std::invalid_argument). When `codec_out` is
/// non-null it receives the codec instance that performed the
/// compression (so its CodecStats can be inspected afterwards).
Archive compress_to_archive(const tensor::Tensor& input,
                            const std::string& codec_spec,
                            core::CodecPtr* codec_out = nullptr,
                            const Context& ctx = Context::process_default());

/// Container-write knobs for serialize_archive /
/// compress_to_archive_bytes.
struct ArchiveWriteOptions {
  /// Fixed chunk budget (plain payload bytes per chunk).
  std::size_t chunk_bytes = kDefaultChunkBytes;
  /// Per-chunk entropy coding. kRaw (default) keeps 1-thread encode
  /// cheapest; kAuto picks the smallest of raw/packed/huffman per
  /// chunk (opt-in: it trades encode time for size).
  baseline::ChunkEntropy entropy = baseline::ChunkEntropy::kRaw;

  /// Write knobs seeded from a session's configuration: chunk_bytes from
  /// ctx.chunk_bytes() (0 keeps kDefaultChunkBytes), entropy from
  /// ctx.entropy_mode().
  static ArchiveWriteOptions from_context(const Context& ctx);
};

/// Serializes an already compressed archive: its packed tensor feeds the
/// chunk pipeline, which encodes and CRCs chunks on `ctx`'s pool
/// (bitwise-identical output for every pool size).
std::string serialize_archive(const Archive& archive,
                              const ArchiveWriteOptions& options = {},
                              const Context& ctx = Context::process_default());

/// Compresses and serializes in one pass: planes are transformed in
/// groups of about 1 MiB of input, and each group's packed bytes feed the
/// chunk pipeline, so the chunk encodes of one group overlap the
/// transform of the next on `ctx`'s pool. The bytes equal
/// serialize_archive(compress_to_archive(...)) — the pipeline tests
/// assert it — and do not depend on what other sessions run on a shared
/// pool.
std::string compress_to_archive_bytes(const tensor::Tensor& input,
                                      const std::string& codec_spec,
                                      const ArchiveWriteOptions& options = {},
                                      core::CodecPtr* codec_out = nullptr,
                                      const Context& ctx =
                                          Context::process_default());

/// Allocation-reusing variant: builds the archive into `out` (cleared
/// first), reusing its capacity across calls. A serving loop that holds
/// one output string compresses with no per-call output allocation once
/// the string has grown to the archive size.
void compress_to_archive_bytes(const tensor::Tensor& input,
                               const std::string& codec_spec,
                               const ArchiveWriteOptions& options,
                               core::CodecPtr* codec_out, const Context& ctx,
                               std::string& out);

/// Bounded-memory streaming write: the same pipeline as
/// compress_to_archive_bytes, but encoded chunks are written to `out` as
/// they finish and the chunk table + header CRC are back-patched with
/// seekp, so the resident footprint is one plane group plus the chunks
/// in flight instead of the whole archive. A non-seekable `out` gets the
/// in-memory bytes in one write. The emitted bytes equal
/// compress_to_archive_bytes for every pool size, chunk size, and memory
/// budget. Returns the total bytes written.
std::size_t compress_to_stream(const tensor::Tensor& input,
                               const std::string& codec_spec,
                               std::ostream& out,
                               const ArchiveWriteOptions& options = {},
                               core::CodecPtr* codec_out = nullptr,
                               const Context& ctx = Context::process_default());

/// Bounded-memory streaming read: validates and decodes an archive from
/// `in` with the same typed CorruptStream rejections as
/// deserialize_archive, through the same v4 decode core. Chunks are read
/// in pooled batches of at most 4 MiB and entropy-decoded straight into
/// the result tensor's storage, so the resident footprint is
/// O(header + batch + tensor) — the encoded stream is never held whole.
/// v2/v3 (unchunked) containers are slurped and delegated to the
/// in-memory reader.
Archive decompress_from_stream(std::istream& in,
                               const Context& ctx = Context::process_default());

/// Parses and fully validates an archive stream (magic, version range,
/// CRCs, field ranges, overflow-checked dims, chunk-table consistency
/// and expansion bounds — all before any payload allocation — plus
/// payload/header shape agreement). v4 chunk CRC checks and entropy
/// decode fan out across `ctx`'s pool. Throws aic::io::CorruptStream
/// on any violation.
///
/// Takes a non-owning view: the bytes may live in an owned string, a
/// pooled buffer, or an io::MappedFile — v4 chunks entropy-decode
/// straight out of the view into the result tensor's storage, so the
/// mapped-file path copies the payload exactly once (decode), never into
/// an intermediate heap string.
Archive deserialize_archive(std::string_view bytes,
                            const Context& ctx = Context::process_default());

/// Cheap header-only introspection (no payload decode; CRC on the
/// header is still enforced for v3/v4). chunk_count == 0 means an
/// unchunked (v2/v3) container.
struct ArchiveProbe {
  std::uint32_t version = 0;
  std::size_t payload_len = 0;
  std::size_t chunk_bytes = 0;
  std::size_t chunk_count = 0;
};
ArchiveProbe probe_archive(std::string_view bytes);

/// Writes `archive` to `path` through the chunk pipeline with default
/// write options (no staging string).
void save_archive(const Archive& archive, const std::string& path);
/// Reads `path` through io::MappedFile (mmap with heap fallback) and
/// decodes in place on `ctx`'s pool — no whole-file heap copy on the
/// mmap path.
Archive load_archive(const std::string& path,
                     const Context& ctx = Context::process_default());

}  // namespace aic::cli
