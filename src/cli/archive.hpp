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
/// Every reader decodes out of one byte view of the whole archive (an
/// owned string, a pooled buffer or an io::MappedFile): deserialize_archive
/// and restore_archive share one v4 decode core, which decodes the chunks
/// each request needs in one parallel pass.
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
  /// The pinned codec the header describes: deserialize_archive builds it
  /// once while it checks the header, compress_to_archive sets the one
  /// that compressed. Decompress with it; make_archive_codec builds
  /// another.
  core::CodecPtr codec;
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
/// compression (its counters are the context's registry series).
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

/// The same write over caller memory: `input` is the BCHW shape of the
/// floats at `data`, which need only float alignment. aicomp compress
/// passes the data of a mapped .aict, so plane groups transform straight
/// out of the mapping and no input Tensor exists.
std::size_t compress_to_stream(const float* data, const tensor::Shape& input,
                               const std::string& codec_spec,
                               std::ostream& out,
                               const ArchiveWriteOptions& options = {},
                               core::CodecPtr* codec_out = nullptr,
                               const Context& ctx = Context::process_default());

/// Parses and fully validates an archive stream (magic, version range,
/// CRCs, field ranges, overflow-checked dims, chunk-table consistency
/// and expansion bounds — all before any payload allocation — plus
/// payload/header shape agreement). Throws aic::io::CorruptStream on any
/// violation. The result's `codec` is the pinned codec of the header.
///
/// Takes a non-owning view: the bytes may live in an owned string, a
/// pooled buffer, or an io::MappedFile. The packed tensor is allocated
/// from the header-checked shape, and every v4 chunk CRC-checks and
/// entropy-decodes in one parallel pass on `ctx`'s pool, straight out of
/// the view into the tensor's storage (the chunks holding the tensor
/// header go through a small pooled buffer), so the mapped-file path
/// copies the payload exactly once, never into an intermediate heap
/// string. The lowest failing chunk is the one reported.
Archive deserialize_archive(std::string_view bytes,
                            const Context& ctx = Context::process_default());

/// What restore_archive restored.
struct RestoredArchive {
  core::CodecPtr codec;           // built from the header, pinned
  tensor::Shape original_shape;   // BCHW
  tensor::Shape packed_shape;
};

/// Bounded-memory restore of an archive held whole in `bytes` (an owned
/// string or an io::MappedFile view), with the typed CorruptStream
/// rejections of deserialize_archive. Each plane group's v4 chunks (the
/// first group's with the chunks holding the tensor header) decode in
/// one parallel pass into one recycled packed window, and each complete
/// plane group (about 1 MiB of restored planes) transforms into one of
/// two recycled output buffers, so neither the whole packed tensor nor
/// the whole restored tensor exists. The container, the tensor header,
/// the payload shape and the first group's chunks are validated before
/// the first output byte; `out` then receives the
/// restored tensor in the io::save_tensor format, group by group, each
/// group's write running on `ctx`'s pool while the next group restores
/// (`out` must not be written by anyone else meanwhile). The
/// bytes equal io::serialize_tensor of
/// a.codec->decompress(a.packed, a.original_shape) for
/// a = deserialize_archive(bytes), for every pool size. A null `out`
/// decodes and transforms everything and writes nothing (aicomp verify).
/// A chunk rejected after the first group throws with earlier groups
/// already written; the caller discards that partial output.
RestoredArchive restore_archive(std::string_view bytes, std::ostream* out,
                                const Context& ctx =
                                    Context::process_default());

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
