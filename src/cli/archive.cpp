#include "cli/archive.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <fstream>
#include <future>
#include <istream>
#include <limits>
#include <memory>
#include <mutex>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "baseline/chunk_entropy.hpp"
#include "core/codec_factory.hpp"
#include "core/partial_serializer.hpp"
#include "core/triangle.hpp"
#include "io/byte_reader.hpp"
#include "io/checksum.hpp"
#include "io/error.hpp"
#include "io/mapped_file.hpp"
#include "io/tensor_io.hpp"
#include "obs/pipeline.hpp"
#include "obs/trace.hpp"
#include "runtime/buffer_pool.hpp"
#include "runtime/context.hpp"
#include "runtime/parallel_for.hpp"
#include "runtime/thread_pool.hpp"
#include "runtime/timer.hpp"

namespace aic::cli {

using io::CorruptKind;
using io::raise_corrupt;
using tensor::Shape;
using tensor::Tensor;

namespace {

constexpr char kMagic[4] = {'A', 'I', 'C', 'Z'};

// The u8 codec-kind field of the header.
constexpr std::uint8_t kKindSquare = 0;
constexpr std::uint8_t kKindTriangle = 1;
constexpr std::uint8_t kKindPartial = 2;

// Any header dim above this is treated as hostile before the codec's
// shape math (which multiplies dims) ever sees it.
constexpr std::uint64_t kMaxDim = std::uint64_t{1} << 32;

template <typename T>
void append(std::string& out, T value) {
  char raw[sizeof(T)];
  std::memcpy(raw, &value, sizeof(T));
  out.append(raw, sizeof(T));
}

/// The header fields shared by v2 and v3 (everything between the
/// version/CRC block and the payload), as one byte string so v3 can
/// checksum it as a unit.
std::string serialize_header_fields(const Archive& archive) {
  std::string out;
  const std::uint8_t kind = archive.subdivision > 1 ? kKindPartial
                            : archive.triangle     ? kKindTriangle
                                                   : kKindSquare;
  append<std::uint8_t>(out, kind);
  append<std::uint8_t>(out,
                       static_cast<std::uint8_t>(archive.config.transform));
  append<std::uint16_t>(out, static_cast<std::uint16_t>(archive.config.cf));
  append<std::uint16_t>(out,
                        static_cast<std::uint16_t>(archive.config.block));
  append<std::uint16_t>(out,
                        static_cast<std::uint16_t>(archive.subdivision));
  append<std::uint32_t>(
      out, static_cast<std::uint32_t>(archive.original_shape.rank()));
  for (std::size_t axis = 0; axis < archive.original_shape.rank(); ++axis) {
    append<std::uint64_t>(out, archive.original_shape[axis]);
  }
  return out;
}

/// Parses the shared v2/v3 header fields into `archive`, validating
/// every field with a typed diagnostic.
void parse_header_fields(io::ByteReader& reader, Archive& archive) {
  const std::uint8_t kind = reader.read<std::uint8_t>("codec kind");
  if (kind > kKindPartial) {
    raise_corrupt(CorruptKind::kBadHeaderField,
                  "archive: unknown codec kind " + std::to_string(kind) +
                      " (supported: 0=square, 1=triangle, 2=partial)");
  }
  archive.triangle = kind == kKindTriangle;
  const std::uint8_t transform = reader.read<std::uint8_t>("transform");
  if (transform > static_cast<std::uint8_t>(core::TransformKind::kDst2)) {
    raise_corrupt(CorruptKind::kBadHeaderField,
                  "archive: unknown transform " + std::to_string(transform));
  }
  archive.config.transform = static_cast<core::TransformKind>(transform);
  archive.config.cf = reader.read<std::uint16_t>("cf");
  archive.config.block = reader.read<std::uint16_t>("block");
  archive.subdivision = reader.read<std::uint16_t>("subdivision");
  if (archive.subdivision == 0 ||
      (kind == kKindPartial) != (archive.subdivision > 1)) {
    raise_corrupt(CorruptKind::kBadHeaderField,
                  "archive: subdivision " +
                      std::to_string(archive.subdivision) +
                      " is inconsistent with codec kind " +
                      std::to_string(kind));
  }
  const std::uint32_t rank = reader.read<std::uint32_t>("rank");
  if (rank != 4) {
    raise_corrupt(CorruptKind::kBadHeaderField,
                  "archive: original rank " + std::to_string(rank) +
                      " (must be 4, BCHW)");
  }
  std::size_t dims[4];
  std::size_t numel = 1;
  for (auto& d : dims) {
    const std::uint64_t dim = reader.read<std::uint64_t>("dims");
    if (dim > kMaxDim) {
      raise_corrupt(CorruptKind::kBadHeaderField,
                    "archive: dim " + std::to_string(dim) +
                        " is implausibly large");
    }
    d = static_cast<std::size_t>(dim);
    numel = io::checked_mul(numel, d, "archive dims");
  }
  // The original tensor must be representable in bytes before any codec
  // shape math multiplies these dims further.
  (void)io::checked_mul(numel, sizeof(float), "archive original bytes");
  archive.original_shape = Shape::bchw(dims[0], dims[1], dims[2], dims[3]);
  archive.config.height = dims[2];
  archive.config.width = dims[3];
}

std::string codec_spec_impl(const Archive& archive, bool pin_shape) {
  const auto& c = archive.config;
  std::ostringstream spec;
  if (archive.subdivision > 1) {
    spec << "partial:cf=" << c.cf << ",block=" << c.block
         << ",s=" << archive.subdivision;
  } else if (archive.triangle) {
    spec << "triangle:cf=" << c.cf << ",block=" << c.block;
  } else {
    spec << "dctchop:cf=" << c.cf << ",block=" << c.block;
  }
  spec << ",transform=" << core::transform_name(c.transform);
  if (pin_shape && c.height != 0) {
    spec << ",h=" << c.height << ",w=" << c.width;
  }
  return spec.str();
}

/// The compressed shape the header's codec promises, computed
/// allocation-free. The probe codec is deliberately built WITHOUT
/// pinning height/width: a pinned constructor eagerly compiles the plan
/// (operator matrices sized by the header dims), which would let a
/// mutated-but-plausible dim force a multi-gigabyte allocation before
/// any check can reject it. The shape-agnostic constructor validates the
/// same geometry arithmetically; the real pinned codec is only ever
/// built after the payload has vouched for the dims. Factory/shape
/// errors here are data errors (the header is attacker controlled), so
/// they surface as CorruptStream, not invalid_argument.
Shape expected_compressed_shape(const Archive& archive, const Context& ctx) {
  try {
    return core::make_codec(codec_spec_impl(archive, false), ctx)
        ->compressed_shape(archive.original_shape);
  } catch (const io::CorruptStream&) {
    throw;
  } catch (const std::exception& error) {
    raise_corrupt(CorruptKind::kBadHeaderField,
                  std::string("archive: header describes an invalid codec: ") +
                      error.what());
  }
}

/// Rejects a payload tensor whose shape disagrees with what the header's
/// codec promises.
void validate_payload_shape(const Shape& got, const Shape& expected) {
  if (got != expected) {
    raise_corrupt(CorruptKind::kPayloadMismatch,
                  "archive: payload shape " + got.to_string() +
                      " does not match the header codec's expected shape " +
                      expected.to_string());
  }
}

// --- v4 chunked container -------------------------------------------------

/// Any chunk budget above this is treated as hostile (the chunk table
/// and per-chunk staging are sized from it).
constexpr std::uint64_t kMaxChunkBytes = std::uint64_t{1} << 30;

/// Encoded-chunk batch budget of the streaming reader: chunks are
/// staged and decoded in runs of roughly this many encoded bytes, which
/// bounds resident memory while keeping enough chunks per batch to feed
/// the pool.
constexpr std::size_t kStreamBatchBytes = std::size_t{4} << 20;

struct EncodedChunk {
  std::string bytes;
  std::uint32_t crc = 0;
};

EncodedChunk encode_one_chunk(std::string_view plain,
                              baseline::ChunkEntropy entropy) {
  AIC_TRACE_SCOPE("pipeline.chunk_encode");
  runtime::Timer timer;
  EncodedChunk chunk;
  chunk.bytes = baseline::encode_chunk(plain, entropy);
  chunk.crc = io::crc32c(chunk.bytes.data(), chunk.bytes.size());
  obs::PipelineMetrics::global().record_chunk_encoded(timer.nanos());
  return chunk;
}

void require_writable_chunk_bytes(std::size_t chunk_bytes) {
  if (chunk_bytes == 0 || chunk_bytes > kMaxChunkBytes) {
    throw std::invalid_argument(
        "archive: chunk_bytes must be in [1, " +
        std::to_string(kMaxChunkBytes) + "], got " +
        std::to_string(chunk_bytes));
  }
}

/// Assembles the final v4 byte stream into `out` (cleared first) from
/// the shared header fields, the chunk geometry, and the already-encoded
/// chunks (in payload order). Reuses `out`'s capacity across calls.
void assemble_v4_into(const std::string& header_fields,
                      std::uint64_t payload_len, std::uint64_t chunk_bytes,
                      const std::vector<EncodedChunk>& chunks,
                      std::string& out) {
  std::string header = header_fields;
  append<std::uint64_t>(header, payload_len);
  append<std::uint64_t>(header, chunk_bytes);
  append<std::uint32_t>(header, static_cast<std::uint32_t>(chunks.size()));
  std::size_t encoded_total = 0;
  for (const EncodedChunk& chunk : chunks) {
    append<std::uint64_t>(header, chunk.bytes.size());
    append<std::uint32_t>(header, chunk.crc);
    encoded_total += chunk.bytes.size();
  }

  out.clear();
  out.reserve(sizeof(kMagic) + 12 + header.size() + encoded_total);
  out.append(kMagic, sizeof(kMagic));
  append<std::uint32_t>(out, 4);
  append<std::uint32_t>(out, static_cast<std::uint32_t>(header.size()));
  append<std::uint32_t>(out, io::crc32c(header.data(), header.size()));
  out += header;
  for (const EncodedChunk& chunk : chunks) out += chunk.bytes;
}

/// Per-context recycler for the whole-Tensor staging the fused and
/// streaming writers churn through (plane groups and their packed
/// outputs). Tensor owns its storage as a plain vector<float>, so
/// recycling works at whole-tensor granularity: acquire() returns a
/// cached tensor of exactly the requested shape when one exists (the
/// caller reshapes otherwise) and release() caches up to kMaxEntries
/// tensors. Lives in Context::Slot::kArchiveScratch so steady-state
/// compress calls on one session stop allocating plane staging.
class ArchiveScratch {
 public:
  static constexpr std::size_t kMaxEntries = 8;

  Tensor acquire(const Shape& shape) {
    std::lock_guard lock(mutex_);
    for (auto it = cache_.begin(); it != cache_.end(); ++it) {
      if (it->shape() == shape) {
        Tensor out = std::move(*it);
        cache_.erase(it);
        return out;
      }
    }
    return Tensor();
  }

  void release(Tensor&& tensor) {
    if (tensor.size_bytes() == 0) return;
    std::lock_guard lock(mutex_);
    if (cache_.size() < kMaxEntries) cache_.push_back(std::move(tensor));
  }

 private:
  std::mutex mutex_;
  std::vector<Tensor> cache_;
};

std::shared_ptr<ArchiveScratch> archive_scratch(const Context& ctx) {
  return std::static_pointer_cast<ArchiveScratch>(
      ctx.slot(Context::Slot::kArchiveScratch,
               [] { return std::make_shared<ArchiveScratch>(); }));
}

/// Parsed + fully validated v4 geometry: everything deserialize needs
/// before any payload byte is touched. Shared by the in-memory and
/// streaming readers so both enforce the identical validation order.
struct ChunkEntry {
  std::uint64_t offset = 0;  // into the encoded region
  std::uint64_t encoded_len = 0;
  std::uint32_t crc = 0;
};

struct V4Layout {
  Archive archive;  // packed left empty until the payload decodes
  Shape expected_shape;
  std::uint64_t payload_len = 0;
  std::uint64_t chunk_bytes = 0;
  std::uint32_t chunk_count = 0;
  std::vector<ChunkEntry> table;
  std::uint64_t encoded_total = 0;
};

/// Validates a v4 header (CRC gate, field ranges, payload/codec
/// agreement, chunk-table consistency and expansion bounds) BEFORE the
/// payload buffer is allocated, so hostile headers cannot force a large
/// allocation or a quadratic scan.
V4Layout parse_v4_layout(std::string_view header, std::uint32_t header_crc,
                         const Context& ctx) {
  const std::uint32_t computed_header =
      io::crc32c(header.data(), header.size());
  if (computed_header != header_crc) {
    raise_corrupt(CorruptKind::kChecksumMismatch,
                  "archive: header CRC mismatch (stored " +
                      std::to_string(header_crc) + ", computed " +
                      std::to_string(computed_header) + ")");
  }

  V4Layout layout;
  io::ByteReader header_reader(header, "archive header");
  parse_header_fields(header_reader, layout.archive);
  layout.payload_len = header_reader.read<std::uint64_t>("payload length");
  layout.chunk_bytes = header_reader.read<std::uint64_t>("chunk size");
  layout.chunk_count = header_reader.read<std::uint32_t>("chunk count");

  // The payload length is fully determined by the (CRC-gated) codec
  // fields, so it is checked against them rather than trusted.
  layout.expected_shape = expected_compressed_shape(layout.archive, ctx);
  const std::size_t expected_payload =
      io::serialized_tensor_bytes(layout.expected_shape);
  if (layout.payload_len != expected_payload) {
    raise_corrupt(CorruptKind::kPayloadMismatch,
                  "archive: header claims " +
                      std::to_string(layout.payload_len) +
                      " payload bytes, codec promises " +
                      std::to_string(expected_payload));
  }
  if (layout.chunk_bytes == 0 || layout.chunk_bytes > kMaxChunkBytes) {
    raise_corrupt(CorruptKind::kBadHeaderField,
                  "archive: chunk size " + std::to_string(layout.chunk_bytes) +
                      " outside [1, " + std::to_string(kMaxChunkBytes) + "]");
  }
  const std::uint64_t expected_chunks =
      (layout.payload_len + layout.chunk_bytes - 1) / layout.chunk_bytes;
  if (layout.chunk_count != expected_chunks) {
    raise_corrupt(CorruptKind::kBadHeaderField,
                  "archive: chunk count " + std::to_string(layout.chunk_count) +
                      " does not cover the payload (expected " +
                      std::to_string(expected_chunks) + ")");
  }

  layout.table.resize(layout.chunk_count);
  for (std::uint32_t i = 0; i < layout.chunk_count; ++i) {
    ChunkEntry& entry = layout.table[i];
    entry.offset = layout.encoded_total;
    entry.encoded_len = header_reader.read<std::uint64_t>("chunk length");
    entry.crc = header_reader.read<std::uint32_t>("chunk CRC");
    const std::uint64_t plain_len = std::min<std::uint64_t>(
        layout.chunk_bytes, layout.payload_len - i * layout.chunk_bytes);
    // encoded_len includes the 1-byte mode tag; the expansion bound caps
    // how much plain data an encoded chunk may legitimately claim.
    if (entry.encoded_len == 0 ||
        !baseline::chunk_expansion_ok(entry.encoded_len - 1, plain_len)) {
      raise_corrupt(CorruptKind::kPayloadMismatch,
                    "archive: chunk " + std::to_string(i) +
                        " encoded length " + std::to_string(entry.encoded_len) +
                        " cannot decode to " + std::to_string(plain_len) +
                        " bytes");
    }
    if (entry.encoded_len >
        std::numeric_limits<std::uint64_t>::max() - layout.encoded_total) {
      raise_corrupt(CorruptKind::kOverflow,
                    "archive: chunk table lengths overflow");
    }
    layout.encoded_total += entry.encoded_len;
  }
  if (header_reader.remaining() != 0) {
    raise_corrupt(CorruptKind::kBadHeaderField,
                  "archive: " + std::to_string(header_reader.remaining()) +
                      " trailing bytes after the chunk table");
  }
  return layout;
}

/// CRC-checks and entropy-decodes chunk `i` into `dest` (which must hold
/// the chunk's plain_len bytes).
void decode_one_chunk(const V4Layout& layout, std::size_t i,
                      std::string_view chunk, char* dest) {
  AIC_TRACE_SCOPE("pipeline.chunk_decode");
  runtime::Timer timer;
  const std::uint32_t computed = io::crc32c(chunk.data(), chunk.size());
  if (computed != layout.table[i].crc) {
    raise_corrupt(CorruptKind::kChecksumMismatch,
                  "archive: chunk " + std::to_string(i) +
                      " CRC mismatch (stored " +
                      std::to_string(layout.table[i].crc) + ", computed " +
                      std::to_string(computed) + ")");
  }
  const std::size_t lo = i * layout.chunk_bytes;
  const std::size_t plain_len =
      std::min<std::size_t>(layout.chunk_bytes, layout.payload_len - lo);
  baseline::decode_chunk(chunk, plain_len, dest);
  obs::PipelineMetrics::global().record_chunk_decoded(timer.nanos());
}

/// Number of leading chunks that jointly cover the serialized tensor
/// header — the prefix a reader must decode before the result tensor
/// can be shaped and the remaining chunks can land in its storage.
std::size_t prefix_chunk_count(const V4Layout& layout) {
  const std::size_t prefix_len = std::min<std::size_t>(
      layout.payload_len, io::max_tensor_header_bytes());
  return (prefix_len + layout.chunk_bytes - 1) / layout.chunk_bytes;
}

/// Parses + validates the tensor header at the front of the decoded
/// payload prefix, then returns the result tensor with the prefix's
/// float bytes already copied in. Preserves the rejection order of the
/// historical payload-string path: tensor_io's typed errors first, then
/// the archive-level shape agreement check.
Tensor tensor_from_prefix(const V4Layout& layout, std::string_view prefix,
                          std::size_t* header_bytes_out) {
  const io::TensorHeaderInfo info =
      io::parse_tensor_header(prefix, layout.payload_len);
  validate_payload_shape(info.shape, layout.expected_shape);
  Tensor packed(info.shape);
  std::memcpy(packed.raw(), prefix.data() + info.header_bytes,
              prefix.size() - info.header_bytes);
  *header_bytes_out = info.header_bytes;
  return packed;
}

/// Decodes a validated chunk stream straight into the result tensor's
/// storage. The leading chunks covering the serialized tensor header go
/// serially through a small pooled bounce buffer (the header must be
/// parsed before the tensor exists); every remaining chunk then
/// CRC-checks and entropy-decodes in parallel directly into the float
/// storage — the payload never materializes as a separate heap string.
Archive decode_v4_payload(V4Layout&& layout, std::string_view encoded,
                          const Context& ctx) {
  AIC_TRACE_SCOPE("pipeline.deserialize_v4");
  Context::PoolScope pool_scope(ctx);
  const std::size_t chunk_bytes = layout.chunk_bytes;
  const std::size_t prefix_chunks = prefix_chunk_count(layout);
  const std::size_t bounce_len = std::min<std::size_t>(
      layout.payload_len, prefix_chunks * chunk_bytes);

  runtime::BufferPool::Buffer bounce = ctx.buffer_pool().acquire(bounce_len);
  for (std::size_t i = 0; i < prefix_chunks; ++i) {
    const ChunkEntry& entry = layout.table[i];
    decode_one_chunk(layout, i,
                     encoded.substr(entry.offset, entry.encoded_len),
                     bounce.data() + i * chunk_bytes);
  }
  std::size_t header_bytes = 0;
  Tensor packed = tensor_from_prefix(
      layout, std::string_view(bounce.data(), bounce_len), &header_bytes);
  bounce.reset();

  char* tensor_bytes = reinterpret_cast<char*>(packed.raw());
  runtime::parallel_for(
      prefix_chunks, layout.chunk_count,
      [&](std::size_t i) {
        const ChunkEntry& entry = layout.table[i];
        decode_one_chunk(layout, i,
                         encoded.substr(entry.offset, entry.encoded_len),
                         tensor_bytes + (i * chunk_bytes - header_bytes));
      },
      {.grain = 1});
  obs::PipelineMetrics::global().record_archive_layout(chunk_bytes,
                                                       layout.chunk_count);
  layout.archive.packed = std::move(packed);
  return std::move(layout.archive);
}

/// Parses everything after the version field of a v4 stream. Every
/// header-derived quantity is validated BEFORE any payload-sized
/// allocation (parse_v4_layout); chunk CRC checks and entropy decode
/// then fan out across the pool into disjoint slices of the result
/// tensor (decode_v4_payload).
Archive deserialize_archive_v4(io::ByteReader& reader, const Context& ctx) {
  const std::uint32_t header_len = reader.read<std::uint32_t>("header size");
  const std::uint32_t header_crc = reader.read<std::uint32_t>("header CRC");
  const std::string_view header =
      reader.read_bytes(header_len, "header fields");
  V4Layout layout = parse_v4_layout(header, header_crc, ctx);
  const std::string_view encoded = reader.rest();
  if (encoded.size() != layout.encoded_total) {
    raise_corrupt(CorruptKind::kTruncated,
                  "archive: chunk table promises " +
                      std::to_string(layout.encoded_total) +
                      " encoded bytes, stream has " +
                      std::to_string(encoded.size()));
  }
  return decode_v4_payload(std::move(layout), encoded, ctx);
}

/// Unfused v4 write: chunk the serialized payload and fan the entropy
/// encode + CRC over the pool. grain=1 because each iteration is a whole
/// chunk (tens of KiB) — the parallel_for heuristics handle small chunk
/// counts without oversubscribing. The payload stages in a pooled
/// buffer, so steady-state calls on one session reuse the same slab.
std::string serialize_archive_v4(const Archive& archive,
                                 const ArchiveWriteOptions& options,
                                 const Context& ctx) {
  AIC_TRACE_SCOPE("pipeline.serialize_v4");
  require_writable_chunk_bytes(options.chunk_bytes);
  const std::string header_fields = serialize_header_fields(archive);
  const std::string tensor_header =
      io::serialize_tensor_header(archive.packed.shape());
  const std::size_t payload_len =
      tensor_header.size() + archive.packed.size_bytes();
  runtime::BufferPool::Buffer payload = ctx.buffer_pool().acquire(payload_len);
  std::memcpy(payload.data(), tensor_header.data(), tensor_header.size());
  std::memcpy(payload.data() + tensor_header.size(), archive.packed.raw(),
              archive.packed.size_bytes());
  const std::size_t chunk_bytes = options.chunk_bytes;
  const std::size_t chunk_count = (payload_len + chunk_bytes - 1) / chunk_bytes;

  // Route the fan-out onto this session's pool.
  Context::PoolScope pool_scope(ctx);
  std::vector<EncodedChunk> chunks(chunk_count);
  runtime::parallel_for(
      0, chunk_count,
      [&](std::size_t i) {
        const std::size_t lo = i * chunk_bytes;
        const std::size_t hi = std::min(payload_len, lo + chunk_bytes);
        chunks[i] = encode_one_chunk(
            std::string_view(payload.data() + lo, hi - lo), options.entropy);
      },
      {.grain = 1});
  obs::PipelineMetrics::global().record_archive_layout(chunk_bytes,
                                                       chunk_count);
  std::string out;
  assemble_v4_into(header_fields, payload_len, chunk_bytes, chunks, out);
  return out;
}

/// Fills every Archive field except `packed` from the codec the factory
/// built for `codec_spec`. The archive header only represents the chop
/// family; recover the parameters from the concrete codec instance.
Archive classify_codec(const core::Codec& codec, const std::string& codec_spec,
                       const Shape& input_shape) {
  Archive archive;
  archive.original_shape = input_shape;
  if (const auto* dc = dynamic_cast<const core::DctChopCodec*>(&codec)) {
    archive.config = dc->config();
  } else if (const auto* sg =
                 dynamic_cast<const core::TriangleCodec*>(&codec)) {
    archive.triangle = true;
    archive.config = sg->config();
  } else if (const auto* ps =
                 dynamic_cast<const core::PartialSerialCodec*>(&codec)) {
    archive.subdivision = ps->config().subdivision;
    archive.config = {.height = ps->config().height,
                      .width = ps->config().width,
                      .cf = ps->config().cf,
                      .block = ps->config().block,
                      .transform = ps->config().transform};
  } else {
    throw std::invalid_argument("archive: codec \"" + codec_spec +
                                "\" has no archive representation (use the "
                                "dctchop / triangle / partial family)");
  }
  // Shape-agnostic specs leave height/width zero; the header pins them
  // to the tensor that is actually being compressed.
  archive.config.height = input_shape[2];
  archive.config.width = input_shape[3];
  return archive;
}

/// The fused/streaming writers splice per-plane(-group) packed bytes
/// into the payload at the offsets a full-tensor compress would use.
/// That is only sound when the codec treats planes independently; the
/// chop family does, and this predicate guards the assumption against
/// future codec kinds.
bool plane_separable_codec(const core::Codec& codec, const Shape& input_shape,
                           const Shape& packed_shape) {
  const std::size_t planes = input_shape[0] * input_shape[1];
  return planes > 1 && packed_shape.rank() == 4 &&
         packed_shape[0] == input_shape[0] &&
         packed_shape[1] == input_shape[1] &&
         codec.compressed_shape(
             Shape::bchw(1, 1, input_shape[2], input_shape[3])) ==
             Shape::bchw(1, 1, packed_shape[2], packed_shape[3]);
}

void write_or_throw(std::ostream& out, const char* data, std::size_t len) {
  out.write(data, static_cast<std::streamsize>(len));
  if (!out) throw std::runtime_error("archive: stream write failed");
}

}  // namespace

std::string archive_codec_spec(const Archive& archive) {
  return codec_spec_impl(archive, true);
}

core::CodecPtr make_archive_codec(const Archive& archive,
                                  const Context& ctx) {
  return core::make_codec(archive_codec_spec(archive), ctx);
}

ArchiveWriteOptions ArchiveWriteOptions::from_context(const Context& ctx) {
  ArchiveWriteOptions options;
  options.version = ctx.archive_version();
  if (ctx.chunk_bytes() != 0) options.chunk_bytes = ctx.chunk_bytes();
  options.entropy = static_cast<baseline::ChunkEntropy>(ctx.entropy_mode());
  return options;
}

Archive compress_to_archive(const Tensor& input, const std::string& codec_spec,
                            core::CodecPtr* codec_out, const Context& ctx) {
  if (input.shape().rank() != 4) {
    throw std::invalid_argument("archive: input must be BCHW");
  }
  const core::CodecPtr codec = core::make_codec(codec_spec, ctx);
  Archive archive = classify_codec(*codec, codec_spec, input.shape());
  archive.packed = codec->compress(input);
  if (codec_out != nullptr) *codec_out = codec;
  return archive;
}

Archive compress_to_archive(const Tensor& input, std::size_t cf,
                            std::size_t block,
                            core::TransformKind transform, bool triangle,
                            core::CodecPtr* codec_out, const Context& ctx) {
  std::ostringstream spec;
  spec << (triangle ? "triangle" : "dctchop") << ":cf=" << cf
       << ",block=" << block
       << ",transform=" << core::transform_name(transform);
  return compress_to_archive(input, spec.str(), codec_out, ctx);
}

std::string serialize_archive(const Archive& archive,
                              std::uint32_t version, const Context& ctx) {
  ArchiveWriteOptions options;
  options.version = version;
  return serialize_archive(archive, options, ctx);
}

std::string serialize_archive(const Archive& archive,
                              const ArchiveWriteOptions& options,
                              const Context& ctx) {
  const std::uint32_t version = options.version;
  if (version < 2 || version > kArchiveVersion) {
    throw std::invalid_argument("archive: cannot write version " +
                                std::to_string(version));
  }
  if (version == 4) return serialize_archive_v4(archive, options, ctx);
  const std::string header = serialize_header_fields(archive);
  const std::string payload = io::serialize_tensor(archive.packed);

  std::string out;
  out.reserve(sizeof(kMagic) + 16 + header.size() + payload.size());
  out.append(kMagic, sizeof(kMagic));
  append<std::uint32_t>(out, version);
  if (version >= 3) {
    // v3 integrity block: header length + independent CRC32C over the
    // header fields and the payload, so any flipped bit anywhere in the
    // stream is caught before (or instead of) deeper parsing.
    append<std::uint32_t>(out, static_cast<std::uint32_t>(header.size()));
    append<std::uint32_t>(out, io::crc32c(header.data(), header.size()));
    append<std::uint32_t>(out, io::crc32c(payload.data(), payload.size()));
  }
  out += header;
  out += payload;
  return out;
}

void compress_to_archive_bytes(const Tensor& input,
                               const std::string& codec_spec,
                               const ArchiveWriteOptions& options,
                               core::CodecPtr* codec_out, const Context& ctx,
                               std::string& out) {
  if (input.shape().rank() != 4) {
    throw std::invalid_argument("archive: input must be BCHW");
  }
  if (options.version != 4) {
    Archive archive = compress_to_archive(input, codec_spec, codec_out, ctx);
    out = serialize_archive(archive, options, ctx);
    return;
  }
  require_writable_chunk_bytes(options.chunk_bytes);

  AIC_TRACE_SCOPE("pipeline.fused_compress");
  runtime::Timer wall_timer;
  const core::CodecPtr codec = core::make_codec(codec_spec, ctx);
  Archive archive = classify_codec(*codec, codec_spec, input.shape());
  if (codec_out != nullptr) *codec_out = codec;

  const Shape packed_shape = codec->compressed_shape(input.shape());
  const std::size_t planes = input.shape()[0] * input.shape()[1];
  const bool plane_separable =
      plane_separable_codec(*codec, input.shape(), packed_shape);

  const std::string tensor_header = io::serialize_tensor_header(packed_shape);
  const std::size_t payload_len = io::serialized_tensor_bytes(packed_shape);
  const std::size_t chunk_bytes = options.chunk_bytes;
  const std::size_t chunk_count = (payload_len + chunk_bytes - 1) / chunk_bytes;

  runtime::BufferPool::Buffer payload = ctx.buffer_pool().acquire(payload_len);
  std::memcpy(payload.data(), tensor_header.data(), tensor_header.size());

  // Durable handle for the submit loop (pins the pool against a
  // concurrent Context::set_process_threads); the PoolScope routes the
  // codec's internal parallel_for fan-out onto the same session pool.
  const std::shared_ptr<runtime::ThreadPool> pool_handle = ctx.pool_handle();
  runtime::ThreadPool& pool = *pool_handle;
  Context::PoolScope pool_scope(ctx);
  const std::shared_ptr<ArchiveScratch> scratch = archive_scratch(ctx);
  std::vector<std::future<EncodedChunk>> futures(chunk_count);
  std::size_t next_chunk = 0;
  std::atomic<std::uint64_t> encode_ns{0};
  // Submits every chunk fully covered by the first `high_water` payload
  // bytes. Encode tasks enter the FIFO queue ahead of the next group's
  // transform tasks, so both kinds of work stay in flight with no phase
  // barrier; collecting the futures in index order keeps the output
  // byte-identical for every pool size.
  const auto submit_ready = [&](std::size_t high_water) {
    while (next_chunk < chunk_count) {
      const std::size_t lo = next_chunk * chunk_bytes;
      const std::size_t hi = std::min(payload_len, lo + chunk_bytes);
      if (hi > high_water) break;
      futures[next_chunk] = pool.submit([&, lo, hi] {
        runtime::Timer timer;
        EncodedChunk chunk = encode_one_chunk(
            std::string_view(payload.data() + lo, hi - lo), options.entropy);
        encode_ns.fetch_add(timer.nanos(), std::memory_order_relaxed);
        return chunk;
      });
      ++next_chunk;
    }
  };

  std::uint64_t transform_ns = 0;
  if (plane_separable) {
    const std::size_t in_plane_bytes =
        input.shape()[2] * input.shape()[3] * sizeof(float);
    const std::size_t packed_plane_bytes =
        packed_shape[2] * packed_shape[3] * sizeof(float);
    const std::size_t group_count = std::min<std::size_t>(planes, 4);
    const std::size_t group_planes = (planes + group_count - 1) / group_count;
    const Shape full_group_shape =
        Shape::bchw(1, group_planes, input.shape()[2], input.shape()[3]);
    Tensor group = scratch->acquire(full_group_shape);
    Tensor packed_group =
        scratch->acquire(codec->compressed_shape(full_group_shape));
    for (std::size_t p0 = 0; p0 < planes; p0 += group_planes) {
      const std::size_t g = std::min(group_planes, planes - p0);
      const Shape group_shape =
          Shape::bchw(1, g, input.shape()[2], input.shape()[3]);
      runtime::Timer timer;
      if (group.shape() != group_shape) {
        scratch->release(std::move(group));
        group = Tensor(group_shape);
      }
      std::memcpy(group.raw(),
                  reinterpret_cast<const char*>(input.raw()) +
                      p0 * in_plane_bytes,
                  g * in_plane_bytes);
      codec->compress_into(group, packed_group);
      std::memcpy(payload.data() + tensor_header.size() +
                      p0 * packed_plane_bytes,
                  packed_group.raw(), g * packed_plane_bytes);
      transform_ns += timer.nanos();
      submit_ready(tensor_header.size() + (p0 + g) * packed_plane_bytes);
    }
    scratch->release(std::move(group));
    scratch->release(std::move(packed_group));
  } else {
    // Single plane (or a non-separable codec): the transform itself is
    // already parallel via sandwich_banded, and the chunk encode fans
    // out right after — the two stages just don't interleave.
    runtime::Timer timer;
    Tensor packed = scratch->acquire(packed_shape);
    codec->compress_into(input, packed);
    std::memcpy(payload.data() + tensor_header.size(), packed.raw(),
                packed.size_bytes());
    scratch->release(std::move(packed));
    transform_ns = timer.nanos();
  }
  submit_ready(payload_len);

  std::vector<EncodedChunk> chunks(chunk_count);
  for (std::size_t i = 0; i < chunk_count; ++i) chunks[i] = futures[i].get();

  obs::PipelineMetrics::global().record_archive_layout(chunk_bytes,
                                                       chunk_count);
  obs::PipelineMetrics::global().record_overlap(
      transform_ns, encode_ns.load(std::memory_order_relaxed),
      wall_timer.nanos());
  assemble_v4_into(serialize_header_fields(archive), payload_len, chunk_bytes,
                   chunks, out);
}

std::string compress_to_archive_bytes(const Tensor& input,
                                      const std::string& codec_spec,
                                      const ArchiveWriteOptions& options,
                                      core::CodecPtr* codec_out,
                                      const Context& ctx) {
  std::string out;
  compress_to_archive_bytes(input, codec_spec, options, codec_out, ctx, out);
  return out;
}

std::size_t compress_to_stream(const Tensor& input,
                               const std::string& codec_spec,
                               std::ostream& out,
                               const ArchiveWriteOptions& options,
                               core::CodecPtr* codec_out, const Context& ctx) {
  if (input.shape().rank() != 4) {
    throw std::invalid_argument("archive: input must be BCHW");
  }
  const std::ostream::pos_type start = out.tellp();
  if (options.version != 4 || start == std::ostream::pos_type(-1)) {
    // v2/v3 have no chunk table to patch, and a non-seekable sink cannot
    // be back-patched at all: buffer in memory and write once.
    const std::string bytes =
        compress_to_archive_bytes(input, codec_spec, options, codec_out, ctx);
    write_or_throw(out, bytes.data(), bytes.size());
    out.flush();
    if (!out) throw std::runtime_error("archive: stream write failed");
    return bytes.size();
  }
  require_writable_chunk_bytes(options.chunk_bytes);

  AIC_TRACE_SCOPE("pipeline.stream_compress");
  runtime::Timer wall_timer;
  const core::CodecPtr codec = core::make_codec(codec_spec, ctx);
  Archive archive = classify_codec(*codec, codec_spec, input.shape());
  if (codec_out != nullptr) *codec_out = codec;

  const Shape packed_shape = codec->compressed_shape(input.shape());
  const std::size_t planes = input.shape()[0] * input.shape()[1];
  const bool plane_separable =
      plane_separable_codec(*codec, input.shape(), packed_shape);
  const std::string tensor_header = io::serialize_tensor_header(packed_shape);
  const std::size_t payload_len = io::serialized_tensor_bytes(packed_shape);
  const std::size_t chunk_bytes = options.chunk_bytes;
  const std::size_t chunk_count = (payload_len + chunk_bytes - 1) / chunk_bytes;
  const std::string header_fields = serialize_header_fields(archive);
  const std::size_t header_len = header_fields.size() + 20 + 12 * chunk_count;

  {
    // Prologue with a zero header CRC and a zeroed chunk table, both
    // back-patched once every chunk's (length, CRC) is known.
    std::string prologue;
    prologue.reserve(16 + header_len);
    prologue.append(kMagic, sizeof(kMagic));
    append<std::uint32_t>(prologue, 4);
    append<std::uint32_t>(prologue, static_cast<std::uint32_t>(header_len));
    append<std::uint32_t>(prologue, 0);
    prologue += header_fields;
    append<std::uint64_t>(prologue, payload_len);
    append<std::uint64_t>(prologue, chunk_bytes);
    append<std::uint32_t>(prologue, static_cast<std::uint32_t>(chunk_count));
    prologue.append(12 * chunk_count, '\0');
    write_or_throw(out, prologue.data(), prologue.size());
  }

  const std::shared_ptr<runtime::ThreadPool> pool_handle = ctx.pool_handle();
  runtime::ThreadPool& pool = *pool_handle;
  Context::PoolScope pool_scope(ctx);
  const std::shared_ptr<ArchiveScratch> scratch = archive_scratch(ctx);

  std::vector<ChunkEntry> table(chunk_count);
  std::uint64_t encoded_total = 0;
  std::size_t next_chunk = 0;
  std::uint64_t transform_ns = 0;
  std::atomic<std::uint64_t> encode_ns{0};

  // Encodes every chunk fully covered by payload bytes [0, high_water)
  // across the pool, then writes them to the sink in index order. All
  // futures drain before return, so the caller may slide its window.
  const auto drain_ready = [&](const char* window, std::size_t window_base,
                               std::size_t high_water) {
    std::vector<std::future<EncodedChunk>> batch;
    const std::size_t first = next_chunk;
    while (next_chunk < chunk_count) {
      const std::size_t lo = next_chunk * chunk_bytes;
      const std::size_t hi = std::min(payload_len, lo + chunk_bytes);
      if (hi > high_water) break;
      batch.push_back(pool.submit([&, window, window_base, lo, hi] {
        runtime::Timer timer;
        EncodedChunk chunk = encode_one_chunk(
            std::string_view(window + (lo - window_base), hi - lo),
            options.entropy);
        encode_ns.fetch_add(timer.nanos(), std::memory_order_relaxed);
        return chunk;
      }));
      ++next_chunk;
    }
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const EncodedChunk chunk = batch[i].get();
      table[first + i].encoded_len = chunk.bytes.size();
      table[first + i].crc = chunk.crc;
      encoded_total += chunk.bytes.size();
      write_or_throw(out, chunk.bytes.data(), chunk.bytes.size());
    }
  };

  if (plane_separable) {
    const std::size_t in_plane_bytes =
        input.shape()[2] * input.shape()[3] * sizeof(float);
    const std::size_t packed_plane_bytes =
        packed_shape[2] * packed_shape[3] * sizeof(float);
    const Shape plane_shape =
        Shape::bchw(1, 1, input.shape()[2], input.shape()[3]);
    // Worst-case window: a carry of less than one chunk, plus one
    // plane's packed bytes, plus the tensor header ahead of plane 0.
    runtime::BufferPool::Buffer window = ctx.buffer_pool().acquire(
        chunk_bytes + packed_plane_bytes + tensor_header.size());
    Tensor plane = scratch->acquire(plane_shape);
    if (plane.shape() != plane_shape) plane = Tensor(plane_shape);
    Tensor packed_plane =
        scratch->acquire(codec->compressed_shape(plane_shape));
    std::size_t window_base = 0;
    std::size_t produced = tensor_header.size();
    std::memcpy(window.data(), tensor_header.data(), tensor_header.size());
    for (std::size_t p = 0; p < planes; ++p) {
      runtime::Timer timer;
      std::memcpy(plane.raw(),
                  reinterpret_cast<const char*>(input.raw()) +
                      p * in_plane_bytes,
                  in_plane_bytes);
      codec->compress_into(plane, packed_plane);
      std::memcpy(window.data() + (produced - window_base),
                  packed_plane.raw(), packed_plane_bytes);
      transform_ns += timer.nanos();
      produced += packed_plane_bytes;
      drain_ready(window.data(), window_base, produced);
      const std::size_t drained_end =
          std::min(next_chunk * chunk_bytes, produced);
      if (drained_end > window_base) {
        std::memmove(window.data(),
                     window.data() + (drained_end - window_base),
                     produced - drained_end);
        window_base = drained_end;
      }
    }
    drain_ready(window.data(), window_base, produced);  // ragged tail
    scratch->release(std::move(plane));
    scratch->release(std::move(packed_plane));
  } else {
    // Single plane or a non-separable codec: the transform needs the
    // whole tensor anyway, so stage the payload once (pooled) and stream
    // the encoded chunks — the archive string never materializes.
    runtime::BufferPool::Buffer payload =
        ctx.buffer_pool().acquire(payload_len);
    std::memcpy(payload.data(), tensor_header.data(), tensor_header.size());
    runtime::Timer timer;
    Tensor packed = scratch->acquire(packed_shape);
    codec->compress_into(input, packed);
    std::memcpy(payload.data() + tensor_header.size(), packed.raw(),
                packed.size_bytes());
    scratch->release(std::move(packed));
    transform_ns = timer.nanos();
    drain_ready(payload.data(), 0, payload_len);
  }

  // Back-patch the real header CRC and chunk table.
  std::string header = header_fields;
  append<std::uint64_t>(header, payload_len);
  append<std::uint64_t>(header, chunk_bytes);
  append<std::uint32_t>(header, static_cast<std::uint32_t>(chunk_count));
  for (const ChunkEntry& entry : table) {
    append<std::uint64_t>(header, entry.encoded_len);
    append<std::uint32_t>(header, entry.crc);
  }
  const std::uint32_t header_crc = io::crc32c(header.data(), header.size());
  const std::ostream::pos_type end = out.tellp();
  out.seekp(start + std::ostream::off_type(12));
  char crc_raw[sizeof(header_crc)];
  std::memcpy(crc_raw, &header_crc, sizeof(header_crc));
  write_or_throw(out, crc_raw, sizeof(crc_raw));
  out.seekp(start +
            static_cast<std::ostream::off_type>(16 + header_fields.size() +
                                                20));
  write_or_throw(out, header.data() + header_fields.size() + 20,
                 12 * chunk_count);
  out.seekp(end);
  out.flush();
  if (!out) throw std::runtime_error("archive: stream write failed");
  obs::PipelineMetrics::global().record_archive_layout(chunk_bytes,
                                                       chunk_count);
  obs::PipelineMetrics::global().record_overlap(
      transform_ns, encode_ns.load(std::memory_order_relaxed),
      wall_timer.nanos());
  return 16 + header_len + static_cast<std::size_t>(encoded_total);
}

Archive decompress_from_stream(std::istream& in, const Context& ctx) {
  // Mirror deserialize_archive's validation order (and its typed
  // rejections) while holding only O(header + batch + tensor) memory.
  char prologue[16];
  in.read(prologue, sizeof(prologue));
  const std::size_t got = static_cast<std::size_t>(in.gcount());
  std::uint32_t version = 0;
  std::uint32_t header_len = 0;
  std::uint32_t header_crc = 0;
  {
    io::ByteReader reader(std::string_view(prologue, got), "archive");
    reader.require(sizeof(kMagic), "magic");
    if (std::memcmp(prologue, kMagic, sizeof(kMagic)) != 0) {
      raise_corrupt(CorruptKind::kBadMagic, "archive: bad magic");
    }
    (void)reader.read_bytes(sizeof(kMagic), "magic");
    version = reader.read<std::uint32_t>("version");
    if (version < 2 || version > kArchiveVersion) {
      raise_corrupt(CorruptKind::kBadVersion,
                    "archive: found version " + std::to_string(version) +
                        ", supported versions 2.." +
                        std::to_string(kArchiveVersion));
    }
    if (version == 4) {
      header_len = reader.read<std::uint32_t>("header size");
      header_crc = reader.read<std::uint32_t>("header CRC");
    }
  }
  if (version != 4) {
    // v2/v3 are unchunked — there is no streamable structure. Reassemble
    // the full byte string and delegate to the in-memory reader.
    std::string bytes(prologue, got);
    bytes.append(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
    return deserialize_archive(bytes, ctx);
  }

  // Incremental header read: memory stays proportional to the bytes the
  // stream actually holds, so a hostile length cannot force a giant
  // allocation.
  std::string header;
  header.reserve(std::min<std::size_t>(header_len, kStreamBatchBytes));
  {
    runtime::BufferPool::Buffer stage = ctx.buffer_pool().acquire(
        std::min<std::size_t>(header_len, kStreamBatchBytes));
    std::size_t remaining = header_len;
    while (remaining > 0) {
      const std::size_t step = std::min(remaining, stage.capacity());
      in.read(stage.data(), static_cast<std::streamsize>(step));
      const std::size_t n = static_cast<std::size_t>(in.gcount());
      if (n == 0) break;
      header.append(stage.data(), n);
      remaining -= n;
    }
  }
  if (header.size() != header_len) {
    raise_corrupt(CorruptKind::kTruncated,
                  "archive: truncated reading header fields (need " +
                      std::to_string(header_len) + " bytes, have " +
                      std::to_string(header.size()) + ")");
  }
  V4Layout layout = parse_v4_layout(header, header_crc, ctx);

  AIC_TRACE_SCOPE("pipeline.stream_decompress");
  Context::PoolScope pool_scope(ctx);
  const std::size_t chunk_bytes = layout.chunk_bytes;
  const std::size_t chunk_count = layout.chunk_count;
  const std::size_t prefix_chunks = prefix_chunk_count(layout);
  const std::size_t bounce_len = std::min<std::size_t>(
      layout.payload_len, prefix_chunks * chunk_bytes);

  std::uint64_t consumed = 0;
  const auto read_encoded = [&](char* dest, std::size_t len) {
    in.read(dest, static_cast<std::streamsize>(len));
    const std::size_t n = static_cast<std::size_t>(in.gcount());
    consumed += n;
    if (n != len) {
      raise_corrupt(CorruptKind::kTruncated,
                    "archive: chunk table promises " +
                        std::to_string(layout.encoded_total) +
                        " encoded bytes, stream has " +
                        std::to_string(consumed));
    }
  };

  // Stage + decode the header-covering prefix serially (the tensor
  // cannot exist until its serialized header has been decoded).
  std::size_t header_bytes = 0;
  Tensor packed;
  {
    std::uint64_t prefix_encoded = 0;
    for (std::size_t i = 0; i < prefix_chunks; ++i) {
      prefix_encoded += layout.table[i].encoded_len;
    }
    runtime::BufferPool::Buffer stage =
        ctx.buffer_pool().acquire(prefix_encoded);
    read_encoded(stage.data(), static_cast<std::size_t>(prefix_encoded));
    runtime::BufferPool::Buffer bounce = ctx.buffer_pool().acquire(bounce_len);
    for (std::size_t i = 0; i < prefix_chunks; ++i) {
      const ChunkEntry& entry = layout.table[i];
      decode_one_chunk(
          layout, i,
          std::string_view(stage.data() + entry.offset, entry.encoded_len),
          bounce.data() + i * chunk_bytes);
    }
    packed = tensor_from_prefix(
        layout, std::string_view(bounce.data(), bounce_len), &header_bytes);
  }
  char* tensor_bytes = reinterpret_cast<char*>(packed.raw());

  // Remaining chunks in bounded batches: read a run of encoded chunks
  // into one pooled stage, then CRC + decode the run in parallel
  // straight into the tensor's storage.
  std::size_t next = prefix_chunks;
  while (next < chunk_count) {
    std::size_t batch_end = next;
    std::uint64_t batch_bytes = 0;
    while (batch_end < chunk_count) {
      const std::uint64_t len = layout.table[batch_end].encoded_len;
      if (batch_end > next && batch_bytes + len > kStreamBatchBytes) break;
      batch_bytes += len;
      ++batch_end;
    }
    runtime::BufferPool::Buffer stage =
        ctx.buffer_pool().acquire(static_cast<std::size_t>(batch_bytes));
    read_encoded(stage.data(), static_cast<std::size_t>(batch_bytes));
    const std::uint64_t base = layout.table[next].offset;
    runtime::parallel_for(
        next, batch_end,
        [&](std::size_t i) {
          const ChunkEntry& entry = layout.table[i];
          decode_one_chunk(
              layout, i,
              std::string_view(stage.data() + (entry.offset - base),
                               entry.encoded_len),
              tensor_bytes + (i * chunk_bytes - header_bytes));
        },
        {.grain = 1});
    next = batch_end;
  }

  // Reject trailing bytes the way the in-memory reader does.
  {
    char probe = 0;
    in.read(&probe, 1);
    if (in.gcount() == 1) {
      std::uint64_t extra = 1;
      char sink[4096];
      while (in.read(sink, sizeof(sink)), in.gcount() > 0) {
        extra += static_cast<std::uint64_t>(in.gcount());
      }
      raise_corrupt(CorruptKind::kTruncated,
                    "archive: chunk table promises " +
                        std::to_string(layout.encoded_total) +
                        " encoded bytes, stream has " +
                        std::to_string(layout.encoded_total + extra));
    }
  }
  obs::PipelineMetrics::global().record_archive_layout(chunk_bytes,
                                                       chunk_count);
  layout.archive.packed = std::move(packed);
  return std::move(layout.archive);
}

ArchiveProbe probe_archive(std::string_view bytes) {
  io::ByteReader reader(bytes, "archive");
  reader.require(sizeof(kMagic), "magic");
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    raise_corrupt(CorruptKind::kBadMagic, "archive: bad magic");
  }
  (void)reader.read_bytes(sizeof(kMagic), "magic");
  ArchiveProbe probe;
  probe.version = reader.read<std::uint32_t>("version");
  if (probe.version < 2 || probe.version > kArchiveVersion) {
    raise_corrupt(CorruptKind::kBadVersion,
                  "archive: found version " + std::to_string(probe.version) +
                      ", supported versions 2.." +
                      std::to_string(kArchiveVersion));
  }
  if (probe.version == 2) {
    // v2 has no length fields: the payload is whatever follows the
    // fixed-size header (1+1+2+2+2+4 + 4*8 = 44 bytes).
    reader.require(44, "header fields");
    probe.payload_len = reader.remaining() - 44;
    return probe;
  }
  const std::uint32_t header_len = reader.read<std::uint32_t>("header size");
  const std::uint32_t header_crc = reader.read<std::uint32_t>("header CRC");
  if (probe.version == 3) {
    (void)reader.read<std::uint32_t>("payload CRC");
  }
  const std::string_view header =
      reader.read_bytes(header_len, "header fields");
  const std::uint32_t computed = io::crc32c(header.data(), header.size());
  if (computed != header_crc) {
    raise_corrupt(CorruptKind::kChecksumMismatch,
                  "archive: header CRC mismatch (stored " +
                      std::to_string(header_crc) + ", computed " +
                      std::to_string(computed) + ")");
  }
  if (probe.version == 3) {
    probe.payload_len = reader.remaining();
    return probe;
  }
  Archive scratch;
  io::ByteReader header_reader(header, "archive header");
  parse_header_fields(header_reader, scratch);
  probe.payload_len = static_cast<std::size_t>(
      header_reader.read<std::uint64_t>("payload length"));
  probe.chunk_bytes = static_cast<std::size_t>(
      header_reader.read<std::uint64_t>("chunk size"));
  probe.chunk_count = header_reader.read<std::uint32_t>("chunk count");
  return probe;
}

Archive deserialize_archive(std::string_view bytes, const Context& ctx) {
  io::ByteReader reader(bytes, "archive");
  reader.require(sizeof(kMagic), "magic");
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    raise_corrupt(CorruptKind::kBadMagic, "archive: bad magic");
  }
  (void)reader.read_bytes(sizeof(kMagic), "magic");
  const std::uint32_t version = reader.read<std::uint32_t>("version");
  if (version < 2 || version > kArchiveVersion) {
    raise_corrupt(CorruptKind::kBadVersion,
                  "archive: found version " + std::to_string(version) +
                      ", supported versions 2.." +
                      std::to_string(kArchiveVersion));
  }

  if (version == 4) return deserialize_archive_v4(reader, ctx);

  Archive archive;
  if (version >= 3) {
    const std::uint32_t header_len = reader.read<std::uint32_t>("header size");
    const std::uint32_t header_crc = reader.read<std::uint32_t>("header CRC");
    const std::uint32_t payload_crc =
        reader.read<std::uint32_t>("payload CRC");
    const std::string_view header =
        reader.read_bytes(header_len, "header fields");
    const std::uint32_t computed_header =
        io::crc32c(header.data(), header.size());
    if (computed_header != header_crc) {
      raise_corrupt(CorruptKind::kChecksumMismatch,
                    "archive: header CRC mismatch (stored " +
                        std::to_string(header_crc) + ", computed " +
                        std::to_string(computed_header) + ")");
    }
    io::ByteReader header_reader(header, "archive header");
    parse_header_fields(header_reader, archive);
    if (header_reader.remaining() != 0) {
      raise_corrupt(CorruptKind::kBadHeaderField,
                    "archive: " + std::to_string(header_reader.remaining()) +
                        " trailing bytes after header fields");
    }
    const std::string_view payload = reader.rest();
    const std::uint32_t computed_payload =
        io::crc32c(payload.data(), payload.size());
    if (computed_payload != payload_crc) {
      raise_corrupt(CorruptKind::kChecksumMismatch,
                    "archive: payload CRC mismatch (stored " +
                        std::to_string(payload_crc) + ", computed " +
                        std::to_string(computed_payload) + ")");
    }
  } else {
    // v2 (pre-checksum) archives written before the integrity block
    // stay readable; their payloads are validated structurally only.
    parse_header_fields(reader, archive);
  }
  archive.packed = io::deserialize_tensor(reader.rest());
  validate_payload_shape(archive.packed.shape(),
                         expected_compressed_shape(archive, ctx));
  return archive;
}

void save_archive(const Archive& archive, const std::string& path) {
  std::ofstream file(path, std::ios::binary);
  if (!file) throw std::runtime_error("archive: cannot open " + path);
  const std::string bytes = serialize_archive(archive);
  file.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!file) throw std::runtime_error("archive: write failed: " + path);
}

Archive load_archive(const std::string& path, const Context& ctx) {
  // Zero-copy read: decode straight out of the mapping (MappedFile
  // falls back to a heap read for pipes, AIC_NO_MMAP, or mmap failure).
  const io::MappedFile file(path);
  return deserialize_archive(file.view(), ctx);
}

}  // namespace aic::cli
