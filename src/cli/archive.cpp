#include "cli/archive.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <deque>
#include <fstream>
#include <functional>
#include <future>
#include <istream>
#include <iterator>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
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

/// The header fields shared by every version (everything between the
/// version/CRC block and the payload or chunk geometry).
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

/// Parses the shared header fields into `archive`, validating every
/// field with a typed diagnostic.
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

/// Reads the magic and version words every container starts with and
/// returns the version (range-checked).
std::uint32_t read_prologue(io::ByteReader& reader) {
  if (reader.read_bytes(sizeof(kMagic), "magic") !=
      std::string_view(kMagic, sizeof(kMagic))) {
    raise_corrupt(CorruptKind::kBadMagic, "archive: bad magic");
  }
  const std::uint32_t version = reader.read<std::uint32_t>("version");
  if (version < 2 || version > kArchiveVersion) {
    raise_corrupt(CorruptKind::kBadVersion,
                  "archive: found version " + std::to_string(version) +
                      ", supported versions 2.." +
                      std::to_string(kArchiveVersion));
  }
  return version;
}

void check_header_crc(std::string_view header, std::uint32_t stored) {
  const std::uint32_t computed = io::crc32c(header.data(), header.size());
  if (computed != stored) {
    raise_corrupt(CorruptKind::kChecksumMismatch,
                  "archive: header CRC mismatch (stored " +
                      std::to_string(stored) + ", computed " +
                      std::to_string(computed) + ")");
  }
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

// --- v4 writer ------------------------------------------------------------

/// Any chunk budget above this is treated as hostile (the chunk table
/// and per-chunk staging are sized from it).
constexpr std::uint64_t kMaxChunkBytes = std::uint64_t{1} << 30;

/// Input bytes per transform step of the compress producer. Each step's
/// packed bytes are chunked and encoded while the next step transforms,
/// and the bound keeps the producer's staging (a step's input copy and
/// its packed output) at about 1 MiB of input, or one plane if that is
/// larger, whatever the tensor size.
/// The value trades memory for time. Measured on a 2-thread session
/// (4-vCPU Xeon, AVX2, dctchop cf=4, raw chunks): 16x3x512² compresses
/// in 43.7 ms at 1 MiB, 39.3 ms at 4 MiB and 29.0 ms as one step, and
/// perfbench cli_file_512 reads peak RSS 159.9 / 167.4 / 169.4 MB for
/// the same three; at 1 MiB the CLI compress matches the per-plane
/// stream writer it replaced. Smaller steps are slower still (16x3x64²:
/// 1.18 ms at 64 KiB, 0.60 ms at 1 MiB), and cutting a tensor below the
/// bound into 2 to 8 steps gains nothing on a Huffman-bound write
/// (16x3x64² huffman: 8.6-8.8 ms for 1 to 8 steps).
constexpr std::size_t kGroupInputBytes = std::size_t{1} << 20;

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

void write_or_throw(std::ostream& out, const char* data, std::size_t len) {
  out.write(data, static_cast<std::streamsize>(len));
  if (!out) throw std::runtime_error("archive: stream write failed");
}

/// Where a v4 write goes: bytes are appended in order, and `patch`
/// overwrites already-written bytes at an offset from the archive start.
/// `reserve` (optional) announces the raw-entropy archive size.
struct ArchiveSink {
  std::function<void(const char*, std::size_t)> write;
  std::function<void(std::size_t, std::string_view)> patch;
  std::function<void(std::size_t)> reserve;
};

/// Builds the archive into `out` (cleared first), reusing its capacity.
ArchiveSink string_sink(std::string& out) {
  out.clear();
  return {[&out](const char* data, std::size_t len) { out.append(data, len); },
          [&out](std::size_t offset, std::string_view bytes) {
            std::memcpy(out.data() + offset, bytes.data(), bytes.size());
          },
          [&out](std::size_t len) { out.reserve(len); }};
}

/// Writes straight into a seekable stream whose archive starts at `start`.
ArchiveSink stream_sink(std::ostream& out, std::ostream::pos_type start) {
  return {[&out](const char* data, std::size_t len) {
            write_or_throw(out, data, len);
          },
          [&out, start](std::size_t offset, std::string_view bytes) {
            const std::ostream::pos_type end = out.tellp();
            out.seekp(start + static_cast<std::ostream::off_type>(offset));
            write_or_throw(out, bytes.data(), bytes.size());
            out.seekp(end);
          },
          nullptr};
}

/// Runs `write` against `out`: through a stream sink when `out` can seek
/// back for the patch, else into a string written in one go. Returns the
/// archive size.
std::size_t write_to_stream(
    std::ostream& out,
    const std::function<std::size_t(const ArchiveSink&)>& write) {
  const std::ostream::pos_type start = out.tellp();
  std::size_t written = 0;
  if (start == std::ostream::pos_type(-1)) {
    std::string bytes;
    written = write(string_sink(bytes));
    write_or_throw(out, bytes.data(), bytes.size());
  } else {
    written = write(stream_sink(out, start));
  }
  out.flush();
  if (!out) throw std::runtime_error("archive: stream write failed");
  return written;
}

/// The one v4 writer. Payload bytes arrive in order through feed() and
/// fill pooled chunk buffers; each full chunk is entropy coded and CRC'd
/// on the session pool while the producer keeps going, with at most two
/// chunks per pool worker in flight (one encoding, one queued behind it).
/// Encoded chunks reach the sink in index order, behind a prologue whose
/// header CRC and chunk table are zero until finish() patches them.
/// Chunk boundaries depend only on (payload_len, chunk_bytes) and each
/// encoding only on its chunk's bytes, so the archive is bitwise
/// identical for every pool size and schedule.
class ChunkPipeline {
 public:
  ChunkPipeline(const Archive& fields, const Shape& packed_shape,
                const ArchiveWriteOptions& options, const Context& ctx,
                const ArchiveSink& sink)
      : sink_(sink),
        buffers_(ctx.buffer_pool()),
        pool_(ctx.pool_handle()),
        max_in_flight_(2 * pool_->size()),
        entropy_(options.entropy),
        chunk_bytes_(options.chunk_bytes),
        payload_len_(io::serialized_tensor_bytes(packed_shape)) {
    if (chunk_bytes_ == 0 || chunk_bytes_ > kMaxChunkBytes) {
      throw std::invalid_argument(
          "archive: chunk_bytes must be in [1, " +
          std::to_string(kMaxChunkBytes) + "], got " +
          std::to_string(chunk_bytes_));
    }
    chunk_count_ = (payload_len_ + chunk_bytes_ - 1) / chunk_bytes_;
    header_ = serialize_header_fields(fields);
    append<std::uint64_t>(header_, payload_len_);
    append<std::uint64_t>(header_, chunk_bytes_);
    append<std::uint32_t>(header_, static_cast<std::uint32_t>(chunk_count_));
    table_offset_ = header_.size();
    header_.append(12 * chunk_count_, '\0');

    std::string prologue(kMagic, sizeof(kMagic));
    append<std::uint32_t>(prologue, 4);
    append<std::uint32_t>(prologue, static_cast<std::uint32_t>(header_.size()));
    append<std::uint32_t>(prologue, 0);  // header CRC, patched by finish()
    written_ = prologue.size() + header_.size();
    if (sink_.reserve) sink_.reserve(written_ + payload_len_ + chunk_count_);
    sink_.write(prologue.data(), prologue.size());
    sink_.write(header_.data(), header_.size());
    const std::string tensor_header = io::serialize_tensor_header(packed_shape);
    feed(tensor_header.data(), tensor_header.size());
  }

  ChunkPipeline(const ChunkPipeline&) = delete;
  ChunkPipeline& operator=(const ChunkPipeline&) = delete;

  /// Appends the next `len` payload bytes.
  void feed(const void* data, std::size_t len) {
    const char* bytes = static_cast<const char*>(data);
    while (len > 0) {
      if (fill_ == 0) {
        if (submitted_ == chunk_count_) {
          throw std::logic_error("archive: producer overran the payload");
        }
        chunk_len_ = std::min(chunk_bytes_,
                              payload_len_ - submitted_ * chunk_bytes_);
        current_ = buffers_.acquire(chunk_len_);
      }
      const std::size_t take = std::min(len, chunk_len_ - fill_);
      std::memcpy(current_.data() + fill_, bytes, take);
      fill_ += take;
      bytes += take;
      len -= take;
      if (fill_ == chunk_len_) submit();
    }
  }

  /// Drains every chunk, patches the header, and returns the archive
  /// size.
  std::size_t finish() {
    if (submitted_ != chunk_count_) {
      throw std::logic_error("archive: producer ended before the payload");
    }
    while (!in_flight_.empty()) retire();
    std::string patch;
    append<std::uint32_t>(patch, io::crc32c(header_.data(), header_.size()));
    patch += header_;
    sink_.patch(12, patch);  // the header CRC word, then the header
    obs::PipelineMetrics::global().record_archive_layout(chunk_bytes_,
                                                         chunk_count_);
    return written_;
  }

  std::uint64_t encode_ns() const {
    return encode_ns_.load(std::memory_order_relaxed);
  }

 private:
  struct InFlight {
    runtime::BufferPool::Buffer plain;
    std::future<EncodedChunk> encoded;
  };

  /// Chunks submitted and not yet written. Destruction waits for every
  /// encode, so a throw from the producer, from finish(), or from the
  /// constructor's own feed() never hands a buffer back to the pool
  /// while a worker still reads it.
  struct InFlightQueue : std::deque<InFlight> {
    ~InFlightQueue() {
      for (InFlight& chunk : *this) {
        if (chunk.encoded.valid()) chunk.encoded.wait();
      }
    }
  };

  void submit() {
    while (in_flight_.size() >= max_in_flight_) retire();
    // Queued before its task exists, so no throw can leave a running
    // encode whose buffer the queue does not wait for.
    InFlight& queued = in_flight_.emplace_back();
    queued.plain = std::move(current_);
    const std::string_view plain(queued.plain.data(), fill_);
    queued.encoded =
        pool_->submit([plain, entropy = entropy_, ns = &encode_ns_] {
          runtime::Timer timer;
          EncodedChunk chunk = encode_one_chunk(plain, entropy);
          ns->fetch_add(timer.nanos(), std::memory_order_relaxed);
          return chunk;
        });
    fill_ = 0;
    ++submitted_;
    // Stream out whatever has already finished, in order.
    while (!in_flight_.empty() &&
           in_flight_.front().encoded.wait_for(std::chrono::seconds(0)) ==
               std::future_status::ready) {
      retire();
    }
  }

  /// Waits for the oldest chunk, records its table row, and writes it.
  void retire() {
    const EncodedChunk chunk = in_flight_.front().encoded.get();
    const std::uint64_t len = chunk.bytes.size();
    char* row = header_.data() + table_offset_ + 12 * retired_;
    std::memcpy(row, &len, sizeof(len));
    std::memcpy(row + sizeof(len), &chunk.crc, sizeof(chunk.crc));
    sink_.write(chunk.bytes.data(), chunk.bytes.size());
    written_ += chunk.bytes.size();
    ++retired_;
    in_flight_.pop_front();
  }

  const ArchiveSink& sink_;
  runtime::BufferPool& buffers_;
  const std::shared_ptr<runtime::ThreadPool> pool_;
  const std::size_t max_in_flight_;
  const baseline::ChunkEntropy entropy_;
  const std::size_t chunk_bytes_;
  const std::size_t payload_len_;
  std::size_t chunk_count_ = 0;
  std::string header_;  // header fields + geometry + chunk table
  std::size_t table_offset_ = 0;
  runtime::BufferPool::Buffer current_;
  std::size_t chunk_len_ = 0;
  std::size_t fill_ = 0;
  std::size_t submitted_ = 0;
  std::size_t retired_ = 0;
  std::size_t written_ = 0;
  std::atomic<std::uint64_t> encode_ns_{0};
  // Last member: destroyed (and drained) first, while everything the
  // encode tasks touch is still alive.
  InFlightQueue in_flight_;
};

/// Per-context recycler for the whole-Tensor staging the compress
/// producer churns through (plane groups and their packed outputs).
/// Tensor owns its storage as a plain vector<float>, so recycling works
/// at whole-tensor granularity: acquire() returns a cached tensor of
/// exactly the requested shape when one exists (an empty one otherwise)
/// and release() caches up to kMaxEntries tensors. Lives in
/// Context::Slot::kArchiveScratch so steady-state compress calls on one
/// session stop allocating plane staging.
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

/// The compress producer splices per-plane-group packed bytes into the
/// payload at the offsets a full-tensor compress would use. That is only
/// sound when the codec treats planes independently; the chop family
/// does, and this predicate guards the assumption against future codec
/// kinds.
bool plane_separable_codec(const core::Codec& codec, const Shape& input_shape,
                           const Shape& packed_shape) {
  return packed_shape.rank() == 4 && packed_shape[0] == input_shape[0] &&
         packed_shape[1] == input_shape[1] &&
         codec.compressed_shape(
             Shape::bchw(1, 1, input_shape[2], input_shape[3])) ==
             Shape::bchw(1, 1, packed_shape[2], packed_shape[3]);
}

/// Feeds an already compressed archive through the pipeline.
std::size_t serialize_to(const Archive& archive,
                         const ArchiveWriteOptions& options,
                         const Context& ctx, const ArchiveSink& sink) {
  AIC_TRACE_SCOPE("pipeline.serialize");
  ChunkPipeline pipeline(archive, archive.packed.shape(), options, ctx, sink);
  pipeline.feed(archive.packed.raw(), archive.packed.size_bytes());
  return pipeline.finish();
}

/// The compress producer: transforms `input` in plane groups of about
/// kGroupInputBytes and appends each group's packed bytes to the
/// pipeline, so the chunk encodes of one group overlap the transform of
/// the next. A codec that does not treat planes independently transforms
/// the whole tensor as one group.
std::size_t compress_to(const Tensor& input, const std::string& codec_spec,
                        const ArchiveWriteOptions& options,
                        core::CodecPtr* codec_out, const Context& ctx,
                        const ArchiveSink& sink) {
  if (input.shape().rank() != 4) {
    throw std::invalid_argument("archive: input must be BCHW");
  }
  AIC_TRACE_SCOPE("pipeline.compress");
  runtime::Timer wall_timer;
  const core::CodecPtr codec = core::make_codec(codec_spec, ctx);
  const Archive fields = classify_codec(*codec, codec_spec, input.shape());
  if (codec_out != nullptr) *codec_out = codec;

  const Shape& shape = input.shape();
  const Shape packed_shape = codec->compressed_shape(shape);
  const std::size_t planes = shape[0] * shape[1];
  const std::size_t plane_bytes = shape[2] * shape[3] * sizeof(float);
  const std::size_t group_planes =
      plane_separable_codec(*codec, shape, packed_shape) && plane_bytes > 0
          ? std::max<std::size_t>(
                1, std::min(planes, kGroupInputBytes / plane_bytes))
          : planes;

  Context::PoolScope pool_scope(ctx);
  const std::shared_ptr<ArchiveScratch> scratch = archive_scratch(ctx);
  ChunkPipeline pipeline(fields, packed_shape, options, ctx, sink);
  std::uint64_t transform_ns = 0;
  for (std::size_t p0 = 0; p0 < planes; p0 += group_planes) {
    const std::size_t g = std::min(group_planes, planes - p0);
    const Shape group_shape =
        g == planes ? shape : Shape::bchw(1, g, shape[2], shape[3]);
    Tensor packed = scratch->acquire(codec->compressed_shape(group_shape));
    runtime::Timer timer;
    if (g == planes) {
      codec->compress_into(input, packed);
    } else {
      Tensor group = scratch->acquire(group_shape);
      if (group.shape() != group_shape) group = Tensor(group_shape);
      std::memcpy(group.raw(),
                  reinterpret_cast<const char*>(input.raw()) + p0 * plane_bytes,
                  g * plane_bytes);
      codec->compress_into(group, packed);
      scratch->release(std::move(group));
    }
    transform_ns += timer.nanos();
    pipeline.feed(packed.raw(), packed.size_bytes());
    scratch->release(std::move(packed));
  }
  const std::size_t written = pipeline.finish();
  obs::PipelineMetrics::global().record_overlap(
      transform_ns, pipeline.encode_ns(), wall_timer.nanos());
  return written;
}

// --- v4 reader ------------------------------------------------------------

/// Encoded-chunk batch budget of the istream reader: chunks are staged
/// and decoded in runs of roughly this many encoded bytes, which bounds
/// resident memory while keeping enough chunks per batch to feed the
/// pool.
constexpr std::size_t kStreamBatchBytes = std::size_t{4} << 20;

struct ChunkEntry {
  std::uint64_t offset = 0;  // into the encoded region
  std::uint64_t encoded_len = 0;
  std::uint32_t crc = 0;
};

/// Parsed + fully validated v4 geometry: everything the decode needs
/// before any payload byte is touched.
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
  check_header_crc(header, header_crc);
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

/// Where a v4 decode gets its encoded chunks: `read(offset, len)` returns
/// the next `len` encoded bytes, which start `offset` bytes into the
/// encoded region and directly follow the previous read; the view stays
/// valid until the next call. A decode batch (one parallel_for) spans at
/// most `batch_bytes` encoded bytes, or one chunk.
struct ChunkSource {
  std::uint64_t batch_bytes;
  std::function<std::string_view(std::uint64_t, std::uint64_t)> read;
};

/// The one v4 decode core. The leading chunks covering the serialized
/// tensor header decode serially through a small pooled bounce buffer
/// (the header must be parsed before the tensor exists; tensor_io's typed
/// errors come before the archive-level shape check). Every remaining
/// chunk then CRC-checks and entropy-decodes in parallel, batch by batch,
/// directly into the tensor's storage — the payload never materializes
/// as a separate heap string.
Archive decode_v4(V4Layout&& layout, const ChunkSource& source,
                  const Context& ctx) {
  AIC_TRACE_SCOPE("pipeline.decode_v4");
  Context::PoolScope pool_scope(ctx);
  const std::size_t chunk_bytes = layout.chunk_bytes;
  const std::size_t chunk_count = layout.chunk_count;
  const auto chunk_in = [&](std::string_view run, std::size_t first,
                            std::size_t i) {
    const ChunkEntry& entry = layout.table[i];
    return run.substr(entry.offset - layout.table[first].offset,
                      entry.encoded_len);
  };
  const auto read_run = [&](std::size_t first, std::size_t last) {
    const std::uint64_t end =
        last < chunk_count ? layout.table[last].offset : layout.encoded_total;
    return source.read(layout.table[first].offset,
                       end - layout.table[first].offset);
  };

  const std::size_t prefix_len = std::min<std::size_t>(
      layout.payload_len, io::max_tensor_header_bytes());
  const std::size_t prefix_chunks =
      (prefix_len + chunk_bytes - 1) / chunk_bytes;
  const std::size_t bounce_len = std::min<std::size_t>(
      layout.payload_len, prefix_chunks * chunk_bytes);
  std::size_t header_bytes = 0;
  Tensor packed;
  {
    runtime::BufferPool::Buffer bounce = ctx.buffer_pool().acquire(bounce_len);
    const std::string_view run = read_run(0, prefix_chunks);
    for (std::size_t i = 0; i < prefix_chunks; ++i) {
      decode_one_chunk(layout, i, chunk_in(run, 0, i),
                       bounce.data() + i * chunk_bytes);
    }
    const io::TensorHeaderInfo info = io::parse_tensor_header(
        std::string_view(bounce.data(), bounce_len), layout.payload_len);
    validate_payload_shape(info.shape, layout.expected_shape);
    packed = Tensor(info.shape);
    header_bytes = info.header_bytes;
    std::memcpy(packed.raw(), bounce.data() + header_bytes,
                bounce_len - header_bytes);
  }

  char* tensor_bytes = reinterpret_cast<char*>(packed.raw());
  for (std::size_t first = prefix_chunks; first < chunk_count;) {
    std::size_t last = first + 1;
    std::uint64_t batch = layout.table[first].encoded_len;
    while (last < chunk_count &&
           batch + layout.table[last].encoded_len <= source.batch_bytes) {
      batch += layout.table[last++].encoded_len;
    }
    const std::string_view run = read_run(first, last);
    // A rejected chunk's error comes back to this thread as a copy, not
    // through the pool's exception_ptr, whose uninstrumented refcount
    // ThreadSanitizer reports as a race; the lowest failing index wins.
    std::vector<std::optional<io::CorruptStream>> rejected(last - first);
    runtime::parallel_for(
        first, last,
        [&](std::size_t i) {
          try {
            decode_one_chunk(layout, i, chunk_in(run, first, i),
                             tensor_bytes + (i * chunk_bytes - header_bytes));
          } catch (const io::CorruptStream& error) {
            rejected[i - first] = error;
          }
        },
        {.grain = 1});
    for (const std::optional<io::CorruptStream>& error : rejected) {
      if (error) throw *error;
    }
    first = last;
  }
  obs::PipelineMetrics::global().record_archive_layout(chunk_bytes,
                                                       chunk_count);
  layout.archive.packed = std::move(packed);
  return std::move(layout.archive);
}

/// Reads and decodes a v2/v3 container after its prologue (read-only:
/// no writer emits these versions).
Archive deserialize_legacy(io::ByteReader& reader, std::uint32_t version,
                           const Context& ctx) {
  Archive archive;
  if (version == 3) {
    const std::uint32_t header_len = reader.read<std::uint32_t>("header size");
    const std::uint32_t header_crc = reader.read<std::uint32_t>("header CRC");
    const std::uint32_t payload_crc =
        reader.read<std::uint32_t>("payload CRC");
    const std::string_view header =
        reader.read_bytes(header_len, "header fields");
    check_header_crc(header, header_crc);
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
    // v2 (pre-checksum) payloads are validated structurally only.
    parse_header_fields(reader, archive);
  }
  archive.packed = io::deserialize_tensor(reader.rest());
  validate_payload_shape(archive.packed.shape(),
                         expected_compressed_shape(archive, ctx));
  return archive;
}

/// Raises the truncation error of an encoded region whose size disagrees
/// with the chunk table's total.
[[noreturn]] void raise_encoded_size(std::uint64_t promised,
                                     std::uint64_t have) {
  raise_corrupt(CorruptKind::kTruncated,
                "archive: chunk table promises " + std::to_string(promised) +
                    " encoded bytes, stream has " + std::to_string(have));
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

std::string serialize_archive(const Archive& archive,
                              const ArchiveWriteOptions& options,
                              const Context& ctx) {
  std::string out;
  serialize_to(archive, options, ctx, string_sink(out));
  return out;
}

void compress_to_archive_bytes(const Tensor& input,
                               const std::string& codec_spec,
                               const ArchiveWriteOptions& options,
                               core::CodecPtr* codec_out, const Context& ctx,
                               std::string& out) {
  compress_to(input, codec_spec, options, codec_out, ctx, string_sink(out));
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
  return write_to_stream(out, [&](const ArchiveSink& sink) {
    return compress_to(input, codec_spec, options, codec_out, ctx, sink);
  });
}

Archive deserialize_archive(std::string_view bytes, const Context& ctx) {
  io::ByteReader reader(bytes, "archive");
  const std::uint32_t version = read_prologue(reader);
  if (version != 4) return deserialize_legacy(reader, version, ctx);

  const std::uint32_t header_len = reader.read<std::uint32_t>("header size");
  const std::uint32_t header_crc = reader.read<std::uint32_t>("header CRC");
  const std::string_view header =
      reader.read_bytes(header_len, "header fields");
  V4Layout layout = parse_v4_layout(header, header_crc, ctx);
  const std::string_view encoded = reader.rest();
  if (encoded.size() != layout.encoded_total) {
    raise_encoded_size(layout.encoded_total, encoded.size());
  }
  const ChunkSource view{
      std::numeric_limits<std::uint64_t>::max(),
      [encoded](std::uint64_t offset, std::uint64_t len) {
        return encoded.substr(offset, len);
      }};
  return decode_v4(std::move(layout), view, ctx);
}

Archive decompress_from_stream(std::istream& in, const Context& ctx) {
  char prologue[16];
  in.read(prologue, sizeof(prologue));
  const std::size_t got = static_cast<std::size_t>(in.gcount());
  io::ByteReader reader(std::string_view(prologue, got), "archive");
  const std::uint32_t version = read_prologue(reader);
  if (version != 4) {
    // v2/v3 are unchunked — there is no streamable structure. Reassemble
    // the full byte string and delegate to the in-memory reader.
    std::string bytes(prologue, got);
    bytes.append(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
    return deserialize_archive(bytes, ctx);
  }
  const std::uint32_t header_len = reader.read<std::uint32_t>("header size");
  const std::uint32_t header_crc = reader.read<std::uint32_t>("header CRC");

  // Incremental header read: memory stays proportional to the bytes the
  // stream actually holds, so a hostile length cannot force a giant
  // allocation.
  std::string header;
  while (header.size() < header_len) {
    const std::size_t have = header.size();
    const std::size_t step =
        std::min<std::size_t>(header_len - have, kStreamBatchBytes);
    header.resize(have + step);
    in.read(header.data() + have, static_cast<std::streamsize>(step));
    header.resize(have + static_cast<std::size_t>(in.gcount()));
    if (header.size() < have + step) {
      raise_corrupt(CorruptKind::kTruncated,
                    "archive: truncated reading header fields (need " +
                        std::to_string(header_len) + " bytes, have " +
                        std::to_string(header.size()) + ")");
    }
  }
  V4Layout layout = parse_v4_layout(header, header_crc, ctx);

  const std::uint64_t encoded_total = layout.encoded_total;
  runtime::BufferPool::Buffer stage;
  std::uint64_t consumed = 0;
  const ChunkSource stream{
      kStreamBatchBytes, [&](std::uint64_t, std::uint64_t len) {
        stage.reset();  // so the pool can hand the same block back
        stage = ctx.buffer_pool().acquire(static_cast<std::size_t>(len));
        in.read(stage.data(), static_cast<std::streamsize>(len));
        consumed += static_cast<std::uint64_t>(in.gcount());
        if (static_cast<std::uint64_t>(in.gcount()) != len) {
          raise_encoded_size(encoded_total, consumed);
        }
        return std::string_view(stage.data(), static_cast<std::size_t>(len));
      }};
  Archive archive = decode_v4(std::move(layout), stream, ctx);

  // Reject trailing bytes the way the in-memory reader does.
  char sink[4096];
  std::uint64_t extra = 0;
  while (in.read(sink, sizeof(sink)), in.gcount() > 0) {
    extra += static_cast<std::uint64_t>(in.gcount());
  }
  if (extra != 0) raise_encoded_size(encoded_total, encoded_total + extra);
  return archive;
}

ArchiveProbe probe_archive(std::string_view bytes) {
  io::ByteReader reader(bytes, "archive");
  ArchiveProbe probe;
  probe.version = read_prologue(reader);
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
  check_header_crc(header, header_crc);
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

void save_archive(const Archive& archive, const std::string& path) {
  std::ofstream file(path, std::ios::binary);
  if (!file) throw std::runtime_error("archive: cannot open " + path);
  write_to_stream(file, [&](const ArchiveSink& sink) {
    return serialize_to(archive, {}, Context::process_default(), sink);
  });
}

Archive load_archive(const std::string& path, const Context& ctx) {
  // Zero-copy read: decode straight out of the mapping (MappedFile
  // falls back to a heap read for pipes, AIC_NO_MMAP, or mmap failure).
  const io::MappedFile file(path);
  return deserialize_archive(file.view(), ctx);
}

}  // namespace aic::cli
