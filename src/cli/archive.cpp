#include "cli/archive.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <latch>
#include <limits>
#include <memory>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <utility>
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

/// The compressed shape the header's codec promises. The pinned codec
/// itself goes to `archive.codec`, built once here for the whole decode.
/// Building it allocates nothing sized by the header dims: every
/// chop-family codec holds one CF×block tile whatever H and W are, so a
/// mutated-but-plausible dim cannot force a large allocation before the
/// payload is checked against the promised shape. Factory/shape errors
/// here are data errors (the header is attacker controlled), so they
/// surface as CorruptStream, not invalid_argument.
Shape expected_compressed_shape(Archive& archive, const Context& ctx) {
  try {
    archive.codec = make_archive_codec(archive, ctx);
    return archive.codec->compressed_shape(archive.original_shape);
  } catch (const io::CorruptStream&) {
    throw;
  } catch (const std::exception& error) {
    raise_corrupt(CorruptKind::kBadHeaderField,
                  std::string("archive: header describes an invalid codec: ") +
                      error.what());
  }
}

/// The packed shape the header's codec fields promise, in closed form
/// (the chop family's compressed_shape), or none when the fields describe
/// no valid geometry; building the codec then reports why. It lets the
/// payload length be checked before the codec builds its CF×block tile:
/// cf is bounded only by block, so a tiny archive claiming
/// cf = block = 4096 would otherwise build a 64 MiB tile first.
std::optional<Shape> promised_packed_shape(const Archive& archive) {
  const core::DctChopConfig& c = archive.config;
  const std::size_t span = archive.subdivision * c.block;
  if (c.cf == 0 || c.cf > c.block || c.height == 0 || c.width == 0 ||
      c.height % span != 0 || c.width % span != 0) {
    return std::nullopt;
  }
  const Shape& o = archive.original_shape;
  const std::size_t rows = c.height / c.block, cols = c.width / c.block;
  if (archive.triangle) {
    return Shape::bchw(o[0], o[1], rows * cols, c.cf * (c.cf + 1) / 2);
  }
  return Shape::bchw(o[0], o[1], c.cf * rows, c.cf * cols);
}

/// Rejects a v4 header whose payload length is not the serialized size
/// of the packed shape its codec promises.
void check_payload_len(std::uint64_t payload_len, const Shape& promised) {
  const std::size_t expected = io::serialized_tensor_bytes(promised);
  if (payload_len != expected) {
    raise_corrupt(CorruptKind::kPayloadMismatch,
                  "archive: header claims " + std::to_string(payload_len) +
                      " payload bytes, codec promises " +
                      std::to_string(expected));
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

/// Input bytes per transform step of the compress producer (and output
/// bytes per step of the streamed restore). Each step's packed bytes are
/// chunked and encoded while the next step transforms, and the bound
/// keeps the per-step buffers at about 1 MiB of planes, or one plane if
/// that is larger, whatever the tensor size.
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
  AIC_TRACE_SCOPE("io.write");
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

/// The completion of one task posted to the session pool. The task keeps
/// its exception in `error` and counts `done` down last; the poster waits
/// on `done`, then moves the error out and rethrows it on its own thread,
/// so the exception's last reference drops there (ThreadSanitizer cannot
/// see the exception_ptr refcount).
struct TaskSlot {
  std::exception_ptr error;
  std::latch done{1};

  /// Runs `body` as the task, then releases the waiter.
  template <typename F>
  void run(F&& body) noexcept {
    try {
      body();
    } catch (...) {
      error = std::current_exception();
    }
    done.count_down();
  }

  /// Waits for the task and rethrows its exception here.
  void join() {
    done.wait();
    if (error) std::rethrow_exception(std::exchange(error, nullptr));
  }
};

/// The chunks the v4 writer has queued and not yet written, in a ring of
/// slots made once per write. The producer fills and retires the slots
/// in chunk order; it and the helpers it posts claim queued chunks from
/// one encode cursor, so each chunk is encoded once, by whichever thread
/// gets to it first. The producer and every posted helper co-own the
/// ring, and the last to let go deletes it: a helper that a busy pool
/// starts after the write has ended finds nothing to claim and touches
/// nothing else. The posted task captures one pointer, so `std::function`
/// stores it inline and a chunk costs no allocation of its own.
class EncodeRing {
 public:
  /// A ring owned by the calling producer alone.
  static EncodeRing* make(std::size_t slots, baseline::ChunkEntropy entropy) {
    return new EncodeRing(slots, entropy);
  }

  /// Drops one owner's share; the last owner deletes the ring.
  void release() {
    if (owners_.fetch_sub(1, std::memory_order_acq_rel) == 1) delete this;
  }

  // Producer side.
  std::size_t queued() const {
    return queued_.load(std::memory_order_relaxed);
  }
  std::size_t retired() const { return retired_; }
  bool full() const { return queued() - retired_ == slots_; }

  /// Queues the next chunk, making it claimable, and posts a helper that
  /// encodes queued chunks. A pool that takes no more tasks (shut down)
  /// leaves the chunk to the producer.
  void push(runtime::BufferPool::Buffer plain, runtime::ThreadPool& pool) {
    const std::size_t index = queued();
    slot(index).plain = std::move(plain);
    queued_.store(index + 1, std::memory_order_release);
    owners_.fetch_add(1, std::memory_order_relaxed);
    try {
      pool.post([this] {
        run();
        release();
      });
    } catch (...) {
      release();
    }
  }

  /// The oldest queued chunk, encoded. Until it is, the producer encodes
  /// chunks no helper has started rather than wait. Rethrows its encode's
  /// exception here.
  const EncodedChunk& front() {
    Slot& oldest = slot(retired_);
    while (!oldest.done.load(std::memory_order_acquire)) {
      const std::size_t index = claim();
      if (index == kNone) {
        oldest.done.wait(false, std::memory_order_acquire);
      } else {
        encode(index);
      }
    }
    if (oldest.error) {
      std::rethrow_exception(std::exchange(oldest.error, nullptr));
    }
    return oldest.encoded;
  }
  bool front_done() const {
    return retired_ < queued() &&
           slot(retired_).done.load(std::memory_order_acquire);
  }

  /// Retires the oldest chunk (written), freeing its slot.
  void pop() {
    Slot& oldest = slot(retired_++);
    oldest.plain.reset();
    oldest.encoded = {};
    oldest.done.store(false, std::memory_order_relaxed);
  }

  /// Ends the producer's use of the ring: claims every chunk no thread
  /// has started, so no helper starts another encode, waits for the
  /// encodes already started, and releases every slot's buffers and
  /// error on this thread.
  void stop() noexcept {
    const std::size_t claimed =
        claimed_.exchange(kNone, std::memory_order_relaxed);
    for (std::size_t i = retired_; i < claimed; ++i) {
      slot(i).done.wait(false, std::memory_order_acquire);
    }
    for (std::size_t i = 0; i < slots_; ++i) {
      ring_[i].plain.reset();
      ring_[i].encoded = {};
      ring_[i].error = nullptr;
    }
  }

  std::uint64_t encode_ns() const {
    return encode_ns_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr std::size_t kNone = SIZE_MAX;

  struct Slot {
    runtime::BufferPool::Buffer plain;
    EncodedChunk encoded;
    std::exception_ptr error;
    // Set once the chunk is encoded (or its encode failed); cleared when
    // the producer retires it.
    std::atomic<bool> done{false};
  };

  EncodeRing(std::size_t slots, baseline::ChunkEntropy entropy)
      : slots_(slots),
        ring_(std::make_unique<Slot[]>(slots)),
        entropy_(entropy) {}

  /// Encodes queued chunks until none is left unclaimed (a helper's task).
  void run() {
    for (std::size_t index = claim(); index != kNone; index = claim()) {
      encode(index);
    }
  }

  Slot& slot(std::size_t index) const { return ring_[index % slots_]; }

  /// Claims the oldest queued chunk no thread has started; kNone when
  /// there is none (or the ring is stopped).
  std::size_t claim() {
    std::size_t next = claimed_.load(std::memory_order_relaxed);
    do {
      if (next >= queued_.load(std::memory_order_acquire)) return kNone;
    } while (!claimed_.compare_exchange_weak(next, next + 1,
                                             std::memory_order_relaxed));
    return next;
  }

  void encode(std::size_t index) {
    Slot& chunk = slot(index);
    try {
      runtime::Timer timer;
      chunk.encoded = encode_one_chunk(chunk.plain.view(), entropy_);
      encode_ns_.fetch_add(timer.nanos(), std::memory_order_relaxed);
    } catch (...) {
      chunk.error = std::current_exception();
    }
    chunk.done.store(true, std::memory_order_release);
    chunk.done.notify_one();
  }

  const std::size_t slots_;
  const std::unique_ptr<Slot[]> ring_;
  const baseline::ChunkEntropy entropy_;
  std::atomic<std::size_t> queued_{0};
  std::atomic<std::size_t> claimed_{0};  // the encode cursor
  std::size_t retired_ = 0;              // producer only
  std::atomic<std::uint64_t> encode_ns_{0};
  std::atomic<std::size_t> owners_{1};
};

/// The one v4 writer. Payload bytes arrive in order through feed() and
/// fill pooled chunk buffers; each full chunk is queued for an entropy
/// code and CRC on the session pool while the producer keeps going, with
/// at most two chunks per pool worker queued. When the producer would
/// wait for the oldest chunk, it encodes a queued one itself. Encoded
/// chunks reach the sink in index order, behind a prologue whose header
/// CRC and chunk table are zero until finish() patches them. Chunk
/// boundaries depend only on (payload_len, chunk_bytes) and each
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
        chunk_bytes_(options.chunk_bytes),
        payload_len_(io::serialized_tensor_bytes(packed_shape)),
        ring_{EncodeRing::make(2 * pool_->size(), options.entropy)} {
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
        if (ring().queued() == chunk_count_) {
          throw std::logic_error("archive: producer overran the payload");
        }
        chunk_len_ = std::min(chunk_bytes_,
                              payload_len_ - ring().queued() * chunk_bytes_);
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
    if (ring().queued() != chunk_count_) {
      throw std::logic_error("archive: producer ended before the payload");
    }
    while (ring().retired() < chunk_count_) retire();
    std::string patch;
    append<std::uint32_t>(patch, io::crc32c(header_.data(), header_.size()));
    patch += header_;
    sink_.patch(12, patch);  // the header CRC word, then the header
    obs::PipelineMetrics::global().record_archive_layout(chunk_bytes_,
                                                         chunk_count_);
    return written_;
  }

  std::uint64_t encode_ns() const { return ring_.ring->encode_ns(); }

 private:
  /// The producer's share of the ring. Destruction stops the ring before
  /// letting go, so a throw from the producer, from finish(), or from the
  /// constructor's own feed() never hands a buffer back to the pool while
  /// a helper still encodes it.
  struct RingOwner {
    EncodeRing* ring;
    ~RingOwner() {
      ring->stop();
      ring->release();
    }
  };

  EncodeRing& ring() { return *ring_.ring; }

  void submit() {
    while (ring().full()) retire();
    ring().push(std::move(current_), *pool_);
    fill_ = 0;
    // Stream out whatever has already finished, in order.
    while (ring().front_done()) retire();
  }

  /// Records the oldest chunk's table row and writes it.
  void retire() {
    const EncodedChunk& chunk = ring().front();
    const std::uint64_t len = chunk.bytes.size();
    char* row = header_.data() + table_offset_ + 12 * ring().retired();
    std::memcpy(row, &len, sizeof(len));
    std::memcpy(row + sizeof(len), &chunk.crc, sizeof(chunk.crc));
    sink_.write(chunk.bytes.data(), chunk.bytes.size());
    written_ += chunk.bytes.size();
    ring().pop();
  }

  const ArchiveSink& sink_;
  runtime::BufferPool& buffers_;
  const std::shared_ptr<runtime::ThreadPool> pool_;
  const std::size_t chunk_bytes_;
  const std::size_t payload_len_;
  std::size_t chunk_count_ = 0;
  std::string header_;  // header fields + geometry + chunk table
  std::size_t table_offset_ = 0;
  runtime::BufferPool::Buffer current_;
  std::size_t chunk_len_ = 0;
  std::size_t fill_ = 0;
  std::size_t written_ = 0;
  RingOwner ring_;
};

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

/// Planes per transform step: about kGroupInputBytes of `plane_bytes`
/// planes, at least one, at most all of them.
std::size_t group_planes(std::size_t planes, std::size_t plane_bytes) {
  if (plane_bytes == 0) return planes;
  return std::max<std::size_t>(1,
                               std::min(planes, kGroupInputBytes / plane_bytes));
}

/// The BCHW shape of a group of `g` planes of `shape`: the whole shape
/// when the group is the whole tensor.
Shape group_shape(const Shape& shape, std::size_t g) {
  return g == shape[0] * shape[1] ? shape
                                  : Shape::bchw(1, g, shape[2], shape[3]);
}

/// The compress producer: transforms the BCHW floats at `input` in plane
/// groups of about kGroupInputBytes, straight out of the caller's memory
/// (a Tensor's storage or a mapped .aict), and appends each group's
/// packed bytes to the pipeline, so the chunk encodes of one group
/// overlap the transform of the next. A codec that does not treat planes
/// independently transforms the whole tensor as one group.
std::size_t compress_to(const float* input, const Shape& shape,
                        const std::string& codec_spec,
                        const ArchiveWriteOptions& options,
                        core::CodecPtr* codec_out, const Context& ctx,
                        const ArchiveSink& sink) {
  if (shape.rank() != 4) {
    throw std::invalid_argument("archive: input must be BCHW");
  }
  AIC_TRACE_SCOPE("pipeline.compress");
  runtime::Timer wall_timer;
  const core::CodecPtr codec = core::make_codec(codec_spec, ctx);
  const Archive fields = classify_codec(*codec, codec_spec, shape);
  if (codec_out != nullptr) *codec_out = codec;

  const Shape packed_shape = codec->compressed_shape(shape);
  const std::size_t planes = shape[0] * shape[1];
  const std::size_t plane_floats = shape[2] * shape[3];
  const std::size_t step =
      plane_separable_codec(*codec, shape, packed_shape)
          ? group_planes(planes, plane_floats * sizeof(float))
          : planes;

  Context::PoolScope pool_scope(ctx);
  // One packed group at a time, leased once for the largest group.
  const runtime::BufferPool::Buffer packed_lease = ctx.buffer_pool().acquire(
      codec->compressed_shape(group_shape(shape, step)).numel() *
      sizeof(float));
  float* packed = reinterpret_cast<float*>(packed_lease.data());
  ChunkPipeline pipeline(fields, packed_shape, options, ctx, sink);
  std::uint64_t transform_ns = 0;
  for (std::size_t p0 = 0; p0 < planes; p0 += step) {
    const std::size_t g = std::min(step, planes - p0);
    const Shape group = group_shape(shape, g);
    const std::size_t packed_floats = codec->compressed_shape(group).numel();
    runtime::Timer timer;
    codec->compress_into(input + p0 * plane_floats, group, packed);
    transform_ns += timer.nanos();
    pipeline.feed(packed, packed_floats * sizeof(float));
  }
  const std::size_t written = pipeline.finish();
  obs::PipelineMetrics::global().record_overlap(
      transform_ns, pipeline.encode_ns(), wall_timer.nanos());
  return written;
}

// --- v4 reader ------------------------------------------------------------

struct ChunkEntry {
  std::uint64_t offset = 0;  // into the encoded region
  std::uint64_t encoded_len = 0;
  std::uint32_t crc = 0;
};

/// Parsed + fully validated v4 geometry: everything the decode needs
/// before any payload byte is touched.
struct V4Layout {
  Archive archive;  // codec set; packed left empty until the payload decodes
  Shape expected_shape;
  std::size_t tensor_header_bytes = 0;  // of expected_shape's tensor header
  std::uint64_t payload_len = 0;
  std::uint64_t chunk_bytes = 0;
  std::uint32_t chunk_count = 0;
  std::vector<ChunkEntry> table;
  std::uint64_t encoded_total = 0;
  std::string_view encoded;  // the encoded chunks, encoded_total bytes
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
  // fields, so it is checked against them rather than trusted: in closed
  // form before the codec is built, then against the built codec.
  if (const std::optional<Shape> promised =
          promised_packed_shape(layout.archive)) {
    check_payload_len(layout.payload_len, *promised);
  }
  layout.expected_shape = expected_compressed_shape(layout.archive, ctx);
  check_payload_len(layout.payload_len, layout.expected_shape);
  layout.tensor_header_bytes =
      layout.payload_len - layout.expected_shape.numel() * sizeof(float);
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

/// Reads a v4 container held whole in `reader` (after its prologue): the
/// validated layout over the encoded chunks that follow its header.
V4Layout open_v4(io::ByteReader& reader, const Context& ctx) {
  const std::uint32_t header_len = reader.read<std::uint32_t>("header size");
  const std::uint32_t header_crc = reader.read<std::uint32_t>("header CRC");
  const std::string_view header =
      reader.read_bytes(header_len, "header fields");
  V4Layout layout = parse_v4_layout(header, header_crc, ctx);
  layout.encoded = reader.rest();
  if (layout.encoded.size() != layout.encoded_total) {
    raise_corrupt(CorruptKind::kTruncated,
                  "archive: chunk table promises " +
                      std::to_string(layout.encoded_total) +
                      " encoded bytes, stream has " +
                      std::to_string(layout.encoded.size()));
  }
  return layout;
}

/// CRC-checks and entropy-decodes chunk `i` into `dest` (which must hold
/// the chunk's plain_len bytes).
void decode_one_chunk(const V4Layout& layout, std::size_t i, char* dest) {
  AIC_TRACE_SCOPE("pipeline.chunk_decode");
  runtime::Timer timer;
  const ChunkEntry& entry = layout.table[i];
  const std::string_view chunk =
      layout.encoded.substr(entry.offset, entry.encoded_len);
  const std::uint32_t computed = io::crc32c(chunk.data(), chunk.size());
  if (computed != entry.crc) {
    raise_corrupt(CorruptKind::kChecksumMismatch,
                  "archive: chunk " + std::to_string(i) +
                      " CRC mismatch (stored " + std::to_string(entry.crc) +
                      ", computed " + std::to_string(computed) + ")");
  }
  const std::size_t lo = i * layout.chunk_bytes;
  const std::size_t plain_len =
      std::min<std::size_t>(layout.chunk_bytes, layout.payload_len - lo);
  baseline::decode_chunk(chunk, plain_len, dest);
  obs::PipelineMetrics::global().record_chunk_decoded(timer.nanos());
}

/// The one v4 decode core: each call CRC-checks and entropy-decodes every
/// chunk it still needs in one parallel_for, straight into caller memory
/// (the payload never materializes as a separate heap string). The first
/// call also decodes the leading chunks that hold the serialized tensor
/// header, into a contiguous prefix, and checks that header. Rejections
/// surface in the order of a front-to-back serial decode: the lowest
/// failing header chunk, then the tensor header's typed errors and the
/// archive-level shape check, then the lowest failing later chunk.
class PayloadDecoder {
 public:
  explicit PayloadDecoder(const V4Layout& layout) : layout_(layout) {
    // The prefix covers the longest possible tensor header, so a header
    // that claims another rank fails with the errors deserialize_tensor
    // raises.
    const std::size_t prefix = std::min<std::size_t>(
        layout.payload_len, io::max_tensor_header_bytes());
    header_chunks_ = (prefix + layout.chunk_bytes - 1) / layout.chunk_bytes;
    prefix_bytes_ = std::min<std::size_t>(layout.payload_len,
                                          header_chunks_ * layout.chunk_bytes);
  }

  /// Bytes of the header prefix: the payload's leading whole chunks.
  std::size_t prefix_bytes() const { return prefix_bytes_; }

  /// Payload bytes decoded so far.
  std::uint64_t decoded() const {
    return std::min<std::uint64_t>(layout_.payload_len,
                                   next_ * layout_.chunk_bytes);
  }

  /// Decodes every remaining chunk up to the one holding payload byte
  /// `end - 1`, and on the first call at least the header chunks. Those
  /// land in `prefix` (prefix_bytes() bytes); payload byte x of any later
  /// chunk lands at dest[x - dest_offset].
  void decode_through(std::uint64_t end, char* prefix, char* dest,
                      std::uint64_t dest_offset) {
    const std::size_t chunk_bytes = layout_.chunk_bytes;
    const std::size_t first = next_;
    const std::size_t stop = std::max<std::size_t>(
        header_chunks_,
        static_cast<std::size_t>(std::min<std::uint64_t>(
            layout_.chunk_count, (end + chunk_bytes - 1) / chunk_bytes)));
    if (stop <= first) return;
    // A rejected chunk's error comes back to this thread as a copy, not
    // through the pool's exception_ptr, whose uninstrumented refcount
    // ThreadSanitizer reports as a race.
    std::vector<std::optional<io::CorruptStream>> rejected(stop - first);
    runtime::parallel_for(
        first, stop,
        [&](std::size_t i) {
          try {
            decode_one_chunk(layout_, i,
                             i < header_chunks_
                                 ? prefix + i * chunk_bytes
                                 : dest + (i * chunk_bytes - dest_offset));
          } catch (const io::CorruptStream& error) {
            rejected[i - first] = error;
          }
        },
        {.grain = 1});
    next_ = stop;
    const auto raise_lowest = [&](std::size_t from, std::size_t to) {
      for (std::size_t i = from; i < to; ++i) {
        if (rejected[i - first]) throw *rejected[i - first];
      }
    };
    if (first == 0) {
      raise_lowest(0, header_chunks_);
      const io::TensorHeaderInfo info = io::parse_tensor_header(
          std::string_view(prefix, prefix_bytes_), layout_.payload_len);
      validate_payload_shape(info.shape, layout_.expected_shape);
    }
    raise_lowest(std::max(first, header_chunks_), stop);
  }

 private:
  const V4Layout& layout_;
  std::size_t header_chunks_ = 0;
  std::size_t prefix_bytes_ = 0;
  std::size_t next_ = 0;  // first chunk not yet decoded
};

/// Decodes a whole v4 payload into the archive's packed tensor in one
/// pass: the tensor is allocated from the header-checked shape up front,
/// the header chunks decode into a pooled bounce buffer and every other
/// chunk straight into the tensor.
Archive decode_v4(V4Layout&& layout, const Context& ctx) {
  AIC_TRACE_SCOPE("pipeline.decode_v4");
  Context::PoolScope pool_scope(ctx);
  PayloadDecoder decoder(layout);
  Tensor packed(layout.expected_shape);
  char* data = reinterpret_cast<char*>(packed.raw());
  const std::size_t header_bytes = layout.tensor_header_bytes;
  runtime::BufferPool::Buffer bounce =
      ctx.buffer_pool().acquire(decoder.prefix_bytes());
  decoder.decode_through(layout.payload_len, bounce.data(), data,
                         header_bytes);
  std::memcpy(data, bounce.data() + header_bytes,
              decoder.prefix_bytes() - header_bytes);
  obs::PipelineMetrics::global().record_archive_layout(layout.chunk_bytes,
                                                       layout.chunk_count);
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
  if (const std::optional<Shape> promised = promised_packed_shape(archive)) {
    validate_payload_shape(archive.packed.shape(), *promised);
  }
  validate_payload_shape(archive.packed.shape(),
                         expected_compressed_shape(archive, ctx));
  return archive;
}

/// The restore side of a streamed decode: restores plane groups in order
/// with the archive's pinned codec into two recycled output buffers. A
/// group's write runs on the pool while the next group decodes and
/// transforms into the other buffer. `next_group(g)` returns the packed
/// floats of the next `g` planes; the io::save_tensor header of the
/// original shape goes to `out` (none when null) once the first group is
/// in, so a rejected tensor header or first group writes nothing. The
/// archive family treats planes independently, so the groups restore to
/// the bytes of one whole-tensor decompress.
RestoredArchive restore_groups(
    const Archive& archive, const Shape& packed_shape, std::ostream* out,
    const Context& ctx,
    const std::function<const float*(std::size_t)>& next_group) {
  const Shape& original = archive.original_shape;
  const std::size_t planes = original[0] * original[1];
  const std::size_t plane_bytes = original[2] * original[3] * sizeof(float);
  const std::size_t step = group_planes(planes, plane_bytes);
  runtime::BufferPool::Buffer restored[2] = {
      ctx.buffer_pool().acquire(step * plane_bytes),
      ctx.buffer_pool().acquire(step * plane_bytes)};
  // The pending group write; each group's write gets a fresh slot.
  std::optional<TaskSlot> written;
  try {
    for (std::size_t p0 = 0, k = 0; p0 < planes; p0 += step, ++k) {
      const std::size_t g = std::min(step, planes - p0);
      char* buffer = restored[k % 2].data();
      const float* packed = next_group(g);
      if (out != nullptr && k == 0) {
        const std::string header = io::serialize_tensor_header(original);
        write_or_throw(*out, header.data(), header.size());
      }
      archive.codec->decompress_into(packed, group_shape(original, g),
                                     reinterpret_cast<float*>(buffer));
      if (out == nullptr) continue;
      // Frees the buffer the next group restores into.
      if (written) written->join();
      TaskSlot& slot = written.emplace();
      try {
        ctx.pool().post([&slot, out, buffer, len = g * plane_bytes] {
          slot.run([&] { write_or_throw(*out, buffer, len); });
        });
      } catch (...) {
        written.reset();  // never queued, so nothing writes from it
        throw;
      }
    }
    if (written) written->join();
  } catch (...) {
    // No buffer goes back to the pool while a worker still writes it.
    if (written) written->done.wait();
    throw;
  }
  return {archive.codec, original, packed_shape};
}

/// Streams a whole v4 payload through restore_groups: each group's
/// chunks decode in one pass into one recycled packed window (the first
/// group's together with the header chunks, whose tensor header is
/// checked before the first transform), and the group restores as soon
/// as they are in. The window holds one group's packed bytes plus the
/// chunk tails around them.
RestoredArchive restore_v4(V4Layout&& layout, std::ostream* out,
                           const Context& ctx) {
  AIC_TRACE_SCOPE("pipeline.restore_v4");
  Context::PoolScope pool_scope(ctx);
  PayloadDecoder decoder(layout);
  const Shape& original = layout.archive.original_shape;
  const std::size_t packed_plane_bytes =
      layout.expected_shape[2] * layout.expected_shape[3] * sizeof(float);
  const std::size_t step = group_planes(
      original[0] * original[1], original[2] * original[3] * sizeof(float));
  runtime::BufferPool::Buffer window =
      ctx.buffer_pool().acquire(static_cast<std::size_t>(
          std::min<std::uint64_t>(layout.payload_len,
                                  io::max_tensor_header_bytes() +
                                      step * packed_plane_bytes +
                                      layout.chunk_bytes)));
  std::uint64_t base = 0;  // payload offset of window.data()[0]
  std::uint64_t start = layout.tensor_header_bytes;
  const RestoredArchive restored = restore_groups(
      layout.archive, layout.expected_shape, out, ctx, [&](std::size_t g) {
        const std::uint64_t end = start + g * packed_plane_bytes;
        if (decoder.decoded() < end) {
          if (decoder.decoded() != 0) {
            // The group's decoded head moves to the window front (at most
            // one chunk's tail), and its remaining chunks decode behind
            // it.
            std::memmove(window.data(), window.data() + (start - base),
                         static_cast<std::size_t>(decoder.decoded() - start));
            base = start;
          }
          decoder.decode_through(end, window.data(), window.data(), base);
        }
        const char* group = window.data() + (start - base);
        start = end;
        return reinterpret_cast<const float*>(group);
      });
  obs::PipelineMetrics::global().record_archive_layout(layout.chunk_bytes,
                                                       layout.chunk_count);
  return restored;
}

}  // namespace

std::string archive_codec_spec(const Archive& archive) {
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
  if (c.height != 0) {
    spec << ",h=" << c.height << ",w=" << c.width;
  }
  return spec.str();
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
  archive.codec = codec;
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
  compress_to(input.raw(), input.shape(), codec_spec, options, codec_out, ctx,
              string_sink(out));
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
  return compress_to_stream(input.raw(), input.shape(), codec_spec, out,
                            options, codec_out, ctx);
}

std::size_t compress_to_stream(const float* data, const Shape& input,
                               const std::string& codec_spec,
                               std::ostream& out,
                               const ArchiveWriteOptions& options,
                               core::CodecPtr* codec_out, const Context& ctx) {
  return write_to_stream(out, [&](const ArchiveSink& sink) {
    return compress_to(data, input, codec_spec, options, codec_out, ctx, sink);
  });
}

Archive deserialize_archive(std::string_view bytes, const Context& ctx) {
  io::ByteReader reader(bytes, "archive");
  const std::uint32_t version = read_prologue(reader);
  if (version != 4) return deserialize_legacy(reader, version, ctx);
  return decode_v4(open_v4(reader, ctx), ctx);
}

RestoredArchive restore_archive(std::string_view bytes, std::ostream* out,
                                const Context& ctx) {
  io::ByteReader reader(bytes, "archive");
  const std::uint32_t version = read_prologue(reader);
  if (version == 4) return restore_v4(open_v4(reader, ctx), out, ctx);
  // v2/v3 hold one unchunked payload: it decodes whole, then restores
  // group by group like v4.
  const Archive archive = deserialize_legacy(reader, version, ctx);
  const Shape& packed = archive.packed.shape();
  const float* next = archive.packed.raw();
  return restore_groups(archive, packed, out, ctx, [&](std::size_t g) {
    const float* group = next;
    next += g * packed[2] * packed[3];
    return group;
  });
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
