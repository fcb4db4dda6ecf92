#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <future>
#include <set>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <thread>
#include <vector>

#include "cli/archive.hpp"
#include "cli/robustness_suite.hpp"
#include "data/synth.hpp"
#include "io/error.hpp"
#include "io/tensor_io.hpp"
#include "runtime/rng.hpp"
#include "runtime/thread_pool.hpp"

namespace aic::cli {
namespace {

using tensor::Shape;
using tensor::Tensor;

Tensor test_tensor(std::uint64_t seed, std::size_t channels = 3) {
  runtime::Rng rng(seed);
  Tensor tensor(Shape::bchw(2, channels, 16, 16));
  for (std::size_t b = 0; b < 2; ++b) {
    for (std::size_t c = 0; c < channels; ++c) {
      Tensor plane = data::smooth_field(16, 16, rng, 4, 0.5);
      data::add_gaussian_noise(plane, rng, 0.02);
      tensor.set_plane(b, c, plane);
    }
  }
  return tensor;
}

/// What restore_archive must write for `bytes`: the in-memory reader's
/// archive, decompressed whole by its own codec.
std::string in_memory_restore(const std::string& bytes,
                              const Context& ctx = Context::process_default()) {
  const Archive archive = deserialize_archive(bytes, ctx);
  return io::serialize_tensor(
      archive.codec->decompress(archive.packed, archive.original_shape));
}

std::string restored_bytes(const std::string& bytes,
                           const Context& ctx = Context::process_default()) {
  std::ostringstream out;
  (void)restore_archive(bytes, &out, ctx);
  return out.str();
}

/// An ostream whose streambuf cannot seek (tellp() == -1), standing in
/// for a pipe/socket sink: compress_to_stream must fall back to the
/// string sink and still emit identical bytes.
class NonSeekableBuf : public std::streambuf {
 public:
  std::string bytes;

 protected:
  int_type overflow(int_type ch) override {
    if (ch != traits_type::eof()) bytes.push_back(static_cast<char>(ch));
    return ch;
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    bytes.append(s, static_cast<std::size_t>(n));
    return n;
  }
};

TEST(StreamingArchive, StreamedBytesMatchInMemoryWriterAcrossGeometry) {
  const Tensor input = test_tensor(31);
  for (const char* spec : {"dctchop:cf=4,block=8", "partial:cf=4,block=8,s=2",
                           "triangle:cf=4,block=8"}) {
    for (const std::size_t chunk_bytes :
         {std::size_t{64}, std::size_t{1000}, std::size_t{64} * 1024}) {
      for (const baseline::ChunkEntropy entropy :
           {baseline::ChunkEntropy::kRaw, baseline::ChunkEntropy::kAuto}) {
        const ArchiveWriteOptions options{.chunk_bytes = chunk_bytes,
                                          .entropy = entropy};
        const std::string reference =
            compress_to_archive_bytes(input, spec, options);
        std::ostringstream stream;
        const std::size_t written =
            compress_to_stream(input, spec, stream, options);
        EXPECT_EQ(stream.str(), reference)
            << spec << " chunk_bytes=" << chunk_bytes;
        EXPECT_EQ(written, reference.size());
      }
    }
  }
}

TEST(StreamingArchive, NonSeekableSinkDegradesBitwiseIdentical) {
  const Tensor input = test_tensor(32);
  const ArchiveWriteOptions options{.chunk_bytes = 512};
  const std::string reference =
      compress_to_archive_bytes(input, "dctchop:cf=4,block=8", options);
  NonSeekableBuf buf;
  std::ostream stream(&buf);
  ASSERT_EQ(stream.tellp(), std::streampos(-1));
  const std::size_t written =
      compress_to_stream(input, "dctchop:cf=4,block=8", stream, options);
  EXPECT_EQ(buf.bytes, reference);
  EXPECT_EQ(written, reference.size());
}

TEST(StreamingArchive, StreamReadMatchesInMemoryReader) {
  // Both readers split their one decode pass between the chunks holding
  // the 44-byte tensor header and the tensor: below 44 bytes the header
  // spans several chunks, at 44 it fills chunk 0 exactly, and at 45
  // chunk 0 also holds the first data byte.
  const Tensor input = test_tensor(34);
  const char* const spec = "partial:cf=4,block=8,s=2";
  const Archive packed = compress_to_archive(input, spec);
  for (const std::size_t chunk_bytes :
       {std::size_t{1}, std::size_t{7}, std::size_t{44}, std::size_t{45},
        std::size_t{100}, std::size_t{4096}, std::size_t{1} << 20}) {
    const ArchiveWriteOptions options{.chunk_bytes = chunk_bytes};
    const std::string bytes = compress_to_archive_bytes(input, spec, options);
    const Archive decoded = deserialize_archive(bytes);
    ASSERT_EQ(decoded.packed.shape(), packed.packed.shape());
    EXPECT_EQ(std::memcmp(decoded.packed.raw(), packed.packed.raw(),
                          packed.packed.size_bytes()),
              0)
        << "chunk_bytes=" << chunk_bytes;
    EXPECT_EQ(restored_bytes(bytes), in_memory_restore(bytes))
        << "chunk_bytes=" << chunk_bytes;
  }
}

TEST(StreamingArchive, StreamReadHandlesLegacyVersions) {
  // v2/v3 are read-only; their checked-in corpus seeds stand in for
  // archives written before v4.
  for (const char* file :
       {"seed_archive_dctchop_v2.bin", "seed_archive_dctchop_v3.bin",
        "seed_archive_partial_v3.bin", "seed_archive_triangle_v3.bin"}) {
    const std::string bytes =
        read_corpus_seed(AIC_CORPUS_DIR, "archive", file);
    EXPECT_EQ(restored_bytes(bytes), in_memory_restore(bytes)) << file;
  }
}

TEST(StreamingArchive, StreamReadRejectsTruncationTyped) {
  const Tensor input = test_tensor(36, 1);
  const ArchiveWriteOptions options{.chunk_bytes = 256};
  const std::string bytes =
      compress_to_archive_bytes(input, "dctchop:cf=4,block=8", options);
  for (std::size_t cut = 0; cut < bytes.size();
       cut += (cut < 128 ? 1 : 37)) {
    EXPECT_THROW((void)restored_bytes(bytes.substr(0, cut)),
                 io::CorruptStream)
        << "cut=" << cut;
  }
}

TEST(StreamingArchive, StreamReadRejectsTrailingBytes) {
  const Tensor input = test_tensor(37, 1);
  const ArchiveWriteOptions options{.chunk_bytes = 256};
  const std::string bytes =
      compress_to_archive_bytes(input, "dctchop:cf=4,block=8", options);
  EXPECT_THROW((void)restored_bytes(bytes + "x"), io::CorruptStream);
  // The in-memory reader rejects the same way.
  EXPECT_THROW((void)deserialize_archive(bytes + "x"), io::CorruptStream);
}

/// The container must be bitwise-identical no matter how small the
/// session's BufferPool budget is — a budget of zero (cache nothing)
/// degrades throughput, never bytes.
TEST(StreamingArchive, BytesIdenticalForEveryMempoolBudget) {
  const Tensor input = test_tensor(38);
  const ArchiveWriteOptions options{.chunk_bytes = 512};
  const std::string reference =
      compress_to_archive_bytes(input, "dctchop:cf=4,block=8", options);
  for (const char* budget : {"0", "4096", "1048576"}) {
    ::setenv("AIC_MEMPOOL_BYTES", budget, 1);
    // A fresh context resolves its pool budget from the env lazily.
    const Context ctx{Context::Options{}};
    const std::string bytes = compress_to_archive_bytes(
        input, "dctchop:cf=4,block=8", options, nullptr, ctx);
    EXPECT_EQ(bytes, reference) << "budget=" << budget;
    std::ostringstream stream;
    compress_to_stream(input, "dctchop:cf=4,block=8", stream, options,
                       nullptr, ctx);
    EXPECT_EQ(stream.str(), reference) << "streamed budget=" << budget;
    EXPECT_EQ(restored_bytes(reference, ctx), in_memory_restore(reference, ctx))
        << "restored budget=" << budget;
  }
  ::unsetenv("AIC_MEMPOOL_BYTES");
}

/// The out-param writer reuses its output string's capacity: after the
/// first call, subsequent calls of the same geometry must not grow it.
TEST(StreamingArchive, OutParamWriterReusesCapacity) {
  const Tensor input = test_tensor(39);
  const ArchiveWriteOptions options{.chunk_bytes = 4096};
  std::string bytes;
  compress_to_archive_bytes(input, "dctchop:cf=4,block=8", options, nullptr,
                            Context::process_default(), bytes);
  const std::string first = bytes;
  const std::size_t capacity = bytes.capacity();
  for (int lap = 0; lap < 3; ++lap) {
    compress_to_archive_bytes(input, "dctchop:cf=4,block=8", options, nullptr,
                              Context::process_default(), bytes);
    EXPECT_EQ(bytes, first);
    EXPECT_EQ(bytes.capacity(), capacity) << "lap " << lap;
  }
}

/// A seekable sink whose writes fail once `budget` bytes have gone in.
/// The failing write lingers 200 µs, and `writing()` is true while
/// any write is inside the buffer, so a caller that returns before its
/// writes end is caught. `calls()` lists the budget span each write
/// call took, in call order.
class FailingBuf : public std::stringbuf {
 public:
  struct Call {
    std::size_t start = 0;  // budget spent before the call
    std::size_t len = 0;    // budget the call spent
  };

  explicit FailingBuf(std::size_t budget)
      : initial_(budget), budget_(budget) {}

  bool writing() const { return writing_.load(); }
  const std::vector<Call>& calls() const { return calls_; }

 protected:
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    const Writing scope(*this);
    if (static_cast<std::size_t>(n) > budget_) return fail(0);
    budget_ -= static_cast<std::size_t>(n);
    return std::stringbuf::xsputn(s, n);
  }
  int_type overflow(int_type ch) override {
    const Writing scope(*this);
    if (budget_ == 0) return fail(traits_type::eof());
    --budget_;
    return std::stringbuf::overflow(ch);
  }

 private:
  /// Marks a write in progress; the outermost one (a base-class write
  /// may call overflow()) records its call.
  struct Writing {
    explicit Writing(FailingBuf& buf)
        : buf_(buf), outer_(buf.writing_++ == 0), before_(buf.budget_) {}
    ~Writing() {
      if (outer_) {
        buf_.calls_.push_back(
            {buf_.initial_ - before_, before_ - buf_.budget_});
      }
      --buf_.writing_;
    }
    FailingBuf& buf_;
    const bool outer_;
    const std::size_t before_;
  };
  template <typename T>
  static T fail(T result) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    return result;
  }

  const std::size_t initial_;
  std::size_t budget_;
  std::atomic<int> writing_{0};
  std::vector<Call> calls_;
};

/// The message of the std::runtime_error `f` throws ("" when none).
template <typename F>
std::string runtime_error_of(F&& f) {
  try {
    f();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

Context session(std::size_t threads) {
  Context::Options options;
  options.threads = threads;
  return Context(options);
}

/// A sink that fails in any write call, including inside the writer's
/// set-up (16-byte chunks put encodes in flight while the tensor header
/// is still being fed), must surface as the write's own error at every
/// pool size, with every in-flight encode drained: the session's pooled
/// buffers stay intact, so the next write on it is bitwise-identical to
/// the reference. Each call of the reference write fails at its first,
/// middle and last byte.
TEST(StreamingArchive, FailingSinkDrainsInFlightEncodes) {
  const Tensor input = test_tensor(40);
  const ArchiveWriteOptions options{
      .chunk_bytes = 16, .entropy = baseline::ChunkEntropy::kHuffman};
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    const Context ctx = session(threads);
    const std::string reference = compress_to_archive_bytes(
        input, "dctchop:cf=4,block=8", options, nullptr, ctx);
    FailingBuf recorder(SIZE_MAX);
    std::ostream recorded(&recorder);
    compress_to_stream(input, "dctchop:cf=4,block=8", recorded, options,
                       nullptr, ctx);
    ASSERT_EQ(recorder.str(), reference);
    std::set<std::size_t> budgets;
    for (const FailingBuf::Call& call : recorder.calls()) {
      ASSERT_GT(call.len, 0u);
      budgets.insert({call.start, call.start + call.len / 2,
                      call.start + call.len - 1});
    }
    for (const std::size_t budget : budgets) {
      FailingBuf buf(budget);
      std::ostream stream(&buf);
      EXPECT_EQ(runtime_error_of([&] {
                  compress_to_stream(input, "dctchop:cf=4,block=8", stream,
                                     options, nullptr, ctx);
                }),
                "archive: stream write failed")
          << "threads=" << threads << " budget=" << budget;
      EXPECT_FALSE(buf.writing());
    }
    EXPECT_EQ(compress_to_archive_bytes(input, "dctchop:cf=4,block=8",
                                        options, nullptr, ctx),
              reference);
  }
}

/// Both workers of a private 2-thread pool are parked, so the producer
/// must encode every chunk itself: a Huffman write of 13 chunks, more
/// than the writer queues, ends before the workers are released, with
/// the 1-thread bytes.
TEST(StreamingArchive, ProducerEncodesWhileWorkersAreBusy) {
  const Tensor input = test_tensor(41);
  const ArchiveWriteOptions options{
      .chunk_bytes = 128, .entropy = baseline::ChunkEntropy::kHuffman};
  const std::string reference = compress_to_archive_bytes(
      input, "dctchop:cf=4,block=8", options, nullptr, session(1));
  std::promise<void> release;
  const std::shared_future<void> released = release.get_future().share();
  std::atomic<int> woke{0};
  const Context ctx = session(2);
  for (std::size_t w = 0; w < ctx.pool().size(); ++w) {
    ctx.pool().post([released, &woke] {
      released.wait_for(std::chrono::seconds(2));
      woke.fetch_add(1);
    });
  }
  const std::string bytes = compress_to_archive_bytes(
      input, "dctchop:cf=4,block=8", options, nullptr, ctx);
  EXPECT_EQ(woke.load(), 0) << "the write waited for a parked worker";
  release.set_value();
  EXPECT_EQ(bytes, reference);
}

/// A restore whose sink fails in the tensor header or in any plane
/// group's write (which runs on the pool) throws the write's own error
/// on the caller, with no write left running.
TEST(StreamingArchive, RestoreWriteFailureThrowsWithNoWriteRunning) {
  // 40 planes of 128x128: three plane groups of at most 1 MiB.
  runtime::Rng rng(42);
  Tensor input(Shape::bchw(1, 40, 128, 128));
  for (float& v : input.data()) v = static_cast<float>(rng.uniform());
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    const Context ctx = session(threads);
    const std::string archive =
        compress_to_archive_bytes(input, "dctchop:cf=4,block=8", {}, nullptr,
                                  ctx);
    const std::size_t restored_size = restored_bytes(archive, ctx).size();
    for (const std::size_t budget :
         {std::size_t{0}, std::size_t{100}, restored_size / 2,
          restored_size - 1}) {
      FailingBuf buf(budget);
      std::ostream stream(&buf);
      EXPECT_EQ(
          runtime_error_of([&] { (void)restore_archive(archive, &stream, ctx); }),
          "archive: stream write failed")
          << "threads=" << threads << " budget=" << budget;
      EXPECT_FALSE(buf.writing());
    }
  }
}

}  // namespace
}  // namespace aic::cli
