#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <sstream>
#include <streambuf>
#include <string>

#include "cli/archive.hpp"
#include "cli/robustness_suite.hpp"
#include "data/synth.hpp"
#include "io/error.hpp"
#include "runtime/rng.hpp"

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

void expect_same_archive(const Archive& a, const Archive& b) {
  EXPECT_EQ(a.triangle, b.triangle);
  EXPECT_EQ(a.subdivision, b.subdivision);
  EXPECT_EQ(a.original_shape, b.original_shape);
  ASSERT_EQ(a.packed.shape(), b.packed.shape());
  ASSERT_EQ(a.packed.size_bytes(), b.packed.size_bytes());
  EXPECT_EQ(
      std::memcmp(a.packed.data().data(), b.packed.data().data(), a.packed.size_bytes()), 0);
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
  const Tensor input = test_tensor(34);
  for (const std::size_t chunk_bytes :
       {std::size_t{100}, std::size_t{4096}, std::size_t{1} << 20}) {
    const ArchiveWriteOptions options{.chunk_bytes = chunk_bytes};
    const std::string bytes =
        compress_to_archive_bytes(input, "partial:cf=4,block=8,s=2", options);
    const Archive reference = deserialize_archive(bytes);
    std::istringstream stream(bytes);
    const Archive streamed = decompress_from_stream(stream);
    expect_same_archive(streamed, reference);
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
    const Archive reference = deserialize_archive(bytes);
    std::istringstream stream(bytes);
    const Archive streamed = decompress_from_stream(stream);
    expect_same_archive(streamed, reference);
  }
}

TEST(StreamingArchive, StreamReadRejectsTruncationTyped) {
  const Tensor input = test_tensor(36, 1);
  const ArchiveWriteOptions options{.chunk_bytes = 256};
  const std::string bytes =
      compress_to_archive_bytes(input, "dctchop:cf=4,block=8", options);
  for (std::size_t cut = 0; cut < bytes.size();
       cut += (cut < 128 ? 1 : 37)) {
    std::istringstream stream(bytes.substr(0, cut));
    EXPECT_THROW((void)decompress_from_stream(stream), io::CorruptStream)
        << "cut=" << cut;
  }
}

TEST(StreamingArchive, StreamReadRejectsTrailingBytes) {
  const Tensor input = test_tensor(37, 1);
  const ArchiveWriteOptions options{.chunk_bytes = 256};
  const std::string bytes =
      compress_to_archive_bytes(input, "dctchop:cf=4,block=8", options);
  std::istringstream stream(bytes + "x");
  EXPECT_THROW((void)decompress_from_stream(stream), io::CorruptStream);
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
    std::istringstream in(reference);
    const Archive streamed = decompress_from_stream(in, ctx);
    expect_same_archive(streamed, deserialize_archive(reference, ctx));
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
class FailingBuf : public std::stringbuf {
 public:
  explicit FailingBuf(std::size_t budget) : budget_(budget) {}

 protected:
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    if (static_cast<std::size_t>(n) > budget_) return 0;
    budget_ -= static_cast<std::size_t>(n);
    return std::stringbuf::xsputn(s, n);
  }
  int_type overflow(int_type ch) override {
    if (budget_ == 0) return traits_type::eof();
    --budget_;
    return std::stringbuf::overflow(ch);
  }

 private:
  std::size_t budget_;
};

/// A sink that fails at any byte, including inside the writer's set-up
/// (16-byte chunks put encodes in flight while the tensor header is
/// still being fed), must surface as an exception with every in-flight
/// encode drained: the session's pooled buffers stay intact, so the
/// next write on it is bitwise-identical to the reference.
TEST(StreamingArchive, FailingSinkDrainsInFlightEncodes) {
  const Tensor input = test_tensor(40);
  const ArchiveWriteOptions options{
      .chunk_bytes = 16, .entropy = baseline::ChunkEntropy::kHuffman};
  Context::Options ctx_options;
  ctx_options.threads = 4;
  ctx_options.own_pool = true;
  const Context ctx{ctx_options};
  const std::string reference = compress_to_archive_bytes(
      input, "dctchop:cf=4,block=8", options, nullptr, ctx);
  for (std::size_t budget = 0; budget < reference.size(); budget += 7) {
    FailingBuf buf(budget);
    std::ostream stream(&buf);
    EXPECT_THROW(compress_to_stream(input, "dctchop:cf=4,block=8", stream,
                                    options, nullptr, ctx),
                 std::runtime_error)
        << "budget=" << budget;
  }
  EXPECT_EQ(compress_to_archive_bytes(input, "dctchop:cf=4,block=8", options,
                                      nullptr, ctx),
            reference);
}

}  // namespace
}  // namespace aic::cli
