#include "io/mapped_file.hpp"

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "cli/archive.hpp"
#include "data/synth.hpp"
#include "io/error.hpp"
#include "io/tensor_io.hpp"
#include "runtime/rng.hpp"
#include "tensor/ops.hpp"

namespace aic::io {
namespace {

using tensor::Shape;
using tensor::Tensor;

struct TempDir {
  std::filesystem::path path;
  TempDir() {
    path = std::filesystem::temp_directory_path() /
           ("aic_mapped_file_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
  std::string file(const std::string& name) const {
    return (path / name).string();
  }
};

void write_file(const std::string& path, std::string_view bytes) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  file.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// RAII AIC_NO_MMAP=1: forces the heap-read fallback for one scope.
struct ForceHeapRead {
  ForceHeapRead() { ::setenv("AIC_NO_MMAP", "1", 1); }
  ~ForceHeapRead() { ::unsetenv("AIC_NO_MMAP"); }
};

Tensor test_tensor(std::uint64_t seed) {
  runtime::Rng rng(seed);
  Tensor tensor(Shape::bchw(1, 2, 16, 16));
  for (std::size_t c = 0; c < 2; ++c) {
    Tensor plane = data::smooth_field(16, 16, rng, 4, 0.5);
    tensor.set_plane(0, c, plane);
  }
  return tensor;
}

TEST(MappedFile, MapsARegularFile) {
  TempDir dir;
  const std::string path = dir.file("regular.bin");
  const std::string contents = "mapped file contents \x00\x01\x02 with nuls";
  write_file(path, contents);
  const MappedFile file(path);
  EXPECT_EQ(file.view(), std::string_view(contents));
  EXPECT_EQ(file.size(), contents.size());
#ifndef _WIN32
  EXPECT_TRUE(file.mapped());
#endif
}

TEST(MappedFile, EmptyFileYieldsEmptyView) {
  TempDir dir;
  const std::string path = dir.file("empty.bin");
  write_file(path, "");
  const MappedFile file(path);
  EXPECT_TRUE(file.view().empty());
  EXPECT_FALSE(file.mapped());  // nothing to map
}

TEST(MappedFile, MissingFileThrows) {
  TempDir dir;
  EXPECT_THROW(MappedFile(dir.file("does_not_exist.bin")),
               std::runtime_error);
}

TEST(MappedFile, EnvEscapeHatchForcesHeapFallback) {
  TempDir dir;
  const std::string path = dir.file("fallback.bin");
  write_file(path, "same bytes either way");
  ForceHeapRead force;
  const MappedFile file(path);
  EXPECT_FALSE(file.mapped());
  EXPECT_EQ(file.view(), std::string_view("same bytes either way"));
}

#ifndef _WIN32
TEST(MappedFile, ReadsAPipeWhole) {
  // The pipe must be drained through the descriptor that paired with the
  // writer; reopening the path would block waiting for a second writer.
  TempDir dir;
  const std::string path = dir.file("pipe.fifo");
  ASSERT_EQ(::mkfifo(path.c_str(), 0600), 0);
  const std::string contents(200 * 1024, 'p');
  std::thread writer([&] { write_file(path, contents); });
  const MappedFile file(path);
  writer.join();
  EXPECT_FALSE(file.mapped());
  EXPECT_EQ(file.view(), std::string_view(contents));
}
#endif

TEST(MappedFile, MoveTransfersTheMapping) {
  TempDir dir;
  const std::string path = dir.file("moved.bin");
  write_file(path, "movable");
  MappedFile a(path);
  const MappedFile b(std::move(a));
  EXPECT_EQ(b.view(), std::string_view("movable"));
  EXPECT_TRUE(a.view().empty());  // NOLINT(bugprone-use-after-move)
}

/// The memory-layer acceptance bar: decoding an archive through the mmap
/// path and through the heap-read fallback must produce bitwise-identical
/// tensors (and match the all-in-memory decoder).
TEST(MappedFile, MmapAndHeapArchiveDecodesAreBitwiseIdentical) {
  TempDir dir;
  const std::string path = dir.file("parity.aicz");
  const Tensor input = test_tensor(21);
  const std::string archive_bytes =
      cli::compress_to_archive_bytes(input, "dctchop:cf=4,block=8");
  write_file(path, archive_bytes);

  const cli::Archive reference = cli::deserialize_archive(archive_bytes);

  cli::Archive via_mmap = [&] {
    const MappedFile file(path);
    return cli::deserialize_archive(file.view());
  }();
  cli::Archive via_heap = [&] {
    ForceHeapRead force;
    const MappedFile file(path);
    EXPECT_FALSE(file.mapped());
    return cli::deserialize_archive(file.view());
  }();

  for (const cli::Archive* decoded : {&via_mmap, &via_heap}) {
    EXPECT_EQ(decoded->original_shape, reference.original_shape);
    ASSERT_EQ(decoded->packed.shape(), reference.packed.shape());
    ASSERT_EQ(decoded->packed.size_bytes(), reference.packed.size_bytes());
    EXPECT_EQ(std::memcmp(decoded->packed.data().data(),
                          reference.packed.data().data(),
                          reference.packed.size_bytes()),
              0);
  }
}

/// load_archive consumes the mapping directly; the result must match the
/// in-memory decode of the same bytes.
TEST(MappedFile, LoadArchiveMatchesInMemoryDecode) {
  TempDir dir;
  const std::string path = dir.file("load.aicz");
  const Tensor input = test_tensor(22);
  const std::string archive_bytes =
      cli::compress_to_archive_bytes(input, "triangle:cf=4,block=8");
  write_file(path, archive_bytes);
  const cli::Archive loaded = cli::load_archive(path);
  const cli::Archive reference = cli::deserialize_archive(archive_bytes);
  ASSERT_EQ(loaded.packed.shape(), reference.packed.shape());
  EXPECT_EQ(std::memcmp(loaded.packed.data().data(), reference.packed.data().data(),
                        reference.packed.size_bytes()),
            0);
}

/// A file shorter than its header promises must come back as a typed
/// CorruptStream (never a read past the mapping): sweep truncations of a
/// real archive across both the mmap and heap read paths.
TEST(MappedFile, TruncatedArchiveSweepRejectsTyped) {
  TempDir dir;
  const std::string path = dir.file("truncated.aicz");
  const Tensor input = test_tensor(23);
  const std::string archive_bytes =
      cli::compress_to_archive_bytes(input, "dctchop:cf=4,block=8");

  const auto decode_file = [&] {
    const MappedFile file(path);
    return cli::deserialize_archive(file.view());
  };

  // Every boundary of the fixed preamble + header region, then strides
  // through the encoded chunks.
  for (std::size_t cut = 0; cut < archive_bytes.size();
       cut += (cut < 128 ? 1 : 41)) {
    write_file(path, std::string_view(archive_bytes).substr(0, cut));
    EXPECT_THROW(decode_file(), CorruptStream) << "cut=" << cut;
  }
  {
    ForceHeapRead force;
    for (std::size_t cut : {std::size_t{0}, std::size_t{15}, std::size_t{64},
                            archive_bytes.size() - 1}) {
      write_file(path, std::string_view(archive_bytes).substr(0, cut));
      EXPECT_THROW(decode_file(), CorruptStream) << "heap cut=" << cut;
    }
  }
  // The untruncated file still decodes.
  write_file(path, archive_bytes);
  EXPECT_NO_THROW(decode_file());
}

}  // namespace
}  // namespace aic::io
