#include "io/tensor_io.hpp"

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <thread>

#include "core/dct_chop.hpp"
#include "io/error.hpp"
#include "runtime/rng.hpp"
#include "tensor/ops.hpp"

namespace aic::io {
namespace {

using tensor::Shape;
using tensor::Tensor;

TEST(TensorIo, InMemoryRoundTripAllRanks) {
  runtime::Rng rng(1);
  const Tensor cases[] = {
      Tensor(Shape::scalar(), {3.5f}),
      Tensor::uniform(Shape::vector(7), rng),
      Tensor::uniform(Shape::matrix(5, 3), rng),
      Tensor::uniform(Shape({2, 3, 4}), rng),
      Tensor::uniform(Shape::bchw(2, 3, 4, 5), rng),
  };
  for (const Tensor& t : cases) {
    const Tensor back = deserialize_tensor(serialize_tensor(t));
    EXPECT_EQ(back.shape(), t.shape());
    EXPECT_TRUE(tensor::allclose(back, t, 0.0)) << t.shape().to_string();
  }
}

TEST(TensorIo, PreservesExactBitPatterns) {
  // Including negative zero, subnormals and extreme magnitudes.
  const Tensor t(Shape::vector(4), {-0.0f, 1e-42f, 3.4e38f, -1.17e-38f});
  const Tensor back = deserialize_tensor(serialize_tensor(t));
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(back.at(i)),
              std::bit_cast<std::uint32_t>(t.at(i)));
  }
}

TEST(TensorIo, FileRoundTrip) {
  runtime::Rng rng(2);
  const Tensor t = Tensor::uniform(Shape::bchw(1, 2, 8, 8), rng);
  const std::string path = "/tmp/aic_tensor_io_test.aict";
  save_tensor(t, path);
  const Tensor back = load_tensor(path);
  EXPECT_TRUE(tensor::allclose(back, t, 0.0));
  std::remove(path.c_str());
}

TEST(TensorIo, RejectsBadMagic) {
  EXPECT_THROW(deserialize_tensor("NOPE0000"), std::runtime_error);
  EXPECT_THROW(deserialize_tensor(""), std::runtime_error);
}

TEST(TensorIo, RejectsTruncatedStream) {
  const Tensor t = Tensor::iota(Shape::matrix(4, 4));
  std::string bytes = serialize_tensor(t);
  bytes.resize(bytes.size() - 5);
  EXPECT_THROW(deserialize_tensor(bytes), std::runtime_error);
}

TEST(TensorIo, RejectsTrailingGarbage) {
  const Tensor t = Tensor::iota(Shape::vector(3));
  std::string bytes = serialize_tensor(t);
  bytes += "xx";
  EXPECT_THROW(deserialize_tensor(bytes), std::runtime_error);
}

TEST(TensorIo, RejectsUnsupportedVersion) {
  const Tensor t = Tensor::iota(Shape::vector(1));
  std::string bytes = serialize_tensor(t);
  bytes[4] = 99;  // corrupt the version field
  EXPECT_THROW(deserialize_tensor(bytes), std::runtime_error);
}

TEST(TensorIo, MissingFileThrows) {
  EXPECT_THROW(load_tensor("/nonexistent_dir_xyz/t.aict"),
               std::runtime_error);
}

/// Per-process scratch directory (ctest runs each test as its own
/// process, possibly concurrently).
struct TempDir {
  std::filesystem::path path;
  TempDir() {
    path = std::filesystem::temp_directory_path() /
           ("aic_tensor_io_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
  std::string write(const std::string& name, const std::string& bytes) const {
    const std::string file = (path / name).string();
    std::ofstream(file, std::ios::binary) << bytes;
    return file;
  }
};

/// The CorruptKind `fn` raises, or nullopt when it raises anything else
/// (or nothing).
template <typename Fn>
std::optional<CorruptKind> corrupt_kind(Fn&& fn) {
  try {
    fn();
  } catch (const CorruptStream& error) {
    return error.kind();
  } catch (...) {
  }
  return std::nullopt;
}

TEST(TensorIo, FileRoundTripAllRanks) {
  TempDir dir;
  runtime::Rng rng(4);
  const Tensor cases[] = {
      Tensor(Shape::scalar(), {-2.25f}),
      Tensor::uniform(Shape::vector(7), rng),
      Tensor::uniform(Shape::matrix(5, 3), rng),
      Tensor::uniform(Shape({2, 3, 4}), rng),
      Tensor::uniform(Shape::bchw(2, 3, 4, 5), rng),
  };
  for (const Tensor& t : cases) {
    const std::string path = (dir.path / "t.aict").string();
    save_tensor(t, path);
    std::ifstream file(path, std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(file)),
                            std::istreambuf_iterator<char>());
    EXPECT_EQ(bytes, serialize_tensor(t)) << t.shape().to_string();
    const Tensor back = load_tensor(path);
    EXPECT_EQ(back.shape(), t.shape());
    EXPECT_TRUE(tensor::allclose(back, t, 0.0)) << t.shape().to_string();
  }
}

TEST(TensorIo, FileRejectionsMatchInMemoryReader) {
  TempDir dir;
  const std::string whole = serialize_tensor(Tensor::iota(Shape::matrix(4, 4)));
  // Dims promising 2^62 payload bytes over a 16-byte payload: allocating
  // before the size check would raise bad_alloc, not CorruptStream.
  const std::string huge =
      serialize_tensor_header(Shape::matrix(1u << 30, 1u << 30)) +
      std::string(16, '\0');
  const struct {
    const char* name;
    std::string bytes;
    CorruptKind kind;
  } cases[] = {
      {"empty", "", CorruptKind::kTruncated},
      {"header_only", serialize_tensor_header(Shape::matrix(4, 4)),
       CorruptKind::kPayloadMismatch},
      {"truncated_payload", whole.substr(0, whole.size() - 5),
       CorruptKind::kPayloadMismatch},
      {"trailing_garbage", whole + "xx", CorruptKind::kPayloadMismatch},
      {"huge_dims", huge, CorruptKind::kPayloadMismatch},
  };
  for (const auto& c : cases) {
    const std::string path = dir.write(std::string(c.name) + ".aict", c.bytes);
    EXPECT_EQ(corrupt_kind([&] { (void)deserialize_tensor(c.bytes); }),
              c.kind)
        << c.name;
    EXPECT_EQ(corrupt_kind([&] { (void)load_tensor(path); }), c.kind)
        << c.name;
  }
}

TEST(TensorIo, DirectoryPathThrows) {
  TempDir dir;
  EXPECT_THROW(load_tensor(dir.path.string()), std::runtime_error);
}

TEST(TensorIo, LoadsFromPipe) {
  // A FIFO has no size up front; load_tensor reads it whole, then parses.
  TempDir dir;
  const std::string fifo = (dir.path / "t.fifo").string();
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  const Tensor t = Tensor::iota(Shape::bchw(1, 2, 3, 4));
  std::thread writer([&] { save_tensor(t, fifo); });
  const Tensor back = load_tensor(fifo);
  writer.join();
  EXPECT_EQ(back.shape(), t.shape());
  EXPECT_TRUE(tensor::allclose(back, t, 0.0));
}

TEST(TensorIo, PersistsPrecomputedOperators) {
  // The compile-time LHS/RHS operators survive a save/load cycle and
  // still decompress correctly — the "precompute once, reuse" workflow.
  const Tensor operator_lhs = core::make_lhs(16, 4, 8);
  const std::string path = "/tmp/aic_lhs_test.aict";
  save_tensor(operator_lhs, path);
  const Tensor lhs = load_tensor(path);
  EXPECT_TRUE(tensor::allclose(lhs, operator_lhs, 0.0));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace aic::io
