#include "cli/cli.hpp"

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "cli/archive.hpp"
#include "cli/robustness_suite.hpp"
#include "io/error.hpp"
#include "io/tensor_io.hpp"
#include "runtime/rng.hpp"
#include "tensor/ops.hpp"

namespace aic::cli {
namespace {

using tensor::Shape;
using tensor::Tensor;

struct TempDir {
  std::filesystem::path path;
  TempDir() {
    // Per-process suffix: ctest schedules each discovered test as its
    // own process, and concurrent tests sharing one fixed directory
    // remove_all each other's files under `ctest -j`.
    path = std::filesystem::temp_directory_path() /
           ("aic_cli_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
  std::string file(const std::string& name) const {
    return (path / name).string();
  }
};

int run(const std::vector<std::string>& args, std::string* out_text = nullptr,
        std::string* err_text = nullptr) {
  std::ostringstream out, err;
  const int code = run_cli(args, out, err);
  if (out_text) *out_text = out.str();
  if (err_text) *err_text = err.str();
  return code;
}

TEST(Cli, NoArgsPrintsUsage) {
  std::string err;
  EXPECT_EQ(run({}, nullptr, &err), 2);
  EXPECT_NE(err.find("usage"), std::string::npos);
}

TEST(Cli, UnknownCommandFails) {
  std::string err;
  EXPECT_EQ(run({"frobnicate"}, nullptr, &err), 2);
  EXPECT_NE(err.find("unknown command"), std::string::npos);
}

TEST(Cli, GenWritesLoadableTensor) {
  TempDir dir;
  const std::string path = dir.file("t.aict");
  std::string out;
  ASSERT_EQ(run({"gen", path, "--batch", "2", "--channels", "1", "--res",
                 "16"},
                &out),
            0);
  const Tensor tensor = io::load_tensor(path);
  EXPECT_EQ(tensor.shape(), Shape::bchw(2, 1, 16, 16));
  EXPECT_NE(out.find("wrote"), std::string::npos);
}

TEST(Cli, CompressDecompressRoundTrip) {
  TempDir dir;
  const std::string raw = dir.file("raw.aict");
  const std::string packed = dir.file("packed.aicz");
  const std::string restored = dir.file("restored.aict");
  ASSERT_EQ(run({"gen", raw, "--res", "16", "--channels", "1"}), 0);
  ASSERT_EQ(run({"compress", raw, packed, "--cf", "8"}), 0);
  ASSERT_EQ(run({"decompress", packed, restored}), 0);
  // CF=8 is near-lossless: the files agree to fp32 noise.
  const Tensor a = io::load_tensor(raw);
  const Tensor b = io::load_tensor(restored);
  EXPECT_TRUE(tensor::allclose(a, b, 1e-4));
}

TEST(Cli, CompressedFileIsSmaller) {
  TempDir dir;
  const std::string raw = dir.file("raw.aict");
  const std::string packed = dir.file("packed.aicz");
  ASSERT_EQ(run({"gen", raw, "--res", "32"}), 0);
  ASSERT_EQ(run({"compress", raw, packed, "--cf", "2"}), 0);
  EXPECT_LT(std::filesystem::file_size(packed),
            std::filesystem::file_size(raw) / 8);
}

TEST(Cli, TriangleFlagChangesCodec) {
  TempDir dir;
  const std::string raw = dir.file("raw.aict");
  const std::string packed = dir.file("packed.aicz");
  ASSERT_EQ(run({"gen", raw, "--res", "16", "--channels", "1"}), 0);
  ASSERT_EQ(run({"compress", raw, packed, "--cf", "4", "--triangle"}), 0);
  const Archive archive = load_archive(packed);
  EXPECT_TRUE(archive.triangle);
  std::string info;
  ASSERT_EQ(run({"info", packed}, &info), 0);
  EXPECT_NE(info.find("dct+chop+sg"), std::string::npos);
}

TEST(Cli, InfoOnPlainTensor) {
  TempDir dir;
  const std::string raw = dir.file("raw.aict");
  ASSERT_EQ(run({"gen", raw, "--res", "16"}), 0);
  std::string out;
  ASSERT_EQ(run({"info", raw}, &out), 0);
  EXPECT_NE(out.find("tensor: shape=[4, 3, 16, 16]"), std::string::npos);
}

TEST(Cli, EvalReportsRateDistortion) {
  TempDir dir;
  const std::string raw = dir.file("raw.aict");
  ASSERT_EQ(run({"gen", raw, "--res", "16"}), 0);
  std::string out;
  ASSERT_EQ(run({"eval", raw, "--cf", "4"}, &out), 0);
  EXPECT_NE(out.find("CR=4"), std::string::npos);
  EXPECT_NE(out.find("PSNR="), std::string::npos);
}

TEST(Cli, AlternativeTransformAccepted) {
  TempDir dir;
  const std::string raw = dir.file("raw.aict");
  const std::string packed = dir.file("packed.aicz");
  ASSERT_EQ(run({"gen", raw, "--res", "16", "--channels", "1"}), 0);
  ASSERT_EQ(
      run({"compress", raw, packed, "--cf", "4", "--transform", "wht"}), 0);
  const Archive archive = load_archive(packed);
  EXPECT_EQ(archive.config.transform, core::TransformKind::kWalshHadamard);
  // And the archive round-trips through its own codec.
  const Tensor restored = make_archive_codec(archive)->decompress(
      archive.packed, archive.original_shape);
  EXPECT_EQ(restored.shape(), archive.original_shape);
}

TEST(Cli, BadTransformRejected) {
  TempDir dir;
  const std::string raw = dir.file("raw.aict");
  ASSERT_EQ(run({"gen", raw, "--res", "16"}), 0);
  std::string err;
  EXPECT_EQ(run({"eval", raw, "--transform", "fft"}, nullptr, &err), 1);
  // The flag synthesizes a factory spec, so the diagnostic is the
  // factory's: parameter "transform" expects one of dct, wht, dst2.
  EXPECT_NE(err.find("expects one of dct, wht, dst2"), std::string::npos);
}

TEST(Cli, CodecSpecFlagSelectsAnyRegisteredCodec) {
  TempDir dir;
  const std::string raw = dir.file("raw.aict");
  ASSERT_EQ(run({"gen", raw, "--res", "16"}), 0);
  std::string out;
  ASSERT_EQ(run({"eval", raw, "--codec", "zfp:rate=8"}, &out), 0);
  EXPECT_NE(out.find("CR=4"), std::string::npos);
  // Bad specs surface the factory diagnostic verbatim.
  std::string err;
  EXPECT_EQ(run({"eval", raw, "--codec", "nope:cf=4"}, nullptr, &err), 1);
  EXPECT_NE(err.find("unknown codec \"nope\""), std::string::npos);
}

TEST(Cli, CompressRejectsNonArchivableCodec) {
  TempDir dir;
  const std::string raw = dir.file("raw.aict");
  const std::string packed = dir.file("packed.aicz");
  ASSERT_EQ(run({"gen", raw, "--res", "16"}), 0);
  std::string err;
  EXPECT_EQ(run({"compress", raw, packed, "--codec", "zfp:rate=8"}, nullptr,
                &err),
            1);
  EXPECT_NE(err.find("no archive representation"), std::string::npos);
}

TEST(Cli, CodecsCommandListsRegisteredKinds) {
  std::string out;
  ASSERT_EQ(run({"codecs"}), 0);
  ASSERT_EQ(run({"codecs"}, &out), 0);
  EXPECT_NE(out.find("dctchop"), std::string::npos);
  EXPECT_NE(out.find("partial"), std::string::npos);
  EXPECT_NE(out.find("triangle"), std::string::npos);
  EXPECT_NE(out.find("zfp"), std::string::npos);
}

TEST(Cli, MissingFileIsGracefulError) {
  std::string err;
  EXPECT_EQ(run({"info", "/nonexistent/nope.aict"}, nullptr, &err), 1);
  EXPECT_NE(err.find("error:"), std::string::npos);
}

TEST(Cli, MissingFlagValueIsGracefulError) {
  std::string err;
  EXPECT_EQ(run({"eval", "x.aict", "--cf"}, nullptr, &err), 1);
  EXPECT_NE(err.find("missing value"), std::string::npos);
}

TEST(Cli, NonNumericFlagValueNamesTheFlag) {
  // std::stoull used to pass garbage through (or die on out-of-range);
  // the diagnostic must name the offending key and value.
  TempDir dir;
  const std::string raw = dir.file("raw.aict");
  ASSERT_EQ(run({"gen", raw, "--res", "16"}), 0);
  for (const std::string bad : {"abc", "4x", "-3", "99999999999999999999"}) {
    std::string err;
    EXPECT_EQ(run({"eval", raw, "--cf", bad}, nullptr, &err), 1) << bad;
    EXPECT_NE(err.find("flag --cf expects a non-negative integer"),
              std::string::npos)
        << err;
    EXPECT_NE(err.find(bad), std::string::npos) << err;
  }
}

TEST(Cli, VerifyAcceptsIntactArchive) {
  TempDir dir;
  const std::string raw = dir.file("raw.aict");
  const std::string packed = dir.file("packed.aicz");
  ASSERT_EQ(run({"gen", raw, "--res", "16", "--channels", "1"}), 0);
  ASSERT_EQ(run({"compress", raw, packed, "--cf", "4"}), 0);
  std::string out;
  ASSERT_EQ(run({"verify", packed}, &out), 0);
  EXPECT_NE(out.find("ok: codec="), std::string::npos);
}

TEST(Cli, VerifyRejectsFlippedBit) {
  TempDir dir;
  const std::string raw = dir.file("raw.aict");
  const std::string packed = dir.file("packed.aicz");
  ASSERT_EQ(run({"gen", raw, "--res", "16", "--channels", "1"}), 0);
  ASSERT_EQ(run({"compress", raw, packed, "--cf", "4"}), 0);
  // Flip one payload bit on disk; the v3 CRC must catch it.
  std::fstream file(packed,
                    std::ios::in | std::ios::out | std::ios::binary);
  file.seekg(0, std::ios::end);
  const std::streamoff size = file.tellg();
  file.seekp(size - 5);
  char byte;
  file.seekg(size - 5);
  file.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x10);
  file.seekp(size - 5);
  file.write(&byte, 1);
  file.close();
  std::string err;
  EXPECT_EQ(run({"verify", packed}, nullptr, &err), 1);
  EXPECT_NE(err.find("corrupt stream"), std::string::npos) << err;
}

std::string read_file(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(file)),
                     std::istreambuf_iterator<char>());
}

void flip_last_bytes(const std::string& path) {
  std::string bytes = read_file(path);
  bytes[bytes.size() - 5] ^= 0x10;
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

constexpr const char* kDefaultSpec = "dctchop:cf=4,block=8,transform=dct";

TEST(Cli, CompressFileMatchesInMemoryArchiveBytes) {
  // The streamed file must equal the in-memory writer's bytes for every
  // entropy mode and pool size. A 1 KiB chunk budget spreads the payload
  // over many chunks, so the stream sink writes chunks as they finish and
  // back-patches its chunk table.
  TempDir dir;
  const std::string raw = dir.file("raw.aict");
  const std::string packed = dir.file("packed.aicz");
  ASSERT_EQ(run({"gen", raw, "--res", "32", "--batch", "2"}), 0);
  const Tensor input = io::load_tensor(raw);
  for (const std::string entropy : {"raw", "huffman"}) {
    ArchiveWriteOptions options;
    options.chunk_bytes = 1024;
    options.entropy = baseline::parse_chunk_entropy(entropy);
    const std::string expected =
        compress_to_archive_bytes(input, kDefaultSpec, options);
    for (const std::string threads : {"1", "4"}) {
      const std::string label = entropy + " threads=" + threads;
      ASSERT_EQ(run({"compress", raw, packed, "--entropy", entropy,
                     "--chunk-bytes", "1024", "--threads", threads}),
                0)
          << label;
      EXPECT_EQ(read_file(packed), expected) << label;
    }
  }
}

TEST(Cli, CompressIntoFifoMatchesFile) {
  // A FIFO cannot seek, so the streaming writer takes its in-memory
  // fallback; the bytes must not change.
  TempDir dir;
  const std::string raw = dir.file("raw.aict");
  const std::string fifo = dir.file("packed.fifo");
  ASSERT_EQ(run({"gen", raw, "--res", "32", "--batch", "2"}), 0);
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  std::string received;
  std::thread reader([&] { received = read_file(fifo); });
  const int code = run({"compress", raw, fifo, "--chunk-bytes", "1024"});
  if (code != 0) std::ofstream{fifo};  // unblock a reader still in open()
  reader.join();
  ASSERT_EQ(code, 0);
  ArchiveWriteOptions options;
  options.chunk_bytes = 1024;
  EXPECT_EQ(received,
            compress_to_archive_bytes(io::load_tensor(raw), kDefaultSpec,
                                      options));
}

TEST(Cli, DecompressFileMatchesSerializedTensor) {
  TempDir dir;
  const std::string raw = dir.file("raw.aict");
  const std::string packed = dir.file("packed.aicz");
  const std::string restored = dir.file("restored.aict");
  ASSERT_EQ(run({"gen", raw, "--res", "32"}), 0);
  ASSERT_EQ(run({"compress", raw, packed}), 0);
  ASSERT_EQ(run({"decompress", packed, restored}), 0);
  const Archive archive = deserialize_archive(read_file(packed));
  const Tensor expected = make_archive_codec(archive)->decompress(
      archive.packed, archive.original_shape);
  EXPECT_EQ(read_file(restored), io::serialize_tensor(expected));
}

TEST(Cli, FailedCompressLeavesNoOutput) {
  TempDir dir;
  const std::string raw = dir.file("raw.aict");
  const std::string packed = dir.file("packed.aicz");
  ASSERT_EQ(run({"gen", raw, "--res", "16"}), 0);
  std::string err;
  EXPECT_EQ(run({"compress", raw, packed, "--codec", "bogus:cf=4"}, nullptr,
                &err),
            1);
  EXPECT_NE(err.find("unknown codec \"bogus\""), std::string::npos) << err;
  EXPECT_FALSE(std::filesystem::exists(packed));
}

TEST(Cli, FailedDecompressLeavesNoOutput) {
  TempDir dir;
  const std::string raw = dir.file("raw.aict");
  const std::string packed = dir.file("packed.aicz");
  const std::string restored = dir.file("restored.aict");
  ASSERT_EQ(run({"gen", raw, "--res", "16"}), 0);
  ASSERT_EQ(run({"compress", raw, packed}), 0);
  flip_last_bytes(packed);
  std::string err;
  EXPECT_EQ(run({"decompress", packed, restored}, nullptr, &err), 1);
  EXPECT_NE(err.find("corrupt stream [checksum_mismatch]"), std::string::npos)
      << err;
  EXPECT_FALSE(std::filesystem::exists(restored));
}

TEST(Archive, SerializeDeserializeRoundTrip) {
  runtime::Rng rng(1);
  const Tensor input = Tensor::uniform(Shape::bchw(2, 1, 16, 16), rng);
  const Archive archive = compress_to_archive(input, kDefaultSpec);
  const Archive back = deserialize_archive(serialize_archive(archive));
  EXPECT_EQ(back.original_shape, archive.original_shape);
  EXPECT_EQ(back.config.cf, 4u);
  EXPECT_TRUE(tensor::allclose(back.packed, archive.packed, 0.0));
}

TEST(Archive, CorruptHeaderRejected) {
  runtime::Rng rng(2);
  const Tensor input = Tensor::uniform(Shape::bchw(1, 1, 16, 16), rng);
  const Archive archive = compress_to_archive(input, kDefaultSpec);
  std::string bytes = serialize_archive(archive);
  bytes[0] = 'X';
  EXPECT_THROW(deserialize_archive(bytes), std::runtime_error);
}

TEST(Archive, PayloadHeaderMismatchRejected) {
  runtime::Rng rng(3);
  const Tensor input = Tensor::uniform(Shape::bchw(1, 1, 16, 16), rng);
  Archive archive = compress_to_archive(input, kDefaultSpec);
  archive.config.cf = 2;  // header now disagrees with the payload shape
  EXPECT_THROW(deserialize_archive(serialize_archive(archive)),
               std::runtime_error);
}

TEST(Archive, LegacyV2StreamStillRoundTrips) {
  // v2/v3 are read-only: the checked-in corpus seeds (dctchop cf=4 over
  // the robustness suite's seed inputs 14 and 11) must decode to exactly
  // what compressing those inputs gives.
  const std::string v2 = read_corpus_seed(
      AIC_CORPUS_DIR, "archive", "seed_archive_dctchop_v2.bin");
  const std::string v3 = read_corpus_seed(
      AIC_CORPUS_DIR, "archive", "seed_archive_dctchop_v3.bin");
  // v2 is the pre-CRC layout: 12 bytes shorter, different version word.
  EXPECT_EQ(v2.size() + 12, v3.size());
  for (const auto& [bytes, seed] :
       {std::pair{v2, std::uint64_t{14}}, std::pair{v3, std::uint64_t{11}}}) {
    const Archive archive =
        compress_to_archive(corpus_seed_tensor(seed), "dctchop:cf=4,block=8");
    const Archive back = deserialize_archive(bytes);
    EXPECT_EQ(back.original_shape, archive.original_shape) << seed;
    EXPECT_EQ(back.config.cf, archive.config.cf) << seed;
    EXPECT_TRUE(tensor::allclose(back.packed, archive.packed, 0.0)) << seed;
  }
}

TEST(Archive, TriangleAndPartialKindsRoundTrip) {
  runtime::Rng rng(5);
  const Tensor input = Tensor::uniform(Shape::bchw(1, 1, 16, 16), rng);
  for (const std::string spec :
       {"triangle:cf=4,block=8", "partial:cf=4,block=8,s=2"}) {
    const Archive archive = compress_to_archive(input, spec);
    const Archive back = deserialize_archive(serialize_archive(archive));
    EXPECT_EQ(back.triangle, archive.triangle) << spec;
    EXPECT_EQ(back.subdivision, archive.subdivision) << spec;
    EXPECT_TRUE(tensor::allclose(back.packed, archive.packed, 0.0)) << spec;
  }
}

TEST(Archive, UnsupportedVersionNamesFoundAndSupported) {
  runtime::Rng rng(6);
  const Tensor input = Tensor::uniform(Shape::bchw(1, 1, 16, 16), rng);
  std::string bytes =
      serialize_archive(compress_to_archive(input, kDefaultSpec));
  bytes[4] = 7;  // version word
  try {
    deserialize_archive(bytes);
    FAIL() << "version 7 accepted";
  } catch (const io::CorruptStream& error) {
    EXPECT_EQ(error.kind(), io::CorruptKind::kBadVersion);
    EXPECT_NE(std::string(error.what()).find("found version 7"),
              std::string::npos);
    EXPECT_NE(std::string(error.what()).find("supported versions 2..4"),
              std::string::npos);
  }
}

TEST(Archive, FlippedPayloadBitFailsChecksum) {
  runtime::Rng rng(7);
  const Tensor input = Tensor::uniform(Shape::bchw(1, 1, 16, 16), rng);
  std::string bytes =
      serialize_archive(compress_to_archive(input, kDefaultSpec));
  bytes[bytes.size() - 3] ^= 0x04;
  try {
    deserialize_archive(bytes);
    FAIL() << "corrupted payload accepted";
  } catch (const io::CorruptStream& error) {
    EXPECT_EQ(error.kind(), io::CorruptKind::kChecksumMismatch);
  }
}

}  // namespace
}  // namespace aic::cli
