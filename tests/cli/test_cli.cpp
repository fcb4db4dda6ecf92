#include "cli/cli.hpp"

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <thread>
#include <vector>

#include "cli/archive.hpp"
#include "cli/robustness_suite.hpp"
#include "core/dct_chop.hpp"
#include "io/error.hpp"
#include "io/fault_inject.hpp"
#include "io/tensor_io.hpp"
#include "obs/metrics.hpp"
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

/// The `--stats` table row of `stem` (rows are "  <stem padded> k=v ...").
std::string stats_row(const std::string& text, const std::string& stem) {
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("  " + stem + " ", 0) == 0) return line + " ";
  }
  return "";
}

std::uint64_t row_value(const std::string& row, const std::string& key) {
  const std::size_t at = row.find(" " + key + "=");
  if (at == std::string::npos) return 0;
  return std::stoull(row.substr(at + key.size() + 2));
}

TEST(Cli, StatsPrintsTheRegistryRowOfEachCodecStem) {
  TempDir dir;
  const std::string raw = dir.file("raw.aict");
  const std::string packed = dir.file("packed.aicz");
  ASSERT_EQ(run({"gen", raw, "--batch", "2", "--channels", "3", "--res",
                 "16"}),
            0);
  // The registry is process-wide; zero it so the rows count one command.
  obs::Registry::global().reset();
  std::string out;
  ASSERT_EQ(run({"compress", raw, packed, "--stats"}, &out), 0);
  const std::string compress = stats_row(out, "codec.compress");
  ASSERT_FALSE(compress.empty()) << out;
  EXPECT_EQ(row_value(compress, "calls"), 1u) << compress;
  EXPECT_EQ(row_value(compress, "planes"), 6u) << compress;
  EXPECT_EQ(row_value(compress, "flops"),
            6u * core::DctChopCodec::flops_compress(16, 4))
      << compress;
  EXPECT_EQ(row_value(compress, "flops_executed"),
            6u * core::DctChopCodec::flops_executed_hw(16, 16, 4))
      << compress;
  EXPECT_NE(compress.find(" seconds="), std::string::npos) << compress;
  EXPECT_NE(out.find("  kernel["), std::string::npos) << out;
  EXPECT_NE(out.find("  pool["), std::string::npos) << out;

  obs::Registry::global().reset();
  ASSERT_EQ(run({"decompress", packed, dir.file("r.aict"), "--stats"}, &out),
            0);
  const std::string decompress = stats_row(out, "codec.decompress");
  EXPECT_EQ(row_value(decompress, "planes"), 6u) << out;
  EXPECT_TRUE(stats_row(out, "codec.compress").empty()) << out;

  obs::Registry::global().reset();
  ASSERT_EQ(run({"eval", raw, "--codec", "sz:eb=1e-3", "--stats"}, &out), 0);
  const std::string sz = stats_row(out, "sz.compress");
  EXPECT_EQ(row_value(sz, "calls"), 1u) << out;
  EXPECT_EQ(row_value(sz, "planes"), 6u) << out;
  EXPECT_GT(row_value(sz, "bytes_out"), 0u) << out;
  // The comparators count no FLOPs, so their rows carry no FLOP series
  // (not a misleading flops=0).
  EXPECT_EQ(sz.find(" flops="), std::string::npos) << sz;
  EXPECT_EQ(sz.find(" flops_executed="), std::string::npos) << sz;
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

TEST(Cli, FlagTheCommandDoesNotReadFailsNamingIt) {
  TempDir dir;
  const std::string raw = dir.file("raw.aict");
  const std::string packed = dir.file("packed.aicz");
  ASSERT_EQ(run({"gen", raw, "--res", "16", "--channels", "1"}), 0);
  // --archive-version was retired with the v2/v3 writers; it used to be
  // accepted and ignored.
  std::string err;
  EXPECT_EQ(run({"compress", raw, packed, "--archive-version", "3"}, nullptr,
                &err),
            1);
  EXPECT_NE(err.find("unknown flag --archive-version"), std::string::npos)
      << err;
  EXPECT_FALSE(std::filesystem::exists(packed));
  ASSERT_EQ(run({"compress", raw, packed, "--cf", "4"}), 0);
  const std::vector<std::vector<std::string>> rejected = {
      {"decompress", packed, dir.file("r.aict"), "--cf", "4"},
      {"verify", packed, "--entropy", "raw"},
      {"info", packed, "--stats"},
      {"gen", dir.file("g.aict"), "--triangle"},
      {"eval", raw, "--chunk-bytes", "1024"},
      {"serve", packed, "--res", "16"},
      {"--metrics", "--cf", "4"},
      {"eval", raw, "--codec", "dctchop:cf=4", "--cf", "2"},
  };
  for (const std::vector<std::string>& args : rejected) {
    std::string message;
    EXPECT_EQ(run(args, nullptr, &message), 1) << args[0];
    EXPECT_NE(message.find("--"), std::string::npos) << message;
  }
}

// Every flag README, CI, the examples, tools and perfbench pass to aicomp
// (run_cli) still gets through the per-command check.
TEST(Cli, DocumentedFlagsAreAccepted) {
  TempDir dir;
  const std::string raw = dir.file("raw.aict");
  const std::string packed = dir.file("packed.aicz");
  const std::string restored = dir.file("restored.aict");
  ASSERT_EQ(run({"gen", raw, "--batch", "2", "--channels", "3", "--res",
                 "16", "--seed", "7"}),
            0);
  ASSERT_EQ(run({"compress", raw, packed, "--cf", "4", "--block", "8",
                 "--transform", "wht", "--triangle"}),
            0);
  ASSERT_EQ(run({"compress", raw, packed, "--codec", "partial:cf=4,s=2"}), 0);
  ASSERT_EQ(run({"compress", raw, packed, "--cf", "4", "--chunk-bytes",
                 "4096", "--entropy", "auto", "--stats", "--threads", "2",
                 "--metrics-out", dir.file("m.json")}),
            0);
  ASSERT_EQ(run({"decompress", packed, restored, "--stats", "--threads",
                 "1"}),
            0);
  ASSERT_EQ(run({"verify", packed, "--stats"}), 0);
  ASSERT_EQ(run({"info", packed, "--metrics"}), 0);
  ASSERT_EQ(run({"eval", raw, "--cf", "2", "--transform", "wht", "--stats"}),
            0);
  ASSERT_EQ(run({"eval", raw, "--codec", "zfp:rate=8"}), 0);
  ASSERT_EQ(run({"--metrics-out", dir.file("probe.json")}), 0);
  // serve's flags pass the check; --sessions 0 then stops it before the
  // endpoint starts.
  std::string err;
  EXPECT_EQ(run({"serve", packed, "--obs-port", "0", "--duration-ms", "10",
                 "--interval-ms", "10", "--sessions", "0"},
                nullptr, &err),
            1);
  EXPECT_NE(err.find("--sessions must be in [1, 64]"), std::string::npos)
      << err;
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

/// What `aicomp decompress` must write for `archive_bytes`: the serialized
/// whole-tensor decompress of the in-memory decoder.
std::string expected_restore(const std::string& archive_bytes) {
  const Archive archive = deserialize_archive(archive_bytes);
  return io::serialize_tensor(make_archive_codec(archive)->decompress(
      archive.packed, archive.original_shape));
}

TEST(Cli, DecompressFileMatchesSerializedTensor) {
  // 3x3 planes of 256² restore in groups of 4, 4 and 1 planes. 1 KiB
  // chunks straddle planes, groups and the 44-byte tensor header, so the
  // packed window is refilled mid-chunk at every group.
  TempDir dir;
  const std::string raw = dir.file("raw.aict");
  const std::string packed = dir.file("packed.aicz");
  const std::string restored = dir.file("restored.aict");
  ASSERT_EQ(run({"gen", raw, "--batch", "3", "--channels", "3", "--res",
                 "256"}),
            0);
  for (const std::string codec :
       {"dctchop:cf=4", "triangle:cf=4", "partial:cf=4,s=2"}) {
    for (const std::string entropy : {"raw", "huffman", "auto"}) {
      ASSERT_EQ(run({"compress", raw, packed, "--codec", codec, "--entropy",
                     entropy, "--chunk-bytes", "1024"}),
                0);
      const std::string expected = expected_restore(read_file(packed));
      for (const std::string threads : {"1", "4"}) {
        const std::string label =
            codec + " " + entropy + " threads=" + threads;
        ASSERT_EQ(run({"decompress", packed, restored, "--threads", threads}),
                  0)
            << label;
        EXPECT_EQ(read_file(restored), expected) << label;
        std::string out;
        ASSERT_EQ(run({"verify", packed, "--threads", threads}, &out), 0)
            << label;
        EXPECT_NE(out.find("ok: codec="), std::string::npos) << label;
      }
    }
  }
  // The read-only v2/v3 containers restore through the same group loop.
  for (const std::string seed :
       {"seed_archive_dctchop_v2.bin", "seed_archive_dctchop_v3.bin",
        "seed_archive_partial_v3.bin", "seed_archive_triangle_v3.bin"}) {
    const std::string seed_path =
        std::string(AIC_CORPUS_DIR) + "/archive/" + seed;
    ASSERT_EQ(run({"decompress", seed_path, restored}), 0) << seed;
    EXPECT_EQ(read_file(restored), expected_restore(read_file(seed_path)))
        << seed;
  }
}

TEST(Cli, DecompressAndVerifyRejectLikeTheInMemoryDecoder) {
  // Every sampled mutant of the v4 seeds fails `decompress` and `verify`
  // with exactly the error deserialize_archive raises (same kind, same
  // chunk), and a failed decompress leaves no output file; a mutant the
  // decoder accepts restores to the decoder's bytes.
  TempDir dir;
  const std::string mutant_path = dir.file("mutant.aicz");
  const std::string restored = dir.file("restored.aict");
  io::FaultMatrixOptions options;
  options.truncate_stride = 5;
  options.random_flips = 48;
  for (const std::string seed :
       {"seed_archive_dctchop_v4_raw.bin", "seed_archive_dctchop_v4_packed.bin",
        "seed_archive_partial_v4_auto.bin",
        "seed_archive_triangle_v4_huffman.bin"}) {
    std::size_t checked = 0;
    const io::DecodeFn decode = [&](const std::string& mutant) {
      std::ofstream(mutant_path, std::ios::binary | std::ios::trunc) << mutant;
      std::string expected;
      std::optional<io::CorruptStream> error;
      try {
        expected = expected_restore(mutant);
      } catch (const io::CorruptStream& rejected) {
        error = rejected;
      }
      for (const std::string command : {"decompress", "verify"}) {
        std::vector<std::string> args{command, mutant_path};
        if (command == "decompress") args.push_back(restored);
        std::string err;
        const int code = run(args, nullptr, &err);
        if (error) {
          EXPECT_EQ(code, 1) << seed << " " << command;
          EXPECT_EQ(err, std::string("error: ") + error->what() + "\n")
              << seed << " " << command;
          EXPECT_FALSE(std::filesystem::exists(restored)) << seed;
        } else {
          EXPECT_EQ(code, 0) << seed << " " << command << ": " << err;
          if (command == "decompress") {
            EXPECT_EQ(read_file(restored), expected) << seed;
            std::filesystem::remove(restored);
          }
        }
      }
      ++checked;
      if (error) throw *error;
      return expected;
    };
    const io::FaultReport report = io::run_fault_matrix(
        read_corpus_seed(AIC_CORPUS_DIR, "archive", seed), decode, options);
    EXPECT_TRUE(report.ok()) << seed << ": " << report.summary();
    EXPECT_GT(report.rejected, 50u) << seed;
    EXPECT_GT(checked, 100u) << seed;
  }
}

TEST(Cli, DecompressReportsTheLowestCorruptChunk) {
  // Two corrupt chunks in different plane groups: the streamed restore
  // stops at the first and names it, as the whole-payload decode does.
  TempDir dir;
  const std::string raw = dir.file("raw.aict");
  const std::string packed = dir.file("packed.aicz");
  const std::string restored = dir.file("restored.aict");
  ASSERT_EQ(run({"gen", raw, "--batch", "2", "--channels", "3", "--res",
                 "256"}),
            0);
  ASSERT_EQ(run({"compress", raw, packed, "--chunk-bytes", "4096"}), 0);
  std::string bytes = read_file(packed);
  bytes[bytes.size() - 100] ^= 0x01;  // the last chunk, second group
  bytes[bytes.size() / 3] ^= 0x01;    // a chunk of the first group
  std::ofstream(packed, std::ios::binary | std::ios::trunc) << bytes;
  std::string expected;
  try {
    deserialize_archive(bytes);
    FAIL() << "corrupt archive accepted";
  } catch (const io::CorruptStream& error) {
    expected = std::string("error: ") + error.what() + "\n";
  }
  for (const std::string threads : {"1", "4"}) {
    std::string err;
    EXPECT_EQ(run({"decompress", packed, restored, "--threads", threads},
                  nullptr, &err),
              1);
    EXPECT_EQ(err, expected) << threads;
    EXPECT_FALSE(std::filesystem::exists(restored)) << threads;
  }
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
