#include "workloads.hpp"

#include <cmath>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "baseline/chunk_entropy.hpp"
#include "cli/archive.hpp"
#include "cli/cli.hpp"
#include "core/codec_factory.hpp"
#include "core/dct_chop.hpp"
#include "data/synth.hpp"
#include "io/mapped_file.hpp"
#include "io/tensor_io.hpp"
#include "runtime/rng.hpp"
#include "tensor/matmul.hpp"
#include "tensor/ops.hpp"

namespace perfbench {

namespace {

using aic::Context;
using aic::tensor::Shape;
using aic::tensor::Tensor;

/// Every workload runs the paper's default operating point.
constexpr const char* kSpec = "dctchop:cf=4";
constexpr std::size_t kCf = 4;
constexpr std::size_t kBlock = 8;
/// The v4 container's default chunk budget, also the probes' slice size.
constexpr std::size_t kChunkBytes = aic::cli::kDefaultChunkBytes;

/// The same inputs `aicomp gen` writes: a smooth random field per plane
/// plus 0.02 Gaussian noise, drawn plane by plane from one generator.
Tensor generate_batch(aic::runtime::Rng& rng, std::size_t batch,
                      std::size_t channels, std::size_t res) {
  Tensor tensor(Shape::bchw(batch, channels, res, res));
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t c = 0; c < channels; ++c) {
      Tensor plane = aic::data::smooth_field(res, res, rng, 6, 0.5);
      aic::data::add_gaussian_noise(plane, rng, 0.02);
      tensor.set_plane(b, c, plane);
    }
  }
  return tensor;
}

bool same_bytes(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.raw(), b.raw(), a.size_bytes()) == 0;
}

bool file_holds(const std::string& path, const std::string& bytes) {
  return aic::io::MappedFile(path).view() == bytes;
}

void flip_byte(std::string& bytes) { bytes[bytes.size() / 2] ^= 1; }
void flip_byte(Tensor& tensor) {
  reinterpret_cast<unsigned char*>(tensor.raw())[tensor.size_bytes() / 2] ^= 1;
}

Flops flops_for(const Shape& shape) {
  const double planes = static_cast<double>(shape[0] * shape[1]);
  const std::size_t h = shape[2];
  const std::size_t w = shape[3];
  const double ch = static_cast<double>(kCf * h / kBlock);
  const double cw = static_cast<double>(kCf * w / kBlock);
  constexpr double kDot = 2.0 * kBlock - 1.0;
  Flops flops;
  flops.useful = planes * kDot * cw * (static_cast<double>(h) + ch);
  flops.nominal =
      planes * static_cast<double>(aic::core::DctChopCodec::flops_compress_hw(
                   h, w, kCf, kBlock));
  return flops;
}

double psnr_of(const std::vector<Tensor>& inputs,
               const std::vector<Tensor>& restored) {
  double mse = 0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    mse += aic::tensor::mse(inputs[i], restored[i]);
  }
  mse /= static_cast<double>(inputs.size());
  return 10.0 * std::log10(1.0 / mse);
}

Context one_thread_context() {
  Context::Options options;
  options.threads = 1;
  return Context(options);
}

/// Sessions, codecs and the probes every workload shares.
class Base : public Workload {
 public:
  const Context& context() const override { return ctx_; }
  Flops compress_flops() const override { return flops_for(batch_shape_); }

 protected:
  explicit Base(const Shape& batch_shape)
      : batch_shape_(batch_shape),
        ctx_(Context::process_default()),
        ref_ctx_(one_thread_context()),
        codec_(aic::core::make_codec(kSpec, ctx_)),
        ref_codec_(aic::core::make_codec(kSpec, ref_ctx_)) {
    aic::runtime::Rng rng(7);
    const Shape square = Shape::matrix(kGemmN, kGemmN);
    gemm_a_ = Tensor::uniform(square, rng);
    gemm_b_ = Tensor::uniform(square, rng);
    gemm_c_ = Tensor(square);
  }

  /// Compress on the measured session and on a 1-thread session.
  bool probe_compress(const Tensor& input, const Tensor& ref_packed,
                      Tracer& tracer) {
    {
      Tracer::Scope root(tracer, "probe.compress");
      Tracer::Scope span(tracer, "core.compress", input.size_bytes());
      codec_->compress_into(input, probe_packed_);
    }
    bool ok = same_bytes(probe_packed_, ref_packed);
    {
      Tracer::Scope root(tracer, "probe.compress_1thread");
      Tracer::Scope span(tracer, "core.compress_1thread", input.size_bytes());
      ref_codec_->compress_into(input, probe_packed_);
    }
    return ok && same_bytes(probe_packed_, ref_packed);
  }

  /// The unfused container write of an already compressed archive.
  bool probe_serialize(const aic::cli::Archive& archive,
                       const aic::cli::ArchiveWriteOptions& options,
                       const std::string& reference, Tracer& tracer) {
    std::string bytes;
    {
      Tracer::Scope root(tracer, "probe.serialize");
      Tracer::Scope span(tracer, "cli.serialize", archive.packed.size_bytes());
      bytes = aic::cli::serialize_archive(archive, options, ctx_);
    }
    return bytes == reference;
  }

  /// Chunk entropy coding of a payload in container-sized slices on the
  /// calling thread. The encode span carries the plain bytes, the decode
  /// span the encoded bytes.
  bool probe_chunks(const std::string& payload, aic::baseline::ChunkEntropy mode,
                    Tracer& tracer) {
    const std::string_view plain(payload);
    std::vector<std::string> encoded;
    std::string decoded(payload.size(), '\0');
    {
      Tracer::Scope root(tracer, "probe.chunks");
      {
        Tracer::Scope span(tracer, "baseline.encode_chunks", payload.size());
        for (std::size_t at = 0; at < plain.size(); at += kChunkBytes) {
          encoded.push_back(
              aic::baseline::encode_chunk(plain.substr(at, kChunkBytes), mode));
        }
      }
      std::size_t encoded_bytes = 0;
      for (const std::string& chunk : encoded) encoded_bytes += chunk.size();
      Tracer::Scope span(tracer, "baseline.decode_chunks", encoded_bytes);
      for (std::size_t i = 0; i < encoded.size(); ++i) {
        const std::size_t at = i * kChunkBytes;
        aic::baseline::decode_chunk(
            encoded[i], std::min(kChunkBytes, plain.size() - at),
            decoded.data() + at);
      }
    }
    return decoded == payload;
  }

  /// A square GEMM on the measured session's pool: the attainable rate
  /// the transform's useful GFLOP/s compares against.
  void probe_gemm(Tracer& tracer) {
    Context::PoolScope scope(ctx_);
    Tracer::Scope root(tracer, "probe.gemm");
    Tracer::Scope span(tracer, "tensor.gemm");
    aic::tensor::matmul_into(gemm_a_, gemm_b_, gemm_c_);
  }

  Shape batch_shape_;
  Context ctx_;
  /// Builds the references: same library, a different pool size.
  Context ref_ctx_;
  aic::core::CodecPtr codec_;
  aic::core::CodecPtr ref_codec_;

 private:
  Tensor probe_packed_;
  Tensor gemm_a_, gemm_b_, gemm_c_;
};

/// cli_file_512: `aicomp compress` of a tensor file and `aicomp
/// decompress` of an archive file, run in-process through
/// aic::cli::run_cli.
///
/// Every op writes a file that does not exist yet, and the check deletes
/// it again. Rewriting a file in place would make ext4 flush the old
/// contents to disk on close (auto_da_alloc), and the op would then wait
/// on the disk instead of the page cache.
class CliFile final : public Base {
 public:
  explicit CliFile(const Settings& settings)
      : Base(Shape::bchw(8, 3, 512, 512)),
        input_path_((settings.work_dir / "input.aict").string()),
        ref_archive_path_((settings.work_dir / "reference.aicz").string()),
        archive_path_((settings.work_dir / "output.aicz").string()),
        restored_path_((settings.work_dir / "restored.aict").string()) {
    aic::runtime::Rng rng(settings.seed);
    input_ = generate_batch(rng, 8, 3, 512);
    aic::io::save_tensor(input_, input_path_);
    ref_archive_ = aic::cli::compress_to_archive_bytes(input_, kSpec, {},
                                                       nullptr, ref_ctx_);
    std::ofstream(ref_archive_path_, std::ios::binary) << ref_archive_;
    ref_struct_ = aic::cli::deserialize_archive(ref_archive_, ref_ctx_);
    ref_restored_ = aic::cli::make_archive_codec(ref_struct_, ref_ctx_)
                        ->decompress(ref_struct_.packed,
                                     ref_struct_.original_shape);
    ref_restored_file_ = aic::io::serialize_tensor(ref_restored_);
    payload_ = aic::io::serialize_tensor(ref_struct_.packed);
  }

  ~CliFile() override {
    for (const std::string* path :
         {&input_path_, &ref_archive_path_, &archive_path_, &restored_path_}) {
      std::error_code ignored;
      std::filesystem::remove(*path, ignored);
    }
  }

  const std::vector<OpKind>& round() const override {
    static const std::vector<OpKind> kRound{OpKind::kCompress,
                                            OpKind::kDecompress};
    return kRound;
  }

  void run(std::size_t slot, std::uint64_t) override {
    if (slot == 0) {
      call_cli({"compress", input_path_, archive_path_, "--codec", kSpec});
    } else {
      call_cli({"decompress", ref_archive_path_, restored_path_});
    }
  }

  // The steps of cmd_compress / cmd_decompress in cli.cpp.
  void replica(std::size_t slot, std::uint64_t, Tracer& tracer) override {
    if (slot == 0) {
      Tensor input;
      {
        Tracer::Scope span(tracer, "io.load_tensor",
                           aic::io::serialized_tensor_bytes(input_.shape()));
        input = aic::io::load_tensor(input_path_);
      }
      std::string bytes;
      {
        Tracer::Scope span(tracer, "cli.fused_compress", input.size_bytes());
        bytes = aic::cli::compress_to_archive_bytes(input, kSpec, {}, nullptr,
                                                    ctx_);
      }
      Tracer::Scope span(tracer, "io.archive_write", bytes.size());
      std::ofstream file(archive_path_, std::ios::binary);
      file.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
      if (!file) throw std::runtime_error("cannot write " + archive_path_);
      return;
    }
    std::optional<aic::io::MappedFile> file;
    {
      Tracer::Scope span(tracer, "io.archive_map", ref_archive_.size());
      file.emplace(ref_archive_path_);
    }
    aic::cli::Archive archive;
    {
      Tracer::Scope span(tracer, "cli.deserialize", file->size());
      archive = aic::cli::deserialize_archive(file->view(), ctx_);
    }
    file.reset();  // load_archive unmaps before the decode
    aic::core::CodecPtr codec;
    {
      Tracer::Scope span(tracer, "core.make_codec");
      codec = aic::cli::make_archive_codec(archive, ctx_);
    }
    Tensor restored;
    {
      Tracer::Scope span(tracer, "core.decompress", input_.size_bytes());
      restored = codec->decompress(archive.packed, archive.original_shape);
    }
    Tracer::Scope span(tracer, "io.save_tensor", ref_restored_file_.size());
    aic::io::save_tensor(restored, restored_path_);
  }

  bool verify(std::size_t slot, std::uint64_t) override {
    const std::string& path = slot == 0 ? archive_path_ : restored_path_;
    const bool ok =
        file_holds(path, slot == 0 ? ref_archive_ : ref_restored_file_);
    std::error_code ignored;
    std::filesystem::remove(path, ignored);
    return ok;
  }

  bool probes(std::uint64_t, Tracer& tracer) override {
    bool ok = probe_compress(input_, ref_struct_.packed, tracer);
    ok = probe_serialize(ref_struct_, {}, ref_archive_, tracer) && ok;
    ok = probe_chunks(payload_, aic::baseline::ChunkEntropy::kRaw, tracer) &&
         ok;
    probe_gemm(tracer);
    return ok;
  }

  double raw_bytes(OpKind) const override {
    return static_cast<double>(input_.size_bytes());
  }
  double compression_ratio() const override {
    return static_cast<double>(input_.size_bytes()) /
           static_cast<double>(ref_archive_.size());
  }
  double psnr_db() const override {
    return aic::tensor::psnr(input_, ref_restored_, 1.0);
  }
  void corrupt_references() override {
    flip_byte(ref_archive_);
    flip_byte(ref_restored_file_);
  }

 private:
  static void call_cli(const std::vector<std::string>& args) {
    std::ostringstream out;
    std::ostringstream err;
    if (aic::cli::run_cli(args, out, err) != 0) {
      throw std::runtime_error("aicomp " + args[0] + ": " + err.str());
    }
  }

  std::string input_path_, ref_archive_path_, archive_path_, restored_path_;
  Tensor input_;
  std::string ref_archive_;
  aic::cli::Archive ref_struct_;
  Tensor ref_restored_;
  std::string ref_restored_file_;
  std::string payload_;
};

/// batch_roundtrip_256: the per-batch codec cost of training (§4.2.1),
/// compress_into then decompress_into with reused outputs.
class BatchRoundtrip final : public Base {
 public:
  static constexpr std::size_t kBatches = 4;

  explicit BatchRoundtrip(const Settings& settings)
      : Base(Shape::bchw(16, 3, 256, 256)) {
    aic::runtime::Rng rng(settings.seed);
    for (std::size_t i = 0; i < kBatches; ++i) {
      inputs_.push_back(generate_batch(rng, 16, 3, 256));
      ref_packed_.push_back(ref_codec_->compress(inputs_[i]));
      ref_restored_.push_back(
          ref_codec_->decompress(ref_packed_[i], inputs_[i].shape()));
    }
  }

  const std::vector<OpKind>& round() const override {
    static const std::vector<OpKind> kRound{OpKind::kCompress,
                                            OpKind::kDecompress};
    return kRound;
  }

  // The decompress consumes the packed tensor the compress of the same
  // round produced: the round trip a training batch takes.
  void run(std::size_t slot, std::uint64_t round) override {
    const Tensor& input = inputs_[round % kBatches];
    if (slot == 0) {
      codec_->compress_into(input, packed_);
    } else {
      codec_->decompress_into(packed_, input.shape(), restored_);
    }
  }

  void replica(std::size_t slot, std::uint64_t round,
               Tracer& tracer) override {
    const Tensor& input = inputs_[round % kBatches];
    if (slot == 0) {
      Tracer::Scope span(tracer, "core.compress", input.size_bytes());
      codec_->compress_into(input, packed_);
    } else {
      Tracer::Scope span(tracer, "core.decompress", input.size_bytes());
      codec_->decompress_into(packed_, input.shape(), restored_);
    }
  }

  bool verify(std::size_t slot, std::uint64_t round) override {
    const std::size_t i = round % kBatches;
    return slot == 0 ? same_bytes(packed_, ref_packed_[i])
                     : same_bytes(restored_, ref_restored_[i]);
  }

  bool probes(std::uint64_t round, Tracer& tracer) override {
    const std::size_t i = round % kBatches;
    const bool ok = probe_compress(inputs_[i], ref_packed_[i], tracer);
    probe_gemm(tracer);
    return ok;
  }

  double raw_bytes(OpKind) const override {
    return static_cast<double>(inputs_[0].size_bytes());
  }
  double compression_ratio() const override {
    return static_cast<double>(inputs_[0].size_bytes()) /
           static_cast<double>(ref_packed_[0].size_bytes());
  }
  double psnr_db() const override { return psnr_of(inputs_, ref_restored_); }
  void corrupt_references() override {
    for (Tensor& packed : ref_packed_) flip_byte(packed);
    for (Tensor& restored : ref_restored_) flip_byte(restored);
  }

 private:
  std::vector<Tensor> inputs_, ref_packed_, ref_restored_;
  Tensor packed_, restored_;
};

/// loader_64_huffman: a read-mostly training loader over in-memory
/// Huffman-coded archives, four decodes to one encode per round.
class Loader final : public Base {
 public:
  static constexpr std::size_t kArchives = 32;

  explicit Loader(const Settings& settings)
      : Base(Shape::bchw(16, 3, 64, 64)) {
    options_.entropy = aic::baseline::ChunkEntropy::kHuffman;
    aic::runtime::Rng rng(settings.seed);
    for (std::size_t i = 0; i < kArchives; ++i) {
      inputs_.push_back(generate_batch(rng, 16, 3, 64));
      archives_.push_back(aic::cli::compress_to_archive_bytes(
          inputs_[i], kSpec, options_, nullptr, ref_ctx_));
      ref_structs_.push_back(
          aic::cli::deserialize_archive(archives_[i], ref_ctx_));
      ref_restored_.push_back(
          aic::cli::make_archive_codec(ref_structs_[i], ref_ctx_)
              ->decompress(ref_structs_[i].packed,
                           ref_structs_[i].original_shape));
    }
  }

  const std::vector<OpKind>& round() const override {
    static const std::vector<OpKind> kRound{
        OpKind::kDecompress, OpKind::kDecompress, OpKind::kCompress,
        OpKind::kDecompress, OpKind::kDecompress};
    return kRound;
  }

  void run(std::size_t slot, std::uint64_t round) override {
    if (slot == kEncodeSlot) {
      aic::cli::compress_to_archive_bytes(inputs_[round % kArchives], kSpec,
                                          options_, nullptr, ctx_, encoded_);
      return;
    }
    archive_ = aic::cli::deserialize_archive(archives_[decoded(slot, round)],
                                             ctx_);
    const aic::core::CodecPtr codec =
        aic::cli::make_archive_codec(archive_, ctx_);
    codec->decompress_into(archive_.packed, archive_.original_shape,
                           restored_);
  }

  void replica(std::size_t slot, std::uint64_t round,
               Tracer& tracer) override {
    if (slot == kEncodeSlot) {
      const Tensor& input = inputs_[round % kArchives];
      Tracer::Scope span(tracer, "cli.fused_compress", input.size_bytes());
      aic::cli::compress_to_archive_bytes(input, kSpec, options_, nullptr,
                                          ctx_, encoded_);
      return;
    }
    const std::string& bytes = archives_[decoded(slot, round)];
    {
      Tracer::Scope span(tracer, "cli.deserialize", bytes.size());
      archive_ = aic::cli::deserialize_archive(bytes, ctx_);
    }
    aic::core::CodecPtr codec;
    {
      Tracer::Scope span(tracer, "core.make_codec");
      codec = aic::cli::make_archive_codec(archive_, ctx_);
    }
    Tracer::Scope span(tracer, "core.decompress", inputs_[0].size_bytes());
    codec->decompress_into(archive_.packed, archive_.original_shape,
                           restored_);
  }

  bool verify(std::size_t slot, std::uint64_t round) override {
    if (slot == kEncodeSlot) return encoded_ == archives_[round % kArchives];
    return same_bytes(restored_, ref_restored_[decoded(slot, round)]);
  }

  bool probes(std::uint64_t round, Tracer& tracer) override {
    const std::size_t i = round % kArchives;
    bool ok = probe_compress(inputs_[i], ref_structs_[i].packed, tracer);
    ok = probe_serialize(ref_structs_[i], options_, archives_[i], tracer) &&
         ok;
    ok = probe_chunks(aic::io::serialize_tensor(ref_structs_[i].packed),
                      options_.entropy, tracer) &&
         ok;
    probe_gemm(tracer);
    return ok;
  }

  double raw_bytes(OpKind) const override {
    return static_cast<double>(inputs_[0].size_bytes());
  }
  double compression_ratio() const override {
    double archive_bytes = 0;
    for (const std::string& archive : archives_) {
      archive_bytes += static_cast<double>(archive.size());
    }
    return static_cast<double>(kArchives * inputs_[0].size_bytes()) /
           archive_bytes;
  }
  double psnr_db() const override { return psnr_of(inputs_, ref_restored_); }
  void corrupt_references() override {
    for (std::string& archive : archives_) flip_byte(archive);
    for (Tensor& restored : ref_restored_) flip_byte(restored);
  }

 private:
  static constexpr std::size_t kEncodeSlot = 2;

  /// Archive decoded by decode slot `slot` of round `round`: consecutive
  /// decodes walk the archives in order.
  static std::size_t decoded(std::size_t slot, std::uint64_t round) {
    const std::size_t nth = slot < kEncodeSlot ? slot : slot - 1;
    return (round * 4 + nth) % kArchives;
  }

  aic::cli::ArchiveWriteOptions options_;
  std::vector<Tensor> inputs_;
  std::vector<std::string> archives_;
  std::vector<aic::cli::Archive> ref_structs_;
  std::vector<Tensor> ref_restored_;
  aic::cli::Archive archive_;
  Tensor restored_;
  std::string encoded_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames{
      "cli_file_512", "batch_roundtrip_256", "loader_64_huffman"};
  return kNames;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Settings& settings) {
  if (name == "cli_file_512") return std::make_unique<CliFile>(settings);
  if (name == "batch_roundtrip_256") {
    return std::make_unique<BatchRoundtrip>(settings);
  }
  if (name == "loader_64_huffman") return std::make_unique<Loader>(settings);
  throw std::invalid_argument("unknown workload: " + name);
}

}  // namespace perfbench
