// Compressed dataset storage end to end — the paper's primary use-case
// (§2.3: "compressing training data can lower disk storage costs,
// improve host-to-device communication ... and reduce device memory
// consumption").
//
// 1. Generate a synthetic dataset and write each training batch to disk
//    as an .aicz archive (codec config + packed coefficients).
// 2. Reload the archives, decompress, and train on the reconstructed
//    batches.
// 3. Report disk bytes saved and the accuracy cost vs. training on the
//    pristine data.
//
//   ./build/examples/compressed_dataset

#include <filesystem>
#include <iostream>

#include "cli/archive.hpp"
#include "data/benchmarks.hpp"
#include "io/table.hpp"

int main() {
  using namespace aic;

  const data::DatasetConfig config{.train_samples = 64,
                                   .test_samples = 32,
                                   .batch_size = 16,
                                   .resolution = 16,
                                   .seed = 2026};
  constexpr std::size_t kCf = 4;
  constexpr std::size_t kEpochs = 6;

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "aic_compressed_dataset";
  std::filesystem::create_directories(dir);

  // --- 1. write the dataset compressed ---
  const data::Dataset dataset = data::make_denoise_dataset(config);
  std::size_t raw_bytes = 0, stored_bytes = 0;
  for (std::size_t i = 0; i < dataset.train.size(); ++i) {
    const cli::Archive archive = cli::compress_to_archive(
        dataset.train[i].input,
        "dctchop:cf=" + std::to_string(kCf) + ",block=8,transform=dct");
    const std::string path =
        (dir / ("batch" + std::to_string(i) + ".aicz")).string();
    cli::save_archive(archive, path);
    raw_bytes += dataset.train[i].input.size_bytes();
    stored_bytes += std::filesystem::file_size(path);
  }
  std::cout << "stored " << dataset.train.size() << " batches: " << raw_bytes
            << " B raw -> " << stored_bytes << " B on disk ("
            << io::Table::num(
                   static_cast<double>(raw_bytes) / stored_bytes, 4)
            << "x)\n";

  // --- 2. reload + decompress into a training-ready dataset ---
  std::vector<nn::Batch> restored_batches = dataset.train;  // targets kept
  for (std::size_t i = 0; i < restored_batches.size(); ++i) {
    const cli::Archive archive = cli::load_archive(
        (dir / ("batch" + std::to_string(i) + ".aicz")).string());
    restored_batches[i].input = cli::make_archive_codec(archive)->decompress(
        archive.packed, archive.original_shape);
  }

  // --- 3. train on pristine vs reconstructed data ---
  auto train = [&](const std::vector<nn::Batch>& batches) {
    runtime::Rng rng(7);
    auto model = nn::make_encoder_decoder(1, rng, 6);
    nn::Adam adam(model->params(), 0.004f);
    nn::Trainer trainer(*model, adam, nn::TaskKind::kRegression);
    double loss = 0.0;
    for (std::size_t epoch = 0; epoch < kEpochs; ++epoch) {
      trainer.train_epoch(batches);
      loss = trainer.evaluate(dataset.test).loss;
    }
    return loss;
  };
  const double pristine = train(dataset.train);
  const double reconstructed = train(restored_batches);

  io::Table table({"training data", "disk bytes", "final test loss"});
  table.add_row({"pristine fp32", std::to_string(raw_bytes),
                 io::Table::num(pristine, 5)});
  table.add_row({"dct+chop CR=4 archives", std::to_string(stored_bytes),
                 io::Table::num(reconstructed, 5)});
  table.print(std::cout);
  const double delta_pct = 100.0 * (reconstructed - pristine) /
                           (pristine == 0.0 ? 1.0 : pristine);
  std::cout << "\ntrade: " << io::Table::num(
                   static_cast<double>(raw_bytes) / stored_bytes, 3)
            << "x less disk for a " << io::Table::num(delta_pct, 3)
            << "% test-loss change (test data stays pristine here; the "
               "Fig. 8 benches route evaluation through the same codec "
               "pipeline and see em_denoise *improve*)\n";

  std::filesystem::remove_all(dir);
  return 0;
}
