#include "cli/robustness_suite.hpp"

#include <gtest/gtest.h>

#include <string>

#include "cli/archive.hpp"
#include "io/error.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "runtime/rng.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"

namespace aic::cli {
namespace {

using tensor::Shape;
using tensor::Tensor;

// The hardening contract: every mutant of every decode path either
// decodes bitwise-exactly or raises aic::io::CorruptStream. The fault
// matrix covers exhaustive header-bit flips, truncation at every byte
// boundary, seeded random flips over the whole stream, and deep field
// sweeps with recomputed CRCs.
TEST(DecodeRobustness, FaultMatrixIsClean) {
  for (const auto& [name, report] : run_robustness_suite(AIC_CORPUS_DIR)) {
    std::string detail = name + ": " + report.summary();
    for (const std::string& failure : report.failures) {
      detail += "\n  " + failure;
    }
    EXPECT_TRUE(report.ok()) << detail;
    // The matrix must actually exercise the target, and corruption must
    // actually be detected (an always-succeeding decode would be a
    // vacuous pass).
    EXPECT_GT(report.mutants, 100u) << name;
    EXPECT_GT(report.rejected, 0u) << name;
  }
}

TEST(DecodeRobustness, MatrixTargetsCoverEveryFamily) {
  bool archive = false, v2 = false, huffman = false, rle = false,
       bitstream = false;
  for (const RobustnessTarget& target : robustness_targets(AIC_CORPUS_DIR)) {
    if (target.corpus_family == "archive") archive = true;
    if (target.name.find("v2") != std::string::npos) v2 = true;
    if (target.corpus_family == "huffman") huffman = true;
    if (target.corpus_family == "rle") rle = true;
    if (target.corpus_family == "bitstream") bitstream = true;
  }
  EXPECT_TRUE(archive && v2 && huffman && rle && bitstream);
}

TEST(DecodeRobustness, CorruptDecodeBumpsObsCounters) {
  obs::Counter& total = obs::Registry::global().counter("io.decode_error");
  obs::Counter& by_kind =
      obs::Registry::global().counter("io.decode_error.checksum_mismatch");
  const std::uint64_t total_before = total.value();
  const std::uint64_t kind_before = by_kind.value();

  runtime::Rng rng(8);
  const Tensor input = Tensor::uniform(Shape::bchw(1, 1, 16, 16), rng);
  std::string bytes =
      serialize_archive(compress_to_archive(input, "dctchop:cf=4,block=8"));
  bytes[bytes.size() - 1] ^= 0x01;
  EXPECT_THROW(deserialize_archive(bytes), io::CorruptStream);

  EXPECT_EQ(total.value(), total_before + 1);
  EXPECT_EQ(by_kind.value(), kind_before + 1);
}

// Every typed rejection must hand exactly one record to the flight
// recorder while it is armed: obs.flight_dumps delta == sum of the
// matrix's `rejected` counts. A mismatch means some decode path throws
// CorruptStream without funnelling through io::raise_corrupt(), so that
// rejection would be invisible to crash-dump triage.
TEST(DecodeRobustness, EveryRejectionProducesOneFlightRecord) {
  obs::flight::Options options;
  options.dump_on_corrupt = false;  // memory-only: no files per mutant
  options.signals = false;
  options.terminate = false;
  const bool armed_here = obs::flight::arm(options);
  const std::uint64_t dumps_before = obs::flight::dumps();
  const std::uint64_t counter_before =
      obs::Registry::global().counter("obs.flight_dumps").value();

  std::uint64_t total_rejected = 0;
  for (const auto& [name, report] : run_robustness_suite(AIC_CORPUS_DIR)) {
    (void)name;
    total_rejected += report.rejected;
  }

  EXPECT_GT(total_rejected, 0u);
  EXPECT_EQ(obs::flight::dumps() - dumps_before, total_rejected);
  EXPECT_EQ(
      obs::Registry::global().counter("obs.flight_dumps").value() -
          counter_before,
      total_rejected);
  if (armed_here) obs::flight::disarm();
}

}  // namespace
}  // namespace aic::cli
