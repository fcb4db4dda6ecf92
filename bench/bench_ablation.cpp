// Ablations of the §3.2 design choices the paper fixes by fiat:
//   A. square chop vs triangle keep-set at matched CF
//   B. transform block size (4 / 8 / 16) at matched CR
//   C. RGB direct vs JPEG-style YCbCr with chroma-heavy chopping
//   D. the two-matmul formulation vs a per-block loop (host wall time)

#include <chrono>
#include <cmath>
#include <iostream>

#include "bench/common.hpp"
#include "core/chop.hpp"
#include "core/codec_factory.hpp"
#include "core/dct.hpp"
#include "core/fidelity.hpp"
#include "core/partial_serializer.hpp"
#include "core/triangle.hpp"
#include "data/synth.hpp"
#include "runtime/timer.hpp"
#include "tensor/matmul.hpp"
#include "tensor/ops.hpp"

namespace {

using namespace aic;
using tensor::Shape;
using tensor::Tensor;

// All codecs below are built from CodecFactory spec strings (the same
// grammar `aicomp --codec` accepts).
core::CodecPtr chop(std::size_t cf, std::size_t block = 8,
                    const std::string& extra = "") {
  return core::make_codec("dctchop:cf=" + std::to_string(cf) +
                          ",block=" + std::to_string(block) + extra);
}

Tensor make_batch(std::size_t batch, std::size_t channels, std::size_t n,
                  std::uint64_t seed) {
  runtime::Rng rng(seed);
  Tensor t(Shape::bchw(batch, channels, n, n));
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t c = 0; c < channels; ++c) {
      Tensor plane = data::smooth_field(n, n, rng, 6, 0.5);
      data::add_gaussian_noise(plane, rng, 0.03);
      t.set_plane(b, c, plane);
    }
  }
  return t;
}

// RGB <-> YCbCr (BT.601 full range), applied across the 3 channels.
Tensor rgb_to_ycbcr(const Tensor& rgb) {
  Tensor out(rgb.shape());
  const std::size_t batch = rgb.shape()[0];
  const std::size_t plane = rgb.shape()[2] * rgb.shape()[3];
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t i = 0; i < plane; ++i) {
      const std::size_t base = (b * 3) * plane;
      const float r = rgb.at(base + i);
      const float g = rgb.at(base + plane + i);
      const float bl = rgb.at(base + 2 * plane + i);
      out.at(base + i) = 0.299f * r + 0.587f * g + 0.114f * bl;
      out.at(base + plane + i) = 0.5f + (-0.168736f * r - 0.331264f * g + 0.5f * bl);
      out.at(base + 2 * plane + i) = 0.5f + (0.5f * r - 0.418688f * g - 0.081312f * bl);
    }
  }
  return out;
}

Tensor ycbcr_to_rgb(const Tensor& ycc) {
  Tensor out(ycc.shape());
  const std::size_t batch = ycc.shape()[0];
  const std::size_t plane = ycc.shape()[2] * ycc.shape()[3];
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t i = 0; i < plane; ++i) {
      const std::size_t base = (b * 3) * plane;
      const float y = ycc.at(base + i);
      const float cb = ycc.at(base + plane + i) - 0.5f;
      const float cr = ycc.at(base + 2 * plane + i) - 0.5f;
      out.at(base + i) = y + 1.402f * cr;
      out.at(base + plane + i) = y - 0.344136f * cb - 0.714136f * cr;
      out.at(base + 2 * plane + i) = y + 1.772f * cb;
    }
  }
  return out;
}

// Per-channel round trip with channel-specific chop factors.
Tensor per_channel_round_trip(const Tensor& input,
                              const std::array<std::size_t, 3>& cfs) {
  const std::size_t n = input.shape()[2];
  Tensor out(input.shape());
  for (std::size_t c = 0; c < 3; ++c) {
    const core::CodecPtr codec = chop(cfs[c]);
    Tensor channel(Shape::bchw(input.shape()[0], 1, n, n));
    for (std::size_t b = 0; b < input.shape()[0]; ++b) {
      channel.set_plane(b, 0, input.slice_plane(b, c));
    }
    const Tensor restored = codec->round_trip(channel);
    for (std::size_t b = 0; b < input.shape()[0]; ++b) {
      out.set_plane(b, c, restored.slice_plane(b, 0));
    }
  }
  return out;
}

// Reference per-block compressor: loops 8×8 tiles instead of the
// batched two-matmul formulation. Same math, different schedule.
Tensor per_block_round_trip(const Tensor& input, std::size_t cf) {
  const std::size_t n = input.shape()[2];
  const Tensor t = core::dct_matrix(8);
  const Tensor tt = t.transposed();
  Tensor out(input.shape());
  Tensor tile(Shape::matrix(8, 8));
  for (std::size_t b = 0; b < input.shape()[0]; ++b) {
    for (std::size_t c = 0; c < input.shape()[1]; ++c) {
      for (std::size_t bi = 0; bi < n; bi += 8) {
        for (std::size_t bj = 0; bj < n; bj += 8) {
          for (std::size_t i = 0; i < 8; ++i) {
            for (std::size_t j = 0; j < 8; ++j) {
              tile.at(i, j) = input.at(b, c, bi + i, bj + j);
            }
          }
          Tensor coeffs = tensor::matmul(tensor::matmul(t, tile), tt);
          for (std::size_t i = 0; i < 8; ++i) {
            for (std::size_t j = 0; j < 8; ++j) {
              if (i >= cf || j >= cf) coeffs.at(i, j) = 0.0f;
            }
          }
          const Tensor restored =
              tensor::matmul(tensor::matmul(tt, coeffs), t);
          for (std::size_t i = 0; i < 8; ++i) {
            for (std::size_t j = 0; j < 8; ++j) {
              out.at(b, c, bi + i, bj + j) = restored.at(i, j);
            }
          }
        }
      }
    }
  }
  return out;
}

}  // namespace

int main() {
  constexpr std::size_t kRes = 64;
  const Tensor images = make_batch(8, 3, kRes, 404);

  // --- A. square vs triangle keep-set ---
  std::cout << "=== ablation A: square chop vs triangle keep-set ===\n";
  {
    io::Table table({"CF", "square CR", "square MSE", "triangle CR",
                     "triangle MSE", "MSE penalty"});
    for (const auto& point : bench::chop_sweep()) {
      const core::CodecPtr square = chop(point.cf);
      const core::CodecPtr triangle =
          core::make_codec("triangle:cf=" + std::to_string(point.cf));
      const auto rd_square = core::evaluate_codec(*square, images);
      const auto rd_triangle = core::evaluate_codec(*triangle, images);
      table.add_row(
          {std::to_string(point.cf),
           io::Table::num(rd_square.compression_ratio, 4),
           io::Table::num(rd_square.mse, 4),
           io::Table::num(rd_triangle.compression_ratio, 4),
           io::Table::num(rd_triangle.mse, 4),
           io::Table::num(rd_square.mse > 0
                              ? rd_triangle.mse / rd_square.mse
                              : 1.0,
                          3) +
               "x"});
    }
    table.print(std::cout);
  }

  // --- B. block size at matched CR = 4 ---
  std::cout << "\n=== ablation B: transform block size at CR=4 ===\n";
  {
    io::Table table({"block", "CF", "MSE", "PSNR (dB)", "operator bytes"});
    for (std::size_t block : {4u, 8u, 16u}) {
      const std::size_t cf = block / 2;  // CR = block²/cf² = 4
      const core::CodecPtr codec =
          chop(cf, block, ",h=" + std::to_string(kRes) +
                              ",w=" + std::to_string(kRes));
      const auto rd = core::evaluate_codec(*codec, images);
      // The dense Eq. 4 operator pair a two-matmul graph carries.
      const std::size_t operator_bytes =
          core::make_lhs(kRes, cf, block).size_bytes() +
          core::make_rhs(kRes, cf, block).size_bytes();
      table.add_row({std::to_string(block), std::to_string(cf),
                     io::Table::num(rd.mse, 4), io::Table::num(rd.psnr_db, 4),
                     std::to_string(operator_bytes)});
    }
    table.print(std::cout);
    std::cout << "(larger blocks capture more structure per coefficient "
                 "but cost bigger operators and coarser rate steps)\n";
  }

  // --- C. RGB direct vs YCbCr chroma-heavy chopping ---
  std::cout << "\n=== ablation C: RGB direct vs YCbCr (chroma chopped "
               "harder) ===\n";
  {
    // RGB: CF=4 on every channel (48 coeffs/block over 3 channels).
    const Tensor rgb_restored =
        per_channel_round_trip(images, {4, 4, 4});
    // YCbCr: CF=6 on luma, CF=2,2 on chroma (44 coeffs/block) — slightly
    // *higher* compression than the RGB config.
    const Tensor ycc = rgb_to_ycbcr(images);
    const Tensor ycc_restored = per_channel_round_trip(ycc, {6, 2, 2});
    const Tensor ycbcr_restored = ycbcr_to_rgb(ycc_restored);

    io::Table table({"pipeline", "kept coeffs/block (3ch)", "MSE",
                     "PSNR (dB)"});
    table.add_row({"RGB, CF=4/4/4", "48",
                   io::Table::num(tensor::mse(images, rgb_restored), 4),
                   io::Table::num(tensor::psnr(images, rgb_restored, 1.0), 4)});
    table.add_row({"YCbCr, CF=6/2/2", "44",
                   io::Table::num(tensor::mse(images, ycbcr_restored), 4),
                   io::Table::num(tensor::psnr(images, ycbcr_restored, 1.0),
                                  4)});
    table.print(std::cout);
    std::cout << "(the paper skips the colour transform to stay \"fast and "
                 "lightweight\" — this quantifies what that choice costs)\n";
  }

  // --- D. two-matmul formulation vs per-block loop, host wall time ---
  std::cout << "\n=== ablation D: two-matmul vs per-block loop (host) ===\n";
  {
    const core::CodecPtr codec = chop(4);
    constexpr int kReps = 5;

    runtime::Timer timer;
    Tensor via_matmul;
    for (int i = 0; i < kReps; ++i) via_matmul = codec->round_trip(images);
    const double matmul_time = timer.seconds() / kReps;

    timer.reset();
    Tensor via_blocks;
    for (int i = 0; i < kReps; ++i) via_blocks = per_block_round_trip(images, 4);
    const double block_time = timer.seconds() / kReps;

    io::Table table({"implementation", "time (ms)", "speedup",
                     "max |diff| vs other"});
    table.add_row({"two matmuls (Eq. 4/6)", bench::ms(matmul_time), "1x",
                   io::Table::num(tensor::max_abs_error(via_matmul,
                                                        via_blocks),
                                  3)});
    table.add_row({"per-block loop", bench::ms(block_time),
                   io::Table::num(block_time / matmul_time, 3) + "x slower",
                   "-"});
    table.print(std::cout);
    std::cout << "(both produce the same reconstruction; the batched "
                 "formulation is what the accelerators can actually run)\n";
  }

  // --- E. transform family (§6 future work: swap the block transform) ---
  std::cout << "\n=== ablation E: block transform family at each CF ===\n";
  {
    io::Table table({"CF", "dct MSE", "wht MSE", "dst2 MSE"});
    for (const auto& point : bench::chop_sweep()) {
      std::vector<std::string> row = {std::to_string(point.cf)};
      for (const char* kind : {"dct", "wht", "dst2"}) {
        const core::CodecPtr codec =
            chop(point.cf, 8, std::string(",transform=") + kind);
        row.push_back(io::Table::num(
            tensor::mse(images, codec->round_trip(images)), 4));
      }
      table.add_row(row);
    }
    table.print(std::cout);
    std::cout << "(the graph shape — two matmuls — is identical for every "
                 "family, so portability and simulated throughput are "
                 "unchanged; only energy compaction differs)\n";
  }
  return 0;
}
