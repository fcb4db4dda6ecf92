// google-benchmark microbenchmarks of the library's hot kernels: the
// two-matmul codec paths, the underlying GEMM, and the baseline codecs.
// These measure *real host execution*, complementing the simulated
// accelerator timings of the figure benches.
//
// Every GEMM/sandwich bench exists per kernel backend (scalar vs avx2) so
// the SIMD speedup is a first-class, machine-readable result. Run with
// `--json[=path]` to emit google-benchmark's JSON report (default path
// BENCH_kernels.json in the working directory).

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "baseline/jpeg_codec.hpp"
#include "baseline/zfp_like.hpp"
#include "bench/common.hpp"
#include "core/chop.hpp"
#include "core/codec_factory.hpp"
#include "core/dct_chop.hpp"
#include "core/plan_cache.hpp"
#include "data/synth.hpp"
#include "obs/metrics.hpp"
#include "runtime/cpu_features.hpp"
#include "runtime/rng.hpp"
#include "tensor/matmul.hpp"

namespace {

using namespace aic;
using runtime::KernelBackend;
using tensor::Shape;
using tensor::Tensor;
using tensor::Trans;

/// Pins the kernel backend for a bench loop, restoring on scope exit.
/// Returns false (after flagging the bench as skipped) when the host
/// cannot run the requested backend.
class BackendScope {
 public:
  BackendScope(benchmark::State& state, KernelBackend backend)
      : saved_(runtime::kernel_backend()) {
    if (backend == KernelBackend::kAvx2 &&
        !(runtime::cpu_features().avx2 && runtime::cpu_features().fma)) {
      state.SkipWithError("host lacks AVX2+FMA");
      return;
    }
    runtime::set_kernel_backend(backend);
    ok_ = true;
  }
  ~BackendScope() { runtime::set_kernel_backend(saved_); }
  explicit operator bool() const { return ok_; }

 private:
  KernelBackend saved_;
  bool ok_ = false;
};

// Chop-family codecs are built from CodecFactory specs, pinned to the
// bench resolution so plan resolution happens outside the timed loop.
core::CodecPtr make_chop(const char* kind, std::size_t n, std::size_t cf,
                         const Context& ctx = Context::process_default()) {
  return core::make_codec(std::string(kind) + ":cf=" + std::to_string(cf) +
                              ",block=8,h=" + std::to_string(n) +
                              ",w=" + std::to_string(n),
                          ctx);
}

// A session per benchmark run, so the `<prefix>codec.*` registry series
// it reports count that run alone.
Context bench_context() {
  static std::atomic<int> runs{0};
  Context::Options options;
  options.obs_prefix = "bench" + std::to_string(runs++) + ".";
  return Context(options);
}

Tensor make_batch(std::size_t batch, std::size_t channels, std::size_t n) {
  runtime::Rng rng(1);
  Tensor t(Shape::bchw(batch, channels, n, n));
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t c = 0; c < channels; ++c) {
      t.set_plane(b, c, data::smooth_field(n, n, rng, 4, 0.4));
    }
  }
  return t;
}

// Publishes a run's codec series alongside the benchmark timings.
void report_codec_series(benchmark::State& state, const Context& ctx) {
  const auto count = [&ctx](const std::string& name) {
    return static_cast<double>(ctx.counter(name).value());
  };
  const auto both = [&count](const std::string& key) {
    return count("codec.compress." + key) + count("codec.decompress." + key);
  };
  state.counters["planes"] = both("planes");
  state.counters["eq_flops"] = both("flops");
  state.counters["exec_flops"] = both("flops_executed");
  // A count per nanosecond of wall time is giga-units per second.
  const double comp_ns = static_cast<double>(
      ctx.histogram("codec.compress.ns").snapshot().sum);
  const double decomp_ns = static_cast<double>(
      ctx.histogram("codec.decompress.ns").snapshot().sum);
  if (comp_ns > 0) {
    state.counters["comp_GFLOP/s"] = count("codec.compress.flops") / comp_ns;
    state.counters["comp_GB/s"] = count("codec.compress.bytes_in") / comp_ns;
  }
  if (decomp_ns > 0) {
    state.counters["decomp_GFLOP/s"] =
        count("codec.decompress.flops") / decomp_ns;
  }
}

void BM_Matmul(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  runtime::Rng rng(2);
  const Tensor a = Tensor::uniform(Shape::matrix(n, n), rng, -1, 1);
  const Tensor b = Tensor::uniform(Shape::matrix(n, n), rng, -1, 1);
  Tensor c(Shape::matrix(n, n));
  for (auto _ : state) {
    tensor::matmul_into(a, b, c);
    benchmark::DoNotOptimize(c.raw());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n * n * n));
}
BENCHMARK(BM_Matmul)->Arg(64)->Arg(128)->Arg(256);

// Single-thread GEMM GFLOP/s per backend and transpose mode. Operands are
// allocated in their *stored* orientation (the packing stage folds the
// transpose), so NT/TN measure exactly what Linear/Conv2d backward issue.
// Shapes: square sweep + the two training-path shapes (MLP hidden layer
// 128×784×256 and conv im2col 32×144×1024).
void gemm_bench(benchmark::State& state, KernelBackend backend, Trans ta,
                Trans tb) {
  const std::size_t m = static_cast<std::size_t>(state.range(0));
  const std::size_t k = static_cast<std::size_t>(state.range(1));
  const std::size_t n = static_cast<std::size_t>(state.range(2));
  BackendScope scope(state, backend);
  if (!scope) return;
  runtime::Rng rng(5);
  const Tensor a =
      ta == Trans::kNo ? Tensor::uniform(Shape::matrix(m, k), rng, -1, 1)
                       : Tensor::uniform(Shape::matrix(k, m), rng, -1, 1);
  const Tensor b =
      tb == Trans::kNo ? Tensor::uniform(Shape::matrix(k, n), rng, -1, 1)
                       : Tensor::uniform(Shape::matrix(n, k), rng, -1, 1);
  Tensor c(Shape::matrix(m, n));
  for (auto _ : state) {
    tensor::matmul_into(a, b, c, ta, tb);
    benchmark::DoNotOptimize(c.raw());
  }
  const double flops = 2.0 * static_cast<double>(m) * static_cast<double>(k) *
                       static_cast<double>(n);
  state.counters["GFLOP/s"] = benchmark::Counter(
      flops * 1e-9, benchmark::Counter::kIsIterationInvariantRate);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(flops));
}
BENCHMARK_CAPTURE(gemm_bench, scalar_nn, KernelBackend::kScalar, Trans::kNo,
                  Trans::kNo)
    ->Args({128, 128, 128})
    ->Args({256, 256, 256})
    ->Args({512, 512, 512})
    ->Args({128, 784, 256})
    ->Args({32, 144, 1024});
BENCHMARK_CAPTURE(gemm_bench, avx2_nn, KernelBackend::kAvx2, Trans::kNo,
                  Trans::kNo)
    ->Args({128, 128, 128})
    ->Args({256, 256, 256})
    ->Args({512, 512, 512})
    ->Args({128, 784, 256})
    ->Args({32, 144, 1024});
// Linear forward: x [B,F] · Wᵀ with W stored [O,F].
BENCHMARK_CAPTURE(gemm_bench, scalar_nt, KernelBackend::kScalar, Trans::kNo,
                  Trans::kYes)
    ->Args({128, 784, 256});
BENCHMARK_CAPTURE(gemm_bench, avx2_nt, KernelBackend::kAvx2, Trans::kNo,
                  Trans::kYes)
    ->Args({128, 784, 256});
// Linear backward dW: goᵀ [O,B] · x with go stored [B,O].
BENCHMARK_CAPTURE(gemm_bench, scalar_tn, KernelBackend::kScalar, Trans::kYes,
                  Trans::kNo)
    ->Args({256, 128, 784});
BENCHMARK_CAPTURE(gemm_bench, avx2_tn, KernelBackend::kAvx2, Trans::kYes,
                  Trans::kNo)
    ->Args({256, 128, 784});

// Eq. 4 + Eq. 6 through the plan's block kernel per backend, into
// preallocated tensors: how much of the microkernel win survives in the
// codec's own transform.
void sandwich_roundtrip_bench(benchmark::State& state, KernelBackend backend) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t cf = static_cast<std::size_t>(state.range(1));
  BackendScope scope(state, backend);
  if (!scope) return;
  const auto plan = core::resolve_dct_chop_plan(
      Context::process_default(), n, n, cf, 8, core::TransformKind::kDct2);
  const Tensor batch = make_batch(4, 3, n);
  Tensor packed(plan->packed_shape(batch.shape()));
  Tensor restored(batch.shape());
  for (auto _ : state) {
    plan->compress_into(batch, packed);
    plan->decompress_into(packed, restored);
    benchmark::DoNotOptimize(restored.raw());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch.size_bytes()));
}
BENCHMARK_CAPTURE(sandwich_roundtrip_bench, scalar, KernelBackend::kScalar)
    ->Args({256, 4})
    ->UseRealTime();
BENCHMARK_CAPTURE(sandwich_roundtrip_bench, avx2, KernelBackend::kAvx2)
    ->Args({256, 4})
    ->UseRealTime();

void BM_DctChopCompress(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t cf = static_cast<std::size_t>(state.range(1));
  const Context ctx = bench_context();
  const core::CodecPtr codec = make_chop("dctchop", n, cf, ctx);
  const Tensor batch = make_batch(4, 3, n);
  for (auto _ : state) {
    Tensor packed = codec->compress(batch);
    benchmark::DoNotOptimize(packed.raw());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch.size_bytes()));
  report_codec_series(state, ctx);
}
BENCHMARK(BM_DctChopCompress)
    ->Args({32, 2})
    ->Args({32, 7})
    ->Args({64, 4})
    ->Args({128, 4})
    ->UseRealTime();

void BM_DctChopDecompress(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t cf = static_cast<std::size_t>(state.range(1));
  const Context ctx = bench_context();
  const core::CodecPtr codec = make_chop("dctchop", n, cf, ctx);
  const Tensor batch = make_batch(4, 3, n);
  const Tensor packed = codec->compress(batch);
  for (auto _ : state) {
    Tensor restored = codec->decompress(packed, batch.shape());
    benchmark::DoNotOptimize(restored.raw());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch.size_bytes()));
  report_codec_series(state, ctx);
}
BENCHMARK(BM_DctChopDecompress)
    ->Args({32, 2})
    ->Args({64, 4})
    ->Args({128, 4})
    ->UseRealTime();

// The acceptance workload of this repo's hot path: compress + decompress a
// 16×3×1024×1024 batch at CF=4 through the structurally-sparse batched
// kernel, whose mid strip lives on each worker's stack.
void BM_DctChopRoundTripLargeBatch(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t cf = static_cast<std::size_t>(state.range(1));
  const Context ctx = bench_context();
  const core::CodecPtr codec = make_chop("dctchop", n, cf, ctx);
  const Tensor batch = make_batch(16, 3, n);
  for (auto _ : state) {
    Tensor packed = codec->compress(batch);
    Tensor restored = codec->decompress(packed, batch.shape());
    benchmark::DoNotOptimize(restored.raw());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch.size_bytes()));
  report_codec_series(state, ctx);
}
BENCHMARK(BM_DctChopRoundTripLargeBatch)
    ->Args({1024, 4})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3)
    ->UseRealTime();

// The same Eq. 4 as two dense GEMMs per plane over the make_lhs/make_rhs
// operators (the graph form the accelerator simulators execute). The
// ratio to BM_DctChopCompress is the win from executing the chop tile
// instead of the dense operators.
void BM_SandwichDenseReference(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t cf = static_cast<std::size_t>(state.range(1));
  const Tensor lhs = core::make_lhs(n, cf);
  const Tensor rhs = core::make_rhs(n, cf);
  const Tensor batch = make_batch(4, 3, n);
  const std::size_t cn = cf * n / 8;
  Tensor mid(Shape::matrix(n, cn));
  Tensor packed(Shape::matrix(cn, cn));
  for (auto _ : state) {
    for (std::size_t plane = 0; plane < 4 * 3; ++plane) {
      tensor::gemm(Trans::kNo, Trans::kNo, n, cn, n, batch.raw() + plane * n * n,
                   n, rhs.raw(), cn, mid.raw(), cn, /*accumulate=*/false);
      tensor::matmul_into(lhs, mid, packed);
      benchmark::DoNotOptimize(packed.raw());
    }
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch.size_bytes()));
}
BENCHMARK(BM_SandwichDenseReference)
    ->Args({64, 4})
    ->Args({128, 4})
    ->UseRealTime();

void BM_TriangleRoundTrip(benchmark::State& state) {
  const std::size_t cf = static_cast<std::size_t>(state.range(0));
  const core::CodecPtr codec = make_chop("triangle", 32, cf);
  const Tensor batch = make_batch(4, 3, 32);
  for (auto _ : state) {
    Tensor out = codec->round_trip(batch);
    benchmark::DoNotOptimize(out.raw());
  }
}
BENCHMARK(BM_TriangleRoundTrip)->Arg(2)->Arg(4)->Arg(7);

void BM_ZfpLikeCompress(benchmark::State& state) {
  const double rate = static_cast<double>(state.range(0));
  const baseline::ZfpLikeCodec codec(rate);
  runtime::Rng rng(3);
  const Tensor plane = data::smooth_field(64, 64, rng, 4, 0.4);
  for (auto _ : state) {
    auto words = codec.compress_plane(plane);
    benchmark::DoNotOptimize(words.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(plane.size_bytes()));
}
BENCHMARK(BM_ZfpLikeCompress)->Arg(2)->Arg(8)->Arg(16)->UseRealTime();

void BM_JpegLikeCompress(benchmark::State& state) {
  const int quality = static_cast<int>(state.range(0));
  const baseline::JpegLikeCodec codec(quality);
  runtime::Rng rng(4);
  const Tensor plane = data::smooth_field(64, 64, rng, 4, 0.4);
  for (auto _ : state) {
    auto stream = codec.compress_plane(plane);
    benchmark::DoNotOptimize(stream.bytes.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(plane.size_bytes()));
}
BENCHMARK(BM_JpegLikeCompress)->Arg(10)->Arg(50)->Arg(90)->UseRealTime();

void BM_MakeOperators(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    Tensor lhs = core::make_lhs(n, 4);
    benchmark::DoNotOptimize(lhs.raw());
  }
}
BENCHMARK(BM_MakeOperators)->Arg(64)->Arg(256);

}  // namespace

// Custom entry point: `--json[=path]` is sugar for google-benchmark's
// `--benchmark_out=<path> --benchmark_out_format=json` (default path
// BENCH_kernels.json), so CI can request the machine-readable report
// without knowing the library's flag spelling.
int main(int argc, char** argv) {
  std::vector<std::string> args;
  std::string json_path;
  bool want_json = false;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      want_json = true;
      json_path = "BENCH_kernels.json";
    } else if (arg.rfind("--json=", 0) == 0) {
      want_json = true;
      json_path = arg.substr(std::strlen("--json="));
    } else {
      args.push_back(arg);
    }
  }
  if (want_json) {
    args.push_back("--benchmark_out=" + json_path);
    args.push_back("--benchmark_out_format=json");
  }
  std::vector<char*> raw;
  raw.reserve(args.size());
  for (std::string& a : args) raw.push_back(a.data());
  int raw_argc = static_cast<int>(raw.size());
  benchmark::Initialize(&raw_argc, raw.data());
  if (benchmark::ReportUnrecognizedArguments(raw_argc, raw.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  if (want_json &&
      !aic::bench::merge_metrics_into_benchmark_json(json_path)) {
    std::fprintf(stderr, "warning: could not merge aic_metrics into %s\n",
                 json_path.c_str());
  }
  return 0;
}
