// End-to-end benchmark of the aicomp libraries: one client thread, closed
// loop, one workload per invocation. See perfbench/README.md.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --out-dir <dir> [--self-check]
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
// metrics of a traced run and writes its spans as Chrome trace JSON under
// <out-dir>/traces. The last stdout line is the JSON result.
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <set>
#include <stdexcept>
#include <string>

#include "harness.hpp"
#include "obs/trace.hpp"
#include "runtime/context.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 3;
/// Untimed rounds after each set-up (plan caches, buffer pools, pages).
constexpr std::uint64_t kWarmupRounds = 2;
/// Length of the windows the timed loop is cut into for the steal filter.
constexpr double kWindowSeconds = 1.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::filesystem::path out_dir = ".";
  bool self_check = false;
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-check") {
      args.self_check = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), args.workload) == names.end()) {
    throw std::invalid_argument("--workload must name one of the workloads");
  }
  return args;
}

std::size_t session_threads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int cpus = sched_getaffinity(0, sizeof(set), &set) == 0
                       ? CPU_COUNT(&set)
                       : static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  return static_cast<std::size_t>(std::max(1, cpus / 2));
}

/// Per op kind: latencies (ms) of the timed calls, plus what the traced
/// run adds.
struct KindSamples {
  std::vector<double> ms;           // the public entry point, untraced
  std::vector<std::size_t> window;  // the window each of `ms` ran in
  std::vector<double> traced_ms;    // the replica's root span
  std::vector<double> replica_ms;   // the replica with the recorder off
  std::vector<double> obs_on_ms;    // the entry point, library tracing on
  std::uint64_t faults = 0;
  Counts counts;                    // deltas over the untraced ops
};

struct Run {
  std::vector<double> setup_s;
  std::map<OpKind, KindSamples> kinds;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double steal_share = 0;
  /// Hypervisor steal share of each window of the timed loop.
  std::vector<double> window_steal;

  /// Whether window `w` is in the quieter half of the run: steal at most
  /// the median window's. A stolen vCPU stalls whichever op is running,
  /// by an amount the neighbours decide, and the fan-out ops stall on
  /// the slowest of their threads; the timed metrics leave those windows
  /// out. With no steal every window is quiet.
  bool quiet(std::size_t w) const {
    return window_steal[w] <= median(window_steal);
  }
  /// Latencies of one op kind in the quiet windows.
  std::vector<double> quiet_ms(const KindSamples& samples) const {
    std::vector<double> kept;
    for (std::size_t i = 0; i < samples.ms.size(); ++i) {
      if (quiet(samples.window[i])) kept.push_back(samples.ms[i]);
    }
    return kept;
  }
};

/// One check: counts the attempt, and the failure when `ok` is false.
void tally(Run& run, bool ok) {
  ++run.attempted;
  if (!ok) ++run.failed;
}

/// Reports a failed call; only the first few, a broken build fails them all.
void report(const char* what, const std::exception& error) {
  static int reported = 0;
  if (++reported <= 5) std::cerr << what << " failed: " << error.what() << "\n";
}

/// The op's output check; a check that throws (an output file the op
/// never wrote, say) is a failed op.
bool verified(Workload& workload, std::size_t slot, std::uint64_t round) {
  try {
    return workload.verify(slot, round);
  } catch (const std::exception& error) {
    report("check", error);
    return false;
  }
}

/// Calls `op` under the clock; an exception is a failed op (timed anyway).
template <typename Op>
bool timed(Op&& op, double& ms) {
  bool ok = true;
  const std::uint64_t start = now_ns();
  try {
    op();
  } catch (const std::exception& error) {
    ok = false;
    report("op", error);
  }
  ms = ms_between(start, now_ns());
  return ok;
}

std::unique_ptr<Workload> set_up(const Args& args, const Settings& settings,
                                 Run& run) {
  std::unique_ptr<Workload> workload;
  for (int i = 0; i < kSetups; ++i) {
    workload.reset();  // one set-up's data at a time
    const std::uint64_t start = now_ns();
    workload = make_workload(args.workload, settings);
    for (std::uint64_t round = 0; round < kWarmupRounds; ++round) {
      for (std::size_t slot = 0; slot < workload->round().size(); ++slot) {
        workload->run(slot, round);
        verified(*workload, slot, round);
      }
    }
    run.setup_s.push_back(ms_between(start, now_ns()) / 1e3);
  }
  if (args.trace) {  // warms the replica and probe paths too
    Tracer off(false);
    for (std::size_t slot = 0; slot < workload->round().size(); ++slot) {
      workload->replica(slot, 0, off);
      verified(*workload, slot, 0);
    }
    workload->probes(0, off);
  }
  return workload;
}

/// The ways the traced run executes each op; the untraced run uses only
/// the first.
enum class Variant { kEntryPoint, kTraced, kReplica, kObsOn, kCount };

void measure(const Args& args, Workload& workload, Tracer& tracer, Run& run) {
  Tracer off(false);
  const aic::Context& ctx = workload.context();
  const auto variants =
      args.trace ? static_cast<std::uint64_t>(Variant::kCount) : 1;
  const CpuTicks cpu_before = read_cpu_ticks();
  CpuTicks window_ticks = cpu_before;
  std::uint64_t window_start = now_ns();
  const std::uint64_t deadline =
      window_start + static_cast<std::uint64_t>(args.seconds * 1e9);
  const auto close_window = [&] {
    const CpuTicks ticks = read_cpu_ticks();
    run.window_steal.push_back(steal_share(window_ticks, ticks));
    window_ticks = ticks;
    window_start = now_ns();
  };
  for (std::uint64_t round = 0; now_ns() < deadline; ++round) {
    if (ms_between(window_start, now_ns()) >= kWindowSeconds * 1e3) {
      close_window();
    }
    for (std::size_t slot = 0; slot < workload.round().size(); ++slot) {
      const OpKind kind = workload.round()[slot];
      KindSamples& samples = run.kinds[kind];
      // The variant that runs first finds colder caches; rotating the
      // order spreads that over all of them.
      for (std::uint64_t i = 0; i < variants; ++i) {
        double ms = 0;
        bool ok = true;
        switch (static_cast<Variant>((round + i) % variants)) {
          case Variant::kEntryPoint: {
            const Counts before = Counts::take(ctx);
            const std::uint64_t faults = minor_faults();
            ok = timed([&] { workload.run(slot, round); }, ms);
            samples.faults += minor_faults() - faults;
            samples.counts.add_delta(before, Counts::take(ctx));
            samples.ms.push_back(ms);
            samples.window.push_back(run.window_steal.size());
            break;
          }
          case Variant::kTraced: {
            const std::size_t root = tracer.spans().size();
            try {
              Tracer::Scope op(tracer, kind == OpKind::kCompress
                                           ? "op.compress"
                                           : "op.decompress");
              workload.replica(slot, round, tracer);
            } catch (const std::exception& error) {
              ok = false;
              report("traced op", error);
            }
            samples.traced_ms.push_back(tracer.spans()[root].ms());
            break;
          }
          case Variant::kReplica:
            ok = timed([&] { workload.replica(slot, round, off); }, ms);
            samples.replica_ms.push_back(ms);
            break;
          case Variant::kObsOn:
            aic::obs::set_tracing_enabled(true);
            ok = timed([&] { workload.run(slot, round); }, ms);
            aic::obs::set_tracing_enabled(false);
            aic::obs::clear_trace();
            samples.obs_on_ms.push_back(ms);
            break;
          case Variant::kCount:
            break;
        }
        tally(run, ok && verified(workload, slot, round));
      }
    }
    if (args.trace) {
      bool ok = false;
      try {
        ok = workload.probes(round, tracer);
      } catch (const std::exception& error) {
        report("probe", error);
      }
      tally(run, ok);
    }
  }
  close_window();
  run.steal_share = steal_share(cpu_before, read_cpu_ticks());
}

std::vector<Metric> end_to_end(const Run& run, const Workload& workload) {
  const std::vector<double> c = run.quiet_ms(run.kinds.at(OpKind::kCompress));
  const std::vector<double> d =
      run.quiet_ms(run.kinds.at(OpKind::kDecompress));
  double megabytes = 0;
  double seconds = 0;
  for (const auto& [kind, samples] : run.kinds) {
    for (const double ms : run.quiet_ms(samples)) {
      megabytes += workload.raw_bytes(kind) / 1e6;
      seconds += ms / 1e3;
    }
  }
  return {
      {"setup_s", median(run.setup_s), "s"},
      {"op_success_rate",
       ratio(static_cast<double>(run.attempted - run.failed),
             static_cast<double>(run.attempted)),
       "ratio"},
      {"compress_ms_p50", quantile(c, 0.5), "ms"},
      {"compress_ms_p90", quantile(c, 0.9), "ms"},
      {"decompress_ms_p50", quantile(d, 0.5), "ms"},
      {"decompress_ms_p90", quantile(d, 0.9), "ms"},
      {"throughput_MBps", megabytes / seconds, "MB/s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"compression_ratio", workload.compression_ratio(), "x"},
      {"psnr_db", workload.psnr_db(), "dB"},
  };
}

/// Span analysis of the traced run.
class SpanStats {
 public:
  explicit SpanStats(const std::vector<Span>& spans) : spans_(spans) {
    for (const Span& span : spans_) {
      by_op_[span.op][span.name].ms += span.ms();
      by_op_[span.op][span.name].bytes += static_cast<double>(span.bytes);
    }
  }

  /// Median over the ops that call `name` of the op's time in it.
  double ms(const std::string& name) const {
    return median(per_op(name, name, [](const Total& t, const Total&) {
      return t.ms;
    }));
  }

  /// Median over ops of bytes(bytes_of) / ms(time_of), MB/s.
  double mbps(const std::string& bytes_of, const std::string& time_of) const {
    return median(per_op(bytes_of, time_of, [](const Total& a, const Total& b) {
      return a.bytes / b.ms / 1e3;
    }));
  }

  /// Median over ops of `bytes(a) / bytes(b)`.
  double byte_ratio(const std::string& a, const std::string& b) const {
    return median(per_op(a, b, [](const Total& x, const Total& y) {
      return x.bytes / y.bytes;
    }));
  }

  /// Per-layer breakdown of the timed ops' replicas: each op root's
  /// children grouped by layer, the rest of the root's wall reported as
  /// "unattributed". Returns the unattributed share of op wall, %.
  double print_layers(std::ostream& out) const {
    std::map<std::string, Total> layers;
    double wall_ms = 0;
    double ops = 0;
    std::map<std::uint32_t, bool> is_op;
    for (const Span& span : spans_) {
      if (span.parent == 0) {
        is_op[span.id] = std::string(span.name).rfind("op.", 0) == 0;
        if (is_op[span.id]) {
          wall_ms += span.ms();
          ++ops;
        }
      } else if (is_op[span.parent]) {
        const std::string name = span.name;
        Total& layer = layers[name.substr(0, name.find('.'))];
        layer.ms += span.ms();
        layer.bytes += static_cast<double>(span.bytes);
      }
    }
    double covered_ms = 0;
    for (const auto& [layer, total] : layers) covered_ms += total.ms;
    layers["unattributed"].ms = wall_ms - covered_ms;

    out << "per-layer breakdown of " << ops << " traced ops ("
        << std::setprecision(4) << wall_ms / std::max(ops, 1.0)
        << " ms/op wall):\n  " << std::left << std::setw(14) << "layer"
        << std::right << std::setw(10) << "ms/op" << std::setw(14)
        << "% of op wall" << std::setw(14) << "bytes/op" << std::setw(10)
        << "GB/s" << "\n";
    for (const auto& [layer, total] : layers) {
      out << "  " << std::left << std::setw(14) << layer << std::right
          << std::setw(10) << total.ms / ops << std::setw(14)
          << 100 * ratio(total.ms, wall_ms) << std::setw(14)
          << total.bytes / ops << std::setw(10)
          << ratio(total.bytes, total.ms * 1e6) << "\n";
    }
    return 100 * ratio(wall_ms - covered_ms, wall_ms);
  }

 private:
  struct Total {
    double ms = 0;
    double bytes = 0;
  };

  /// `f(total of a, total of b)` for every op that has spans of both.
  template <typename F>
  std::vector<double> per_op(const std::string& a, const std::string& b,
                             F f) const {
    std::vector<double> values;
    for (const auto& [op, names] : by_op_) {
      const auto ia = names.find(a);
      const auto ib = names.find(b);
      if (ia != names.end() && ib != names.end()) {
        values.push_back(f(ia->second, ib->second));
      }
    }
    return values;
  }

  const std::vector<Span>& spans_;
  std::map<std::uint32_t, std::map<std::string, Total>> by_op_;
};

/// Sum over op kinds of the p50 of `field`.
template <typename Field>
double p50_sum(const Run& run, Field field) {
  double sum = 0;
  for (const auto& [kind, samples] : run.kinds) {
    sum += quantile(samples.*field, 0.5);
  }
  return sum;
}

std::vector<Metric> per_layer(const Run& run, const Workload& workload,
                              const Tracer& tracer, double memcpy,
                              std::ostream& out) {
  const SpanStats spans(tracer.spans());
  const double unattributed_pct = spans.print_layers(out);

  double ops = 0;
  double faults = 0;
  Counts counts;
  for (const auto& [kind, samples] : run.kinds) {
    ops += static_cast<double>(samples.ms.size());
    faults += static_cast<double>(samples.faults);
    counts.add_delta(Counts{}, samples.counts);
  }
  const auto share = [&counts](const char* hit, const char* miss) {
    return ratio(counts.get(hit), counts.get(hit) + counts.get(miss));
  };

  const double compress_ms = spans.ms("core.compress");
  const Flops flops = workload.compress_flops();
  const double serialize_ms = spans.ms("cli.serialize");
  const double fused_ms = spans.ms("cli.fused_compress");
  const double gemm_flops = 2.0 * kGemmN * kGemmN * kGemmN;
  const double untraced = p50_sum(run, &KindSamples::ms);
  const double replica = p50_sum(run, &KindSamples::replica_ms);
  return {
      {"io.load_tensor_ms", spans.ms("io.load_tensor"), "ms"},
      {"io.archive_write_ms", spans.ms("io.archive_write"), "ms"},
      {"io.archive_map_ms", spans.ms("io.archive_map"), "ms"},
      {"io.save_tensor_ms", spans.ms("io.save_tensor"), "ms"},
      {"core.compress_ms", compress_ms, "ms"},
      {"core.decompress_ms", spans.ms("core.decompress"), "ms"},
      {"core.compress_gflops_useful", ratio(flops.useful / 1e6, compress_ms),
       "GFLOP/s"},
      {"core.compress_gflops_nominal", ratio(flops.nominal / 1e6, compress_ms),
       "GFLOP/s"},
      {"core.compress_speedup_x",
       ratio(spans.ms("core.compress_1thread"), compress_ms), "x"},
      {"core.make_codec_ms", spans.ms("core.make_codec"), "ms"},
      {"core.plan_cache_hit_ratio", share("plan_cache.hit", "plan_cache.miss"),
       "ratio"},
      {"tensor.gemm_gflops", ratio(gemm_flops / 1e6, spans.ms("tensor.gemm")),
       "GFLOP/s"},
      {"baseline.chunk_encode_MBps",
       spans.mbps("baseline.encode_chunks", "baseline.encode_chunks"), "MB/s"},
      {"baseline.chunk_decode_MBps",
       spans.mbps("baseline.encode_chunks", "baseline.decode_chunks"), "MB/s"},
      {"baseline.chunk_ratio",
       spans.byte_ratio("baseline.encode_chunks", "baseline.decode_chunks"),
       "x"},
      {"cli.fused_compress_ms", fused_ms, "ms"},
      {"cli.serialize_ms", serialize_ms, "ms"},
      {"cli.deserialize_ms", spans.ms("cli.deserialize"), "ms"},
      {"cli.overlap_x", ratio(compress_ms + serialize_ms, fused_ms), "x"},
      {"cli.run_cli_overhead_ms",
       (untraced - replica) / static_cast<double>(run.kinds.size()), "ms"},
      {"runtime.minor_faults_per_op", ratio(faults, ops), "count"},
      {"runtime.mempool_hit_ratio", share("mempool.hits", "mempool.misses"),
       "ratio"},
      {"runtime.pool_tasks_per_op",
       ratio(counts.get("pool.tasks_executed"), ops), "count"},
      {"runtime.parallel_inline_share",
       share("parallel_for.inline_runs", "parallel_for.parallel_runs"),
       "ratio"},
      {"obs.tracing_on_x", ratio(p50_sum(run, &KindSamples::obs_on_ms),
                                 untraced),
       "x"},
      {"obs.bench_trace_overhead_pct",
       100 * (ratio(p50_sum(run, &KindSamples::traced_ms), replica) - 1), "%"},
      {"obs.unattributed_pct", unattributed_pct, "%"},
      {"host.steal_share", run.steal_share, "ratio"},
      {"host.memcpy_GBps", memcpy, "GB/s"},
  };
}

/// Library counter deltas per op, by op kind; they repeat exactly.
void print_counts(std::ostream& out, const Run& run) {
  std::set<std::string> names;
  for (const auto& [kind, samples] : run.kinds) {
    for (const auto& [name, value] : samples.counts.values) {
      if (value != 0) names.insert(name);
    }
  }
  out << "counter deltas per op:\n  " << std::left << std::setw(32)
      << "counter" << std::right;
  for (const auto& [kind, samples] : run.kinds) {
    out << std::setw(14) << op_name(kind);
  }
  out << "\n";
  for (const std::string& name : names) {
    out << "  " << std::left << std::setw(32) << name << std::right;
    for (const auto& [kind, samples] : run.kinds) {
      out << std::setw(14) << std::setprecision(6)
          << samples.counts.get(name) /
                 static_cast<double>(samples.ms.size());
    }
    out << "\n";
  }
}

int bench(const Args& args) {
  Settings settings;
  settings.seed = args.seed;
  const std::size_t threads = session_threads();
  settings.work_dir = args.out_dir / ("work-" + args.workload + "-" +
                                      std::to_string(getpid()));
  // Before any pool exists, so nothing holds the process pool yet.
  aic::Context::set_process_threads(threads);
  std::filesystem::create_directories(settings.work_dir);
  struct RemoveDir {
    std::filesystem::path path;
    ~RemoveDir() {
      std::error_code ignored;
      std::filesystem::remove_all(path, ignored);
    }
  } remove_dir{settings.work_dir};

  Run run;
  std::unique_ptr<Workload> workload = set_up(args, settings, run);
  if (args.self_check) workload->corrupt_references();
  Tracer tracer(args.trace);
  measure(args, *workload, tracer, run);

  std::ostream& out = std::cout;
  std::size_t quiet_windows = 0;
  for (std::size_t w = 0; w < run.window_steal.size(); ++w) {
    quiet_windows += run.quiet(w) ? 1 : 0;
  }
  out << args.workload << " seed " << args.seed << ", " << threads
      << " threads, " << quiet_windows << " of " << run.window_steal.size()
      << " windows quiet, samples (quiet/all):";
  for (const auto& [kind, samples] : run.kinds) {
    out << " " << op_name(kind) << " " << run.quiet_ms(samples).size() << "/"
        << samples.ms.size();
  }
  out << "\n";
  print_counts(out, run);

  std::vector<Metric> metrics;
  if (!args.trace) metrics = end_to_end(run, *workload);  // peak RSS first
  const double memcpy = memcpy_gbps();
  out << "host: steal_share " << run.steal_share << ", memcpy_GBps " << memcpy
      << "\n";
  if (args.trace) {
    metrics = per_layer(run, *workload, tracer, memcpy, out);
    const std::filesystem::path dir = args.out_dir / "traces";
    std::filesystem::create_directories(dir);
    const std::filesystem::path path =
        dir / (args.workload + "-seed" + std::to_string(args.seed) + ".json");
    std::ofstream file(path);
    tracer.write_chrome_trace(file);
    out << "wrote " << tracer.spans().size() << " spans to " << path.string()
        << "\n";
  }
  print_table(out, metrics);
  const bool correct = run.failed == 0;
  print_result(out, correct, run.attempted, run.failed, metrics);
  if (args.self_check) {
    // The check passes when corrupted references are caught.
    std::cerr << (correct ? "self-check FAILED: corrupt references passed\n"
                          : "self-check ok: corrupt references caught\n");
    return correct ? 1 : 0;
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::bench(perfbench::parse_args(argc, argv));
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << "\n";
    return 1;
  }
}
