#include "cli/cli.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <atomic>
#include <chrono>
#include <csignal>

#include "accel/drift.hpp"
#include "baseline/comparators.hpp"
#include "cli/archive.hpp"
#include "core/codec_factory.hpp"
#include "core/dct_chop.hpp"
#include "core/fidelity.hpp"
#include "data/synth.hpp"
#include "io/mapped_file.hpp"
#include "io/tensor_io.hpp"
#include "obs/export.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/http_server.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/context.hpp"
#include "runtime/cpu_features.hpp"
#include "runtime/env.hpp"
#include "runtime/parallel_for.hpp"
#include "runtime/rng.hpp"
#include "runtime/thread_pool.hpp"
#include "tensor/ops.hpp"

namespace aic::cli {

namespace {

using tensor::Shape;
using tensor::Tensor;

struct Options {
  std::vector<std::string> positional;
  std::map<std::string, std::string> flags;
  bool triangle = false;
  bool stats = false;
  bool metrics = false;
  std::string trace_path;
  std::string metrics_out;
};

Options parse(const std::vector<std::string>& args, std::size_t start) {
  Options options;
  for (std::size_t i = start; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--triangle") {
      options.triangle = true;
    } else if (arg == "--stats") {
      options.stats = true;
    } else if (arg == "--metrics") {
      options.metrics = true;
    } else if (arg == "--trace") {
      if (i + 1 >= args.size()) {
        throw std::invalid_argument("missing output path for --trace");
      }
      options.trace_path = args[++i];
    } else if (arg == "--metrics-out") {
      if (i + 1 >= args.size()) {
        throw std::invalid_argument("missing output path for --metrics-out");
      }
      options.metrics_out = args[++i];
    } else if (arg.rfind("--", 0) == 0) {
      if (i + 1 >= args.size()) {
        throw std::invalid_argument("missing value for " + arg);
      }
      options.flags[arg.substr(2)] = args[++i];
    } else {
      options.positional.push_back(arg);
    }
  }
  return options;
}

std::size_t flag_size(const Options& options, const std::string& name,
                      std::size_t fallback) {
  const auto it = options.flags.find(name);
  if (it == options.flags.end()) return fallback;
  // stoull throws bare std::invalid_argument / std::out_of_range on junk
  // or huge values (and silently wraps negatives); re-raise with a
  // diagnostic that names the offending flag.
  try {
    std::size_t pos = 0;
    const unsigned long long value = std::stoull(it->second, &pos);
    if (pos != it->second.size() || it->second.front() == '-') {
      throw std::exception();
    }
    return static_cast<std::size_t>(value);
  } catch (...) {
    throw std::invalid_argument("flag --" + name +
                                " expects a non-negative integer, got \"" +
                                it->second + "\"");
  }
}

std::string flag_string(const Options& options, const std::string& name,
                        const std::string& fallback) {
  const auto it = options.flags.find(name);
  return it == options.flags.end() ? fallback : it->second;
}

/// The value flags `command` reads. --threads is read before dispatch and
/// applies to every command.
std::vector<std::string> command_flags(const std::string& command) {
  if (command == "gen") return {"batch", "channels", "res", "seed"};
  if (command == "compress") {
    return {"codec", "cf", "block", "transform", "chunk-bytes", "entropy"};
  }
  if (command == "eval") return {"codec", "cf", "block", "transform"};
  if (command == "serve") {
    return {"obs-port", "duration-ms", "interval-ms", "sessions"};
  }
  return {};
}

/// Rejects every flag `command` would not read, so a misspelt or retired
/// flag fails loudly instead of silently changing nothing.
void check_flags(const std::string& command, const Options& options) {
  const std::string who = command.empty() ? "aicomp" : command;
  const auto reject = [&who](const std::string& flag, const char* why) {
    throw std::invalid_argument(who + ": " + why + " --" + flag);
  };
  const std::vector<std::string> known = command_flags(command);
  for (const auto& [name, value] : options.flags) {
    if (name != "threads" &&
        std::find(known.begin(), known.end(), name) == known.end()) {
      reject(name, "unknown flag");
    }
  }
  const bool reads_codec = command == "compress" || command == "eval";
  if (options.triangle && !reads_codec) reject("triangle", "unknown flag");
  if (options.stats && !reads_codec && command != "decompress" &&
      command != "verify") {
    reject("stats", "unknown flag");
  }
  if (options.flags.count("codec") != 0) {
    // --codec carries the whole spec; the classic flags would be ignored.
    for (const char* classic : {"cf", "block", "transform"}) {
      if (options.flags.count(classic) != 0) {
        reject(classic, "--codec already sets the codec; drop");
      }
    }
    if (options.triangle) reject("triangle", "--codec already sets the codec; drop");
  }
}

/// The codec spec for a command: --codec verbatim when given, else
/// synthesized from the classic --cf/--block/--transform/--triangle
/// flags. Either way the codec is built by core::CodecFactory.
std::string codec_spec(const Options& options) {
  const auto it = options.flags.find("codec");
  if (it != options.flags.end()) return it->second;
  std::ostringstream spec;
  spec << (options.triangle ? "triangle" : "dctchop")
       << ":cf=" << flag_size(options, "cf", 4)
       << ",block=" << flag_size(options, "block", 8)
       << ",transform=" << flag_string(options, "transform", "dct");
  return spec.str();
}

int usage(std::ostream& err) {
  err << "usage:\n"
         "  aicomp gen <out.aict> [--batch B --channels C --res N --seed S]\n"
         "  aicomp compress <in.aict> <out.aicz> [--codec <spec> | --cf N "
         "--block B --transform dct|wht|dst2 --triangle]\n"
         "                  [--chunk-bytes N --entropy "
         "raw|packed|huffman|auto] [--stats]\n"
         "  aicomp decompress <in.aicz> <out.aict> [--stats]\n"
         "  aicomp verify <in.aicz>   (check CRCs + full decode)\n"
         "  aicomp info <file>\n"
         "  aicomp eval <in.aict> [--codec <spec> | --cf N --block B "
         "--transform ... --triangle] [--stats]\n"
         "  aicomp codecs      (list registered codec specs)\n"
         "  aicomp serve [in.aicz] [--obs-port P --duration-ms D "
         "--interval-ms I --sessions N]\n"
         "  aicomp --metrics   (standalone: probe workload + report)\n"
         "\n"
         "  serve runs a continuous workload (decode of in.aicz, or the\n"
         "  synthetic probe) with the telemetry endpoint up: GET /metrics\n"
         "  (OpenMetrics), /healthz, /tracez on --obs-port (default\n"
         "  AIC_OBS_PORT or 9464; 0 picks a free port). --duration-ms 0\n"
         "  serves until SIGINT/SIGTERM. --interval-ms sets the snapshot\n"
         "  exporter cadence (default AIC_METRICS_EXPORT_MS or 1000).\n"
         "  --sessions N runs N isolated compression sessions concurrently\n"
         "  over the shared worker pool; each gets its own plan cache and\n"
         "  session<i>.* metric scope, and every iteration asserts the\n"
         "  session's archive bytes are bitwise-identical to a reference\n"
         "  computed before any neighbor load existed (exit 1 on drift).\n"
         "  --metrics-out <path> writes the JSON metrics snapshot to a\n"
         "  file after any command (machine-readable --metrics).\n"
         "  --codec takes a CodecFactory spec: kind[:key=value,...], e.g.\n"
         "  dctchop:cf=4, partial:cf=4,s=2, triangle:cf=4, zfp:rate=8,\n"
         "  sz:eb=1e-3, jpeg:q=85. `aicomp codecs` lists every kind.\n"
         "  (compress accepts only the dctchop/triangle/partial family;\n"
         "  eval accepts any registered codec.) A flag the command does\n"
         "  not read exits 1 naming it; --codec excludes --cf/--block/\n"
         "  --transform/--triangle.\n"
         "  --stats prints the metrics registry after the operation as one\n"
         "  table, a row per series stem: codec.compress (calls, planes,\n"
         "  Eq. 5/7 flops, flops_executed, bytes, seconds), kernel[...],\n"
         "  pipeline, plan_cache, ..., then the thread-pool row.\n"
         "  --chunk-bytes sets the v4 chunk budget (default 65536);\n"
         "  --entropy picks the per-chunk coding (default raw; auto\n"
         "  chooses the smallest of raw/packed/huffman per chunk).\n"
         "  --threads N sizes the shared worker pool; precedence is the\n"
         "  flag, then AIC_THREADS, then the hardware concurrency.\n"
         "  --metrics prints the per-simulator cost-model drift table, the\n"
         "  --stats table and latency percentiles (p50/p90/p99).\n"
         "  --trace <out.json> records spans and writes Chrome trace-event\n"
         "  JSON (open in Perfetto / chrome://tracing). AIC_TRACE=<path>\n"
         "  does the same without flags.\n";
  return 2;
}

/// The registry as one table, one row per stem: a counter or gauge
/// `<stem>.<key>` prints as `key=value` in the row of `<stem>`, and a
/// `<stem>.ns` histogram adds the row's `calls` and wall `seconds` (and
/// `GFLOP/s` when the row counts `flops`). So the codec series
/// `codec.compress.{ns,planes,flops,flops_executed,bytes_in,bytes_out}`
/// make one row, as do `kernel.*`, `pipeline.*` and `plan_cache.*`.
/// All-zero rows are skipped; the pool row closes the table.
void print_registry(std::ostream& out, const Context& ctx) {
  struct Row {
    std::string values;  // " key=value" per series
    bool live = false;
  };
  std::map<std::string, Row> rows;
  const auto add = [&rows](const std::string& name, const auto& value) {
    const std::size_t dot = name.rfind('.');  // npos: the name is its row
    Row& row = rows[name.substr(0, dot)];
    std::ostringstream text;
    text << ' ' << name.substr(dot + 1) << '=' << value;
    row.values += text.str();
    row.live = row.live || value != 0;
  };
  const obs::Registry& reg = obs::Registry::global();
  std::map<std::string, std::uint64_t> flops;
  for (const auto& [name, value] : reg.counters()) {
    add(name, value);
    if (name.ends_with(".flops")) {
      flops[name.substr(0, name.size() - 6)] = value;
    }
  }
  for (const auto& [name, value] : reg.gauges()) add(name, value);
  for (const auto& [name, snap] : reg.histograms()) {
    if (!name.ends_with(".ns") || snap.count == 0) continue;
    const std::string stem = name.substr(0, name.size() - 3);
    add(stem + ".calls", snap.count);
    add(stem + ".seconds", static_cast<double>(snap.sum) / 1e9);
    if (flops[stem] != 0 && snap.sum != 0) {
      add(stem + ".GFLOP/s", static_cast<double>(flops[stem]) /
                                 static_cast<double>(snap.sum));
    }
  }
  out << "stats (registry series by stem):\n";
  for (const auto& [stem, row] : rows) {
    if (!row.live) continue;
    const std::string label =
        stem == "kernel"
            ? "kernel[" + std::string(runtime::kernel_backend_name()) + "]"
            : stem;
    out << "  " << std::left << std::setw(24) << label << row.values << "\n";
  }
  const runtime::ThreadPoolStats pool = ctx.pool().stats();
  const runtime::ParallelForStats pfor = runtime::parallel_for_stats();
  out << "  " << std::left << std::setw(24)
      << "pool[" + std::to_string(ctx.pool().size()) + " threads]"
      << " tasks_executed=" << pool.tasks_executed
      << " tasks_inlined=" << pool.tasks_inlined
      << " peak_queue_depth=" << pool.peak_queue_depth
      << " pfor_parallel=" << pfor.parallel_runs
      << " pfor_inline=" << pfor.inline_runs
      << " pfor_last_tasks=" << pfor.last_tasks
      << " pfor_last_chunk=" << pfor.last_chunk << "\n";
}

/// `--metrics`: the per-simulator cost-model drift table, the registry
/// table of `--stats`, then the latency percentiles of every histogram.
void print_metrics(std::ostream& out, const Context& ctx) {
  // Per-simulator drift table: one small compress graph through each
  // paper platform, predicted (cost model) vs. measured (host) time.
  out << "cost-model drift (predicted vs. host-measured):\n";
  out << "  " << std::left << std::setw(18) << "platform" << std::right
      << std::setw(14) << "predicted_s" << std::setw(14) << "measured_s"
      << std::setw(10) << "ratio" << "\n";
  for (const accel::DriftRow& row : accel::cost_model_drift_probe()) {
    out << "  " << std::left << std::setw(18) << row.platform << std::right;
    if (!row.compiled) {
      out << "  rejected: " << row.error << "\n";
      continue;
    }
    out << std::setw(14) << std::scientific << std::setprecision(3)
        << row.predicted_s << std::setw(14) << row.measured_s
        << std::setw(10) << std::fixed << std::setprecision(2)
        << row.drift_ratio() << "\n";
  }
  out.unsetf(std::ios::floatfield);
  out << std::setprecision(6);
  print_registry(out, ctx);
  out << "latency histograms (ns):\n";
  for (const auto& [name, snap] : obs::Registry::global().histograms()) {
    if (snap.count == 0) continue;
    out << "  " << std::left << std::setw(28) << name << std::right
        << " count=" << snap.count << " p50=" << std::setprecision(0)
        << std::fixed << snap.p50() << " p90=" << snap.p90()
        << " p99=" << snap.p99() << " max=" << snap.max << "\n";
  }
  out.unsetf(std::ios::floatfield);
  out << std::setprecision(6);
}

/// Standalone `aicomp --metrics` / `aicomp --trace <f>`: run a small
/// representative codec workload so histograms and spans have data even
/// without an input file. The round trips are split across two explicit
/// threads (the codec is thread-safe) so traces show cross-thread
/// structure even on single-core hosts where the pool degrades inline.
int cmd_probe(std::ostream& out) {
  runtime::Rng rng(1);
  // One shape-agnostic factory codec over two distinct resolutions: the
  // first round trip per shape builds and caches a plan, every later one
  // is a pure cache hit — `--metrics` shows plan_cache.build_count == 2
  // (the 32x32 key is shared with the drift probe's graphs) against
  // plan_cache.hit >= 1.
  const Tensor large = Tensor::uniform(Shape::bchw(4, 3, 32, 32), rng);
  const Tensor small = Tensor::uniform(Shape::bchw(4, 3, 16, 16), rng);
  const core::CodecPtr codec = core::make_codec("dctchop:cf=4,block=8");
  const auto worker = [&] {
    for (int rep = 0; rep < 8; ++rep) {
      (void)codec->round_trip(large);
      (void)codec->round_trip(small);
    }
  };
  std::thread second(worker);
  worker();
  second.join();
  out << "probe: 32 round trips of " << codec->name() << " on "
      << large.shape().to_string() << " and " << small.shape().to_string()
      << " across 2 threads\n";
  return 0;
}

std::atomic<bool> g_serve_stop{false};

void serve_stop_handler(int) { g_serve_stop.store(true); }

/// `aicomp serve [in.aicz]`: keeps a workload running with the whole
/// telemetry stack up — interval snapshot exporter, OpenMetrics HTTP
/// endpoint, spans — so a Prometheus scrape (or curl) can watch
/// plan_cache.*, pipeline.*, and accel.* evolve on a live process.
/// `--sessions N` runs the workload in N isolated contexts over the one
/// shared pool: each session owns a plan cache and a session<i>.* metric
/// scope, and every iteration asserts its archive bytes stay
/// bitwise-identical to a reference computed before any neighbor load
/// existed.
int cmd_serve(const Options& options, std::ostream& out, const Context& ctx) {
  const std::size_t env_port = runtime::env_size_t("AIC_OBS_PORT", 9464);
  const std::size_t port = flag_size(options, "obs-port", env_port);
  const std::size_t duration_ms = flag_size(options, "duration-ms", 0);
  const std::size_t interval_ms = flag_size(
      options, "interval-ms", runtime::env_size_t("AIC_METRICS_EXPORT_MS", 1000));
  const std::size_t sessions = flag_size(options, "sessions", 1);
  if (sessions == 0 || sessions > 64) {
    throw std::invalid_argument("serve: --sessions must be in [1, 64]");
  }

  obs::Exporter::Options exporter_options;
  exporter_options.interval_ms = interval_ms;
  exporter_options.jsonl_path = runtime::env_string("AIC_METRICS_JSONL", "");
  obs::Exporter::global().start(exporter_options);

  obs::HttpServer& server = obs::HttpServer::global();
  if (!server.running()) {
    obs::HttpServer::Options server_options;
    server_options.port = static_cast<std::uint16_t>(port);
    if (!server.start(server_options)) {
      throw std::runtime_error("serve: cannot bind obs port " +
                               std::to_string(port));
    }
  }

  // Optional decode workload: a real archive is re-deserialized from its
  // mapped bytes every iteration (container CRCs, chunk-parallel entropy
  // decode, codec decompress) so the pipeline.* and io.* families keep
  // moving; without one the synthetic probe codec keeps plan_cache.*
  // alive. Spans are recorded so /tracez shows live structure. The file
  // stays mapped for the whole serve run — iterations decode straight
  // out of the mapping, never from a heap copy of the file.
  std::optional<io::MappedFile> archive_file;
  std::string_view archive_bytes;
  if (options.positional.size() > 1) {
    throw std::invalid_argument("serve: expected at most one archive path");
  }
  if (options.positional.size() == 1) {
    archive_file.emplace(options.positional[0]);
    archive_bytes = archive_file->view();
    // Validate up front so a corrupt archive fails loudly at startup
    // instead of raising once per iteration.
    (void)deserialize_archive(archive_bytes, ctx);
  }
  runtime::Rng rng(7);
  const Tensor probe_input = Tensor::uniform(Shape::bchw(2, 3, 32, 32), rng);
  const char* const kProbeSpec = "dctchop:cf=4,block=8";
  const ArchiveWriteOptions write_options =
      ArchiveWriteOptions::from_context(ctx);
  // The parity reference every session must reproduce, computed before
  // any concurrent neighbor load exists.
  const std::string reference_bytes = compress_to_archive_bytes(
      probe_input, kProbeSpec, write_options, nullptr, ctx);
  obs::set_tracing_enabled(true);

  out << "serving obs on port " << server.port()
      << ": /metrics /healthz /tracez (exporter interval " << interval_ms
      << " ms, " << sessions << " session(s))\n";
  out.flush();

  g_serve_stop.store(false);
  std::signal(SIGINT, serve_stop_handler);
  std::signal(SIGTERM, serve_stop_handler);

  obs::Counter& iterations =
      obs::Registry::global().counter("serve.iterations");
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(duration_ms);
  std::atomic<bool> parity_failed{false};
  std::vector<std::uint64_t> session_iters(sessions, 0);

  const auto session_main = [&](std::size_t index) {
    // One isolated session: its own plan cache and session<i>.* metric
    // scope over the shared process pool.
    Context::Options session_options;
    session_options.obs_prefix = "session" + std::to_string(index) + ".";
    const Context session_ctx{session_options};
    obs::Counter& session_iterations = session_ctx.counter("iterations");
    // Steady-state allocation hoists: the decode output tensor and the
    // probe's archive bytes are reused in place, and each decode restores
    // with the codec its header parse built (its plan resolves from this
    // context's cache). After the first lap a session's iteration loop
    // runs out of this context's BufferPool + these hoisted buffers —
    // session<i>.mempool.misses stays flat (the serve smoke asserts it).
    Tensor restored;
    std::string bytes;
    while (!g_serve_stop.load()) {
      {
        AIC_TRACE_SCOPE("serve.iteration");
        if (!archive_bytes.empty()) {
          const Archive archive =
              deserialize_archive(archive_bytes, session_ctx);
          archive.codec->decompress_into(archive.packed,
                                         archive.original_shape, restored);
        }
        // The isolation proof: the same tensor through this session's
        // context must reproduce the reference bytes no matter what the
        // neighbor sessions are running on the shared pool.
        compress_to_archive_bytes(probe_input, kProbeSpec, write_options,
                                  nullptr, session_ctx, bytes);
        if (bytes != reference_bytes) {
          parity_failed.store(true);
          g_serve_stop.store(true);
        }
      }
      session_iterations.add();
      iterations.add();
      ++session_iters[index];
      if (duration_ms != 0 && std::chrono::steady_clock::now() >= deadline) {
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
  };

  if (sessions == 1) {
    session_main(0);
  } else {
    std::vector<std::thread> workers;
    workers.reserve(sessions);
    for (std::size_t i = 0; i < sessions; ++i) {
      workers.emplace_back(session_main, i);
    }
    for (std::thread& worker : workers) worker.join();
  }

  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  std::uint64_t iters = 0;
  for (const std::uint64_t n : session_iters) iters += n;
  out << "serve: " << iters << " workload iterations across " << sessions
      << " session(s), " << obs::Exporter::global().samples_taken()
      << " metric samples, "
      << obs::Registry::global().counter("obs.http.scrapes").value()
      << " scrapes\n";
  if (parity_failed.load()) {
    out << "serve: PARITY FAILURE: a session produced archive bytes "
           "differing from the unloaded reference\n";
    return 1;
  }
  return 0;
}

int cmd_codecs(std::ostream& out) {
  out << "registered codecs (spec grammar kind[:key=value,...]):\n";
  for (const auto& [name, summary] : core::CodecFactory::global().list()) {
    out << "  " << std::left << std::setw(12) << name << " " << summary
        << "\n";
  }
  return 0;
}

/// Opens `path` for a binary write and runs `write` on the stream. A
/// failure after the open (a bad codec spec, a failed write) removes the
/// partial file and rethrows, so a failed command leaves no truncated
/// output behind. Pipes and devices are never removed.
template <typename Write>
void write_output(const std::string& path, const char* command,
                  Write&& write) {
  std::ofstream file(path, std::ios::binary);
  if (!file) {
    throw std::runtime_error(std::string(command) + ": cannot open " + path);
  }
  try {
    write(file);
    file.close();
    if (!file) {
      throw std::runtime_error(std::string(command) + ": write failed: " +
                               path);
    }
  } catch (...) {
    file.close();
    std::error_code ignored;
    if (std::filesystem::is_regular_file(path, ignored)) {
      std::filesystem::remove(path, ignored);
    }
    throw;
  }
}

int cmd_gen(const Options& options, std::ostream& out) {
  if (options.positional.size() != 1) {
    throw std::invalid_argument("gen: expected one output path");
  }
  const std::size_t batch = flag_size(options, "batch", 4);
  const std::size_t channels = flag_size(options, "channels", 3);
  const std::size_t res = flag_size(options, "res", 32);
  runtime::Rng rng(flag_size(options, "seed", 1));
  Tensor tensor(Shape::bchw(batch, channels, res, res));
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t c = 0; c < channels; ++c) {
      Tensor plane = data::smooth_field(res, res, rng, 6, 0.5);
      data::add_gaussian_noise(plane, rng, 0.02);
      tensor.set_plane(b, c, plane);
    }
  }
  write_output(options.positional[0], "gen",
               [&](std::ostream& file) { io::write_tensor(tensor, file); });
  out << "wrote " << tensor.shape().to_string() << " ("
      << tensor.size_bytes() << " bytes) to " << options.positional[0]
      << "\n";
  return 0;
}

/// Container knobs of compress: --chunk-bytes (v4 chunk budget) and
/// --entropy raw|packed|huffman|auto.
ArchiveWriteOptions archive_write_options(const Options& options) {
  ArchiveWriteOptions write;
  write.chunk_bytes = flag_size(options, "chunk-bytes", kDefaultChunkBytes);
  const auto it = options.flags.find("entropy");
  if (it != options.flags.end()) {
    write.entropy = baseline::parse_chunk_entropy(it->second);
  }
  return write;
}

/// Maps (or, for pipes, reads) a command's input file.
io::MappedFile map_input(const std::string& path) {
  AIC_TRACE_SCOPE("io.map");
  return io::MappedFile(path);
}

int cmd_compress(const Options& options, std::ostream& out,
                 const Context& ctx) {
  AIC_TRACE_SCOPE("cli.compress");
  if (options.positional.size() != 2) {
    throw std::invalid_argument("compress: expected <in.aict> <out.aicz>");
  }
  const io::MappedFile input = map_input(options.positional[0]);
  const io::TensorHeaderInfo info = [&] {
    AIC_TRACE_SCOPE("io.parse_tensor_header");
    return io::parse_tensor_header(input.view(), input.size());
  }();
  // The f32 data follows the header: 4-byte aligned in the mapping, which
  // is all the codec needs, so plane groups transform straight out of it.
  const float* data =
      reinterpret_cast<const float*>(input.view().data() + info.header_bytes);
  // Flag errors surface before the output is opened (and truncated).
  const std::string spec = codec_spec(options);
  const ArchiveWriteOptions write_options = archive_write_options(options);
  core::CodecPtr codec;
  std::size_t archive_bytes = 0;
  // Chunks are entropy coded and written as soon as their payload bytes
  // exist, and the chunk table is back-patched at the end, so the archive
  // never exists whole in memory. A non-seekable output (a pipe) gets
  // the same pipeline into a string plus one write; the bytes match.
  write_output(options.positional[1], "compress", [&](std::ostream& file) {
    archive_bytes = compress_to_stream(data, info.shape, spec, file,
                                       write_options, &codec, ctx);
  });
  out << codec->name() << ": " << info.payload_bytes << " -> "
      << archive_bytes << " archive bytes (CR " << codec->compression_ratio()
      << ")\n";
  return 0;
}

int cmd_decompress(const Options& options, std::ostream& out,
                   const Context& ctx) {
  AIC_TRACE_SCOPE("cli.decompress");
  if (options.positional.size() != 2) {
    throw std::invalid_argument("decompress: expected <in.aicz> <out.aict>");
  }
  const io::MappedFile archive = map_input(options.positional[0]);
  // Plane groups are restored and written one at a time; a corrupt chunk
  // found after the first group removes the partial output.
  RestoredArchive restored;
  write_output(options.positional[1], "decompress", [&](std::ostream& file) {
    restored = restore_archive(archive.view(), &file, ctx);
  });
  out << "restored " << restored.original_shape.to_string() << " to "
      << options.positional[1] << " (" << restored.codec->name() << ")\n";
  return 0;
}

/// `aicomp verify <archive>`: full integrity pass over an archive —
/// container parse (CRC checks included), codec rebuild, and a complete
/// decompress, plane group by plane group — without writing anything. A
/// corrupt file exits 1 with the typed CorruptStream diagnostic on
/// stderr.
int cmd_verify(const Options& options, std::ostream& out,
               const Context& ctx) {
  AIC_TRACE_SCOPE("cli.verify");
  if (options.positional.size() != 1) {
    throw std::invalid_argument("verify: expected one archive path");
  }
  const io::MappedFile archive = map_input(options.positional[0]);
  const RestoredArchive restored =
      restore_archive(archive.view(), nullptr, ctx);
  out << "ok: codec=" << restored.codec->name()
      << " original=" << restored.original_shape.to_string()
      << " packed=" << restored.packed_shape.to_string() << " ("
      << restored.packed_shape.numel() * sizeof(float) << " bytes)\n";
  return 0;
}

int cmd_info(const Options& options, std::ostream& out, const Context& ctx) {
  if (options.positional.size() != 1) {
    throw std::invalid_argument("info: expected one path");
  }
  // One mapped read serves the archive decode, the header probe and,
  // when the file is not an archive, the plain-tensor parse.
  const io::MappedFile file(options.positional[0]);
  try {
    const Archive archive = deserialize_archive(file.view(), ctx);
    const core::Codec& codec = *archive.codec;
    out << "archive: codec=" << codec.name()
        << " original=" << archive.original_shape.to_string()
        << " packed=" << archive.packed.shape().to_string() << " ("
        << archive.packed.size_bytes() << " bytes, CR "
        << codec.compression_ratio() << ")\n";
    const ArchiveProbe probe = probe_archive(file.view());
    out << "container: v" << probe.version;
    if (probe.chunk_count != 0) {
      out << " chunked: " << probe.chunk_count << " x " << probe.chunk_bytes
          << " bytes covering " << probe.payload_len << " payload bytes";
    } else {
      out << " unchunked: " << probe.payload_len << " payload bytes";
    }
    out << "\n";
    return 0;
  } catch (const std::exception&) {
    // Fall through to plain tensor.
  }
  const Tensor tensor = io::deserialize_tensor(file.view());
  out << "tensor: shape=" << tensor.shape().to_string() << " ("
      << tensor.size_bytes() << " bytes), mean=" << tensor::mean(tensor)
      << " max|x|=" << tensor::max_abs(tensor) << "\n";
  return 0;
}

int cmd_eval(const Options& options, std::ostream& out, const Context& ctx) {
  if (options.positional.size() != 1) {
    throw std::invalid_argument("eval: expected one input path");
  }
  const Tensor input = io::load_tensor(options.positional[0]);
  // eval needs no archive, so any registered codec works here — zfp/sz/
  // jpeg comparators included.
  const core::CodecPtr codec = core::make_codec(codec_spec(options), ctx);
  const core::RateDistortion rd = core::evaluate_codec(*codec, input);
  out << codec->name() << ": CR=" << rd.compression_ratio
      << " MSE=" << rd.mse << " PSNR=" << rd.psnr_db
      << " dB max|err|=" << rd.max_abs_error << "\n";
  return 0;
}

}  // namespace

int run_cli(const std::vector<std::string>& args, std::ostream& out,
            std::ostream& err) {
  if (args.empty()) return usage(err);
  // Baseline comparators live above core, so their factory entries are
  // registered explicitly before any spec is parsed.
  baseline::register_comparator_codecs();
  // AIC_OBS_PORT / AIC_METRICS_EXPORT_MS / AIC_METRICS_JSONL / AIC_FLIGHT
  // light up the continuous-telemetry stack for any command.
  obs::flight::set_provenance("cpu_backend", runtime::kernel_backend_name());
  obs::flight::set_provenance(
      "cpu_features", runtime::cpu_features().avx2 ? "avx2+fma" : "scalar");
  obs::observability_bootstrap_from_env();
  try {
    // `aicomp --metrics` / `aicomp --trace f.json` with no command run a
    // built-in probe workload.
    const bool bare = args[0].rfind("--", 0) == 0;
    const std::string command = bare ? "" : args[0];
    const Options options = parse(args, bare ? 0 : 1);
    check_flags(command, options);

    // Pool sizing precedence: --threads, then AIC_THREADS, then hardware
    // concurrency. The env leg applies lazily when the process pool is
    // first created, so only an explicit flag needs an up-front resize
    // (the pool does not exist yet, so no session can be holding it).
    const std::size_t threads_flag = flag_size(options, "threads", 0);
    if (threads_flag != 0) Context::set_process_threads(threads_flag);
    const Context ctx = Context::process_default();

    // AIC_TRACE (via runtime::env) or --trace turn span recording on
    // before the command executes.
    if (!options.trace_path.empty() ||
        !runtime::env_string("AIC_TRACE", "").empty()) {
      obs::set_tracing_enabled(true);
    }

    int rc;
    if (bare) {
      if (!options.metrics && options.trace_path.empty() &&
          options.metrics_out.empty()) {
        return usage(err);
      }
      rc = cmd_probe(out);
    } else if (command == "gen") {
      rc = cmd_gen(options, out);
    } else if (command == "compress") {
      rc = cmd_compress(options, out, ctx);
    } else if (command == "decompress") {
      rc = cmd_decompress(options, out, ctx);
    } else if (command == "verify") {
      rc = cmd_verify(options, out, ctx);
    } else if (command == "info") {
      rc = cmd_info(options, out, ctx);
    } else if (command == "eval") {
      rc = cmd_eval(options, out, ctx);
    } else if (command == "codecs") {
      rc = cmd_codecs(out);
    } else if (command == "serve") {
      rc = cmd_serve(options, out, ctx);
    } else {
      err << "unknown command: " << command << "\n";
      return usage(err);
    }

    if (!options.trace_path.empty()) {
      if (!obs::export_chrome_trace_file(options.trace_path)) {
        err << "error: cannot write trace to " << options.trace_path << "\n";
        return 1;
      }
      out << "wrote trace to " << options.trace_path << " ("
          << obs::collect_trace().size() << " spans)\n";
    }
    if (options.metrics) {
      print_metrics(out, ctx);
    } else if (options.stats) {
      print_registry(out, ctx);
    }
    if (!options.metrics_out.empty()) {
      // Machine-readable --metrics: the full registry snapshot as JSON
      // (the same document the JSONL exporter appends per interval).
      std::ofstream file(options.metrics_out);
      if (!file) {
        err << "error: cannot write metrics to " << options.metrics_out
            << "\n";
        return 1;
      }
      obs::Registry::global().write_json(file);
      file << "\n";
      out << "wrote metrics to " << options.metrics_out << "\n";
    }
    return rc;
  } catch (const std::exception& error) {
    err << "error: " << error.what() << "\n";
    return 1;
  }
}

}  // namespace aic::cli
