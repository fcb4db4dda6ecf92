// Measurement plumbing shared by the benchmark's workloads: clocks and
// percentiles, the span recorder of the traced run, counter snapshots of
// the library's public statistics, host-noise probes and the result line.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "runtime/context.hpp"

namespace perfbench {

/// Monotonic nanoseconds (std::chrono::steady_clock).
std::uint64_t now_ns();

inline double ms_between(std::uint64_t start_ns, std::uint64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e6;
}

/// Linearly interpolated quantile `q` in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// `num / den`, or 0 when nothing was attempted (den == 0).
inline double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// One closed span of the traced run. Spans of one op share `op`; a root
/// span (the op itself, or a probe) has parent 0.
struct Span {
  const char* name = nullptr;  // "<layer>.<call>", a string literal
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t id = 0;  // 1-based
  std::uint32_t parent = 0;
  std::uint32_t op = 0;
  std::uint64_t bytes = 0;  // bytes the call consumed or produced

  double ms() const { return ms_between(start_ns, end_ns); }
};

/// Span recorder for calls made from the benchmark's own code into each
/// layer's public functions. Single-threaded: every call it times is
/// issued from the benchmark's one client thread. A disabled recorder
/// records nothing, so a replicated op can run with and without it.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// RAII span. Opened with no span open, it starts a new op.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, std::uint64_t bytes = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::size_t index_;
  };

  const std::vector<Span>& spans() const { return spans_; }

  /// Chrome trace-event JSON (the format Perfetto and chrome://tracing
  /// open): one "X" event per span, timestamps in microseconds from the
  /// first span, with span id, parent, op id, end and bytes in `args`.
  void write_chrome_trace(std::ostream& out) const;

 private:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;  // indices into spans_
  std::uint32_t ops_ = 0;
};

/// Library counters that repeat exactly per op: the obs registry's
/// plan_cache.* / mempool.* / pipeline.chunks_* / pipeline.encode_reallocs
/// families, the pool's ThreadPool::stats() and parallel_for_stats().
struct Counts {
  std::map<std::string, double> values;

  static Counts take(const aic::Context& ctx);
  double get(const std::string& name) const;
  /// Adds `after - before` key by key.
  void add_delta(const Counts& before, const Counts& after);
};

/// Cumulative CPU ticks of the host from /proc/stat (zeros when absent).
struct CpuTicks {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};
CpuTicks read_cpu_ticks();
/// Share of all CPU ticks between two readings that the hypervisor stole.
double steal_share(const CpuTicks& before, const CpuTicks& after);
/// Median memcpy bandwidth over a few 64 MiB copies, GB/s.
double memcpy_gbps();
/// Process resident-set high-water mark, MB (getrusage).
double peak_rss_mb();
/// Minor page faults taken by the process so far (getrusage).
std::uint64_t minor_faults();

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Prints the metrics as an aligned table, one per line.
void print_table(std::ostream& out, const std::vector<Metric>& metrics);
/// The result line: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
/// with every value printed at full precision.
void print_result(std::ostream& out, bool correct, std::uint64_t attempted,
                  std::uint64_t failed, const std::vector<Metric>& metrics);

}  // namespace perfbench
