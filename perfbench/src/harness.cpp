#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <memory>
#include <sstream>

#include "obs/metrics.hpp"
#include "runtime/parallel_for.hpp"
#include "runtime/thread_pool.hpp"

namespace perfbench {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

Tracer::Scope::Scope(Tracer& tracer, const char* name, std::uint64_t bytes)
    : tracer_(tracer), index_(kNone) {
  if (!tracer_.enabled_) return;
  Span span;
  span.name = name;
  span.id = static_cast<std::uint32_t>(tracer_.spans_.size() + 1);
  span.bytes = bytes;
  if (tracer_.open_.empty()) {
    span.op = ++tracer_.ops_;
  } else {
    const Span& parent = tracer_.spans_[tracer_.open_.back()];
    span.parent = parent.id;
    span.op = parent.op;
  }
  index_ = tracer_.spans_.size();
  tracer_.spans_.push_back(span);
  tracer_.open_.push_back(index_);
  // Last, so the recorder's own bookkeeping stays outside the span.
  tracer_.spans_[index_].start_ns = now_ns();
}

Tracer::Scope::~Scope() {
  if (index_ == kNone) return;
  tracer_.spans_[index_].end_ns = now_ns();
  tracer_.open_.pop_back();
}

void Tracer::write_chrome_trace(std::ostream& out) const {
  const std::uint64_t epoch = spans_.empty() ? 0 : spans_.front().start_ns;
  const auto us = [epoch](std::uint64_t ns) {
    return static_cast<double>(ns - epoch) / 1e3;
  };
  out << std::fixed << std::setprecision(3)
      << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const std::string name = span.name;
    out << (i == 0 ? "\n" : ",\n") << "{\"name\":\"" << name
        << "\",\"cat\":\"" << name.substr(0, name.find('.'))
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << us(span.start_ns)
        << ",\"dur\":" << us(span.end_ns) - us(span.start_ns)
        << ",\"args\":{\"span\":" << span.id << ",\"parent\":" << span.parent
        << ",\"op\":" << span.op << ",\"end_us\":" << us(span.end_ns)
        << ",\"bytes\":" << span.bytes << "}}";
  }
  out << "\n]}\n";
}

Counts Counts::take(const aic::Context& ctx) {
  Counts counts;
  for (const auto& [name, value] : aic::obs::Registry::global().counters()) {
    const bool kept = name.rfind("plan_cache.", 0) == 0 ||
                      name.rfind("mempool.", 0) == 0 ||
                      name.rfind("pipeline.chunks_", 0) == 0 ||
                      name == "pipeline.encode_reallocs";
    if (kept) counts.values[name] = static_cast<double>(value);
  }
  const aic::runtime::ThreadPoolStats pool = ctx.pool().stats();
  counts.values["pool.tasks_executed"] =
      static_cast<double>(pool.tasks_executed);
  counts.values["pool.tasks_inlined"] = static_cast<double>(pool.tasks_inlined);
  const aic::runtime::ParallelForStats pfor =
      aic::runtime::parallel_for_stats();
  counts.values["parallel_for.inline_runs"] =
      static_cast<double>(pfor.inline_runs);
  counts.values["parallel_for.parallel_runs"] =
      static_cast<double>(pfor.parallel_runs);
  return counts;
}

double Counts::get(const std::string& name) const {
  const auto it = values.find(name);
  return it == values.end() ? 0 : it->second;
}

void Counts::add_delta(const Counts& before, const Counts& after) {
  for (const auto& [name, value] : after.values) {
    values[name] += value - before.get(name);
  }
}

CpuTicks read_cpu_ticks() {
  // First line: "cpu user nice system idle iowait irq softirq steal ...".
  std::ifstream stat("/proc/stat");
  std::string label;
  CpuTicks ticks;
  if (!(stat >> label) || label != "cpu") return ticks;
  std::uint64_t field = 0;
  for (int i = 0; i < 8 && stat >> field; ++i) {
    ticks.total += field;
    if (i == 7) ticks.steal = field;
  }
  return ticks;
}

double steal_share(const CpuTicks& before, const CpuTicks& after) {
  return ratio(static_cast<double>(after.steal - before.steal),
               static_cast<double>(after.total - before.total));
}

double memcpy_gbps() {
  constexpr std::size_t kBytes = std::size_t{64} << 20;
  const auto src = std::make_unique<char[]>(kBytes);
  const auto dst = std::make_unique<char[]>(kBytes);
  std::memset(src.get(), 1, kBytes);
  std::memset(dst.get(), 2, kBytes);  // fault every page in before timing
  std::vector<double> rates;
  for (int rep = 0; rep < 7; ++rep) {
    const std::uint64_t start = now_ns();
    std::memcpy(dst.get(), src.get(), kBytes);
    const std::uint64_t end = now_ns();
    rates.push_back(static_cast<double>(kBytes) /
                    static_cast<double>(end - start));
  }
  // Keeps the copies observable.
  if (dst[kBytes / 2] != src[kBytes / 2]) return 0;
  return median(rates);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t minor_faults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<std::uint64_t>(usage.ru_minflt);
}

void print_table(std::ostream& out, const std::vector<Metric>& metrics) {
  for (const Metric& metric : metrics) {
    out << "  " << std::left << std::setw(32) << metric.name << std::right
        << std::setw(16) << std::setprecision(6) << std::defaultfloat
        << metric.value << " " << metric.unit << "\n";
  }
}

void print_result(std::ostream& out, bool correct, std::uint64_t attempted,
                  std::uint64_t failed, const std::vector<Metric>& metrics) {
  std::ostringstream line;
  line << std::setprecision(17) << "{\"correct\": "
       << (correct ? "true" : "false") << ", \"attempted\": " << attempted
       << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    line << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
         << "\": {\"value\": " << metrics[i].value << ", \"unit\": \""
         << metrics[i].unit << "\"}";
  }
  line << "}}";
  out << line.str() << std::endl;
}

}  // namespace perfbench
