#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <sstream>

namespace aic::obs {

// ---------------------------------------------------------------------------
// Histogram

std::size_t Histogram::bucket_index(std::uint64_t value) noexcept {
  if (value < 2) return 0;
  const std::size_t index = static_cast<std::size_t>(std::bit_width(value)) - 1;
  return std::min(index, kBuckets - 1);
}

std::uint64_t Histogram::bucket_lower(std::size_t index) noexcept {
  return index == 0 ? 0 : (std::uint64_t{1} << index);
}

double Histogram::bucket_upper(std::size_t index) noexcept {
  return std::ldexp(1.0, static_cast<int>(index) + 1);
}

void Histogram::record(std::uint64_t value) noexcept {
  buckets_[bucket_index(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  std::uint64_t seen = min_.load(std::memory_order_relaxed);
  while (value < seen &&
         !min_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
  seen = max_.load(std::memory_order_relaxed);
  while (value > seen &&
         !max_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

HistogramSnapshot Histogram::snapshot() const noexcept {
  // Seqlock read: retry while a reset is in flight (odd generation) or
  // completed between our two fences, so the copy never mixes pre-reset
  // totals with post-reset buckets. Bounded so a pathological reset loop
  // cannot livelock the reader. A torn read is never returned: when the
  // bound runs out (a resetting writer preempted mid-reset), the result
  // is the empty state that reset is writing.
  for (int attempt = 0; attempt < 1024; ++attempt) {
    const std::uint64_t before = generation_.load(std::memory_order_acquire);
    if (before & 1) continue;  // reset rewriting the fields right now
    HistogramSnapshot out;
    out.count = count_.load(std::memory_order_relaxed);
    out.sum = sum_.load(std::memory_order_relaxed);
    out.max = max_.load(std::memory_order_relaxed);
    const std::uint64_t min = min_.load(std::memory_order_relaxed);
    out.min = out.count > 0 ? min : 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      out.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
    }
    std::atomic_thread_fence(std::memory_order_acquire);
    if (generation_.load(std::memory_order_relaxed) == before) return out;
  }
  return HistogramSnapshot{};
}

void Histogram::reset() noexcept {
  // Seqlock write: generation goes odd, the fields are zeroed, then it
  // goes even again — snapshot() retries across the whole window.
  generation_.fetch_add(1, std::memory_order_acq_rel);
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<std::uint64_t>::max(),
             std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
  generation_.fetch_add(1, std::memory_order_release);
}

double HistogramSnapshot::percentile(double p) const {
  if (count == 0) return 0.0;
  const double target =
      std::clamp(p, 0.0, 1.0) * static_cast<double>(count);
  double cumulative = 0.0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    if (buckets[i] == 0) continue;
    const double next = cumulative + static_cast<double>(buckets[i]);
    if (next >= target) {
      const double lower = static_cast<double>(Histogram::bucket_lower(i));
      const double upper = Histogram::bucket_upper(i);
      const double frac =
          (target - cumulative) / static_cast<double>(buckets[i]);
      return lower + (upper - lower) * frac;
    }
    cumulative = next;
  }
  return static_cast<double>(max);
}

// ---------------------------------------------------------------------------
// Registry

struct Registry::Impl {
  mutable std::mutex mutex;
  std::map<std::string, std::unique_ptr<Counter>> counters;
  std::map<std::string, std::unique_ptr<Gauge>> gauges;
  std::map<std::string, std::unique_ptr<Histogram>> histograms;
};

Registry::Impl& Registry::impl() const {
  // Leaky singleton: instruments may be updated from static destructors
  // of other translation units, so the registry is never destroyed.
  static Impl* impl = new Impl();
  return *impl;
}

Registry& Registry::global() {
  static Registry* registry = new Registry();
  return *registry;
}

namespace {
template <typename Map>
auto& find_or_create(Map& map, const std::string& name) {
  auto it = map.find(name);
  if (it == map.end()) {
    it = map.emplace(name, std::make_unique<typename Map::mapped_type::
                                               element_type>())
             .first;
  }
  return *it->second;
}
}  // namespace

Counter& Registry::counter(const std::string& name) {
  Impl& i = impl();
  std::lock_guard lock(i.mutex);
  return find_or_create(i.counters, name);
}

Gauge& Registry::gauge(const std::string& name) {
  Impl& i = impl();
  std::lock_guard lock(i.mutex);
  return find_or_create(i.gauges, name);
}

Histogram& Registry::histogram(const std::string& name) {
  Impl& i = impl();
  std::lock_guard lock(i.mutex);
  return find_or_create(i.histograms, name);
}

std::vector<std::pair<std::string, std::uint64_t>> Registry::counters()
    const {
  Impl& i = impl();
  std::lock_guard lock(i.mutex);
  std::vector<std::pair<std::string, std::uint64_t>> out;
  out.reserve(i.counters.size());
  for (const auto& [name, counter] : i.counters) {
    out.emplace_back(name, counter->value());
  }
  return out;
}

std::vector<std::pair<std::string, double>> Registry::gauges() const {
  Impl& i = impl();
  std::lock_guard lock(i.mutex);
  std::vector<std::pair<std::string, double>> out;
  out.reserve(i.gauges.size());
  for (const auto& [name, gauge] : i.gauges) {
    out.emplace_back(name, gauge->value());
  }
  return out;
}

std::vector<std::pair<std::string, HistogramSnapshot>> Registry::histograms()
    const {
  Impl& i = impl();
  std::lock_guard lock(i.mutex);
  std::vector<std::pair<std::string, HistogramSnapshot>> out;
  out.reserve(i.histograms.size());
  for (const auto& [name, histogram] : i.histograms) {
    out.emplace_back(name, histogram->snapshot());
  }
  return out;
}

namespace detail {

void write_json_string(std::ostream& out, const std::string& s) {
  out << '"';
  for (const char raw : s) {
    const unsigned char c = static_cast<unsigned char>(raw);
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\t': out << "\\t"; break;
      default:
        if (c < 0x20) {
          char hex[8];
          std::snprintf(hex, sizeof(hex), "\\u%04x", c);
          out << hex;
        } else {
          out << static_cast<char>(c);
        }
    }
  }
  out << '"';
}

void write_json_number(std::ostream& out, double value) {
  if (!std::isfinite(value)) {
    out << "null";
    return;
  }
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.6g", value);
  out << buffer;
}

}  // namespace detail

namespace {
using detail::write_json_number;
using detail::write_json_string;
}  // namespace

void Registry::write_json(std::ostream& out) const {
  out << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : counters()) {
    if (!first) out << ",";
    first = false;
    write_json_string(out, name);
    out << ":" << value;
  }
  out << "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : gauges()) {
    if (!first) out << ",";
    first = false;
    write_json_string(out, name);
    out << ":";
    write_json_number(out, value);
  }
  out << "},\"histograms\":{";
  first = true;
  for (const auto& [name, snap] : histograms()) {
    if (!first) out << ",";
    first = false;
    write_json_string(out, name);
    out << ":{\"count\":" << snap.count << ",\"sum\":" << snap.sum
        << ",\"min\":" << snap.min << ",\"max\":" << snap.max << ",\"mean\":";
    write_json_number(out, snap.mean());
    out << ",\"p50\":";
    write_json_number(out, snap.p50());
    out << ",\"p90\":";
    write_json_number(out, snap.p90());
    out << ",\"p99\":";
    write_json_number(out, snap.p99());
    out << "}";
  }
  out << "}}";
}

std::string Registry::json() const {
  std::ostringstream out;
  write_json(out);
  return out.str();
}

void Registry::reset() {
  Impl& i = impl();
  std::lock_guard lock(i.mutex);
  for (auto& [name, counter] : i.counters) counter->reset();
  for (auto& [name, gauge] : i.gauges) gauge->reset();
  for (auto& [name, histogram] : i.histograms) histogram->reset();
}

}  // namespace aic::obs
