#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace aic::obs {

/// Monotonic event counter. One relaxed fetch_add per add — always-on.
/// Each counter owns a cache line: the codec and kernel series are added
/// from pool workers, and a line shared with other heap data measurably
/// slowed the block kernel.
class alignas(64) Counter {
 public:
  void add(std::uint64_t delta = 1) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-writer-wins instantaneous value (queue depth, drift ratio, ...).
class Gauge {
 public:
  void set(double value) noexcept {
    value_.store(value, std::memory_order_relaxed);
  }
  double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { set(0.0); }

 private:
  std::atomic<double> value_{0.0};
};

/// Point-in-time copy of a Histogram with the percentile math.
struct HistogramSnapshot {
  static constexpr std::size_t kBuckets = 64;

  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;
  std::uint64_t max = 0;
  std::array<std::uint64_t, kBuckets> buckets{};

  double mean() const {
    return count > 0 ? static_cast<double>(sum) / static_cast<double>(count)
                     : 0.0;
  }
  /// Rank-interpolated percentile estimate, p in [0, 1]. Exact to within
  /// one log2 bucket; the exact extrema are `min`/`max`.
  double percentile(double p) const;
  double p50() const { return percentile(0.50); }
  double p90() const { return percentile(0.90); }
  double p99() const { return percentile(0.99); }
};

/// Log2-bucketed latency/value histogram: bucket 0 holds [0, 2), bucket
/// i ≥ 1 holds [2^i, 2^(i+1)). Recording is three relaxed atomic adds
/// plus two CAS extrema updates — cheap enough to stay always-on.
///
/// Coherence guarantee: reset() and snapshot() are serialized through a
/// generation seqlock, so a snapshot never mixes pre-reset totals with
/// post-reset buckets (each snapshot observes one reset epoch; it
/// retries while a reset is in flight). record() stays lock-free and is
/// NOT serialized against either: a snapshot concurrent with recording
/// can see an individual record half-applied (bucket bumped before
/// count/sum — record order is bucket, count, sum), and records that
/// overlap a reset may be partially erased. Within one reset epoch the
/// invariant `sum(buckets) >= count` always holds for snapshots taken
/// by this method.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = HistogramSnapshot::kBuckets;

  static std::size_t bucket_index(std::uint64_t value) noexcept;
  /// Inclusive lower bound of a bucket (0 for bucket 0, else 2^i).
  static std::uint64_t bucket_lower(std::size_t index) noexcept;
  /// Exclusive upper bound as a double (2^(i+1); exceeds uint64 at 63).
  static double bucket_upper(std::size_t index) noexcept;

  void record(std::uint64_t value) noexcept;
  HistogramSnapshot snapshot() const noexcept;
  void reset() noexcept;

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{std::numeric_limits<std::uint64_t>::max()};
  std::atomic<std::uint64_t> max_{0};
  /// Seqlock epoch: odd while a reset is rewriting the fields.
  std::atomic<std::uint64_t> generation_{0};
};

/// Process-wide named-instrument registry. Lookup takes a mutex (cache
/// the returned reference on hot paths — instruments are never deleted,
/// so references stay valid for the process lifetime); updates through
/// the instruments are lock-free.
class Registry {
 public:
  static Registry& global();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  std::vector<std::pair<std::string, std::uint64_t>> counters() const;
  std::vector<std::pair<std::string, double>> gauges() const;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms() const;

  /// {"counters":{...},"gauges":{...},"histograms":{name:{count,sum,min,
  /// max,mean,p50,p90,p99}}}
  void write_json(std::ostream& out) const;
  std::string json() const;

  /// Zeroes every registered instrument (registration survives).
  void reset();

 private:
  Registry() = default;
  struct Impl;
  Impl& impl() const;
};

namespace detail {
/// Writes `s` as a JSON string literal (quotes included), escaping
/// quotes, backslashes, and control characters. Shared by the registry,
/// the snapshot exporter, and the flight recorder.
void write_json_string(std::ostream& out, const std::string& s);
/// Writes a finite double with %.6g, or `null` for NaN/inf.
void write_json_number(std::ostream& out, double value);
}  // namespace detail

}  // namespace aic::obs
