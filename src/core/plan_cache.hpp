#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include <string>

#include "core/plan.hpp"
#include "runtime/context.hpp"

namespace aic::obs {
class Counter;
class Gauge;
class Histogram;
}  // namespace aic::obs

namespace aic::core {

/// Per-context cache of compiled codec plans, keyed by PlanKey, with
/// LRU eviction against a byte budget (the process-default context reads
/// `AIC_PLAN_CACHE_BYTES`, default 256 MiB, 0 = unbounded).
///
/// This is the repo's answer to the paper's compile-once/run-per-batch
/// split at production scale: the first request for a (codec, shape)
/// pair pays the plan build, every later request — from any thread or
/// codec instance — is a shared_ptr copy.
///
/// Thread safety: resolve() is fully synchronized; builds happen under
/// the lock so a key is built exactly once (deterministic
/// `plan_cache.build_count`) and concurrent resolvers of the same key
/// block rather than duplicating work. Plans are flat (every core codec
/// runs one DctChopPlan), so no build resolves through the cache and the
/// lock is a plain mutex.
///
/// Evicted plans stay alive as long as any codec still holds the
/// shared_ptr; eviction only drops the cache's reference.
class PlanCache {
 public:
  using BuildFn = std::function<std::shared_ptr<const CodecPlan>()>;

  /// The cache belonging to `ctx`, created on first use with the
  /// context's byte budget. The process-default context publishes metrics
  /// unprefixed (`plan_cache.*`, as the old singleton did); other contexts
  /// publish under `<obs_prefix>plan_cache.*` when they carry a prefix and
  /// stay silent otherwise. Lives as long as the context.
  static PlanCache& of(const Context& ctx);

  /// A standalone cache (tests); publishes obs metrics under
  /// `<metric_prefix>plan_cache.*` only when `publish_metrics` is set.
  explicit PlanCache(std::size_t byte_budget, bool publish_metrics = false,
                     const std::string& metric_prefix = {});

  /// Returns the cached plan for `key`, building it with `build` on a
  /// miss. When `build` is empty, `build_core_plan(key)` is used (valid
  /// for kDctChop keys only).
  std::shared_ptr<const CodecPlan> resolve(const PlanKey& key,
                                           const BuildFn& build = {});

  /// Changes the byte budget and evicts immediately if over. 0 disables
  /// eviction.
  void set_byte_budget(std::size_t bytes);
  std::size_t byte_budget() const;

  std::size_t resident_bytes() const;
  std::size_t size() const;
  void clear();

  struct Snapshot {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t builds = 0;
    std::uint64_t evictions = 0;
    std::size_t resident_bytes = 0;
    std::size_t entries = 0;
  };
  Snapshot snapshot() const;

 private:
  struct Entry {
    std::shared_ptr<const CodecPlan> plan;
    std::size_t bytes = 0;
    std::list<PlanKey>::iterator lru_it;
  };

  /// Pointers into the global registry for this cache's metric series
  /// (instruments are never deleted, so the references stay valid).
  struct Instruments {
    obs::Counter* hit = nullptr;
    obs::Counter* miss = nullptr;
    obs::Counter* build_count = nullptr;
    obs::Counter* eviction = nullptr;
    obs::Histogram* build_ns = nullptr;
    obs::Gauge* resident_bytes = nullptr;
  };

  void touch(Entry& entry);
  void evict_to_budget();
  void publish_resident_locked();

  mutable std::mutex mutex_;
  std::list<PlanKey> lru_;  // front = most recently used
  std::unordered_map<PlanKey, Entry, PlanKeyHash> entries_;
  std::size_t byte_budget_ = 0;
  std::size_t resident_bytes_ = 0;
  bool publish_metrics_ = false;
  Instruments instruments_;
  Snapshot stats_;
};

/// The DctChopPlan for one geometry, through PlanCache::of(ctx).
std::shared_ptr<const DctChopPlan> resolve_dct_chop_plan(
    const Context& ctx, std::size_t height, std::size_t width, std::size_t cf,
    std::size_t block, TransformKind transform);

}  // namespace aic::core
