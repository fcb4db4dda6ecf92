#include "core/plan_cache.hpp"

#include <stdexcept>

#include "obs/metrics.hpp"
#include "runtime/env.hpp"
#include "runtime/timer.hpp"

namespace aic::core {

namespace {

constexpr std::size_t kDefaultBudgetBytes = 256ull << 20;  // 256 MiB

std::size_t resolve_budget(const Context& ctx) {
  const std::size_t requested = ctx.plan_cache_bytes();
  if (requested != Context::kPlanCacheBytesFromEnv) return requested;
  return runtime::env_size_t("AIC_PLAN_CACHE_BYTES", kDefaultBudgetBytes);
}

}  // namespace

PlanCache& PlanCache::of(const Context& ctx) {
  const std::shared_ptr<void> cell = ctx.slot(
      Context::Slot::kPlanCache, [&ctx]() -> std::shared_ptr<void> {
        // Metrics rule: the process default keeps the historical
        // unprefixed series; sessions publish only when labeled, so
        // anonymous scratch contexts don't pollute the registry.
        const bool publish =
            ctx.is_process_default() || !ctx.obs_prefix().empty();
        return std::make_shared<PlanCache>(resolve_budget(ctx), publish,
                                           ctx.obs_prefix());
      });
  return *static_cast<PlanCache*>(cell.get());
}

PlanCache::PlanCache(std::size_t byte_budget, bool publish_metrics,
                     const std::string& metric_prefix)
    : byte_budget_(byte_budget), publish_metrics_(publish_metrics) {
  if (publish_metrics_) {
    obs::Registry& registry = obs::Registry::global();
    instruments_.hit = &registry.counter(metric_prefix + "plan_cache.hit");
    instruments_.miss = &registry.counter(metric_prefix + "plan_cache.miss");
    instruments_.build_count =
        &registry.counter(metric_prefix + "plan_cache.build_count");
    instruments_.eviction =
        &registry.counter(metric_prefix + "plan_cache.eviction");
    instruments_.build_ns =
        &registry.histogram(metric_prefix + "plan_cache.build_ns");
    instruments_.resident_bytes =
        &registry.gauge(metric_prefix + "plan_cache.resident_bytes");
  }
}

std::shared_ptr<const CodecPlan> PlanCache::resolve(const PlanKey& key,
                                                    const BuildFn& build) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    ++stats_.hits;
    if (publish_metrics_) instruments_.hit->add();
    touch(it->second);
    return it->second.plan;
  }

  ++stats_.misses;
  if (publish_metrics_) instruments_.miss->add();

  // Built under the lock: a key is compiled exactly once per cache,
  // which keeps plan_cache.build_count deterministic (it equals the
  // number of distinct keys ever requested) and spares concurrent
  // resolvers of the same key from duplicating the build.
  runtime::Timer timer;
  std::shared_ptr<const CodecPlan> plan =
      build ? build() : build_core_plan(key);
  const std::uint64_t nanos = timer.nanos();
  if (!plan) {
    throw std::runtime_error("PlanCache: builder returned null for key " +
                             key.to_string());
  }
  ++stats_.builds;
  if (publish_metrics_) {
    instruments_.build_count->add();
    instruments_.build_ns->record(nanos);
  }

  const std::size_t bytes = plan->resident_bytes();
  lru_.push_front(key);
  entries_.emplace(key, Entry{plan, bytes, lru_.begin()});
  resident_bytes_ += bytes;
  evict_to_budget();
  publish_resident_locked();
  return plan;
}

void PlanCache::touch(Entry& entry) {
  lru_.splice(lru_.begin(), lru_, entry.lru_it);
  entry.lru_it = lru_.begin();
}

void PlanCache::evict_to_budget() {
  if (byte_budget_ == 0) return;
  // Never evict the most recently used entry — the caller is about to
  // execute it; an over-budget single plan simply lives alone.
  while (resident_bytes_ > byte_budget_ && entries_.size() > 1) {
    const PlanKey victim = lru_.back();
    auto it = entries_.find(victim);
    resident_bytes_ -= it->second.bytes;
    entries_.erase(it);
    lru_.pop_back();
    ++stats_.evictions;
    if (publish_metrics_) instruments_.eviction->add();
  }
}

void PlanCache::publish_resident_locked() {
  if (publish_metrics_) {
    instruments_.resident_bytes->set(static_cast<double>(resident_bytes_));
  }
}

void PlanCache::set_byte_budget(std::size_t bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  byte_budget_ = bytes;
  evict_to_budget();
  publish_resident_locked();
}

std::size_t PlanCache::byte_budget() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return byte_budget_;
}

std::size_t PlanCache::resident_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return resident_bytes_;
}

std::size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

void PlanCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
  lru_.clear();
  resident_bytes_ = 0;
  publish_resident_locked();
}

PlanCache::Snapshot PlanCache::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Snapshot snap = stats_;
  snap.resident_bytes = resident_bytes_;
  snap.entries = entries_.size();
  return snap;
}

std::shared_ptr<const DctChopPlan> resolve_dct_chop_plan(
    const Context& ctx, std::size_t height, std::size_t width, std::size_t cf,
    std::size_t block, TransformKind transform) {
  const PlanKey key = dct_chop_plan_key(height, width, cf, block, transform);
  return std::static_pointer_cast<const DctChopPlan>(
      PlanCache::of(ctx).resolve(key));
}

}  // namespace aic::core
