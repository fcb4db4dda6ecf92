#include "runtime/context.hpp"

#include <algorithm>
#include <array>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "obs/metrics.hpp"
#include "runtime/buffer_pool.hpp"
#include "runtime/env.hpp"
#include "runtime/thread_pool.hpp"

namespace aic {

namespace {

// The process-default pool. This file is the ONLY place in the tree that
// may hold process-wide pool state (CI greps for violations). Handout
// (current_pool / pool_handle) and replacement (set_process_threads) are
// serialized by g_process_pool_mutex; shared_ptr ownership means a swap
// can never free a pool someone is still submitting to — the old pool
// joins its workers when the last holder releases it.
std::mutex g_process_pool_mutex;
std::shared_ptr<runtime::ThreadPool>& process_pool_storage() {
  static std::shared_ptr<runtime::ThreadPool> pool;
  return pool;
}

std::shared_ptr<runtime::ThreadPool> process_pool() {
  std::lock_guard lock(g_process_pool_mutex);
  std::shared_ptr<runtime::ThreadPool>& pool = process_pool_storage();
  if (!pool) {
    pool = std::make_shared<runtime::ThreadPool>(
        Context::resolve_thread_count(0));
  }
  return pool;
}

// Innermost PoolScope binding on this thread; parallel_for routes through
// it so deep kernels (gemm, sandwich transforms) run on the scoping
// context's pool without a Context parameter in every signature.
thread_local std::shared_ptr<runtime::ThreadPool>* tls_bound_pool = nullptr;

}  // namespace

namespace runtime {

std::shared_ptr<ThreadPool> current_pool() {
  if (tls_bound_pool != nullptr) return *tls_bound_pool;
  return process_pool();
}

}  // namespace runtime

struct Context::Impl {
  Options options;
  bool process_default = false;
  /// Durable pool reference for session contexts. Empty for the
  /// process-default context, which fetches the live process pool per call
  /// so it observes set_process_threads.
  std::shared_ptr<runtime::ThreadPool> pool;
  /// Per-session scratch recycler, created on first use under slot_mutex.
  std::shared_ptr<runtime::BufferPool> buffer_pool;
  /// Lazily initialized higher-layer state (core's PlanCache, ...).
  std::mutex slot_mutex;
  std::array<std::shared_ptr<void>, static_cast<std::size_t>(Slot::kCount)>
      slots;
};

Context::Context() : Context(process_default()) {}

Context::Context(const Options& options) : impl_(std::make_shared<Impl>()) {
  impl_->options = options;
  if (options.pool) {
    impl_->pool = options.pool;
  } else if (options.threads > 0) {
    impl_->pool = std::make_shared<runtime::ThreadPool>(options.threads);
  } else {
    // Share the process-default pool. The durable reference is what makes
    // set_process_threads reject while this session is alive.
    impl_->pool = process_pool();
  }
}

Context Context::process_default() {
  static std::shared_ptr<Impl> process_impl = [] {
    auto impl = std::make_shared<Impl>();
    impl->process_default = true;
    impl->options.plan_cache_bytes = kPlanCacheBytesFromEnv;
    return impl;
  }();
  return Context(process_impl);
}

runtime::ThreadPool& Context::pool() const { return *pool_handle(); }

std::shared_ptr<runtime::ThreadPool> Context::pool_handle() const {
  if (impl_->pool) return impl_->pool;
  return process_pool();
}

runtime::BufferPool& Context::buffer_pool() const {
  return *buffer_pool_handle();
}

std::shared_ptr<runtime::BufferPool> Context::buffer_pool_handle() const {
  std::lock_guard lock(impl_->slot_mutex);
  if (!impl_->buffer_pool) {
    impl_->buffer_pool = std::make_shared<runtime::BufferPool>();
    impl_->buffer_pool->attach_metrics(impl_->options.obs_prefix);
  }
  return impl_->buffer_pool;
}

bool Context::is_process_default() const noexcept {
  return impl_->process_default;
}

std::size_t Context::plan_cache_bytes() const noexcept {
  return impl_->options.plan_cache_bytes;
}

std::size_t Context::chunk_bytes() const noexcept {
  return impl_->options.chunk_bytes;
}

int Context::entropy_mode() const noexcept {
  return impl_->options.entropy_mode;
}

const std::string& Context::obs_prefix() const noexcept {
  return impl_->options.obs_prefix;
}

std::string Context::metric_name(const std::string& name) const {
  return impl_->options.obs_prefix + name;
}

obs::Counter& Context::counter(const std::string& name) const {
  return obs::Registry::global().counter(metric_name(name));
}

obs::Gauge& Context::gauge(const std::string& name) const {
  return obs::Registry::global().gauge(metric_name(name));
}

obs::Histogram& Context::histogram(const std::string& name) const {
  return obs::Registry::global().histogram(metric_name(name));
}

Context::PoolScope::PoolScope(const Context& ctx)
    : pool_(ctx.pool_handle()), previous_(tls_bound_pool) {
  tls_bound_pool = &pool_;
}

Context::PoolScope::~PoolScope() { tls_bound_pool = previous_; }

void Context::set_process_threads(std::size_t num_threads) {
  std::lock_guard lock(g_process_pool_mutex);
  std::shared_ptr<runtime::ThreadPool>& pool = process_pool_storage();
  if (pool && pool.use_count() > 1) {
    throw std::runtime_error(
        "Context::set_process_threads: the process pool is held by another "
        "context, PoolScope, or in-flight parallel_for; resize rejected");
  }
  const std::size_t resolved =
      num_threads == 0
          ? std::max<std::size_t>(1, std::thread::hardware_concurrency())
          : num_threads;
  if (pool && pool->size() == resolved) return;
  pool.reset();  // sole owner: joins the old workers before the swap
  pool = std::make_shared<runtime::ThreadPool>(num_threads);
}

std::size_t Context::resolve_thread_count(std::size_t flag_value) {
  if (flag_value > 0) return flag_value;
  return runtime::env_size_t("AIC_THREADS", 0);
}

std::shared_ptr<void> Context::slot(
    Slot which,
    const std::function<std::shared_ptr<void>()>& factory) const {
  std::lock_guard lock(impl_->slot_mutex);
  std::shared_ptr<void>& cell =
      impl_->slots[static_cast<std::size_t>(which)];
  if (!cell) cell = factory();
  return cell;
}

}  // namespace aic
