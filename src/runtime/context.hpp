#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

namespace aic::obs {
class Counter;
class Gauge;
class Histogram;
}  // namespace aic::obs

namespace aic::runtime {

class BufferPool;
class ThreadPool;

/// The pool `parallel_for` fans out on: the innermost `Context::PoolScope`
/// bound on the calling thread, else the process-default pool (created on
/// first use, sized from AIC_THREADS / AIC_NUM_THREADS). The returned
/// shared_ptr keeps the pool alive across a concurrent
/// `Context::set_process_threads` swap.
std::shared_ptr<ThreadPool> current_pool();

}  // namespace aic::runtime

namespace aic {

/// An explicit, cheaply copyable session handle that bundles everything a
/// compression workload used to reach through process-wide singletons for:
///
///   - a thread pool (owned by this context, or a shared reference to the
///     process-default pool),
///   - a plan cache with its own byte budget (created lazily by the core
///     layer via `core::PlanCache::of(ctx)` — the runtime layer stores it
///     type-erased so it does not depend on core),
///   - codec/pipeline knobs (archive chunk bytes, entropy mode),
///   - an observability scope: a metric-name prefix under which per-context
///     instruments are registered in the *global* registry, so existing
///     OpenMetrics export / snapshot / flight-recorder paths see per-session
///     series without any new plumbing.
///
/// Copying a Context copies a shared_ptr; copies refer to the same session
/// (same pool, same plan cache, same counters). Two distinct Context objects
/// constructed from Options are fully isolated apart from whatever pool they
/// share.
///
/// `Context::process_default()` (and the default constructor) return a handle
/// to one process-wide session configured from the environment — exactly the
/// behavior the old singletons provided.
class Context {
 public:
  /// Sentinel: resolve the plan-cache budget from AIC_PLAN_CACHE_BYTES
  /// (library default when unset).
  static constexpr std::size_t kPlanCacheBytesFromEnv =
      static_cast<std::size_t>(-1);

  struct Options {
    /// Workers for a pool owned by this context. 0 = do not own a pool:
    /// share the process-default pool (or `pool` below when set).
    std::size_t threads = 0;
    /// Force a private hardware-sized pool even when `threads == 0`.
    bool own_pool = false;
    /// Explicit pool to share; overrides `threads` / `own_pool`.
    std::shared_ptr<runtime::ThreadPool> pool;
    /// Byte budget for this context's plan cache.
    std::size_t plan_cache_bytes = kPlanCacheBytesFromEnv;
    /// Archive chunk size; 0 = library default.
    std::size_t chunk_bytes = 0;
    /// Numeric value of baseline::ChunkEntropy (stored untyped because the
    /// baseline layer sits above the runtime layer).
    int entropy_mode = 0;
    /// Metric-name prefix (e.g. "session0.") for per-context instruments.
    /// Contexts with an empty prefix keep their plan-cache metrics private
    /// (the process-default context publishes unprefixed, as before).
    std::string obs_prefix;
  };

  /// Equivalent to `process_default()`.
  Context();
  /// A new isolated session.
  explicit Context(const Options& options);

  /// The process-wide session: shares the process-default pool, uses the
  /// env-configured plan-cache budget, publishes unprefixed metrics. All
  /// calls return handles to the same underlying session.
  static Context process_default();

  /// The pool this context executes on. For the process-default context the
  /// pool is fetched (and lazily created) at call time, so it observes
  /// `set_process_threads`.
  runtime::ThreadPool& pool() const;
  /// Shared ownership of the same pool (keeps it alive across resizes).
  std::shared_ptr<runtime::ThreadPool> pool_handle() const;

  /// This session's scratch recycler (created lazily; budget from
  /// AIC_MEMPOOL_BYTES). Its mempool.* instruments are registered under
  /// this context's obs_prefix. Distinct sessions never share buffers.
  runtime::BufferPool& buffer_pool() const;
  /// Shared ownership (keeps the pool's slabs alive past the context).
  std::shared_ptr<runtime::BufferPool> buffer_pool_handle() const;

  bool is_process_default() const noexcept;
  /// Raw option value; kPlanCacheBytesFromEnv means "resolve from env".
  std::size_t plan_cache_bytes() const noexcept;
  std::size_t chunk_bytes() const noexcept;
  int entropy_mode() const noexcept;
  const std::string& obs_prefix() const noexcept;

  /// `obs_prefix() + name`.
  std::string metric_name(const std::string& name) const;
  /// Per-context instruments, registered in the global registry under the
  /// prefixed name so export/flight paths pick them up automatically.
  /// Lookup takes the registry mutex — cache the reference on hot paths.
  obs::Counter& counter(const std::string& name) const;
  obs::Gauge& gauge(const std::string& name) const;
  obs::Histogram& histogram(const std::string& name) const;

  /// Two handles to the same underlying session?
  bool same_session(const Context& other) const noexcept {
    return impl_ == other.impl_;
  }

  /// RAII: binds this context's pool as the executor `parallel_for` (and
  /// therefore the tensor kernels) uses on the current thread. Nested
  /// scopes restore the previous binding on destruction. Hot-path entry
  /// points (codec compress/decompress, archive fan-out, trainer epochs)
  /// open one of these so deep kernels run on the session's pool without
  /// threading a Context through every layer.
  class PoolScope {
   public:
    explicit PoolScope(const Context& ctx);
    ~PoolScope();
    PoolScope(const PoolScope&) = delete;
    PoolScope& operator=(const PoolScope&) = delete;

   private:
    std::shared_ptr<runtime::ThreadPool> pool_;
    std::shared_ptr<runtime::ThreadPool>* previous_;
  };

  /// Replaces the process-default pool with one of `num_threads` workers
  /// (0 = hardware concurrency). Throws std::runtime_error while any other
  /// context, PoolScope, or in-flight parallel_for holds the pool —
  /// resizing under live submitters was a use-after-free race; now it is
  /// an explicit rejection. Handout and swap are serialized by one mutex,
  /// and the old pool joins its workers when the last holder drops it.
  static void set_process_threads(std::size_t num_threads);

  /// One documented precedence order for worker-count configuration:
  /// CLI flag (pass as `flag_value`, 0 = unset) > AIC_THREADS >
  /// AIC_NUM_THREADS (legacy alias) > hardware concurrency. Returns 0 to
  /// mean "hardware" so the result feeds ThreadPool's constructor directly.
  static std::size_t resolve_thread_count(std::size_t flag_value = 0);

  /// Type-erased per-context lazily initialized state for higher layers
  /// (the core layer's PlanCache lives in kPlanCache). The factory runs at
  /// most once per context per slot, under the context's slot mutex.
  enum class Slot : std::size_t { kPlanCache = 0, kArchiveScratch = 1, kCount };
  std::shared_ptr<void> slot(
      Slot which,
      const std::function<std::shared_ptr<void>()>& factory) const;

 private:
  struct Impl;
  explicit Context(std::shared_ptr<Impl> impl) : impl_(std::move(impl)) {}

  std::shared_ptr<Impl> impl_;
};

}  // namespace aic
