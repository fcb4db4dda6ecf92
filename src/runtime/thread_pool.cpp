#include "runtime/thread_pool.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/logging.hpp"

namespace aic::runtime {

namespace {

// Identifies the pool (if any) whose worker_loop owns the current thread.
thread_local const ThreadPool* tls_worker_pool = nullptr;

obs::Gauge& queue_depth_gauge() {
  static obs::Gauge& gauge =
      obs::Registry::global().gauge("pool.queue_depth");
  return gauge;
}

}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  AIC_LOG_DEBUG << "thread_pool: starting " << num_threads << " workers";
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() { shutdown(); }

bool ThreadPool::in_worker_thread() const noexcept {
  return tls_worker_pool == this;
}

void ThreadPool::post(std::function<void()> task) {
  if (in_worker_thread()) {
    tasks_inlined_.fetch_add(1, std::memory_order_relaxed);
    task();
    return;
  }
  {
    std::lock_guard lock(mutex_);
    if (stopping_) {
      throw std::runtime_error("ThreadPool::post after shutdown");
    }
    queue_.push_back(std::move(task));
    peak_queue_depth_ = std::max<std::uint64_t>(peak_queue_depth_, queue_.size());
    queue_depth_gauge().set(static_cast<double>(queue_.size()));
  }
  task_available_.notify_one();
}

void ThreadPool::shutdown() {
  {
    std::lock_guard lock(mutex_);
    if (stopping_) return;
    stopping_ = true;
  }
  task_available_.notify_all();
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
}

ThreadPoolStats ThreadPool::stats() const {
  ThreadPoolStats out;
  {
    std::lock_guard lock(mutex_);
    out.tasks_executed = tasks_executed_;
    out.peak_queue_depth = peak_queue_depth_;
  }
  out.tasks_inlined = tasks_inlined_.load(std::memory_order_relaxed);
  return out;
}

void ThreadPool::reset_stats() {
  std::lock_guard lock(mutex_);
  tasks_executed_ = 0;
  peak_queue_depth_ = 0;
  tasks_inlined_.store(0, std::memory_order_relaxed);
}

void ThreadPool::worker_loop() {
  tls_worker_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      AIC_TRACE_SCOPE("pool.idle");
      std::unique_lock lock(mutex_);
      task_available_.wait(lock,
                           [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        // stopping_ is set and the queue has drained.
        return;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
      queue_depth_gauge().set(static_cast<double>(queue_.size()));
      ++tasks_executed_;
    }
    AIC_TRACE_SCOPE("pool.task");
    task();
  }
}

}  // namespace aic::runtime
