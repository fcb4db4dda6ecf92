#include "runtime/buffer_pool.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdlib>
#include <mutex>
#include <new>
#include <stdexcept>
#include <vector>

#include "obs/metrics.hpp"
#include "runtime/env.hpp"

namespace aic::runtime {

namespace {

constexpr std::size_t kMinShift = 6;   // 64 B
constexpr std::size_t kMaxShift = 46;  // 64 TiB: anything above is a bug
constexpr std::size_t kNumClasses = kMaxShift - kMinShift + 1;

constexpr std::size_t kDefaultBudgetBytes = std::size_t{256} << 20;

std::size_t class_index_for(std::size_t bytes) {
  const std::size_t capacity =
      std::max(BufferPool::kMinClassBytes, std::bit_ceil(bytes));
  const std::size_t shift =
      static_cast<std::size_t>(std::countr_zero(capacity));
  if (shift > kMaxShift) {
    throw std::invalid_argument("BufferPool: request of " +
                                std::to_string(bytes) +
                                " bytes exceeds the largest size class");
  }
  return shift - kMinShift;
}

std::size_t class_capacity(std::size_t index) {
  return std::size_t{1} << (index + kMinShift);
}

}  // namespace

struct BufferPool::State {
  mutable std::mutex mutex;
  std::size_t budget_bytes = 0;

  struct FreeBlock {
    char* ptr = nullptr;
    std::uint64_t stamp = 0;  // release order, for LRU eviction
  };
  // free_lists[c] holds blocks of class_capacity(c); reuse is LIFO (the
  // most recently released block is cache-hot), eviction is FIFO per
  // class with the globally oldest stamp going first.
  std::array<std::vector<FreeBlock>, kNumClasses> free_lists;
  std::uint64_t tick = 0;

  Stats stats;

  // Optional mirrored instruments (global registry references are stable
  // for the process lifetime).
  obs::Counter* hits = nullptr;
  obs::Counter* misses = nullptr;
  obs::Counter* recycled = nullptr;
  obs::Gauge* resident = nullptr;

  void publish_resident_locked() {
    stats.resident_bytes = stats.cached_bytes + stats.leased_bytes;
    if (resident != nullptr) {
      resident->set(static_cast<double>(stats.resident_bytes));
    }
  }

  // Frees least-recently-released cached blocks until at most
  // `keep_bytes` stay cached. Caller holds the mutex.
  void evict_to_locked(std::size_t keep_bytes) {
    while (stats.cached_bytes > keep_bytes) {
      std::size_t victim_class = kNumClasses;
      std::uint64_t oldest = 0;
      for (std::size_t c = 0; c < kNumClasses; ++c) {
        if (free_lists[c].empty()) continue;
        const std::uint64_t stamp = free_lists[c].front().stamp;
        if (victim_class == kNumClasses || stamp < oldest) {
          victim_class = c;
          oldest = stamp;
        }
      }
      if (victim_class == kNumClasses) return;  // nothing cached
      std::vector<FreeBlock>& list = free_lists[victim_class];
      std::free(list.front().ptr);
      list.erase(list.begin());
      const std::size_t capacity = class_capacity(victim_class);
      stats.cached_bytes -= capacity;
      stats.trimmed_bytes += capacity;
    }
  }

  void release(char* ptr, std::size_t class_index) {
    std::lock_guard lock(mutex);
    const std::size_t capacity = class_capacity(class_index);
    stats.leased_bytes -= capacity;
    if (budget_bytes == 0) {
      std::free(ptr);
      stats.trimmed_bytes += capacity;
    } else {
      free_lists[class_index].push_back({ptr, ++tick});
      stats.cached_bytes += capacity;
      evict_to_locked(budget_bytes);
    }
    publish_resident_locked();
  }

  ~State() {
    for (auto& list : free_lists) {
      for (const FreeBlock& block : list) std::free(block.ptr);
    }
  }
};

void BufferPool::Buffer::reset() noexcept {
  if (state_) {
    state_->release(data_, class_index_for(capacity_));
    state_.reset();
  }
  data_ = nullptr;
  size_ = 0;
  capacity_ = 0;
}

std::size_t BufferPool::budget_from_env() {
  return env_size_t("AIC_MEMPOOL_BYTES", kDefaultBudgetBytes);
}

BufferPool::BufferPool() : BufferPool(budget_from_env()) {}

BufferPool::BufferPool(std::size_t budget_bytes)
    : state_(std::make_shared<State>()) {
  // Free-list storage is reserved here, so a release allocates nothing:
  // a small block allocated later, between large tensors, can split a
  // freed tensor's heap hole and raise the peak resident set by a tensor.
  for (auto& list : state_->free_lists) list.reserve(8);
  state_->budget_bytes = budget_bytes;
}

BufferPool::~BufferPool() = default;

BufferPool::Buffer BufferPool::acquire(std::size_t bytes) {
  const std::size_t index = class_index_for(bytes);
  const std::size_t capacity = class_capacity(index);
  char* ptr = nullptr;
  {
    std::lock_guard lock(state_->mutex);
    std::vector<State::FreeBlock>& list = state_->free_lists[index];
    if (!list.empty()) {
      ptr = list.back().ptr;
      list.pop_back();
      state_->stats.cached_bytes -= capacity;
      state_->stats.hits += 1;
      state_->stats.recycled_bytes += capacity;
      if (state_->hits != nullptr) state_->hits->add();
      if (state_->recycled != nullptr) state_->recycled->add(capacity);
    } else {
      state_->stats.misses += 1;
      if (state_->misses != nullptr) state_->misses->add();
    }
  }
  if (ptr == nullptr) {
    ptr = static_cast<char*>(std::aligned_alloc(kAlignment, capacity));
    if (ptr == nullptr) throw std::bad_alloc();
  }
  {
    std::lock_guard lock(state_->mutex);
    state_->stats.leased_bytes += capacity;
    state_->publish_resident_locked();
  }
  return Buffer(state_, ptr, bytes, capacity);
}

void BufferPool::trim(std::size_t keep_bytes) {
  std::lock_guard lock(state_->mutex);
  state_->evict_to_locked(keep_bytes);
  state_->publish_resident_locked();
}

BufferPool::Stats BufferPool::stats() const {
  std::lock_guard lock(state_->mutex);
  return state_->stats;
}

std::size_t BufferPool::budget_bytes() const {
  std::lock_guard lock(state_->mutex);
  return state_->budget_bytes;
}

void BufferPool::attach_metrics(const std::string& prefix) {
  obs::Registry& registry = obs::Registry::global();
  std::lock_guard lock(state_->mutex);
  state_->hits = &registry.counter(prefix + "mempool.hits");
  state_->misses = &registry.counter(prefix + "mempool.misses");
  state_->recycled = &registry.counter(prefix + "mempool.recycled_bytes");
  state_->resident = &registry.gauge(prefix + "mempool.resident_bytes");
  state_->publish_resident_locked();
}

}  // namespace aic::runtime
