#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <latch>
#include <memory>

#include "common/check.h"

namespace pm {

ThreadPool::ThreadPool(std::size_t num_threads) {
  PM_CHECK_MSG(num_threads <= kMaxThreads,
               "ThreadPool of " << num_threads << " threads exceeds "
                                << kMaxThreads);
  const std::size_t n = std::max<std::size_t>(1, num_threads);
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutting_down_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::Post(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    PM_CHECK_MSG(!shutting_down_, "Post after ThreadPool shutdown");
    queue_.push_back(std::move(fn));
  }
  cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutting_down_ and drained.
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();  // Post contract: must not throw.
  }
}

namespace {

/// Shared state of one ParallelFor call. Heap-allocated and owned jointly
/// by the caller and every helper task, so the latch outlives whichever
/// participant touches it last.
struct ParallelForState {
  std::atomic<std::size_t> next_chunk{0};
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t chunk = 1;
  const std::function<void(std::size_t)>* fn = nullptr;
  std::latch done;
  std::mutex err_mu;
  std::exception_ptr error;

  explicit ParallelForState(std::ptrdiff_t helpers) : done(helpers) {}

  /// Claims and runs chunks until the range is exhausted.
  void Drain() {
    for (;;) {
      const std::size_t c =
          next_chunk.fetch_add(1, std::memory_order_relaxed);
      const std::size_t lo = begin + c * chunk;
      if (lo >= end) return;
      const std::size_t hi = std::min(end, lo + chunk);
      try {
        for (std::size_t i = lo; i < hi; ++i) (*fn)(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(err_mu);
        if (!error) error = std::current_exception();
      }
    }
  }
};

}  // namespace

void ParallelFor(ThreadPool* pool, std::size_t begin, std::size_t end,
                 const std::function<void(std::size_t)>& fn) {
  if (begin >= end) return;
  const std::size_t count = end - begin;
  if (pool == nullptr || pool->size() <= 1 || count == 1) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
    return;
  }
  // Chunks several times smaller than a per-worker split keep the workers
  // load-balanced when iteration costs are uneven, while the atomic
  // counter keeps claiming one chunk O(1).
  const std::size_t chunk =
      std::max<std::size_t>(1, count / (8 * (pool->size() + 1)));
  const std::size_t num_chunks = (count + chunk - 1) / chunk;
  const std::size_t helpers =
      std::min(pool->size(), num_chunks > 1 ? num_chunks - 1 : 0);
  auto state = std::make_shared<ParallelForState>(
      static_cast<std::ptrdiff_t>(helpers));
  state->begin = begin;
  state->end = end;
  state->chunk = chunk;
  state->fn = &fn;
  for (std::size_t h = 0; h < helpers; ++h) {
    pool->Post([state] {
      state->Drain();
      state->done.count_down();
    });
  }
  state->Drain();  // The caller works too instead of blocking idle.
  state->done.wait();
  if (state->error) std::rethrow_exception(state->error);
}

}  // namespace pm
