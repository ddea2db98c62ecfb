// planetmarket: a fixed-size thread pool and a blocked parallel_for.
//
// The auctioneer's per-round demand collection (Algorithm 1, line 4) is
// embarrassingly parallel across bidder proxies: each G_u(p) scans user u's
// bundle set independently. ClockAuction uses ParallelFor to fan that scan
// out when configured with more than one thread; the same pool backs the
// distributed-auction proxies in pm::net.
//
// ParallelFor dispatches work through a single shared chunk counter: the
// caller posts at most size() fire-and-forget helper tasks, every
// participant (helpers and the caller itself) claims chunks with an atomic
// fetch_add, and completion is signalled through a latch. This replaces the
// previous future-per-block scheme, which paid a std::function +
// packaged_task + future-shared-state allocation per block on the hottest
// path in the codebase.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace pm {

/// Largest pool a ThreadPool accepts, so that a mistyped count fails
/// instead of spawning thousands of threads.
inline constexpr std::size_t kMaxThreads = 256;

/// A fixed-size pool of worker threads executing submitted tasks FIFO.
/// Thread-safe; destruction drains the queue (all submitted work runs).
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (minimum 1). CHECK-fails above
  /// kMaxThreads, before any worker starts.
  explicit ThreadPool(std::size_t num_threads);

  /// Waits for all queued work to finish, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues `fn` fire-and-forget: no future, no completion signal. `fn`
  /// must not throw — an escaping exception terminates the process. Use
  /// ParallelFor when the caller needs completion or exception
  /// propagation.
  void Post(std::function<void()> fn);

  /// Number of worker threads.
  std::size_t size() const { return workers_.size(); }

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool shutting_down_ = false;
  std::vector<std::thread> workers_;
};

/// Runs fn(i) for i in [begin, end) across the pool, blocking until all
/// iterations complete. With a null pool or a pool of size 1 the loop runs
/// inline on the caller. The caller participates in the work alongside the
/// pool's workers; chunks are claimed dynamically via an atomic counter, so
/// stragglers cannot serialize the loop. The first exception thrown by any
/// iteration is rethrown on the caller after all chunks finish (an
/// exception aborts the remainder of its own chunk only).
void ParallelFor(ThreadPool* pool, std::size_t begin, std::size_t end,
                 const std::function<void(std::size_t)>& fn);

}  // namespace pm
