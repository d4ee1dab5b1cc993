// Fixed-size worker pool with one blocking task queue. ExecPolicy fans
// the characterisation sweep engine, the design evaluators and
// project_batch's full streams out over it; the serving runtime runs its
// batch tasks on a pool of its own.
//
// Optionally pinned: worker i is bound to topology().cpu_for_worker(i)
// for its lifetime, so a worker's caches stay on one core. The process
// pool (global()) is pinned — DESIGN.md §12 has the ablation that keeps
// this and nothing else of the placement layer.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace oclp {

class ThreadPool {
 public:
  /// threads == 0 selects the hardware concurrency (at least 1). With
  /// `pin_workers`, worker i is bound to topology().cpu_for_worker(i).
  explicit ThreadPool(std::size_t threads = 0, bool pin_workers = false);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueue a task; the returned future observes completion/exceptions.
  std::future<void> submit(std::function<void()> task);

  /// True iff the calling thread is one of this pool's workers. A fan-out
  /// issued from one of them must run inline: queueing and waiting there
  /// can deadlock, with every worker waiting on tasks nobody is free to run.
  bool current_thread_is_worker() const;

  /// Tasks accepted but not yet picked up by a worker. A point-in-time
  /// gauge (another thread may pop concurrently); serving-layer metrics
  /// sample it for queue-depth telemetry.
  std::size_t queue_depth() const;

  /// Tasks currently executing on workers (same caveat as queue_depth()).
  std::size_t inflight() const { return inflight_.load(std::memory_order_relaxed); }

  /// Process-wide fan-out pool for library internals, worker-pinned.
  static ThreadPool& global();

 private:
  void worker_loop(int cpu);

  std::vector<std::thread> workers_;
  std::queue<std::packaged_task<void()>> queue_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::atomic<std::size_t> inflight_{0};
  bool stopping_ = false;
};

}  // namespace oclp
