#include "common/thread_pool.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/topology.hpp"

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

namespace oclp {

namespace {
// Which pool (if any) owns the current thread: lets a fan-out detect that
// it was issued from inside a worker and run inline instead of blocking.
thread_local const ThreadPool* current_worker_pool = nullptr;

// Bind the calling thread to a single CPU. Best-effort: a failure (exotic
// cgroup masks, non-Linux) leaves the thread floating, which only costs
// speed, never correctness.
void pin_self_to_cpu(int cpu) {
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
#else
  (void)cpu;
#endif
}
}  // namespace

ThreadPool::ThreadPool(std::size_t threads, bool pin_workers) {
  if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    const int cpu = pin_workers ? topology().cpu_for_worker(i) : -1;
    workers_.emplace_back([this, cpu] { worker_loop(cpu); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

bool ThreadPool::current_thread_is_worker() const {
  return current_worker_pool == this;
}

std::size_t ThreadPool::queue_depth() const {
  std::lock_guard lock(mutex_);
  return queue_.size();
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  std::packaged_task<void()> packaged(std::move(task));
  auto future = packaged.get_future();
  {
    std::lock_guard lock(mutex_);
    OCLP_CHECK_MSG(!stopping_, "submit on a stopped ThreadPool");
    queue_.push(std::move(packaged));
  }
  cv_.notify_one();
  return future;
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(0, /*pin_workers=*/true);
  return pool;
}

void ThreadPool::worker_loop(int cpu) {
  current_worker_pool = this;
  if (cpu >= 0) pin_self_to_cpu(cpu);
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (stopping_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop();
    }
    inflight_.fetch_add(1, std::memory_order_relaxed);
    task();  // exceptions propagate via the packaged_task's future
    inflight_.fetch_sub(1, std::memory_order_relaxed);
  }
}

}  // namespace oclp
