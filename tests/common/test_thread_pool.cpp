// ThreadPool: the task queue and its gauges, the fan-out that
// ExecPolicy::for_each/for_chunks runs over a pool (coverage, ranges,
// exceptions, nesting), and worker pinning of the global pool.
#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/exec_policy.hpp"
#include "common/topology.hpp"

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

namespace oclp {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i)
    futures.push_back(pool.submit([&] { counter.fetch_add(1); }));
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, SizeMatchesRequest) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPool, DefaultSizeIsPositive) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(1000);
  ExecPolicy::pooled(&pool).for_each(
      0, 1000, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForRespectsRange) {
  ThreadPool pool(4);
  std::atomic<long> sum{0};
  ExecPolicy::pooled(&pool).for_each(
      10, 20, [&](std::size_t i) { sum.fetch_add(static_cast<long>(i)); });
  EXPECT_EQ(sum.load(), 10 + 11 + 12 + 13 + 14 + 15 + 16 + 17 + 18 + 19);
}

TEST(ThreadPool, ParallelForEmptyRangeIsNoop) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  const auto exec = ExecPolicy::pooled(&pool);
  exec.for_each(5, 5, [&](std::size_t) { count.fetch_add(1); });
  exec.for_each(7, 3, [&](std::size_t) { count.fetch_add(1); });
  exec.for_chunks(7, 3, [&](std::size_t, std::size_t, std::size_t) {
    count.fetch_add(1);
  });
  EXPECT_EQ(count.load(), 0);
}

TEST(ThreadPool, ParallelForSingleElement) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  ExecPolicy::pooled(&pool).for_each(0, 1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    count.fetch_add(1);
  });
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPool, SubmitPropagatesExceptions) {
  ThreadPool pool(2);
  auto f = pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, ParallelForPropagatesExceptions) {
  // One task per chunk; the first chunk fails at once while the others
  // are still queued, and its exception is rethrown only after every
  // other chunk has finished, so none is left holding references into the
  // caller's frame.
  ThreadPool pool(4);
  std::atomic<int> done{0};
  EXPECT_THROW(ExecPolicy::pooled(&pool, ExecChunking{1})
                   .for_each(0, 100,
                             [&](std::size_t i) {
                               if (i == 0) throw std::runtime_error("boom");
                               std::this_thread::sleep_for(
                                   std::chrono::microseconds(200));
                               done.fetch_add(1);
                             }),
               std::runtime_error);
  EXPECT_EQ(done.load(), 99);
}

TEST(ThreadPool, PoolSurvivesExceptionAndKeepsWorking) {
  ThreadPool pool(2);
  auto bad = pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(bad.get(), std::runtime_error);
  std::atomic<int> ok{0};
  ExecPolicy::pooled(&pool).for_each(0, 50,
                                     [&](std::size_t) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 50);
}

TEST(ThreadPool, GlobalPoolIsSingleton) {
  EXPECT_EQ(&ThreadPool::global(), &ThreadPool::global());
  std::atomic<int> count{0};
  ExecPolicy().for_each(0, 10, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  // A worker that fans out again would block on futures that only other
  // (equally blocked) workers could run. Nested calls execute inline on
  // the calling worker.
  ThreadPool pool(2);
  const auto exec = ExecPolicy::pooled(&pool, ExecChunking{1});
  std::atomic<int> count{0};
  exec.for_each(0, 8, [&](std::size_t) {
    exec.for_each(0, 8, [&](std::size_t) { count.fetch_add(1); });
  });
  EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPool, NestedTwoLevelsOnSingleThreadPool) {
  // One worker: any queued-and-waiting nesting deadlocks deterministically,
  // so this pins the inline-execution path at two levels of nesting.
  ThreadPool pool(1);
  const auto exec = ExecPolicy::pooled(&pool, ExecChunking{1});
  std::atomic<int> count{0};
  exec.for_each(0, 4, [&](std::size_t) {
    exec.for_each(0, 4, [&](std::size_t) {
      exec.for_each(0, 4, [&](std::size_t) { count.fetch_add(1); });
    });
  });
  EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPool, NestedParallelForPropagatesExceptions) {
  ThreadPool pool(2);
  const auto exec = ExecPolicy::pooled(&pool, ExecChunking{1});
  EXPECT_THROW(exec.for_each(0, 4,
                             [&](std::size_t) {
                               exec.for_each(0, 4, [](std::size_t i) {
                                 if (i == 2)
                                   throw std::runtime_error("inner boom");
                               });
                             }),
               std::runtime_error);
  // Pool still works afterwards.
  std::atomic<int> ok{0};
  exec.for_each(0, 10, [&](std::size_t) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 10);
}

TEST(ThreadPool, CurrentThreadIsWorkerDetection) {
  ThreadPool pool(2);
  EXPECT_FALSE(pool.current_thread_is_worker());
  std::atomic<int> inside{0};
  pool.submit([&] { inside.store(pool.current_thread_is_worker() ? 1 : -1); })
      .get();
  EXPECT_EQ(inside.load(), 1);
  // A worker of one pool is not a worker of another.
  ThreadPool other(1);
  std::atomic<int> cross{0};
  other.submit([&] { cross.store(pool.current_thread_is_worker() ? 1 : -1); })
      .get();
  EXPECT_EQ(cross.load(), -1);
}

TEST(ThreadPool, GaugesAreZeroAtRest) {
  ThreadPool pool(2);
  EXPECT_EQ(pool.queue_depth(), 0u);
  EXPECT_EQ(pool.inflight(), 0u);
}

TEST(ThreadPool, QueueDepthAndInflightTrackBlockedWork) {
  ThreadPool pool(1);
  std::promise<void> release;
  auto gate = release.get_future().share();
  auto blocker = pool.submit([gate] { gate.wait(); });

  // The single worker picks up the blocker; everything behind it queues.
  while (pool.inflight() != 1) std::this_thread::yield();
  std::vector<std::future<void>> rest;
  for (int i = 0; i < 5; ++i) rest.push_back(pool.submit([] {}));
  EXPECT_EQ(pool.queue_depth(), 5u);
  EXPECT_EQ(pool.inflight(), 1u);

  release.set_value();
  blocker.get();
  for (auto& f : rest) f.get();
  // The future resolves inside task(); the gauge decrement lands just after.
  while (pool.inflight() != 0) std::this_thread::yield();
  EXPECT_EQ(pool.queue_depth(), 0u);
}

TEST(ThreadPool, InflightCountsConcurrentWorkers) {
  ThreadPool pool(3);
  std::promise<void> release;
  auto gate = release.get_future().share();
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 3; ++i)
    futures.push_back(pool.submit([gate] { gate.wait(); }));
  while (pool.inflight() != 3) std::this_thread::yield();
  EXPECT_EQ(pool.queue_depth(), 0u);
  release.set_value();
  for (auto& f : futures) f.get();
  while (pool.inflight() != 0) std::this_thread::yield();
}

TEST(ThreadPool, ManyMoreChunksThanThreads) {
  // Automatic chunking (a few chunks per worker) and an explicit chunk
  // size that submits a thousand tasks to a two-thread pool.
  ThreadPool pool(2);
  const std::size_t n = 100000;
  for (const auto& exec : {ExecPolicy::pooled(&pool),
                           ExecPolicy::pooled(&pool, ExecChunking{100})}) {
    std::atomic<long> sum{0};
    exec.for_each(0, n,
                  [&](std::size_t i) { sum.fetch_add(static_cast<long>(i)); });
    EXPECT_EQ(sum.load(), static_cast<long>(n * (n - 1) / 2));
  }
}

#ifdef __linux__
// The calling thread's affinity mask, as ascending CPU ids.
std::vector<int> thread_affinity() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (pthread_getaffinity_np(pthread_self(), sizeof(set), &set) != 0)
    return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  return cpus;
}

// Each worker's affinity mask: size() tasks wait at a shared barrier, so
// no worker can take a second one and every worker runs exactly one.
std::vector<std::vector<int>> worker_affinities(ThreadPool& pool) {
  const std::size_t w = pool.size();
  std::vector<std::vector<int>> seen(w);
  std::mutex mu;
  std::condition_variable cv;
  std::size_t arrived = 0;
  std::vector<std::future<void>> futures;
  for (std::size_t t = 0; t < w; ++t)
    futures.push_back(pool.submit([&, t] {
      seen[t] = thread_affinity();
      std::unique_lock lock(mu);
      if (++arrived == w) cv.notify_all();
      cv.wait(lock, [&] { return arrived == w; });
    }));
  for (auto& f : futures) f.get();
  return seen;
}
#endif

TEST(ThreadPool, GlobalPoolPinsEachWorkerToItsOwnCpu) {
#ifndef __linux__
  GTEST_SKIP() << "reads worker affinity with pthread_getaffinity_np";
#else
  const Topology& topo = topology();
  std::set<int> affine;
  for (const auto& node : topo.nodes)
    affine.insert(node.cpus.begin(), node.cpus.end());

  ThreadPool& pool = ThreadPool::global();
  std::set<int> used;
  const auto seen = worker_affinities(pool);
  for (std::size_t t = 0; t < seen.size(); ++t) {
    ASSERT_EQ(seen[t].size(), 1u) << "worker of task " << t;
    EXPECT_EQ(affine.count(seen[t][0]), 1u) << "cpu " << seen[t][0];
    used.insert(seen[t][0]);
  }
  if (pool.size() <= topo.num_cpus()) {
    EXPECT_EQ(used.size(), pool.size());
  }

  // An unpinned pool's workers keep the mask they were started with.
  const std::vector<int> process = thread_affinity();
  ASSERT_FALSE(process.empty());
  ThreadPool unpinned(2);
  for (const auto& mask : worker_affinities(unpinned))
    EXPECT_EQ(mask, process);
#endif
}

}  // namespace
}  // namespace oclp
