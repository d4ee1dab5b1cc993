#include "common/exec_policy.hpp"

#include <algorithm>
#include <exception>
#include <future>
#include <vector>

namespace oclp {

std::size_t ExecPolicy::chunk_size_for(std::size_t n) const {
  if (n == 0) return 1;
  if (chunking_.chunk_size != 0) return chunking_.chunk_size;
  // Automatic sizing: a few chunks per worker so an uneven item smooths
  // out. Serial degenerates to a single inline span — over-chunking buys
  // nothing on one thread.
  const std::size_t cpw = kind_ == ExecKind::Serial
                              ? 1
                              : std::max<std::size_t>(
                                    1, chunking_.chunks_per_worker);
  const std::size_t tasks = std::max<std::size_t>(1, workers() * cpw);
  return (n + tasks - 1) / tasks;
}

std::size_t ExecPolicy::num_chunks(std::size_t n) const {
  if (n == 0) return 0;
  const std::size_t size = chunk_size_for(n);
  return (n + size - 1) / size;
}

void ExecPolicy::for_chunks(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn)
    const {
  if (end <= begin) return;
  const std::size_t n = end - begin;
  const std::size_t size = chunk_size_for(n);
  const std::size_t chunks = (n + size - 1) / size;
  auto run_chunk = [&](std::size_t chunk) {
    const std::size_t c0 = begin + chunk * size;
    const std::size_t c1 = std::min(end, c0 + size);
    fn(c0, c1, chunk);
  };
  ThreadPool* tp = kind_ == ExecKind::Serial ? nullptr : &pool();
  // A nested call from one of the pool's own workers runs inline: every
  // worker may be blocked in this same spot, so queueing and waiting could
  // deadlock, and the outer fan-out already spreads the work.
  if (tp == nullptr || chunks == 1 || tp->current_thread_is_worker()) {
    for (std::size_t chunk = 0; chunk < chunks; ++chunk) run_chunk(chunk);
    return;
  }
  std::vector<std::future<void>> futures;
  futures.reserve(chunks);
  for (std::size_t chunk = 0; chunk < chunks; ++chunk)
    futures.push_back(tp->submit([&run_chunk, chunk] { run_chunk(chunk); }));
  // Drain every future before rethrowing: bailing out on the first failure
  // would leave queued chunks holding dangling references into this frame.
  std::exception_ptr first;
  for (auto& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!first) first = std::current_exception();
    }
  }
  if (first) std::rethrow_exception(first);
}

void ExecPolicy::for_each(std::size_t begin, std::size_t end,
                          const std::function<void(std::size_t)>& fn) const {
  for_chunks(begin, end,
             [&](std::size_t c0, std::size_t c1, std::size_t /*chunk*/) {
               for (std::size_t i = c0; i < c1; ++i) fn(i);
             });
}

}  // namespace oclp
