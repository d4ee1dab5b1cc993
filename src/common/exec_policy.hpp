// Unified execution policy for every data-parallel reduction in the
// library (the serial/multithread pattern of ROOT's FitUtil::EvaluateChi2):
// one small value type decides, per call site, whether a range runs inline
// or fans out over a ThreadPool, with automatic chunk-size heuristics and a
// deterministic fixed-order reduction.
//
// The policy deliberately has no effect on *results*: every consumer
// (charlib::sweep, ProjectionCircuit::project_rows, Gibbs scoring,
// algorithm1, linalg::multiply) either writes distinct slots from its
// workers or reduces the per-chunk partials serially in ascending chunk
// order, so Serial and Pool — at any chunk size — are bitwise identical.
// Floating-point merges that are order-sensitive (e.g. RunningStats
// variance folds) must stay in that fixed serial combine, never inside the
// parallel region.
//
// Nested use is safe by construction: a pooled policy invoked from inside
// a worker of the same pool runs its range inline on the calling thread,
// so policies can be handed down through layered reductions (algorithm1 →
// multiply) without deadlocking the pool.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/thread_pool.hpp"

namespace oclp {

enum class ExecKind : std::uint8_t { Serial, Pool };

/// Chunking heuristics of a policy. chunk_size == 0 selects automatic
/// sizing: ceil(n / (workers · chunks_per_worker)) — a few chunks per
/// worker so an uneven item smooths out, without submitting one task per
/// item. Serial policies default to a single chunk; an explicit chunk_size
/// is honoured by both kinds (chunk index → shard-workspace mapping stays
/// identical across kinds, which is what the determinism tests pin).
struct ExecChunking {
  std::size_t chunk_size = 0;
  std::size_t chunks_per_worker = 4;
};

class ExecPolicy {
 public:
  /// Default policy: fan out over the process-wide ThreadPool::global().
  ExecPolicy() = default;

  /// Everything inline on the calling thread.
  static ExecPolicy serial(ExecChunking chunking = {}) {
    ExecPolicy p;
    p.kind_ = ExecKind::Serial;
    p.chunking_ = chunking;
    return p;
  }

  /// Fan out over `pool` (nullptr = ThreadPool::global()).
  static ExecPolicy pooled(ThreadPool* pool = nullptr,
                           ExecChunking chunking = {}) {
    ExecPolicy p;
    p.kind_ = ExecKind::Pool;
    p.pool_ = pool;
    p.chunking_ = chunking;
    return p;
  }

  ExecKind kind() const { return kind_; }
  const ExecChunking& chunking() const { return chunking_; }

  /// The pool a Pool policy runs on (resolving the global default).
  ThreadPool& pool() const {
    return pool_ != nullptr ? *pool_ : ThreadPool::global();
  }

  /// Worker count the chunk heuristic sees (1 for Serial).
  std::size_t workers() const {
    return kind_ == ExecKind::Serial ? 1 : pool().size();
  }

  /// Chunk size used for a range of `n` items.
  std::size_t chunk_size_for(std::size_t n) const;

  /// Number of chunks a range of `n` items splits into.
  std::size_t num_chunks(std::size_t n) const;

  /// Run fn(i) for i in [begin, end); distribution follows the policy,
  /// completion (and the first worker exception) is observed on return.
  void for_each(std::size_t begin, std::size_t end,
                const std::function<void(std::size_t)>& fn) const;

  /// Run fn(c0, c1, chunk) over the chunks [c0, c1) of [begin, end).
  /// `chunk` is the ascending chunk index — stable across Serial/Pool for
  /// a given chunk size, so callers may key per-chunk workspaces on it.
  /// A Pool policy submits one task per chunk, runs the range inline when
  /// called from one of its pool's workers, and waits for every chunk
  /// before rethrowing the first exception.
  void for_chunks(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t, std::size_t,
                                           std::size_t)>& fn) const;

  /// Deterministic fixed-order reduction: map(c0, c1) produces one partial
  /// per chunk (possibly in parallel), then the partials are combined
  /// strictly in ascending chunk order on the calling thread —
  ///   acc = combine(acc, partial[0]); acc = combine(acc, partial[1]); …
  /// — so the result is independent of the execution interleaving (and of
  /// Serial vs Pool) even for non-associative combines.
  template <typename T, typename MapFn, typename CombineFn>
  T reduce(std::size_t begin, std::size_t end, T init, const MapFn& map,
           const CombineFn& combine) const {
    const std::size_t n = end > begin ? end - begin : 0;
    if (n == 0) return init;
    std::vector<T> partials(num_chunks(n));
    for_chunks(begin, end,
               [&](std::size_t c0, std::size_t c1, std::size_t chunk) {
                 partials[chunk] = map(c0, c1);
               });
    T acc = std::move(init);
    for (auto& part : partials) acc = combine(std::move(acc), std::move(part));
    return acc;
  }

 private:
  ExecKind kind_ = ExecKind::Pool;
  ThreadPool* pool_ = nullptr;  ///< nullptr = ThreadPool::global()
  ExecChunking chunking_;
};

}  // namespace oclp
