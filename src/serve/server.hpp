// Streaming inference runtime for a realised Linear Projection design.
//
// The rest of the library answers "which design should I put on this
// device"; this layer runs the chosen design under load — the ROADMAP's
// production-serving north star. Architecture:
//
//   submit() → bounded request queue → dispatcher (micro-batching:
//   max_batch / max_wait) → ThreadPool batch tasks → per-replica placed
//   datapaths (core/circuit_eval) → result callback
//
// Data plane: a request's codes become a row of one matrix the moment it
// is accepted. submit() validates the P codes and copies them into a
// server-owned code FIFO beside the queue's metadata (no caller vector
// outlives the call, and no worker frees one); the dispatcher moves a
// micro-batch's rows out as one contiguous n×P block, and the worker hands
// each segment of that block to ProjectionCircuit::project_rows, which
// writes one n×K output block. Every replica multiplier clocks the whole
// segment in one 64-lane settled pass with sparse settle propagation — or,
// when the die proves it cannot err at the segment's clock, runs no stream
// at all — and each output column is reduced as one exact integer sum, so
// server throughput scales with batch size instead of flat-lining on the
// per-sample timed interpreter. The governor can only move the clock
// on the check verdict that closes a decision window, so the batch is
// segmented at the predicted window-close points (see
// FrequencyGovernor::checks_into_window): every request in a segment is
// served at one (frequency, derate), and with one worker the segmented
// batch reproduces the sequential per-request loop bit for bit.
//
//  * Backpressure: the queue is bounded. When full, RejectNewest bounces
//    the incoming request back to the caller (load shedding at the edge)
//    and ShedOldest drops the stalest queued request (freshness under
//    overload). Requests may also carry a deadline; a request whose
//    deadline has lapsed by the time a worker picks it up is shed rather
//    than served dead-on-arrival.
//  * Online error detection: a configurable fraction of requests is
//    checked against the safe-clock duplicate's value (razor-style time
//    redundancy at the request level — the shadow copy gets the timing
//    slack the over-clocked one gave up; see timing/razor.hpp for the
//    register-level analogue). Below the governor floor every output
//    settles within the period, so the duplicate's capture IS the settled
//    functional value — ProjectionCircuit::project_settled's exact
//    arithmetic instead of a second simulated datapath. Mismatches beyond
//    `check_tolerance` are timing errors and feed the FrequencyGovernor,
//    which trades clock rate against the error SLO (see governor.hpp).
//  * Environment drift is injected with set_timing_derate() — circuits
//    bake per-cell delays at construction, and a global delay scale is
//    exactly a period scale (see ProjectionCircuit::set_clock), so a
//    temperature step mid-run is a derate step here.
//
// Determinism: with one worker and a jitter-free plan the served outputs,
// check verdicts and governor trajectory depend only on the submission
// order — batch boundaries affect throughput, never results (the
// reduction is exact, so no accumulation order can move a bit) — which is
// what makes the end-to-end degradation test (tests/serve) bit-exact.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/circuit_eval.hpp"
#include "serve/governor.hpp"
#include "serve/metrics.hpp"
#include "serve/swap.hpp"

namespace oclp {

enum class OverloadPolicy { RejectNewest, ShedOldest };

struct ServeRequest {
  std::uint64_t id = 0;
  std::vector<std::uint32_t> x_codes;  ///< P input codes, < 2^wl_x
  /// Latest acceptable queue+service start delay; <= 0 means no deadline.
  double deadline_ms = 0.0;
};

struct ServeResult {
  std::uint64_t id = 0;
  std::vector<double> y;       ///< projected factors (value units)
  double freq_mhz = 0.0;       ///< governor frequency it was served at
  bool checked = false;        ///< went through the safe-frequency duplicate
  bool check_error = false;    ///< duplicate disagreed (timing error)
  /// submit → outputs ready: every request of a served segment shares
  /// one timestamp, taken when its projection returns (before the check
  /// and the callback).
  double latency_ms = 0.0;
};

struct ServeConfig {
  std::size_t workers = 2;          ///< pool threads == datapath replicas
  std::size_t queue_capacity = 1024;
  std::size_t max_batch = 16;
  double max_wait_ms = 0.5;         ///< batch linger once one request is in
  OverloadPolicy overload = OverloadPolicy::RejectNewest;
  double check_fraction = 0.05;     ///< sampled duplicate-check rate
  double check_freq_mhz = 0.0;      ///< safe clock; 0 → governor floor
  double check_tolerance = 0.05;    ///< per-element |Δy| flagging an error
  std::uint64_t seed = 1;           ///< check sampling + replica clock seeds
  bool start_paused = false;        ///< queue only until resume() (tests)
  GovernorConfig governor;
};

class ProjectionServer {
 public:
  using ResultCallback = std::function<void(const ServeResult&)>;

  /// The design is deployed as `cfg.workers` independent replicas of the
  /// placed datapath (each replica owns its sequential register state), at
  /// the governor's target frequency. `models` supplies mean-error
  /// corrections exactly as in ProjectionCircuit; may be nullptr.
  /// `on_result` is invoked from worker threads for every served request
  /// (never for shed/rejected ones); it must be thread-safe when
  /// cfg.workers > 1.
  ProjectionServer(const LinearProjectionDesign& design, const Device& device,
                   const CircuitPlan& plan, int wl_x,
                   const ErrorModelMap* models,
                   const ServeConfig& cfg, ResultCallback on_result);
  ~ProjectionServer();

  ProjectionServer(const ProjectionServer&) = delete;
  ProjectionServer& operator=(const ProjectionServer&) = delete;

  /// Enqueue a request: its codes are validated and copied into the
  /// server's code FIFO, so the caller may reuse or free `req` as soon as
  /// the call returns. Returns false iff it was rejected (queue full under
  /// RejectNewest, or the server is stopping). Thread-safe.
  bool submit(const ServeRequest& req);

  /// Start dispatching when constructed with start_paused (no-op otherwise).
  void resume();

  /// Block until the queue is drained and no batch is in flight.
  void wait_idle();

  /// Drain and shut down (idempotent; the destructor calls it).
  void stop();

  /// Inject an environment change: all replica datapaths (served and check
  /// paths alike) run with every delay scaled by `derate` from the next
  /// request on. 1.0 is the characterised environment.
  void set_timing_derate(double derate);
  double timing_derate() const;

  /// Publish a re-characterised model set: each replica recomputes its
  /// mean-error corrections from `models` before serving its next batch
  /// (the shared_ptr keeps the previous map alive until the last replica
  /// has moved off it — no torn reads mid-batch). The map must cover every
  /// column word-length of the design; nullptr drops corrections.
  /// Thread-safe.
  void swap_error_models(std::shared_ptr<const ErrorModelMap> models);

  /// Hot-swap the serving datapath onto `next` without draining traffic:
  /// Lower → Shadow → Flip → Retire (serve/swap.hpp has the state
  /// machine). `next` must match the serving design's P, K and wl_x;
  /// `models` is the error-model set the new datapath corrects with (the
  /// replicas pin it exactly as in swap_error_models). Blocks the calling
  /// thread through all phases; with scfg.min_shadow_compares > 0, live
  /// traffic must keep flowing from other threads or the Shadow phase
  /// times out and the swap aborts (server untouched, zero requests
  /// lost). A lowering-time model violation — a CCM coefficient off the
  /// characterised grid in particular — throws CheckError before anything
  /// is installed. Swaps are serialised; thread-safe against everything
  /// else.
  SwapReport swap_design(const LinearProjectionDesign& next,
                         std::shared_ptr<const ErrorModelMap> models,
                         const SwapConfig& scfg = SwapConfig());

  /// Generation of the design the replicas serve (0 until the first
  /// committed swap). Thread-safe.
  std::uint64_t design_generation() const;

  /// Requests currently queued (a router's headroom signal). Thread-safe.
  std::size_t queue_depth() const;

  const FrequencyGovernor& governor() const { return governor_; }
  /// Mutable governor access for the re-characterisation control plane
  /// (set_limits); the governor itself is thread-safe.
  FrequencyGovernor& governor() { return governor_; }
  ServeMetrics& metrics() { return metrics_; }
  /// Metrics snapshot including the worker-pool gauges.
  ServeMetrics::Snapshot metrics_snapshot() const;

  std::size_t dims_p() const { return dims_p_; }
  std::size_t dims_k() const { return dims_k_; }

 private:
  friend class DesignSwapper;  // drives the swap phases (serve/swap.cpp)

  using Clock = std::chrono::steady_clock;

  /// A queued request's metadata; its codes are the matching row of the
  /// code FIFO.
  struct Pending {
    std::uint64_t id;
    double deadline_ms;
    Clock::time_point enqueued;
  };

  /// A dispatched micro-batch: request i's codes are the i-th row of the
  /// contiguous n×P block.
  struct Batch {
    std::vector<Pending> requests;
    std::vector<std::uint32_t> codes;
  };

  /// One deployed copy of the datapath plus the clock settings it
  /// currently runs at (so retargets only happen when the governor or
  /// derate moved). The safe-clock duplicate check needs no second
  /// circuit: its reference is the settled functional value
  /// (project_settled).
  struct Replica {
    explicit Replica(ProjectionCircuit s) : serve(std::move(s)) {}
    ProjectionCircuit serve;
    double serve_freq_mhz = 0.0;
    double serve_derate = 1.0;
    // Last model set applied to this replica: the shared_ptr keeps the map
    // alive for as long as `serve` corrects with it (see swap_error_models).
    std::shared_ptr<const ErrorModelMap> models;
    std::uint64_t models_generation = 0;
    // Generation of the design `serve` was lowered from: a replica whose
    // generation lags design_generation_ is retired — never re-served — at
    // its next batch boundary (see flip_if_stale_locked).
    std::uint64_t design_generation = 0;
    // process_batch scratch, reused across batches (no steady-state
    // allocation): per-request check flag, a segment's n×K outputs, one
    // checked request's settled reference, the result handed to the
    // callback and the served requests' latencies.
    std::vector<std::uint8_t> checked;
    std::vector<double> ys;
    std::vector<double> ref;
    ServeResult result;
    std::vector<double> latencies;
  };

  void dispatcher_loop();
  void process_batch(Batch& batch);
  bool sampled_for_check(std::uint64_t id) const;

  // --- hot-swap plumbing (DesignSwapper drives these; see swap.hpp) -------
  /// Lower phase: one pristine replica per worker of `next` on the
  /// server's retained device and plan, with the construction-time clock
  /// seeds — what makes a completed swap bitwise-equal to a cold server.
  std::vector<std::unique_ptr<Replica>> lower_candidate(
      const LinearProjectionDesign& next,
      const ErrorModelMap* models) const;
  /// The Shadow phase's dedicated datapath (never one of the flip
  /// replicas, whose register state must stay pristine).
  ProjectionCircuit make_shadow(const LinearProjectionDesign& next,
                                const ErrorModelMap* models) const;
  void install_shadow(std::shared_ptr<ShadowTap> tap);
  void clear_shadow();
  std::shared_ptr<ShadowTap> current_shadow() const;
  /// Flip phase: publish the new generation under the replica lock. Idle
  /// replicas flip immediately; checked-out ones at their next batch
  /// boundary.
  void publish_design(const LinearProjectionDesign& next,
                      std::shared_ptr<const ErrorModelMap> models,
                      std::vector<std::unique_ptr<Replica>> fresh);
  /// Block until every replica serves the newest generation (the Retire
  /// phase boundary: the old circuits are destroyed by then).
  void wait_design_flipped();
  /// replica_mutex_ held: retire `rep` if its design generation lags,
  /// handing back a fresh-generation replacement. When the last stale
  /// replica moves off, the retired circuits transfer into `destroy` for
  /// teardown outside the lock.
  void flip_if_stale_locked(std::unique_ptr<Replica>& rep,
                            std::deque<std::unique_ptr<Replica>>& destroy);

  ServeConfig cfg_;
  std::size_t dims_p_, dims_k_;
  int wl_x_;
  double check_freq_mhz_;
  // Retained deployment inputs: a swap re-lowers the incoming design on
  // the same fabric locations the server was constructed on.
  Device device_;
  CircuitPlan plan_;
  ResultCallback on_result_;

  FrequencyGovernor governor_;
  ServeMetrics metrics_;

  std::deque<std::unique_ptr<Replica>> free_replicas_;
  mutable std::mutex replica_mutex_;
  std::condition_variable replica_cv_;
  // Pending model swap, guarded by replica_mutex_: replicas whose
  // generation lags apply it at checkout (outside the lock).
  std::shared_ptr<const ErrorModelMap> swapped_models_;
  std::uint64_t models_generation_ = 0;
  // Design hot-swap state, guarded by replica_mutex_: fresh replicas
  // waiting to flip in, old ones pinned until the last stale replica
  // moves off (in-flight batches always finish on the datapath they
  // picked up).
  std::deque<std::unique_ptr<Replica>> pending_replicas_;
  std::deque<std::unique_ptr<Replica>> retired_replicas_;
  std::uint64_t design_generation_ = 0;

  // Shadow tap of the in-progress swap (usually null). The atomic flag
  // keeps the per-batch probe off the mutex when no swap is running.
  mutable std::mutex shadow_mutex_;
  std::shared_ptr<ShadowTap> shadow_;
  std::atomic<bool> shadow_active_{false};
  std::mutex swap_mutex_;  ///< serialises swap_design calls

  std::deque<Pending> queue_;
  /// P codes per queued request, in queue order: it grows and shrinks with
  /// the queue, so nothing sized by queue_capacity is allocated up front.
  std::deque<std::uint32_t> queue_codes_;
  mutable std::mutex queue_mutex_;
  std::condition_variable dispatch_cv_;  ///< dispatcher wakeups
  std::condition_variable idle_cv_;      ///< wait_idle wakeups
  bool paused_ = false;
  bool stopping_ = false;
  /// Batches handed to the pool and not yet finished. Raised under
  /// queue_mutex_ by the dispatcher; a worker lowers it without the lock
  /// and takes the lock only to wake wait_idle() at zero.
  std::atomic<std::size_t> inflight_batches_{0};

  std::atomic<double> derate_{1.0};

  ThreadPool pool_;
  std::thread dispatcher_;
};

}  // namespace oclp
