// Shared pieces of the benchmark workloads: constants, the result record,
// the fixed designs, seeded request streams, the open-loop load generator
// and the per-layer kernel replays.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/circuit_eval.hpp"
#include "core/design.hpp"
#include "fabric/device.hpp"
#include "linalg/matrix.hpp"
#include "trace.hpp"

namespace pb {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0);
double ms_between(Clock::time_point a, Clock::time_point b);

// --- fixed workload constants ----------------------------------------------
// Every rate, schedule time, die seed and size is an absolute constant, in
// this header when the serving workloads share it and in the workload's own
// file otherwise, so every run of every revision gets identical load.

inline constexpr int kServeWl = 5;              ///< serving design word-length
inline constexpr double kServeFreqMhz = 250.0;  ///< serving design clock
inline constexpr std::size_t kMaxBatch = 64;
inline constexpr double kMaxWaitMs = 0.1;       ///< batch linger
inline constexpr double kCheckFraction = 0.05;  ///< sampled duplicate checks
inline constexpr std::size_t kQueueCapacity = 8192;
/// Distinct request vectors per stream (requests cycle through them).
inline constexpr std::size_t kCodePool = 4096;
/// Requests through the serve_matches_scalar gate.
inline constexpr std::size_t kVerifyRequests = 2048;
/// Queued requests per capacity drain.
inline constexpr std::size_t kDrainRequests = 65536;
/// The serving check tolerance (ServeConfig::check_tolerance): an answer
/// further than this from the exact projection is wrong wherever the
/// serving die runs at an error-free clock.
inline constexpr double kWrongTolerance = 0.05;

/// One run's outcome. `e2e` and `layer` are keyed by metric name.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, bool>> gates;  ///< name → passed
  std::map<std::string, double> e2e;
  std::map<std::string, double> layer;
  std::map<std::string, double> detail;  ///< printed, not compared

  void gate(const std::string& name, bool passed);
  bool correct() const;
};

/// Linear-interpolated q-quantile (0 when empty).
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);

/// Median of `reps` timed calls of `fn`, in seconds.
template <typename Fn>
double median_seconds(std::size_t reps, Fn&& fn) {
  std::vector<double> t;
  for (std::size_t i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn();
    t.push_back(seconds_since(t0));
  }
  return median(std::move(t));
}

// --- fixed designs ---------------------------------------------------------

inline constexpr int kWlX = 9;  ///< Table-I data word-length

/// The serving workloads' design: a Table-I-shaped ℤ⁶→ℤ³ projection on 18
/// array multipliers of word-length `wl`, clocked at `freq_mhz`.
/// `variant` 1 is the swap target (same shape and configuration, other
/// coefficients, so it needs no new characterisation).
oclp::LinearProjectionDesign serve_design(int wl, double freq_mhz,
                                          int variant = 0);

/// The reference die (Table-I calibration) at the characterisation
/// temperature.
oclp::Device reference_device();

/// `n` request input vectors: Table-I synthetic test-set samples encoded to
/// 9-bit codes (deterministic in `seed`).
std::vector<std::vector<std::uint32_t>> request_codes(std::size_t n,
                                                      std::uint64_t seed);

// --- open-loop load --------------------------------------------------------

/// Send offsets (seconds from the start) of a Poisson stream at `rate`.
std::vector<double> poisson_arrivals(double rate, double seconds,
                                     oclp::Rng& rng);
/// Bursty on/off stream: Poisson at rate·(on+off)/on inside each on window
/// of `on_ms`, silence for `off_ms`, so the mean rate is `rate`.
std::vector<double> onoff_arrivals(double rate, double on_ms, double off_ms,
                                   double seconds, oclp::Rng& rng);

/// Per-request bookkeeping of one open-loop run. Request i has id i + 1;
/// latency runs from its *scheduled* send instant to its result callback.
class LoadLog {
 public:
  LoadLog(std::vector<double> offsets_s, std::size_t dims_k);

  std::size_t size() const { return offsets_.size(); }

  /// Send every request at its scheduled instant from the calling thread.
  /// `submit(index)` returns whether the request was accepted. Each call
  /// is traced as `span_name`.
  template <typename Submit>
  void drive(Submit&& submit, const char* span_name) {
    start_ = Clock::now();
    for (std::size_t i = 0; i < offsets_.size(); ++i) {
      const auto due = start_ + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(offsets_[i]));
      wait_until(due);
      const auto sent = Clock::now();
      lag_ms_[i] = ms_between(due, sent);
      bool ok = false;
      {
        Span s(span_name);
        ok = submit(i);
      }
      accepted_[i] = ok ? 1 : 0;
    }
  }

  /// Result callback body (worker threads; one call per served request).
  /// `die` is the fleet die that served it (0 for a single server).
  void on_result(std::uint64_t id, const std::vector<double>& y,
                 double freq_mhz, std::size_t die = 0);

  std::uint64_t accepted() const;
  std::uint64_t answered() const;
  std::uint64_t duplicate_answers() const;
  /// Latencies (ms) of answered requests whose index is in [lo, hi).
  std::vector<double> latencies(std::size_t lo, std::size_t hi) const;
  /// The q-quantile latency of each consecutive `window_s` window of
  /// scheduled send time, window w at index w (NaN when none answered).
  std::vector<double> window_quantiles(double q, double window_s) const;
  std::vector<double> lags() const { return lag_ms_; }
  /// Answered requests per second, from the first scheduled send to the
  /// last answer (a backlog that drains late lowers it).
  double throughput() const;
  /// Mean served frequency over answered requests.
  double mean_freq_mhz() const;
  /// Served output of request `index` (K values; valid when answered).
  const double* y(std::size_t index) const { return &y_[index * dims_k_]; }
  /// Die that served request `index` (valid when answered).
  std::size_t die(std::size_t index) const { return die_[index]; }
  /// When request `index` was answered, in seconds after the first
  /// scheduled send (valid when answered).
  double answered_at_s(std::size_t index) const {
    return offsets_[index] + latency_ms_[index] * 1e-3;
  }
  /// The instant the first request was scheduled (set by drive()).
  Clock::time_point start() const { return start_; }
  bool answered(std::size_t index) const {
    return answers_[index].load(std::memory_order_acquire) > 0;
  }

 private:
  static void wait_until(Clock::time_point due);

  std::vector<double> offsets_;
  std::size_t dims_k_;
  Clock::time_point start_{};
  std::vector<double> lag_ms_;
  std::vector<std::uint8_t> accepted_;
  std::vector<double> latency_ms_;
  std::vector<double> freq_mhz_;
  std::vector<double> y_;
  std::vector<std::uint8_t> die_;
  std::unique_ptr<std::atomic<std::uint32_t>[]> answers_;
};

/// Error of every answered request: the largest |Δ| over its K outputs
/// from the exact projection of its codes through `exact`. Infinite when an
/// output is not finite; NaN when the request was never answered.
std::vector<double> answer_errors(
    const LoadLog& log, const std::vector<std::vector<std::uint32_t>>& codes,
    const oclp::ProjectionCircuit& exact);

// --- correctness gate and kernel replays -----------------------------------

/// Serving gate: `n` requests through a 1-worker, jitter-free server at the
/// design's target clock must reproduce a scalar ProjectionCircuit::project()
/// loop bit for bit.
bool serve_matches_scalar(const oclp::LinearProjectionDesign& design,
                          const oclp::Device& device,
                          const oclp::Placement& placement,
                          const std::vector<std::vector<std::uint32_t>>& codes);

/// Per-layer kernel replays on `design` placed on `plan`: fills
/// core.project_batch_ns.{b1,b16,b64}, core.project_settled_ns and
/// timing.run_stream_ns (per sample) into `layer`.
void replay_kernels(const oclp::LinearProjectionDesign& design,
                    const oclp::Device& device, const oclp::CircuitPlan& plan,
                    const std::vector<std::vector<std::uint32_t>>& codes,
                    std::map<std::string, double>& layer);

/// Peak resident set of this process so far, in MB (VmHWM).
double peak_rss_mb();

}  // namespace pb
