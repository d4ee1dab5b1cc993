// Hardware realisation of a Linear Projection design and its evaluation in
// the paper's three domains (Section VI):
//
//  * predicted — the error model: training reconstruction MSE plus the
//    characterised Σ var(ε)/P (objective.hpp);
//  * simulated — the design's multipliers run through the over-clocking
//    timing simulation at the *characterised* placement and routing;
//  * actual   — the same simulation after a fresh placement & routing of
//    every multiplier across the device ("running on the board"), which is
//    what introduces the simulated-vs-actual deviations the paper reports.
//
// The datapath mirrors Section V: per output dimension k, P LUT-based
// generic multipliers compute |λ_pk|·x_p; signs and accumulation happen in
// the (pipelined, timing-safe) adder tree; the circuit subtracts the
// characterised mean error so ε is zero-mean (Section V-A).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "charlib/error_model.hpp"
#include "common/exec_policy.hpp"
#include "core/design.hpp"
#include "fabric/clock.hpp"
#include "fabric/device.hpp"
#include "timing/overclock_sim.hpp"

namespace oclp {

/// Where each of the design's P×K multipliers lands on the device.
struct CircuitPlan {
  std::vector<Placement> mult_placements;  ///< K·P entries, column-major
  bool with_jitter = true;
};

/// Simulated domain: every multiplier inherits the characterisation
/// placement and routing (what the error model was measured on).
CircuitPlan simulated_plan(const LinearProjectionDesign& design,
                           const Placement& characterised_at);

/// Actual domain: a fresh placement-and-routing run — multipliers spread
/// over the die with new routing seeds (deterministic in `par_seed`).
CircuitPlan actual_plan(const LinearProjectionDesign& design, const Device& device,
                        std::uint64_t par_seed);

/// The placed datapath. project() streams input samples and returns the
/// factor vector y (value units) including any over-clocking errors.
class ProjectionCircuit {
 public:
  /// `models` supplies the characterised mean-error constants the circuit
  /// subtracts, keyed by each column's multiplier configuration; pass
  /// nullptr to skip the correction (ablation).
  ProjectionCircuit(const LinearProjectionDesign& design, const Device& device,
                    const CircuitPlan& plan, int wl_x,
                    const ErrorModelMap* models,
                    std::uint64_t clock_seed);

  std::size_t dims_p() const { return design_.dims_p(); }
  std::size_t dims_k() const { return design_.dims_k(); }

  /// One clocked sample through all K·P multipliers. The out-param
  /// overload reuses the caller's buffer (no allocation once warm).
  void project(const std::vector<std::uint32_t>& x_codes, std::vector<double>& y);
  std::vector<double> project(const std::vector<std::uint32_t>& x_codes);

  /// Batched timed projection: clock the whole micro-batch through every
  /// multiplier in one OverclockSim::run_stream pass (64-lane settled
  /// eval + integer-picosecond sparse settle propagation), then capture
  /// each sample at its own jittered period — pre-converted once to PsGrid
  /// ticks — via the O(toggled) branch-poor unsigned-compare sampling
  /// rule. Bitwise identical to calling project() once per sample in
  /// order — including the per-sample ClockGen jitter draw order (same
  /// clock_seed ⇒ same clocks) and the sign/mean-correction accumulation
  /// order — and freely interleavable with project()/set_clock() (the
  /// multiplier register state carries across). The K·P per-multiplier
  /// streams are distributed per the circuit's ExecPolicy (default:
  /// pinned, one chunk per worker) with per-chunk reusable workspaces in
  /// a stable-address arena; no steady-state allocation beyond `ys`.
  /// Single-sample batches delegate to the scalar project() path, which
  /// beats the stream machinery at n = 1 and draws the identical period.
  /// `ys` is resized to batch.size() rows of K entries; rows keep their
  /// capacity across calls.
  ///
  /// Slack gate: each multiplier stream is handed the batch's shortest
  /// jittered period, so a multiplier whose structural critical path fits
  /// it skips settle propagation entirely (OverclockSim::run_stream) —
  /// same bits, counted in stream_counts().
  ///
  /// Fused references: when `ref_rows` is given, `refs` (required) is
  /// resized to ref_rows->size() rows of K, and row j is the settled
  /// projection of batch[(*ref_rows)[j]] — bitwise what project_settled()
  /// returns for that request — taken from the settled words of the same
  /// stream pass instead of a second evaluation.
  void project_batch(const std::vector<const std::vector<std::uint32_t>*>& batch,
                     std::vector<std::vector<double>>& ys,
                     const std::vector<std::size_t>* ref_rows = nullptr,
                     std::vector<std::vector<double>>* refs = nullptr);

  /// Multiplier streams project_batch ran slack-gated vs in full, since
  /// construction. Single-sample batches take the scalar path and count
  /// in neither.
  struct StreamCounts {
    std::uint64_t gated = 0;
    std::uint64_t full = 0;
  };
  StreamCounts stream_counts() const { return streams_; }

  /// Test and bench hook: with the gate off, project_batch runs every
  /// multiplier stream in full. Results are identical either way; only
  /// the speed (and stream_counts()) moves.
  void set_slack_gate(bool enabled) { slack_gate_ = enabled; }

  /// Replace the policy project_batch distributes multiplier streams
  /// with. Any policy/chunking produces bitwise-identical projections
  /// (each multiplier's state lives in its own sim; the reduction is a
  /// fixed-order serial sum).
  void set_exec_policy(const ExecPolicy& exec) { exec_ = exec; }

  /// Error-free reference projection of the same input codes (what the
  /// circuit would produce with unlimited timing slack).
  std::vector<double> project_exact(const std::vector<std::uint32_t>& x_codes) const;

  /// Fully-settled projections of a batch of input-code vectors: the
  /// functional value of the placed datapath for each request — what a
  /// duplicate register with unlimited timing slack would capture. No
  /// mean-error correction (the settled datapath is exact, corrections are
  /// an over-clocking artefact). Runs 64 requests per eval64 pass through
  /// each multiplier's compiled netlist; timing-free by construction, so
  /// it never touches clock or register state. `ys` is resized to
  /// batch.size() rows of K entries.
  void project_settled(const std::vector<const std::vector<std::uint32_t>*>& batch,
                       std::vector<std::vector<double>>& ys);

  /// Re-target the clock without rebuilding the datapath: subsequent
  /// samples are clocked at `freq_mhz` and the characterised mean-error
  /// correction follows the new frequency. `timing_derate` injects a
  /// mid-run environment change (temperature step, droop): the per-cell
  /// delays are baked into the simulators at construction, but scaling
  /// every delay by d is equivalent to shrinking the capture period by d,
  /// so the effective simulated clock is freq_mhz · timing_derate while
  /// corrections (and reporting) stay at the nominal frequency. Multiplier
  /// register state is preserved across the switch, as on real hardware.
  void set_clock(double freq_mhz, double timing_derate = 1.0);

  /// Swap the characterised error models at run time (a re-characterisation
  /// push): the mean-error corrections are recomputed from `models` at the
  /// current nominal clock. `models` must cover every column's multiplier
  /// configuration (or be nullptr to drop corrections) and must outlive the
  /// circuit or the next swap — callers holding a SharedErrorModels
  /// snapshot satisfy this by keeping the shared_ptr alongside.
  void set_error_models(const ErrorModelMap* models);

  /// Nominal clock the circuit currently serves at (excludes any derate).
  double clock_mhz() const { return freq_mhz_; }

 private:
  void recompute_mean_correction();

  /// project_batch worker scratch: one per shard of the K·P multiplier
  /// range, reused across batches.
  struct BatchWorkspace {
    OverclockSim::SweepStream stream;
    std::vector<std::uint8_t> inputs;  ///< n × num_inputs row-major bits
  };

  /// Settled projection of the sample the last project() clocked, read off
  /// every multiplier's final settled outputs (the n == 1 fused reference).
  void last_settled_projection(std::vector<double>& y);

  /// The architecture is per-column: a CCM column's sims bake the
  /// coefficient into the netlist (only the x port remains an input, and a
  /// coefficient change requires a full re-lower), while its neighbour
  /// column may stream a generic array/Wallace multiplicand bus.
  static bool column_is_ccm(const DesignColumn& col) {
    return col.config.arch == MultArch::Ccm;
  }

  LinearProjectionDesign design_;
  int wl_x_;
  const ErrorModelMap* models_;                      ///< may be nullptr
  std::vector<std::unique_ptr<OverclockSim>> sims_;  ///< K·P, column-major
  std::vector<double> mean_correction_;              ///< per (k): Σ_p sign·mean
  double freq_mhz_;
  double jitter_sigma_ns_;
  std::uint64_t clock_seed_;
  int retargets_ = 0;
  ClockGen clock_;
  bool first_sample_ = true;
  std::vector<std::uint8_t> in_;            ///< project() scratch, reused
  std::vector<std::uint64_t> lane_words_;   ///< project_settled() scratch
  // project_batch scratch, reused across batches.
  std::vector<double> periods_;             ///< per-sample jittered periods
  std::vector<std::uint64_t> periods_ticks_;  ///< the same, as PsGrid ticks
  std::vector<double> contrib_;             ///< K·P × n per-multiplier terms
  std::vector<double> ref_contrib_;         ///< K·P × refs settled terms
  std::vector<std::uint8_t> stream_gated_;  ///< per multiplier, last batch
  std::vector<std::uint8_t> settled_bits_;  ///< last_settled_projection scratch
  StreamCounts streams_;
  bool slack_gate_ = true;
  ChunkArena<BatchWorkspace> batch_ws_;     ///< one stable slot per chunk
  /// Stream-distribution policy. One chunk per worker mirrors the shard
  /// count the hand-rolled fan-out used (multiplier streams are uniform,
  /// so finer chunks only add submission overhead). Pinned by default:
  /// chunk c always runs on the same CPU, so its arena slot's pages stay
  /// cache- and NUMA-local across batches. The pinned pool spawns lazily
  /// on the first real fan-out, never from construction.
  ExecPolicy exec_ = ExecPolicy::pinned(ExecChunking{0, 1, 1});
};

/// End-to-end hardware evaluation: run `x` (value-domain P×N) through the
/// placed circuit, reconstruct in the original space, and return the mean
/// squared reconstruction error per element. `mu` is the design-time data
/// mean (subtracted from projections as a constant, error-free).
double evaluate_hardware_mse(const LinearProjectionDesign& design,
                             const Matrix& x, const std::vector<double>& mu,
                             const Device& device, const CircuitPlan& plan,
                             int wl_x, const ErrorModelMap* models,
                             std::uint64_t clock_seed);

}  // namespace oclp
