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

  /// One clocked sample through all K·P multipliers: project_batch of
  /// one. The out-param overload reuses the caller's buffer (no allocation
  /// once warm).
  void project(const std::vector<std::uint32_t>& x_codes, std::vector<double>& y);
  std::vector<double> project(const std::vector<std::uint32_t>& x_codes);

  /// Batched timed projection: clock the whole micro-batch through every
  /// multiplier in one OverclockSim::run_stream pass (64-lane settled
  /// eval + integer-picosecond sparse settle propagation), then capture
  /// each sample at its own jittered period — pre-converted once to PsGrid
  /// ticks — via the O(toggled) branch-poor unsigned-compare sampling
  /// rule. Bitwise identical to projecting the samples one at a time in
  /// order — including the per-sample ClockGen jitter draw order wherever
  /// a capture reads the period (same clock_seed ⇒ same clocks) and the
  /// sign/mean-correction accumulation order — and freely interleavable
  /// with project()/set_clock() (the multiplier register state carries
  /// across). Every sample is checked first: a CheckError names the row
  /// and input of a wrong-length vector or a code of wl_x bits or more. No
  /// steady-state allocation beyond `ys`, which is resized to batch.size()
  /// rows of K entries; rows keep their capacity across calls.
  ///
  /// Slack gate: a multiplier whose structural critical path fits the
  /// batch's shortest jittered period cannot capture a stale bit (the
  /// slack theorem, DESIGN.md §12), so it runs no stream: each sample
  /// contributes (magnitude·x)·sign·2^-(wl+wl_x), bitwise what its settled
  /// capture would, computed where the reduction sums it. Its sim is
  /// rebuilt lazily — reset() to the last code it saw, exactly the state a
  /// full stream would have left — before its next full stream. When every
  /// multiplier is gated at the shortest period the clock can draw at all
  /// (gated_at_every_period), the batch draws no period: no capture would
  /// read one. A batch in which every multiplier is gated, and any
  /// single-sample batch, runs inline on the calling thread; otherwise the
  /// K·P multipliers are distributed per the circuit's ExecPolicy
  /// (default: pinned, one chunk per worker) with per-chunk reusable
  /// workspaces in a stable-address arena. stream_counts() tells the two
  /// kinds apart.
  void project_batch(const std::vector<const std::vector<std::uint32_t>*>& batch,
                     std::vector<std::vector<double>>& ys);

  /// The per-clock gate: a multiplier whose critical path is at most the
  /// tick threshold of `min_period_ns` captures its settled word at every
  /// period of at least that length (inclusive, as the per-batch gate).
  /// Pure; the circuit asks it of its largest critical path and its
  /// clock's ClockGen::min_period_ns() at construction, set_clock and
  /// set_slack_gate.
  static bool gated_at_every_period(std::uint64_t critical_path_ticks,
                                    double min_period_ns);

  /// Multiplier streams project_batch (and so project()) answered by the
  /// slack gate's arithmetic vs ran in full, since construction.
  struct StreamCounts {
    std::uint64_t gated = 0;
    std::uint64_t full = 0;
  };
  StreamCounts stream_counts() const { return streams_; }

  /// Test and bench hook: with the gate off, project_batch runs every
  /// multiplier stream in full. Results are identical either way; only
  /// the speed (and stream_counts()) moves.
  void set_slack_gate(bool enabled);

  /// Replace the policy project_batch distributes multiplier streams
  /// with. Any policy/chunking produces bitwise-identical projections
  /// (each multiplier's state lives in its own sim; the reduction is a
  /// fixed-order serial sum).
  void set_exec_policy(const ExecPolicy& exec) { exec_ = exec; }

  /// Error-free reference projection of the same input codes (what the
  /// circuit would produce with unlimited timing slack): per output
  /// dimension, Σ_p sign·(magnitude·x_p)·2^-(wl+wl_x) summed pp-ascending
  /// from 0.0, with no mean-error correction (the settled datapath is
  /// exact; corrections are an over-clocking artefact). The compiled
  /// multipliers compute magnitude·x exactly (every operand pair is checked
  /// by tests/mult/test_exact_products.cpp), so this is also the functional
  /// value of the placed datapath. Timing-free: it never touches clock or
  /// register state. Codes are checked as in project_batch.
  std::vector<double> project_exact(const std::vector<std::uint32_t>& x_codes) const;

  /// project_exact for a batch of input-code vectors — the safe-duplicate
  /// reference the server checks against. `ys` is resized to batch.size()
  /// rows of K entries.
  void project_settled(const std::vector<const std::vector<std::uint32_t>*>& batch,
                       std::vector<std::vector<double>>& ys) const;

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
  /// Re-decide the per-clock gate for the current clock and gate setting.
  void update_clock_gate();
  /// Throws unless `x` is P codes, each below 2^wl_x (naming `row`).
  void check_codes(const std::vector<std::uint32_t>* x, std::size_t row) const;
  /// project_exact into a caller buffer.
  void exact_row(const std::vector<std::uint32_t>& x, std::vector<double>& y) const;

  /// Multiplier m's settled product with operand `x` as a signed, scaled
  /// term. Exact: the product is below 2^53 and the scale ±2^-(wl+wl_x),
  /// so it is bitwise what a capture of the settled word contributes.
  double exact_term(std::size_t m, std::uint32_t x) const {
    return static_cast<double>(std::uint64_t{terms_[m].magnitude} * x) *
           terms_[m].scale;
  }

  /// project_batch worker scratch: one per shard of the K·P multiplier
  /// range, reused across batches.
  struct BatchWorkspace {
    OverclockSim::SweepStream stream;
    std::vector<std::uint8_t> inputs;  ///< n × num_inputs row-major bits
    std::vector<std::uint8_t> reset;   ///< one input row for a lazy reset()
  };

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
  /// Per multiplier: its coefficient magnitude and signed scale
  /// sign·2^-(wl+wl_x) (±1 times a power of two, so exact).
  struct Term {
    std::uint32_t magnitude;
    double scale;
  };
  std::vector<Term> terms_;
  std::uint64_t max_critical_ticks_ = 0;  ///< over every multiplier
  std::vector<double> mean_correction_;   ///< per (k): Σ_p sign·mean
  double freq_mhz_;
  double jitter_sigma_ns_;
  std::uint64_t clock_seed_;
  int retargets_ = 0;
  ClockGen clock_;
  std::vector<const std::vector<std::uint32_t>*> one_in_;  ///< project() batch of one
  std::vector<std::vector<double>> one_out_;               ///< its output row
  /// Per input: the code of the last sample projected (0, the reset code,
  /// before any) — what a gated multiplier's sim is rebuilt to.
  std::vector<std::uint32_t> last_x_;
  /// Per multiplier: its sim holds the settled state of last_x_ (false
  /// from construction and after a gated batch, until the next reset()).
  std::vector<std::uint8_t> sim_synced_;
  // project_batch scratch, reused across batches.
  std::vector<std::uint64_t> periods_ticks_;  ///< jittered periods, in ticks
  std::vector<double> contrib_;  ///< K·P × n captured terms, full streams only
  std::vector<std::uint8_t> stream_gated_;  ///< per multiplier, this batch
  StreamCounts streams_;
  bool slack_gate_ = true;
  /// Every multiplier is gated at every period the current clock can
  /// draw (and the gate is on): batches draw no period.
  bool clock_gated_ = false;
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
