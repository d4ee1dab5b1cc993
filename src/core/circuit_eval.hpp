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
// the (pipelined, timing-safe) adder tree on integer product words, scaled
// by 2^-(wl+wl_x) once at the end; the circuit subtracts the characterised
// mean error so ε is zero-mean (Section V-A).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
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
  /// nullptr to skip the correction (ablation). Every column must satisfy
  /// the exact reduction's bound, P·(2^(wl+wl_x) − 1) < 2^53 — P terms of
  /// at most the widest word a capture can read, which also bounds the
  /// settled products P·(2^wl − 1)·(2^wl_x − 1); a CheckError names the
  /// first output dimension beyond it.
  ProjectionCircuit(const LinearProjectionDesign& design, const Device& device,
                    const CircuitPlan& plan, int wl_x,
                    const ErrorModelMap* models,
                    std::uint64_t clock_seed);

  std::size_t dims_p() const { return design_.dims_p(); }
  std::size_t dims_k() const { return design_.dims_k(); }

  /// The row core: `rows` holds n samples of P input codes, row-major
  /// (sample s at rows[s·P, (s+1)·P)), and `y` receives their n×K factor
  /// vectors, row-major. Every code is checked first: a CheckError names
  /// the row and input of a code of wl_x bits or more, and a rejected call
  /// draws no clock and moves no register.
  ///
  /// Timed projection: the whole block clocks through every multiplier in
  /// one OverclockSim::run_stream pass (64-lane settled eval +
  /// integer-picosecond sparse settle propagation), and each sample is
  /// captured at its own jittered period — pre-converted once to PsGrid
  /// ticks — via the O(toggled) unsigned-compare sampling rule. Bitwise
  /// identical to projecting the samples one at a time in order, including
  /// the per-sample ClockGen jitter draw order wherever a capture reads the
  /// period (same clock_seed ⇒ same clocks), and freely interleavable with
  /// project()/set_clock() (the multiplier register state carries across).
  /// No steady-state allocation.
  ///
  /// Slack gate: a multiplier whose structural critical path fits the
  /// block's shortest jittered period cannot capture a stale bit (the slack
  /// theorem, DESIGN.md §12), so it runs no stream: its term is
  /// sign·magnitude·x, exactly the settled word a capture would read. Its
  /// sim is rebuilt lazily — reset() to the last code it saw, the state a
  /// full stream would have left — before its next full stream. When every
  /// multiplier is gated at the shortest period the clock can draw at all
  /// (gated_at_every_period), the block draws no period: no capture would
  /// read one.
  ///
  /// Reduction: every term of output column k is an integer times
  /// 2^-(wl_k+wl_x) — sign·magnitude·x for a gated multiplier, sign·word for
  /// a captured one — so each column is summed as an exact int64, converted
  /// and scaled once, then mean-corrected. The constructor's bound keeps
  /// every partial sum below 2^53, which makes this bitwise the double sum
  /// in any order (DESIGN.md §8).
  ///
  /// Full streams of blocks below kInlineStreamBatch samples run inline on
  /// the calling thread (the measured fan-out crossover, DESIGN.md §12);
  /// larger ones are distributed over the global pool, one chunk per
  /// worker, with one reusable workspace per chunk — or per the policy
  /// set_exec_policy installed. stream_counts() tells gated and full
  /// streams apart.
  void project_rows(const std::uint32_t* rows, std::size_t n, double* y);

  /// The settled functional value of n rows — what the circuit would
  /// produce with unlimited timing slack: per output column, the exact
  /// integer Σ_p sign·magnitude·x_p scaled by 2^-(wl+wl_x), with no
  /// mean-error correction (the settled datapath is exact; corrections are
  /// an over-clocking artefact). The compiled multipliers compute
  /// magnitude·x exactly (tests/mult/test_exact_products.cpp), so this is
  /// also the functional value of the placed datapath. Timing-free: it
  /// never touches clock or register state. Codes are checked as in
  /// project_rows.
  void settled_rows(const std::uint32_t* rows, std::size_t n, double* y) const;

  /// One clocked sample: project_rows of one row. The out-param overload
  /// reuses the caller's buffer (no allocation once warm).
  void project(const std::vector<std::uint32_t>& x_codes, std::vector<double>& y);
  std::vector<double> project(const std::vector<std::uint32_t>& x_codes);

  /// project_rows over a vector of per-sample code vectors: each row is
  /// checked (a CheckError names a null row or one of the wrong length),
  /// gathered into a row block and projected; `ys` is resized to
  /// batch.size() rows of K entries, which keep their capacity across
  /// calls.
  void project_batch(const std::vector<const std::vector<std::uint32_t>*>& batch,
                     std::vector<std::vector<double>>& ys);

  /// Blocks of fewer full-stream samples than this run their streams
  /// inline: below it a fan-out costs more than it spreads (DESIGN.md §12).
  static constexpr std::size_t kInlineStreamBatch = 32;

  /// The per-clock gate: a multiplier whose critical path is at most the
  /// tick threshold of `min_period_ns` captures its settled word at every
  /// period of at least that length (inclusive, as the per-batch gate).
  /// Pure; the circuit asks it of its largest critical path and its
  /// clock's ClockGen::min_period_ns() at construction, set_clock and
  /// set_slack_gate.
  static bool gated_at_every_period(std::uint64_t critical_path_ticks,
                                    double min_period_ns);

  /// Multiplier streams project_rows (and so every entry point above)
  /// answered by the slack gate's arithmetic vs ran in full, since
  /// construction.
  struct StreamCounts {
    std::uint64_t gated = 0;
    std::uint64_t full = 0;
  };
  StreamCounts stream_counts() const { return streams_; }

  /// Test and bench hook: with the gate off, project_rows runs every
  /// multiplier stream in full. Results are identical either way; only
  /// the speed (and stream_counts()) moves.
  void set_slack_gate(bool enabled);

  /// Distribute the full streams of every block of more than one sample
  /// per `exec` instead of the default (inline below kInlineStreamBatch,
  /// the global pool from there). Any policy/chunking produces
  /// bitwise-identical projections: each multiplier's state lives in its
  /// own sim and writes its own words, and the reduction is exact.
  void set_exec_policy(const ExecPolicy& exec) { exec_ = exec; }

  /// settled_rows of one code vector. Codes are checked as in
  /// project_batch.
  std::vector<double> project_exact(const std::vector<std::uint32_t>& x_codes) const;

  /// settled_rows over a vector of per-sample code vectors (checked as in
  /// project_batch); `ys` is resized to batch.size() rows of K entries.
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
  /// Throws unless `x` is P codes (naming `row`).
  void check_shape(const std::vector<std::uint32_t>* x, std::size_t row) const;
  /// Throws unless every code of the n rows is below 2^wl_x, naming the
  /// offending row (counted from `first_row`) and input.
  void check_range(const std::uint32_t* rows, std::size_t n,
                   std::size_t first_row = 0) const;

  /// project_rows worker scratch: one per shard of the K·P multiplier
  /// range, reused across blocks.
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
  std::vector<std::int64_t> coef_;  ///< K·P sign·magnitude, column-major
  std::vector<double> scale_;       ///< per column: 2^-(wl+wl_x)
  std::vector<std::uint8_t> all_gated_;  ///< K·P ones: settled_rows' flags
  std::uint64_t max_critical_ticks_ = 0;  ///< over every multiplier
  std::vector<double> mean_correction_;   ///< per (k): Σ_p sign·mean
  double freq_mhz_;
  double jitter_sigma_ns_;
  std::uint64_t clock_seed_;
  int retargets_ = 0;
  ClockGen clock_;
  /// Per input: the code of the last sample projected (0, the reset code,
  /// before any) — what a gated multiplier's sim is rebuilt to.
  std::vector<std::uint32_t> last_x_;
  /// Per multiplier: its sim holds the settled state of last_x_ (false
  /// from construction and after a gated block, until the next reset()).
  std::vector<std::uint8_t> sim_synced_;
  // project_rows scratch, reused across blocks.
  std::vector<std::uint64_t> periods_ticks_;  ///< jittered periods, in ticks
  std::vector<std::uint32_t> codes_t_;  ///< P × n: the block's codes by input
  std::vector<std::int64_t> words_;  ///< K·P × n signed captured words
  std::vector<std::uint8_t> stream_gated_;  ///< per multiplier, this block
  // project_batch scratch: the gathered row block and its outputs.
  std::vector<std::uint32_t> batch_rows_;
  std::vector<double> batch_y_;
  StreamCounts streams_;
  bool slack_gate_ = true;
  /// Every multiplier is gated at every period the current clock can
  /// draw (and the gate is on): blocks draw no period.
  bool clock_gated_ = false;
  std::vector<BatchWorkspace> batch_ws_;  ///< one per chunk
  /// set_exec_policy's policy; unset, full streams fan out over the global
  /// pool (one chunk per worker: multiplier streams are uniform, so finer
  /// chunks only add submission overhead) from kInlineStreamBatch samples
  /// on. The global pool spawns on the first real fan-out, never from
  /// construction.
  std::optional<ExecPolicy> exec_;
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
