// Over-clocked register-to-register timing simulation.
//
// Model (the standard one in the FPGA over-clocking literature, e.g. Shi,
// Boland & Constantinides, FCCM'13): the combinational cone between input
// and output registers is driven with a new input vector at each clock
// edge; the output register samples after the (possibly jittered) period T.
// Every net carries a settle time — the moment its value reaches its final
// (functional) value for the new inputs:
//
//   settle(net) = 0                                   if value unchanged
//               = cell_delay + max settle(changed fanins)   otherwise
//
// An output bit whose settle time exceeds T is captured *stale*: the
// register keeps the previous cycle's settled value for that bit. This
// reproduces the paper's observations: errors are cumulative in frequency,
// MSbs (longest chains) fail first, and multiplicands with few '1' bits
// (fewer toggling partial products) fail less.
//
// Settle times are *frequency-independent*: inputs are registered (they
// switch exactly at the launch edge) and the previous frame is the fully
// settled value of the previous inputs, so the period only selects which
// bits are captured fresh vs stale. This is what makes single-pass
// multi-frequency characterisation possible — settle the cone once, then
// threshold-sample it at every period of interest (see SweepStream below).
//
// Approximations (documented deviations from event-accurate simulation):
//  * hazards/glitches are ignored — a net that ends at its old value is
//    treated as never having moved;
//  * the cone is assumed fully settled by the *end* of each cycle, so the
//    "previous" frame is always the functional value of the previous
//    inputs. Far above the error onset this is optimistic, which matches
//    the paper's remark that beyond fC results are simply not meaningful.
//
// Pipelined netlists (cones containing PipeReg cells) run a two-track
// variant of the same model. Each net carries a stage-local settle time L
// (as above, restarting at each register's clk-to-q delay) and a carried
// maximum M of the local settle times of all earlier stages along the
// toggled paths feeding it:
//
//   normal cell:  L_out = delay + max L_in (toggled),  M_out = max M_in
//   PipeReg:      L_out = delay(reg),  M_out = max(M_in, L_in) (toggled)
//
// The recorded per-output settle time is max(L, M): an output bit is
// captured fresh at period T iff *every* stage on its toggled path settled
// within T — still frequency-independent, so all capture machinery works
// unchanged. Two further approximations follow from keeping registers
// function-transparent: pipeline latency is invisible to the steady-state
// stream (each frame's settled outputs correspond to that frame's inputs),
// and the staleness of an interior stage for this frame's data is charged
// to this frame's output rather than surfacing `depth` cycles later —
// acceptable for error-rate statistics over long stationary streams, the
// only way the characterisation sweeps consume this simulation.
#pragma once

#include <cstdint>
#include <vector>

#include "netlist/compiled.hpp"
#include "netlist/netlist.hpp"
#include "timing/lane_kernels.hpp"

namespace oclp {

/// How an OverclockSim lowers its delays. Settle times are uint32 PsGrid
/// ticks, so the one mode requires every delay on the grid: construction
/// throws, naming the cell, if a delay is off-grid or the worst-case path
/// overflows uint32 ticks. Calibrated delays (fabric::annotate_timing)
/// always lower; test delays snap through PsGrid::snap_ns first.
enum class TimingMode : std::uint8_t {
  IntegerExact,
};

class OverclockSim {
 public:
  /// Mutable per-stream state: the settled net values of the previous
  /// frame plus the single-lane walk's scratch. The netlist and delays of
  /// an OverclockSim are immutable after construction, so a single sim can
  /// be shared by many threads as long as each drives its own State through
  /// the const reset()/run_stream() API below. Buffers are reused across
  /// calls: steady-state streaming performs no heap allocation.
  struct State {
    std::vector<std::uint8_t> prev;  ///< settled values of the previous frame
    // Single-lane walk scratch (run_stream with n == 1): functional values
    // of the new frame and per-net settle ticks on both tracks of the
    // pipelined model (the carried track is empty without registers).
    std::vector<std::uint8_t> next;
    std::vector<std::uint32_t> settle, carried;
    bool initialised = false;
  };

  /// Takes the netlist and the per-cell delays of a specific placement on a
  /// specific device (see fabric::annotate_timing); delays are quantised
  /// onto the PsGrid here, at lowering time (see TimingMode).
  OverclockSim(Netlist nl, std::vector<double> cell_delay_ns,
               TimingMode mode = TimingMode::IntegerExact);

  const Netlist& netlist() const { return nl_; }
  /// The lowered form every evaluation runs on. Timing-free consumers
  /// (ground truth, reference values) may run eval64 on it directly.
  const CompiledNetlist& compiled() const { return cnl_; }

  /// Worst-case settle path in ticks: the structural bound no recorded
  /// settle time exceeds, on either track of the pipelined model. A stream
  /// captured at a period of at least this many ticks therefore captures
  /// its settled words exactly — the slack theorem (DESIGN.md §12) that
  /// lets callers skip the stream and compute the product directly.
  std::uint64_t critical_path_ticks() const { return critical_path_ticks_; }

  /// The dense row fills (and dense/sparse crossover) run_stream uses —
  /// resolved per device at construction (lane::dense_kernels()).
  const lane::DenseKernels& lane_kernels() const { return dense_; }

  /// Override the kernel selection — the hook the property tests and
  /// benches use to force a specific ISA clone or pin the crossover at an
  /// extreme (cutoff 0: every toggled cell dense; cutoff 65: never dense).
  /// Results are identical for any choice; only the speed moves.
  void set_lane_kernels(const lane::DenseKernels& k) { dense_ = k; }

  // --- Shared-circuit API (thread-safe: only touches the given State) ---

  /// Settle every net of `st` for `inputs` (a register flush).
  void reset(State& st, const std::vector<std::uint8_t>& inputs) const;

  /// Per-edge output snapshots of a whole input stream, as produced by
  /// run_stream(): for each sample, the settled (fully-functional) output
  /// word plus the (bit, settle-ticks) pairs of the outputs that toggled at
  /// that edge. Sampling the stream at any period is then
  ///
  ///   obs = settled[s];
  ///   for t in [toggle_begin[s], toggle_begin[s+1]):
  ///     if (toggle_settle_ticks[t] > period_ticks) obs ^= 1 << toggle_bit[t];
  ///
  /// — O(toggled) per period. Buffers (including the internal scratch) are
  /// reused across calls: steady-state streaming performs no heap
  /// allocation.
  struct SweepStream {
    std::vector<std::uint64_t> settled;     ///< [n] settled output words
    std::vector<std::uint32_t> toggle_begin;  ///< [n+1] offsets into the pair arrays
    std::vector<std::uint8_t> toggle_bit;
    /// Settle times as PsGrid ticks (PsGrid::to_ns dequantises exactly).
    std::vector<std::uint32_t> toggle_settle_ticks;

    /// Output word of sample `s` captured at `period_ns` — the sampling
    /// rule above through the exact threshold conversion. Each sample may
    /// use its own period (the batched projection path feeds every sample
    /// its jittered period), because settle times are frequency-
    /// independent: the period only selects which toggled bits are
    /// captured fresh vs stale.
    std::uint64_t capture_word(std::size_t s, double period_ns) const {
      return capture_word_ticks(s, PsGrid::period_ticks(period_ns));
    }

    /// Integer capture: branch-poor unsigned compares against a period
    /// pre-converted through PsGrid::period_ticks — bitwise the double
    /// rule `settle > period` at the same period (the threshold conversion
    /// is exact — see PsGrid).
    std::uint64_t capture_word_ticks(std::size_t s,
                                     std::uint64_t period_ticks) const {
      std::uint64_t w = settled[s];
      for (std::uint32_t t = toggle_begin[s]; t < toggle_begin[s + 1]; ++t)
        w ^= static_cast<std::uint64_t>(toggle_settle_ticks[t] > period_ticks)
             << toggle_bit[t];
      return w;
    }

    // Internal scratch of the lane-row kernel (value/toggle lane words,
    // per-net settle tick rows, carried-track rows for pipelined netlists,
    // and inter-chunk carry bits). Not part of the result.
    std::vector<std::uint64_t> words, tog;
    std::vector<std::uint32_t> lanes_ticks, lanes_c_ticks;
    std::vector<std::uint8_t> carry;
  };

  /// Batched clock edges: streams `n` input vectors (row-major,
  /// num_inputs() bytes per row, bit 0 of each byte counts) from the
  /// settled state in `st`, filling `out` with the per-edge snapshot of
  /// every sample, and leaves `st` holding the final settled values.
  /// Requires num_outputs() <= 64 and a prior reset() of `st`.
  ///
  /// Two kernels, one arithmetic (uint32 max-plus over PsGrid ticks):
  ///  * n >= 2 — the lane-row kernel: functional values 64 samples at a
  ///    time through the compiled netlist's bit-parallel eval64, then settle
  ///    ticks propagated only through the cells that toggled at each edge,
  ///    one 64-lane row per net (dense rows through lane_kernels());
  ///  * n == 1 — the single-lane walk: one branch-free pass over the
  ///    levelized cells, value and settle ticks per cell, writing the
  ///    sample's settled word and toggle pairs straight into `out`.
  void run_stream(State& st, const std::uint8_t* inputs, std::size_t n,
                  SweepStream& out) const;

  // --- Convenience single-stream API over an internal State ---

  /// Settle every net for `inputs` (a register flush); clears history.
  void reset(const std::vector<std::uint8_t>& inputs);

  /// run_stream over the internal State: the register values carry on into
  /// the next step(). It is not a step — the accessors below throw after it
  /// until the next step().
  void run_stream(const std::uint8_t* inputs, std::size_t n, SweepStream& out);

  /// Clock edge: apply `inputs`, sample the output register after
  /// `period_ns` — a one-sample full run_stream. Returns the captured
  /// output bits (possibly stale). The reference stays valid until the
  /// next step()/reset(). Requires a prior reset() (the first vector of a
  /// stream) and at most 64 outputs.
  const std::vector<std::uint8_t>& step(const std::vector<std::uint8_t>& inputs,
                                        double period_ns);

  // The accessors below read the stream of the most recent step() and
  // throw before any step (or after a reset() or convenience run_stream).

  /// Settle time of the slowest output for the most recent step (ns).
  double last_output_settle_ns() const;

  /// Re-sample the most recent step's outputs at a different period —
  /// what a register on a delayed clock (e.g. a Razor shadow latch) would
  /// have captured at the same launch edge. The out-param overload reuses
  /// the caller's buffer (no allocation once warm) — prefer it in per-step
  /// hot paths.
  void resample_last(double period_ns, std::vector<std::uint8_t>& out) const;
  std::vector<std::uint8_t> resample_last(double period_ns) const;

  /// Fully-settled output values of the most recent step (ground truth).
  /// Same buffer-reuse convention as resample_last.
  void last_settled_outputs(std::vector<std::uint8_t>& out) const;
  std::vector<std::uint8_t> last_settled_outputs() const;

 private:
  template <bool kRegs>
  void run_lanes(State& st, const std::uint8_t* inputs, std::size_t n,
                 SweepStream& out) const;
  template <bool kRegs>
  void walk_one(State& st, const std::uint8_t* inputs, SweepStream& out) const;

  Netlist nl_;
  CompiledNetlist cnl_;
  std::vector<std::uint32_t> delay_ticks_;
  std::uint64_t critical_path_ticks_ = 0;
  lane::DenseKernels dense_ = lane::dense_kernels();
  State state_;              // backs the convenience API
  SweepStream last_step_;    // the most recent step()'s one-sample stream
  bool stepped_ = false;
  std::vector<std::uint8_t> captured_;  // reusable step() output buffer
};

}  // namespace oclp
