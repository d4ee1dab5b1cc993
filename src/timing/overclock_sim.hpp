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
// threshold-sample it at every period of interest (see capture()).
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

/// Which settle kernel an OverclockSim lowers onto (see PsGrid).
enum class TimingMode : std::uint8_t {
  /// Integer-picosecond kernel when every delay is grid-exact and the
  /// worst-case path fits uint32 ticks; double kernel otherwise. The
  /// default: calibration-produced delays always take the integer path,
  /// arbitrary (test) delays still work.
  Auto,
  /// Require the integer kernel: construction throws, naming the cell,
  /// if any delay is off-grid or the path sum overflows. Production
  /// datapaths use this so a mis-calibrated delay is an error, not a
  /// silent fallback.
  IntegerExact,
  /// Force the retained double kernel (the golden reference).
  DoubleRef,
};

class OverclockSim {
 public:
  /// Mutable per-stream simulation state. The netlist and delays of an
  /// OverclockSim are immutable after construction, so a single sim can be
  /// shared by many threads as long as each drives its own State through
  /// the const reset()/advance()/capture() API below. Buffers are reused
  /// across steps (and across streams of the same circuit): steady-state
  /// stepping performs no heap allocation.
  struct State {
    std::vector<std::uint8_t> prev;  ///< settled values of the previous frame
    std::vector<std::uint8_t> next;  ///< functional values of the new frame
    std::vector<double> settle;      ///< per-net stage-local settle time
    /// Carried max of earlier stages' local settle times (two-track model;
    /// all-zero and unread for register-free netlists).
    std::vector<double> carried;
    // Per-output snapshot of the most recent advance (for capture()).
    std::vector<double> out_settle;
    std::vector<std::uint8_t> out_prev, out_next;
    double last_output_settle_ns = 0.0;
    bool initialised = false;
    bool stepped = false;
  };

  /// Takes the netlist and the per-cell delays of a specific placement on a
  /// specific device (see fabric::annotate_timing). `mode` selects the
  /// settle kernel (integer picosecond vs double reference); delays are
  /// quantised here, at lowering time.
  OverclockSim(Netlist nl, std::vector<double> cell_delay_ns,
               TimingMode mode = TimingMode::Auto);

  const Netlist& netlist() const { return nl_; }
  /// The lowered form every evaluation runs on. Timing-free consumers
  /// (ground truth, reference values) may run eval64 on it directly.
  const CompiledNetlist& compiled() const { return cnl_; }

  /// True iff run_stream propagates settle times as uint32 PsGrid ticks.
  /// advance()/capture() always run the double model — with grid-exact
  /// delays their doubles are exactly tick·2^-10, so the paths agree
  /// bitwise either way.
  bool integer_kernel() const { return !delay_ticks_.empty(); }

  /// Worst-case settle path in ticks (integer kernel only; 0 otherwise).
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

  /// Clock edge without sampling: apply `inputs`, compute every net's
  /// settle time and leave the per-output snapshot in `st`. Sampling at
  /// any number of periods is then a capture() per period — the basis of
  /// single-pass multi-frequency characterisation.
  void advance(State& st, const std::vector<std::uint8_t>& inputs) const;

  /// Sample the most recent advance of `st` at `period_ns` into `out`
  /// (resized to the output count; no allocation once warm).
  void capture(const State& st, double period_ns,
               std::vector<std::uint8_t>& out) const;

  /// Per-edge output snapshots of a whole input stream, as produced by
  /// run_stream(): for each sample, the settled (fully-functional) output
  /// word plus the (bit, settle-time) pairs of the outputs that toggled at
  /// that edge. Sampling the stream at any period is then
  ///
  ///   obs = settled[s];
  ///   for t in [toggle_begin[s], toggle_begin[s+1]):
  ///     if (toggle_settle[t] > period) obs ^= 1 << toggle_bit[t];
  ///
  /// — bitwise identical to capture() on every bit, but O(toggled) per
  /// period. Buffers (including the internal scratch) are reused across
  /// calls: steady-state streaming performs no heap allocation.
  struct SweepStream {
    std::vector<std::uint64_t> settled;     ///< [n] settled output words
    std::vector<std::uint32_t> toggle_begin;  ///< [n+1] offsets into the pair arrays
    std::vector<std::uint8_t> toggle_bit;
    /// Settle times in ns — filled by the double (reference) kernel only;
    /// empty after an integer-kernel run (see has_ticks).
    std::vector<double> toggle_settle;
    /// Settle times as PsGrid ticks — filled by the integer kernel only.
    /// Exactly one of the two value arrays is populated per run; ns values
    /// of an integer stream are recovered exactly via toggle_settle_ns()
    /// (the dequantisation is a power-of-two scale — see PsGrid).
    std::vector<std::uint32_t> toggle_settle_ticks;
    /// True iff the last run_stream filled toggle_settle_ticks (integer
    /// kernel); false after a reference run. capture_word dispatches on it.
    bool has_ticks = false;
    /// True iff the last run_stream was slack-gated (see run_stream): it
    /// recorded no toggle pairs, so every capture returns the settled word
    /// — exact for any period at or above the gate, which is all a gated
    /// stream may be captured at.
    bool gated = false;

    /// Settle time of pair `t` in ns, whichever kernel produced it.
    double toggle_settle_ns(std::size_t t) const {
      return has_ticks ? PsGrid::to_ns(toggle_settle_ticks[t])
                       : toggle_settle[t];
    }

    /// Output word of sample `s` captured at `period_ns` — the sampling
    /// rule above as a helper. Each sample may use its own period (the
    /// batched projection path feeds every sample its jittered period),
    /// because settle times are frequency-independent: the period only
    /// selects which toggled bits are captured fresh vs stale. Bitwise
    /// identical to capture() on every bit, O(toggled at this edge).
    /// Integer streams dispatch to the tick compare through the exact
    /// threshold conversion — same bits, no doubles on the hot path.
    std::uint64_t capture_word(std::size_t s, double period_ns) const {
      if (has_ticks)
        return capture_word_ticks(s, PsGrid::period_ticks(period_ns));
      std::uint64_t w = settled[s];
      for (std::uint32_t t = toggle_begin[s]; t < toggle_begin[s + 1]; ++t)
        w ^= static_cast<std::uint64_t>(toggle_settle[t] > period_ns)
             << toggle_bit[t];
      return w;
    }

    /// Integer capture: branch-poor unsigned compares against a period
    /// pre-converted through PsGrid::period_ticks. Valid after an
    /// integer-kernel run_stream; bitwise identical to capture_word at
    /// the same period (the threshold conversion is exact — see PsGrid).
    std::uint64_t capture_word_ticks(std::size_t s,
                                     std::uint64_t period_ticks) const {
      std::uint64_t w = settled[s];
      for (std::uint32_t t = toggle_begin[s]; t < toggle_begin[s + 1]; ++t)
        w ^= static_cast<std::uint64_t>(toggle_settle_ticks[t] > period_ticks)
             << toggle_bit[t];
      return w;
    }

    // Internal scratch of run_stream (value/toggle lane words, per-net
    // settle lane rows — double or tick flavour depending on the kernel —
    // carried-track rows for pipelined netlists, and inter-chunk carry
    // bits). Not part of the result.
    std::vector<std::uint64_t> words, tog;
    std::vector<double> lanes, lanes_c;
    std::vector<std::uint32_t> lanes_ticks, lanes_c_ticks;
    std::vector<std::uint8_t> carry;
  };

  /// Batched advance: streams `n` input vectors (row-major, num_inputs()
  /// bytes per row) from the settled state in `st`, filling `out` with the
  /// per-edge snapshot of every sample. Functional values are evaluated 64
  /// samples at a time through the compiled netlist's bit-parallel eval64;
  /// settle times are then propagated only through the cells that actually
  /// toggled at each edge (typically a small fraction). On the integer
  /// kernel (integer_kernel()) the propagation is uint32 max-plus over
  /// PsGrid tick rows; on the double kernel it is the same masked max/add
  /// arithmetic as advance(). Either way the recorded settle times are
  /// bitwise identical to advance()'s doubles (exact grid dequantisation —
  /// see PsGrid). Requires num_outputs() <= 64 and a prior
  /// reset() of `st`; on return `st` holds the same observable state as
  /// `n` advance() calls (per-net settle times of untoggled nets excepted,
  /// which later advance()/capture() calls never read).
  ///
  /// Slack gate: `min_period_ticks` is the shortest period (as
  /// PsGrid::period_ticks) any capture of this stream will use; 0, the
  /// default, means unknown. No net's settle time — on the single track or
  /// either track of the pipelined model — exceeds its structural arrival
  /// time, so when min_period_ticks >= critical_path_ticks() no captured
  /// bit can be stale. The integer kernel then skips settle propagation and
  /// the toggle snapshot (out.gated): settled words only, plus the settle
  /// times of the final edge, so `st` is left exactly as above. The double
  /// kernel (critical_path_ticks() == 0) never gates.
  void run_stream(State& st, const std::uint8_t* inputs, std::size_t n,
                  SweepStream& out, std::uint64_t min_period_ticks = 0) const;

  /// The retained double-settle kernel, runnable regardless of mode: the
  /// golden reference the integer kernel is tested (and benched) against.
  /// Identical contract to run_stream; never fills toggle_settle_ticks.
  void run_stream_ref(State& st, const std::uint8_t* inputs, std::size_t n,
                      SweepStream& out) const;

  // --- Convenience single-stream API over an internal State ---

  /// Settle every net for `inputs` (a register flush); clears history.
  void reset(const std::vector<std::uint8_t>& inputs) { reset(state_, inputs); }

  /// Batched advance over the internal State: the stream analogue of n
  /// step() calls minus the captures. Interoperates with step()/
  /// resample_last() — on return the internal state is what n advance()
  /// calls would have left (see the shared-circuit run_stream above).
  void run_stream(const std::uint8_t* inputs, std::size_t n, SweepStream& out,
                  std::uint64_t min_period_ticks = 0) {
    run_stream(state_, inputs, n, out, min_period_ticks);
  }

  /// Clock edge: apply `inputs`, sample the output register after
  /// `period_ns`. Returns the captured output bits (possibly stale). The
  /// reference stays valid until the next step()/reset(). Requires a prior
  /// reset() (the first vector of a stream).
  const std::vector<std::uint8_t>& step(const std::vector<std::uint8_t>& inputs,
                                        double period_ns);

  /// Settle time of the slowest output for the most recent step (ns).
  double last_output_settle_ns() const { return state_.last_output_settle_ns; }

  /// Re-sample the most recent step's outputs at a different period —
  /// what a register on a delayed clock (e.g. a Razor shadow latch) would
  /// have captured at the same launch edge. Valid after step(). The
  /// out-param overload reuses the caller's buffer (no allocation once
  /// warm) — prefer it in per-step hot paths.
  void resample_last(double period_ns, std::vector<std::uint8_t>& out) const;
  std::vector<std::uint8_t> resample_last(double period_ns) const;

  /// Fully-settled output values of the most recent step (ground truth).
  /// Same buffer-reuse convention as resample_last.
  void last_settled_outputs(std::vector<std::uint8_t>& out) const;
  std::vector<std::uint8_t> last_settled_outputs() const;

 private:
  template <bool kIntKernel, bool kRegs>
  void run_stream_impl(State& st, const std::uint8_t* inputs, std::size_t n,
                       SweepStream& out, bool gated) const;
  void advance_regs(State& st) const;

  Netlist nl_;
  CompiledNetlist cnl_;
  std::vector<double> delay_;
  std::vector<std::uint32_t> delay_ticks_;  ///< empty on the double kernel
  std::uint64_t critical_path_ticks_ = 0;
  lane::DenseKernels dense_ = lane::dense_kernels();
  State state_;                      // backs the convenience API
  std::vector<std::uint8_t> captured_;  // reusable step() output buffer
};

}  // namespace oclp
