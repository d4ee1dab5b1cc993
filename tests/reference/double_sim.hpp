// The double-precision two-frame timing walk: the over-clocking model of
// timing/overclock_sim.hpp evaluated one clock edge at a time, settle times
// in nanoseconds, one linear pass over the compiled cells per edge.
//
// OverclockSim propagates settle times as uint32 PsGrid ticks only. With
// grid-exact delays every settle time this walk computes is exactly
// tick·2^-10 (the power-of-two grid theorem, DESIGN.md §9), so the tests
// and benches use it as an independent witness of the integer kernel:
// the same bits by theorem, reached through different arithmetic and a
// different evaluation order. It accepts arbitrary (off-grid) delays.
#pragma once

#include <cstdint>
#include <vector>

#include "netlist/compiled.hpp"
#include "netlist/netlist.hpp"

namespace oclp::ref {

class DoubleSim {
 public:
  /// Per-stream state. The const reset()/advance()/capture() API only
  /// touches the State it is handed, so one sim serves many streams.
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

  DoubleSim(Netlist nl, std::vector<double> cell_delay_ns);

  const Netlist& netlist() const { return nl_; }
  const CompiledNetlist& compiled() const { return cnl_; }

  /// Settle every net of `st` for `inputs` (a register flush).
  void reset(State& st, const std::vector<std::uint8_t>& inputs) const;

  /// Clock edge without sampling: apply `inputs`, compute every net's
  /// settle time and leave the per-output snapshot in `st`.
  void advance(State& st, const std::vector<std::uint8_t>& inputs) const;

  /// Sample the most recent advance of `st` at `period_ns` into `out`.
  void capture(const State& st, double period_ns,
               std::vector<std::uint8_t>& out) const;

  /// Per-edge snapshots of a stream in OverclockSim::SweepStream's layout,
  /// settle times in ns: the settled output word of every sample plus the
  /// (bit, settle) pairs of the outputs that toggled at its edge.
  struct Stream {
    std::vector<std::uint64_t> settled;
    std::vector<std::uint32_t> toggle_begin;  ///< [n+1]
    std::vector<std::uint8_t> toggle_bit;
    std::vector<double> toggle_settle;

    /// Output word of sample `s` captured at `period_ns`.
    std::uint64_t capture_word(std::size_t s, double period_ns) const {
      std::uint64_t w = settled[s];
      for (std::uint32_t t = toggle_begin[s]; t < toggle_begin[s + 1]; ++t)
        w ^= static_cast<std::uint64_t>(toggle_settle[t] > period_ns)
             << toggle_bit[t];
      return w;
    }
  };

  /// The stream reference: one advance() per row of `inputs` (row-major,
  /// num_inputs() bytes per row, bit 0 of each byte counts), snapshotting
  /// every edge into `out`. Requires a prior reset() of `st` and at most 64
  /// outputs.
  void run_stream(State& st, const std::uint8_t* inputs, std::size_t n,
                  Stream& out) const;

  // --- Convenience single-stream API over an internal State ---

  void reset(const std::vector<std::uint8_t>& inputs) { reset(state_, inputs); }
  /// Clock edge sampled after `period_ns`; the reference stays valid until
  /// the next step()/reset().
  const std::vector<std::uint8_t>& step(const std::vector<std::uint8_t>& inputs,
                                        double period_ns);
  double last_output_settle_ns() const { return state_.last_output_settle_ns; }
  std::vector<std::uint8_t> resample_last(double period_ns) const;
  std::vector<std::uint8_t> last_settled_outputs() const;

 private:
  void advance_regs(State& st) const;

  Netlist nl_;
  CompiledNetlist cnl_;
  std::vector<double> delay_;
  State state_;
  std::vector<std::uint8_t> captured_;
};

}  // namespace oclp::ref
