// The multiplier characterisation circuit of paper Figure 3.
//
// Structure: an "input stream" BRAM feeds the multiplier under test, whose
// outputs land in an "output stream" BRAM; a PLL generates the swept
// mult_clk for the DUT and a slow fsm_clk for the FSM/BRAM interface; the
// host loads stimuli and retrieves results (JTAG in the paper). The
// supporting modules are engineered so their critical path stays far above
// the DUT's error region — the model verifies that invariant instead of
// assuming it.
//
// Characterisation offers two drivers, both one OverclockSim::run_stream
// pass over the stream — or none, when the slack gate proves every capture
// settled (see run()):
//  * run()       — the per-frequency path: the stream clocked at one
//                  frequency, one PLL-jittered period per edge.
//  * run_multi() — the single-pass path: settle times are frequency-
//                  independent (inputs are registered and the previous
//                  frame is always fully settled), so one pass over the
//                  stream yields the traces of *all* frequency points by
//                  threshold-sampling each sample's settle snapshot at
//                  every period. Both are const and thread-safe (run_multi
//                  over caller-owned workspaces), which lets a sweep share
//                  one circuit per location across all multiplicands.
#pragma once

#include <cstdint>
#include <vector>

#include "fabric/clock.hpp"
#include "fabric/device.hpp"
#include "mult/multiplier.hpp"
#include "timing/overclock_sim.hpp"

namespace oclp {

struct CharCircuitConfig {
  /// Design-under-test configuration: architecture, multiplicand
  /// word-length and pipeline depth. For MultArch::Ccm the circuit is
  /// per-constant, so the characterisation rig eagerly lowers one DUT per
  /// multiplicand value (2^wordlength circuits — the predecessor work's
  /// cost explosion, realised; see ccm_characterisation_cost).
  MultConfig mult;
  int wl_x = 8;   ///< streamed-operand port width
  double fsm_clock_mhz = 50.0;   ///< supporting-domain clock
  std::size_t bram_depth = 8192; ///< stream BRAM words per batch
  bool with_jitter = true;       ///< model PLL cycle-to-cycle jitter
};

/// One characterisation batch result. error[i] = observed[i] - expected[i]
/// in raw product-code units (as plotted in the paper's Figure 4).
struct CharTrace {
  std::vector<std::uint64_t> observed;
  std::vector<std::uint64_t> expected;
  std::vector<std::int64_t> error;
  std::size_t erroneous = 0;     ///< count of error[i] != 0
  std::size_t fsm_cycles = 0;    ///< supporting-domain cycles consumed
};

class CharacterisationCircuit {
 public:
  /// Per-thread scratch state for the const run_multi() path: the sim
  /// state, the batched stream snapshot, the flattened input-bit matrix
  /// and the per-sample jitter. Reusing one workspace across calls keeps
  /// the hot path free of heap allocation.
  struct Workspace {
    OverclockSim::State sim;
    OverclockSim::SweepStream stream;
    std::vector<std::uint8_t> input_bits;  ///< row-major samples x inputs
    std::vector<double> jitter;            ///< per-sample PLL jitter (ns)
    /// The last run_multi was slack-gated: answered from m·x, no stream.
    bool gated = false;
  };

  CharacterisationCircuit(const CharCircuitConfig& cfg, const Device& device,
                          const Placement& placement);

  const CharCircuitConfig& config() const { return cfg_; }
  /// DUT netlist streamed for multiplicand `m`: the single generic circuit
  /// for Array/Wallace (m rides the input bus), the per-constant CCM cell
  /// otherwise.
  const Netlist& dut(std::uint32_t m = 0) const { return sim_for(m).netlist(); }

  /// Conservative Fmax of the DUT as the synthesis tool reports (fA);
  /// worst case over the per-constant circuits for CCM (a constant whose
  /// cell has no timing path, such as m = 0, cannot be late and is left
  /// out).
  double dut_tool_fmax_mhz() const { return dut_tool_fmax_mhz_; }
  /// Device-view zero-slack Fmax of the DUT at this placement (no margin);
  /// worst case over the per-constant circuits for CCM, as above.
  double dut_device_fmax_mhz() const { return dut_device_fmax_mhz_; }
  /// Device-view Fmax of the supporting FSM/BRAM logic.
  double support_fmax_mhz() const { return support_fmax_mhz_; }

  /// Stream `xs` through the DUT with the multiplicand fixed to `m`,
  /// clocked at `freq_mhz`. Throws if the supporting logic could not keep
  /// up (the framework must never inject errors of its own). This is the
  /// per-frequency path; characterisation sweeps use run_multi() instead.
  ///
  /// Slack gate: when the shortest jittered period clears the DUT's
  /// structural critical path, no capture can be stale (DESIGN.md §12), so
  /// the trace is the exact products with zero errors and no stream runs.
  /// The jitter is drawn either way, in the same order.
  CharTrace run(std::uint32_t m, const std::vector<std::uint32_t>& xs,
                double freq_mhz, std::uint64_t jitter_seed = 1) const;

  /// Single pass over `xs` yielding one trace per entry of `freqs_mhz`.
  /// PLL jitter (when configured) is drawn once per sample and applied to
  /// every frequency's period, so each frequency's period sequence has
  /// exactly the per-frequency path's distribution; with jitter disabled
  /// the traces are bitwise identical to running run() per frequency. The
  /// slack gate is run()'s, at the shortest period over every (frequency,
  /// sample). Thread-safe: concurrent calls must pass distinct workspaces
  /// (or nullptr for a call-local one).
  std::vector<CharTrace> run_multi(std::uint32_t m,
                                   const std::vector<std::uint32_t>& xs,
                                   const std::vector<double>& freqs_mhz,
                                   std::uint64_t jitter_seed = 1,
                                   Workspace* workspace = nullptr) const;

  /// Test hook: process-wide count of CharacterisationCircuit
  /// constructions, to pin "one circuit per location per sweep".
  static std::size_t construction_count();

 private:
  const OverclockSim& sim_for(std::uint32_t m) const {
    return ccm_ ? sims_[m] : sims_[0];
  }
  /// Throws unless `m` fits the multiplicand port and every frequency
  /// (at least one) stays below the supporting-logic Fmax.
  void check_run(std::uint32_t m, const std::vector<std::uint32_t>& xs,
                 const std::vector<double>& freqs_mhz) const;
  /// FSM-domain cycles to load, run and drain `n` samples through the
  /// stream BRAMs.
  std::size_t fsm_cycles(std::size_t n) const;
  /// Reset the DUT for `m` to the all-zero operand and stream `xs` through
  /// it in one run_stream pass into `ws`.
  void stream_dut(std::uint32_t m, const std::vector<std::uint32_t>& xs,
                  Workspace& ws) const;

  CharCircuitConfig cfg_;
  const Device* device_;
  Placement placement_;
  bool ccm_ = false;
  /// One sim for the generic architectures; 2^wl_m per-constant sims for
  /// CCM (indexed by multiplicand value).
  std::vector<OverclockSim> sims_;
  double dut_tool_fmax_mhz_ = 0.0;
  double dut_device_fmax_mhz_ = 0.0;
  double support_fmax_mhz_ = 0.0;
};

/// The supporting-logic netlist (BRAM address counter + FSM next-state
/// cone). Exposed so tests can confirm it is much shallower than any DUT.
Netlist make_support_logic(std::size_t bram_depth);

/// Per-product-bit error rates of a trace: fraction of samples where bit k
/// of the observed product differs from the expected one. The paper's
/// Figure-4 commentary ("the MSbs exhibit the longest paths") is this
/// profile: the top bits dominate under over-clocking.
std::vector<double> bit_error_profile(const CharTrace& trace, int product_bits);

}  // namespace oclp
