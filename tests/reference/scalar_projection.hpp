// The scalar projection loop: a placed Linear Projection datapath clocked
// one sample at a time, every multiplier stepping the double walk
// (reference/double_sim.hpp) at the sample's jittered period.
//
// It builds the same multipliers at the same placements as
// ProjectionCircuit, draws its periods from the same ClockGen seeds (one
// per edge, retargets included) and accumulates in the same order (pp
// ascending per output dimension, mean correction last), so its outputs
// are bitwise what ProjectionCircuit::project_batch must produce — by a
// different kernel. The tests and the serving benches use it as the
// independent side of that check.
#pragma once

#include <cstdint>
#include <vector>

#include "charlib/error_model.hpp"
#include "core/circuit_eval.hpp"
#include "core/design.hpp"
#include "fabric/clock.hpp"
#include "fabric/device.hpp"
#include "reference/double_sim.hpp"

namespace oclp::ref {

class ScalarProjection {
 public:
  ScalarProjection(const LinearProjectionDesign& design, const Device& device,
                   const CircuitPlan& plan, int wl_x,
                   const ErrorModelMap* models, std::uint64_t clock_seed);

  /// One clocked sample through all K·P multipliers.
  void project(const std::vector<std::uint32_t>& x_codes, std::vector<double>& y);

  /// ProjectionCircuit::set_clock's contract: a fresh deterministic jitter
  /// stream per retarget, the derate folded into the effective clock.
  void set_clock(double freq_mhz, double timing_derate = 1.0);

 private:
  void recompute_mean_correction();

  LinearProjectionDesign design_;
  int wl_x_;
  const ErrorModelMap* models_;
  std::vector<DoubleSim> sims_;  ///< K·P, column-major
  std::vector<double> mean_correction_;
  double freq_mhz_;
  double jitter_sigma_ns_;
  std::uint64_t clock_seed_;
  int retargets_ = 0;
  ClockGen clock_;
  bool first_sample_ = true;
  std::vector<std::uint8_t> in_;
};

}  // namespace oclp::ref
