// PLL / clock-domain model.
//
// The characterisation circuit (paper Fig. 3) uses a PLL with two domains:
// "mult_clk" drives the design under test at the swept frequency, and
// "fsm_clk" drives the supporting modules well below their own Fmax. The
// observable effect of the PLL on over-clocking errors is cycle-to-cycle
// jitter — the paper attributes the run-to-run variation of errors at high
// frequency to exactly this — so the model is a nominal period plus a
// clamped Gaussian per-cycle deviation.
#pragma once

#include <cstdint>

#include "common/rng.hpp"

namespace oclp {

class ClockGen {
 public:
  ClockGen(double freq_mhz, double jitter_sigma_ns, std::uint64_t seed)
      : nominal_period_ns_(1000.0 / freq_mhz),
        jitter_sigma_ns_(jitter_sigma_ns),
        rng_(hash_mix(seed, 0x5eedc10cULL)) {
    OCLP_CHECK(freq_mhz > 0.0 && jitter_sigma_ns >= 0.0);
  }

  double freq_mhz() const { return 1000.0 / nominal_period_ns_; }
  double nominal_period_ns() const { return nominal_period_ns_; }

  /// Next cycle's effective period. Jitter is clamped to ±4σ so a single
  /// outlier draw cannot produce a non-physical period.
  double next_period_ns() {
    if (jitter_sigma_ns_ == 0.0) return nominal_period_ns_;
    double j = rng_.normal(0.0, jitter_sigma_ns_);
    const double lim = jitter_limit_ns();
    if (j > lim) j = lim;
    if (j < -lim) j = -lim;
    return nominal_period_ns_ + j;
  }

  /// The shortest period next_period_ns() can return: the clamped draw
  /// −4σ through the same double expression, so it is reached exactly, and
  /// every other draw is at least it (rounding is monotone). The nominal
  /// period when σ = 0. Draws no jitter.
  double min_period_ns() const {
    if (jitter_sigma_ns_ == 0.0) return nominal_period_ns_;
    return nominal_period_ns_ + -jitter_limit_ns();
  }

 private:
  double jitter_limit_ns() const { return 4.0 * jitter_sigma_ns_; }

  double nominal_period_ns_;
  double jitter_sigma_ns_;
  Rng rng_;
};

}  // namespace oclp
