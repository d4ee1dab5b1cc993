#include "reference/scalar_projection.hpp"

#include <cmath>

#include "common/rng.hpp"
#include "fabric/timing_annotation.hpp"
#include "mult/bitcodec.hpp"
#include "mult/ccm.hpp"
#include "mult/multiplier.hpp"

namespace oclp::ref {

namespace {
bool column_is_ccm(const DesignColumn& col) {
  return col.config.arch == MultArch::Ccm;
}
}  // namespace

ScalarProjection::ScalarProjection(const LinearProjectionDesign& design,
                                   const Device& device, const CircuitPlan& plan,
                                   int wl_x, const ErrorModelMap* models,
                                   std::uint64_t clock_seed)
    : design_(design),
      wl_x_(wl_x),
      models_(models),
      freq_mhz_(design.target_freq_mhz),
      jitter_sigma_ns_(plan.with_jitter ? device.config().jitter_sigma_ns : 0.0),
      clock_seed_(clock_seed),
      clock_(design.target_freq_mhz, jitter_sigma_ns_, clock_seed) {
  const std::size_t p = design.dims_p();
  const std::size_t k = design.dims_k();
  OCLP_CHECK(plan.mult_placements.size() == k * p);
  sims_.reserve(k * p);
  for (std::size_t kk = 0; kk < k; ++kk) {
    const DesignColumn& col = design.columns[kk];
    for (std::size_t pp = 0; pp < p; ++pp) {
      Netlist nl = column_is_ccm(col)
                       ? make_ccm_multiplier(col.config,
                                             col.coeffs[pp].magnitude, wl_x)
                       : make_multiplier(col.config, wl_x);
      auto delays = annotate_timing(nl, device, plan.mult_placements[kk * p + pp]);
      sims_.emplace_back(std::move(nl), std::move(delays));
    }
  }
  recompute_mean_correction();
}

void ScalarProjection::recompute_mean_correction() {
  mean_correction_.assign(design_.dims_k(), 0.0);
  if (models_ == nullptr) return;
  for (std::size_t kk = 0; kk < design_.dims_k(); ++kk) {
    const DesignColumn& col = design_.columns[kk];
    const double scale = std::ldexp(1.0, col.wordlength() + wl_x_);
    const ErrorModel& model = models_->at(col.config);
    for (std::size_t pp = 0; pp < design_.dims_p(); ++pp)
      mean_correction_[kk] += col.coeffs[pp].sign *
                              model.mean_error(col.coeffs[pp].magnitude,
                                               freq_mhz_) /
                              scale;
  }
}

void ScalarProjection::set_clock(double freq_mhz, double timing_derate) {
  freq_mhz_ = freq_mhz;
  clock_ = ClockGen(freq_mhz * timing_derate, jitter_sigma_ns_,
                    hash_mix(clock_seed_, 0xC10C5E7ULL,
                             static_cast<std::uint64_t>(++retargets_)));
  recompute_mean_correction();
}

void ScalarProjection::project(const std::vector<std::uint32_t>& x_codes,
                               std::vector<double>& y) {
  const std::size_t p = design_.dims_p();
  const std::size_t k = design_.dims_k();
  OCLP_CHECK(x_codes.size() == p);

  // All multipliers share the mult_clk domain: one jittered period per edge.
  const double period = clock_.next_period_ns();

  y.assign(k, 0.0);
  for (std::size_t kk = 0; kk < k; ++kk) {
    const DesignColumn& col = design_.columns[kk];
    const bool ccm = column_is_ccm(col);
    const double scale = std::ldexp(1.0, col.wordlength() + wl_x_);
    for (std::size_t pp = 0; pp < p; ++pp) {
      DoubleSim& sim = sims_[kk * p + pp];
      in_.clear();
      if (!ccm) append_bits(in_, col.coeffs[pp].magnitude, col.wordlength());
      append_bits(in_, x_codes[pp], wl_x_);
      if (first_sample_) {
        std::vector<std::uint8_t> init;
        if (!ccm) append_bits(init, col.coeffs[pp].magnitude, col.wordlength());
        append_bits(init, 0, wl_x_);
        sim.reset(init);
      }
      const auto out = sim.step(in_, period);
      const double product = static_cast<double>(from_bits(out));
      y[kk] += col.coeffs[pp].sign * product / scale;
    }
    y[kk] -= mean_correction_[kk];
  }
  first_sample_ = false;
}

}  // namespace oclp::ref
