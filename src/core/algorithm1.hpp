// Algorithm 1 of the paper: the Linear Projection design optimisation
// framework, widened so the multiplier configuration (architecture ×
// word-length × pipeline depth) is the per-dimension decision variable.
//
// For each projected dimension d = 1..K, every carried candidate design is
// extended by one column at every configuration in the search list: a
// prior is formed from that configuration's own error model at the target
// frequency (Eq. 6), a projection vector is Gibbs-sampled from the
// residual data, the area is estimated from the per-configuration area
// model, and the candidate's MSE is recomputed with least-squares
// factors. The candidates on the area/MSE Pareto front are binned into Q
// equal-width MSE bins and the least-MSE member of each bin survives to
// the next dimension (the Pareto/binning step is unchanged from the
// paper). The final Q candidates become the returned designs
// (Pareto-ordered by area); their columns may mix configurations.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "area/area_model.hpp"
#include "bayes/gibbs.hpp"
#include "charlib/error_model.hpp"
#include "common/exec_policy.hpp"
#include "core/design.hpp"
#include "linalg/matrix.hpp"

namespace oclp {

struct OptimisationSettings {
  int dims_k = 3;            ///< K
  /// Multiplier configurations each new column is tried at (the paper's
  /// wl ∈ [3, 9] array sweep is mult_config_range(MultArch::Array, 3, 9)).
  /// Every entry needs an error model and area coverage.
  std::vector<MultConfig> configs = mult_config_range(MultArch::Array, 3, 9);
  double beta = 4.0;         ///< prior hyper-parameter
  double target_freq_mhz = 310.0;
  int q = 5;                 ///< designs carried between dimensions
  int input_wordlength = 9;  ///< data word-length (area/adder estimate)
  GibbsSettings gibbs;       ///< burn-in / samples / base seed
};

/// A candidate on the area/MSE plane (Algorithm 1's Proj tuples).
struct CandidateProjection {
  LinearProjectionDesign design;
  double area = 0.0;
  double mse = 0.0;  ///< training reconstruction MSE with least-squares F
};

/// Indices of the Pareto-optimal points (min MSE for a given area).
std::vector<std::size_t> pareto_front(const std::vector<CandidateProjection>& cands);

/// Q-bin selection over (MSE_min, MSE_max): the least-MSE candidate of each
/// non-empty bin (Algorithm 1's bin step).
std::vector<std::size_t> select_by_bins(const std::vector<CandidateProjection>& cands,
                                        const std::vector<std::size_t>& pareto,
                                        int q);

class OptimisationFramework {
 public:
  /// `x_train` is the raw (uncentered) value-domain training data, P×N;
  /// `models` maps every configuration in settings.configs to its error
  /// model; `area` must cover the same configurations.
  OptimisationFramework(OptimisationSettings settings, Matrix x_train,
                        ErrorModelMap models, AreaModel area);

  /// Run Algorithm 1; returns up to Q designs sorted by area. Each
  /// dimension's chains run on the workers of `exec`, largest prior grid
  /// first, one chain per pull (the policy is also handed down to the
  /// residual GEMMs), defaulting to the global pool. Run-invariant work is
  /// hoisted: one prior per config for the whole run, one training-data
  /// residual per (dimension, parent). The designs are bitwise-independent
  /// of the policy and the schedule: jobs write distinct candidate slots
  /// and each Gibbs chain is seeded per-job.
  std::vector<LinearProjectionDesign> run(const ExecPolicy& exec = {});

  /// Data mean captured at construction (needed to evaluate the designs).
  const std::vector<double>& data_mean() const { return mu_; }

 private:
  OptimisationSettings settings_;
  Matrix x_centered_;
  std::vector<double> mu_;
  ErrorModelMap models_;
  AreaModel area_;
};

}  // namespace oclp
