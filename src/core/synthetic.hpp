// Synthetic data generation standing in for the paper's case-study data.
//
// The paper projects ℤ⁶ → ℤ³ with 9-bit input data; the actual data source
// is unspecified (image-processing-like streams). We generate data with a
// controlled low-rank structure — K_eff strong latent directions plus
// isotropic noise, shifted and scaled into the unsigned 9-bit input range —
// which is exactly the regime where a K-dimensional linear projection is
// meaningful, and keeps every experiment deterministic.
#pragma once

#include <cstdint>

#include "linalg/matrix.hpp"

namespace oclp {

struct SyntheticDataConfig {
  std::size_t dims_p = 6;
  std::size_t cases = 1000;
  std::size_t latent_k = 3;      ///< number of strong modes of variation
  double latent_decay = 0.55;    ///< eigenvalue ratio between modes
  double latent_scale = 0.16;    ///< stddev of the strongest mode (value units)
  double noise = 0.002;          ///< isotropic residual noise stddev
  /// Seed of the latent structure (loading directions). Training and test
  /// sets of one experiment must share it — they are draws from the same
  /// population — while `seed` varies per draw.
  std::uint64_t structure_seed = 2014;
  std::uint64_t seed = 42;       ///< seed of the sampled cases
};

/// P×N data matrix with values in [0, 1) (one case per column).
Matrix make_synthetic_dataset(const SyntheticDataConfig& cfg);

/// Quantise one value in [0, 1) to an unsigned `wl_x`-bit input code
/// (rounded to nearest, clamped to the top code).
std::uint32_t encode_code(double x, int wl_x);

/// Quantise one value-domain sample to unsigned `wl_x`-bit input codes.
std::vector<std::uint32_t> encode_input(const std::vector<double>& x, int wl_x);

}  // namespace oclp
