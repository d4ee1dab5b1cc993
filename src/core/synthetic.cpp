#include "core/synthetic.hpp"

#include <algorithm>
#include <cmath>

#include "common/rng.hpp"
#include "linalg/decompositions.hpp"

namespace oclp {

Matrix make_synthetic_dataset(const SyntheticDataConfig& cfg) {
  OCLP_CHECK(cfg.dims_p >= 1 && cfg.cases >= 2);
  OCLP_CHECK(cfg.latent_k >= 1 && cfg.latent_k <= cfg.dims_p);
  // Loading directions come from the structure seed only, so data sets
  // with different sample seeds live in the same latent subspace.
  Rng structure_rng(hash_mix(cfg.structure_seed, cfg.dims_p, cfg.latent_k));
  Matrix a(cfg.dims_p, cfg.latent_k);
  for (std::size_t r = 0; r < cfg.dims_p; ++r)
    for (std::size_t c = 0; c < cfg.latent_k; ++c) a(r, c) = structure_rng.normal();
  a = gram_schmidt(a);

  Rng rng(hash_mix(cfg.seed, cfg.dims_p, cfg.cases));

  std::vector<double> mode_sd(cfg.latent_k);
  for (std::size_t c = 0; c < cfg.latent_k; ++c)
    mode_sd[c] = cfg.latent_scale * std::pow(cfg.latent_decay, static_cast<double>(c));

  Matrix x(cfg.dims_p, cfg.cases);
  for (std::size_t i = 0; i < cfg.cases; ++i) {
    std::vector<double> sample(cfg.dims_p, 0.5);  // centre of the input range
    for (std::size_t c = 0; c < cfg.latent_k; ++c) {
      const double z = rng.normal(0.0, mode_sd[c]);
      for (std::size_t r = 0; r < cfg.dims_p; ++r) sample[r] += z * a(r, c);
    }
    for (std::size_t r = 0; r < cfg.dims_p; ++r) {
      sample[r] += rng.normal(0.0, cfg.noise);
      x(r, i) = std::clamp(sample[r], 0.0, 1.0 - 1e-9);
    }
  }
  return x;
}

std::uint32_t encode_code(double x, int wl_x) {
  OCLP_CHECK(wl_x >= 1 && wl_x <= 16);
  OCLP_DCHECK(x >= 0.0);
  const auto c = static_cast<std::uint64_t>(
      std::llround(x * static_cast<double>(1u << wl_x)));
  return static_cast<std::uint32_t>(
      std::min<std::uint64_t>(c, (std::uint64_t{1} << wl_x) - 1));
}

std::vector<std::uint32_t> encode_input(const std::vector<double>& x, int wl_x) {
  std::vector<std::uint32_t> codes(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) codes[i] = encode_code(x[i], wl_x);
  return codes;
}

}  // namespace oclp
