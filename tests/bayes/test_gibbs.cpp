#include "bayes/gibbs.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/rng.hpp"
#include "golden_checksum.hpp"

namespace oclp {
namespace {

MultConfig acfg(int wl) { return MultConfig{MultArch::Array, wl, 1}; }

// Centered rank-1 data x_i = u z_i + noise with a planted unit direction.
Matrix rank1_data(const std::vector<double>& direction, std::size_t n,
                  double mode_sd, double noise, std::uint64_t seed) {
  Rng rng(seed);
  const auto u = normalized(direction);
  Matrix x(u.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    const double z = rng.normal(0.0, mode_sd);
    for (std::size_t r = 0; r < u.size(); ++r)
      x(r, i) = z * u[r] + rng.normal(0.0, noise);
  }
  return x;
}

GibbsSettings fast_settings(std::uint64_t seed) {
  GibbsSettings s;
  s.burn_in = 150;
  s.samples = 400;
  s.seed = seed;
  return s;
}

TEST(Gibbs, RecoversPlantedDirectionUpToQuantisation) {
  const std::vector<double> dir{0.6, -0.3, 0.65, 0.1, -0.2, 0.28};
  const Matrix x = rank1_data(dir, 200, 0.2, 0.01, 3);
  const auto prior = make_flat_prior(acfg(7), 310.0);
  const auto res = sample_projection(x, prior, fast_settings(5));

  const auto u = normalized(dir);
  const double nl = norm(res.lambda);
  ASSERT_GT(nl, 0.5);  // near unit norm thanks to the anchored factor prior
  ASSERT_LT(nl, 1.3);
  double cosine = std::abs(dot(u, res.lambda)) / nl;
  EXPECT_GT(cosine, 0.995);
}

TEST(Gibbs, LambdaValuesAreOnTheGrid) {
  const Matrix x = rank1_data({1, 2, -1}, 100, 0.2, 0.02, 7);
  const auto prior = make_flat_prior(acfg(4), 310.0);
  const auto res = sample_projection(x, prior, fast_settings(9));
  for (double v : res.lambda) {
    const auto idx = prior.nearest_index(v);
    EXPECT_DOUBLE_EQ(prior.value(idx), v);
  }
}

TEST(Gibbs, DeterministicInSeed) {
  const Matrix x = rank1_data({1, -1, 2}, 80, 0.2, 0.02, 11);
  const auto prior = make_flat_prior(acfg(5), 310.0);
  const auto a = sample_projection(x, prior, fast_settings(42));
  const auto b = sample_projection(x, prior, fast_settings(42));
  EXPECT_EQ(a.lambda, b.lambda);
  EXPECT_EQ(a.lambda_mean, b.lambda_mean);
}

TEST(Gibbs, DifferentSeedsStillAgreeOnTheMode) {
  const Matrix x = rank1_data({2, 1, -1, 0.5}, 300, 0.25, 0.01, 13);
  const auto prior = make_flat_prior(acfg(6), 310.0);
  const auto a = sample_projection(x, prior, fast_settings(1));
  const auto b = sample_projection(x, prior, fast_settings(2));
  // Directions must agree even though chains differ.
  const double cosine = std::abs(dot(a.lambda, b.lambda)) /
                        (norm(a.lambda) * norm(b.lambda));
  EXPECT_GT(cosine, 0.98);
}

TEST(Gibbs, HardPriorExcludesForbiddenCodesOnWeakData) {
  // Forbid all codes with |value| > 0.5. On weak (noise-only) data the
  // likelihood is flat, so the posterior follows the prior and the
  // forbidden half of the grid must never be sampled. (On strong data the
  // prior is a soft penalty by design — the objective T trades errors for
  // accuracy — so exclusion is only guaranteed when the data does not
  // overwhelmingly demand a forbidden code.)
  ErrorModel model(acfg(5), 9, {310.0});
  for (std::uint32_t m = 0; m < 32; ++m)
    model.set(m, 0, m > 16 ? 1e9 : 0.0, 0.0, 0.0);
  const auto prior = make_prior(model, acfg(5), 310.0, 8.0);

  Rng rng(17);
  Matrix x(3, 150);
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 150; ++c) x(r, c) = rng.normal(0.0, 0.02);
  const auto res = sample_projection(x, prior, fast_settings(19));
  for (double v : res.lambda) EXPECT_LE(std::abs(v), 16.0 / 32.0 + 1e-12);
}

TEST(Gibbs, PriorShiftsPosteriorAwayFromPenalisedCodes) {
  // Same data, hard vs flat prior: the hard prior must strictly reduce the
  // use of penalised codes.
  ErrorModel model(acfg(6), 9, {310.0});
  for (std::uint32_t m = 0; m < 64; ++m)
    model.set(m, 0, (m % 2 == 1) ? 1e8 : 0.0, 0.0, 0.0);  // odd codes dirty
  const auto hard = make_prior(model, acfg(6), 310.0, 6.0);
  const auto flat = make_flat_prior(acfg(6), 310.0);

  const Matrix x = rank1_data({0.9, -0.5, 0.7, 0.3}, 250, 0.25, 0.02, 21);
  const auto res_hard = sample_projection(x, hard, fast_settings(23));
  const auto res_flat = sample_projection(x, flat, fast_settings(23));

  auto dirty_count = [](const std::vector<double>& lambda) {
    int n = 0;
    for (double v : lambda) {
      const auto mag = static_cast<unsigned>(std::lround(std::abs(v) * 64.0));
      if (mag % 2 == 1) ++n;
    }
    return n;
  };
  EXPECT_EQ(dirty_count(res_hard.lambda), 0);
  // The flat prior has no reason to avoid odd codes for this direction.
  EXPECT_GT(dirty_count(res_flat.lambda), 0);
}

TEST(Gibbs, PsiEstimatesNoiseScale) {
  const double noise = 0.05;
  const Matrix x = rank1_data({1, 1, 1, 1}, 500, 0.3, noise, 23);
  const auto prior = make_flat_prior(acfg(7), 310.0);
  auto settings = fast_settings(29);
  settings.burn_in = 300;
  settings.samples = 700;
  const auto res = sample_projection(x, prior, settings);
  for (double psi : res.psi) {
    EXPECT_GT(psi, noise * noise * 0.3);
    EXPECT_LT(psi, noise * noise * 5.0);
  }
}

TEST(Gibbs, InputValidation) {
  const auto prior = make_flat_prior(acfg(4), 310.0);
  EXPECT_THROW(sample_projection(Matrix(3, 1), prior, fast_settings(1)),
               CheckError);  // too few cases
  GibbsSettings bad = fast_settings(1);
  bad.samples = 0;
  EXPECT_THROW(sample_projection(Matrix(3, 10, 0.5), prior, bad), CheckError);
}

TEST(Gibbs, LogLikelihoodIsFinite) {
  const Matrix x = rank1_data({1, -2}, 100, 0.2, 0.02, 31);
  const auto prior = make_flat_prior(acfg(5), 310.0);
  const auto res = sample_projection(x, prior, fast_settings(33));
  EXPECT_TRUE(std::isfinite(res.avg_log_likelihood));
}

TEST(Gibbs, VisitHistogramShapeAndMass) {
  const Matrix x = rank1_data({1, -1, 0.5}, 120, 0.2, 0.02, 35);
  const auto prior = make_flat_prior(acfg(5), 310.0);
  const auto settings = fast_settings(37);
  const auto res = sample_projection(x, prior, settings);
  ASSERT_EQ(res.visits.size(), x.rows());
  for (const auto& row : res.visits) {
    ASSERT_EQ(row.size(), prior.size());
    std::uint64_t mass = 0;
    for (auto v : row) mass += v;
    EXPECT_EQ(mass, static_cast<std::uint64_t>(settings.samples));
  }
}

// Golden determinism contract: the restructured sampler must reproduce the
// retained reference implementation draw for draw. The discrete chain (λ
// draws, hence the per-entry visit counts) is required to be bitwise
// identical; the continuous outputs go through an algebraically equivalent
// O(1) sufficient-statistics form, so they are pinned to a few ulps.
TEST(Gibbs, FastPathMatchesReferenceBitwise) {
  for (const int wl : {3, 6, 9}) {
    for (const std::uint64_t seed : {5ull, 17ull}) {
      const Matrix x =
          rank1_data({0.6, -0.3, 0.65, 0.1, -0.2, 0.28}, 100, 0.2, 0.02, seed);
      const auto prior = make_flat_prior(acfg(wl), 310.0);
      const auto settings = fast_settings(seed * 7 + 1);
      const auto fast = sample_projection(x, prior, settings);
      auto ref_settings = settings;
      ref_settings.reference_impl = true;
      const auto ref = sample_projection(x, prior, ref_settings);

      EXPECT_EQ(fast.lambda, ref.lambda) << "wl=" << wl << " seed=" << seed;
      EXPECT_EQ(fast.visits, ref.visits) << "wl=" << wl << " seed=" << seed;
      ASSERT_EQ(fast.psi.size(), ref.psi.size());
      for (std::size_t r = 0; r < ref.psi.size(); ++r) {
        EXPECT_NEAR(fast.psi[r], ref.psi[r], std::abs(ref.psi[r]) * 1e-12);
        EXPECT_NEAR(fast.lambda_mean[r], ref.lambda_mean[r],
                    std::abs(ref.lambda_mean[r]) * 1e-12 + 1e-15);
      }
      EXPECT_NEAR(fast.avg_log_likelihood, ref.avg_log_likelihood,
                  std::abs(ref.avg_log_likelihood) * 1e-12);
    }
  }
}

TEST(Gibbs, HardwarePriorChainMatchesReferenceBitwise) {
  // Same contract under a non-flat prior, where the fast path's scoring
  // band is widest (the prior spreads the log-weights).
  ErrorModel model(acfg(7), 9, {310.0});
  Rng noise(47);
  for (std::uint32_t m = 0; m < 128; ++m)
    model.set(m, 0, noise.uniform() * 1e6, 0.0, 0.0);
  const auto prior = make_prior(model, acfg(7), 310.0, 4.0);
  const Matrix x = rank1_data({0.9, -0.5, 0.7, 0.3}, 100, 0.2, 0.02, 49);
  const auto settings = fast_settings(51);
  const auto fast = sample_projection(x, prior, settings);
  auto ref_settings = settings;
  ref_settings.reference_impl = true;
  const auto ref = sample_projection(x, prior, ref_settings);
  EXPECT_EQ(fast.lambda, ref.lambda);
  EXPECT_EQ(fast.visits, ref.visits);
}

// Golden checksums of the fast sampler's own outputs. The reference
// comparison above pins only the discrete draws; these pin λ, λ-mean, Ψ,
// the visit histograms and the log-likelihood bit for bit, so a rewrite of
// the λ step cannot move any of them by an ulp. The priors come from random
// error tables, which keep the scoring band wide.
struct GoldenCase {
  int wl;
  double beta;
  std::uint64_t seed;
  std::uint64_t checksum;
};

constexpr GoldenCase kGoldenCases[] = {
    {3, 4.0, 51, 0x591af1f6fcec938eull}, {3, 4.0, 77, 0x20028c4633b748d6ull},
    {3, 8.0, 51, 0x29eb9f27eff19e56ull}, {3, 8.0, 77, 0xfc76679a2fdb86cfull},
    {5, 4.0, 51, 0x098d6692c050de16ull}, {5, 4.0, 77, 0x82a5c84b7f641bdeull},
    {5, 8.0, 51, 0x1333d33c6e767ef0ull}, {5, 8.0, 77, 0x33f55500214c7949ull},
    {7, 4.0, 51, 0x28cd88446d09dd18ull}, {7, 4.0, 77, 0xd9ada6ce427e470eull},
    {7, 8.0, 51, 0x6c394cf406838ef7ull}, {7, 8.0, 77, 0xcccac9fe654035d5ull},
    {9, 4.0, 51, 0xbd5f69550cc2f38full}, {9, 4.0, 77, 0x95c883bf9390f511ull},
    {9, 8.0, 51, 0xd0e5d862e064f93full}, {9, 8.0, 77, 0x9f26e1abdf363febull},
};

std::uint64_t golden_checksum(const GoldenCase& c, const BandScan& scan) {
  ErrorModel model(acfg(c.wl), 9, {310.0});
  Rng noise(47);
  for (std::uint32_t m = 0; m < (1u << c.wl); ++m)
    model.set(m, 0, noise.uniform() * 1e6, 0.0, 0.0);
  const auto prior = make_prior(model, acfg(c.wl), 310.0, c.beta);
  const Matrix x = rank1_data({0.9, -0.5, 0.7, 0.3}, 100, 0.2, 0.02, c.seed);
  const auto res = sample_projection(x, prior, fast_settings(c.seed), scan);

  testing_golden::Fnv1a f;
  for (const double v : res.lambda) f.mix(v);
  for (const double v : res.lambda_mean) f.mix(v);
  for (const double v : res.psi) f.mix(v);
  for (const auto& row : res.visits)
    for (const std::uint32_t v : row) f.mix(std::uint64_t{v});
  f.mix(res.avg_log_likelihood);
  return f.h;
}

TEST(Gibbs, FastSamplerKeepsItsGoldenChecksums) {
  // Every band scan this CPU runs, the scalar one included, not just the
  // one sample_projection picks.
  for (const BandScan& scan : band_scans())
    for (const auto& c : kGoldenCases) {
      const std::uint64_t got = golden_checksum(c, scan);
      EXPECT_EQ(got, c.checksum) << scan.isa << " wl=" << c.wl << " beta="
                                 << c.beta << " seed=" << c.seed << std::hex
                                 << " got 0x" << got;
    }
}

// The λ draw as the sampler made it before the band scan was split into
// passes: score the band, exponentiate with the −45 prune, and walk every
// band entry, pruned ones included.
std::size_t whole_band_draw(const std::vector<double>& grid,
                            const std::vector<double>& log_prior,
                            std::size_t lo, std::size_t hi, double mu,
                            double k, double u) {
  std::vector<double> w(grid.size(), 0.0);
  double wmax = -1e300;
  for (std::size_t g = lo; g <= hi; ++g) {
    const double d = grid[g] - mu;
    w[g] = log_prior[g] - d * d * k;
    wmax = std::max(wmax, w[g]);
  }
  double total = 0.0;
  for (std::size_t g = lo; g <= hi; ++g) {
    const double e = w[g] - wmax;
    w[g] = e < -45.0 ? 0.0 : std::exp(e);
    total += w[g];
  }
  double rem = u * total;
  for (std::size_t g = lo; g <= hi; ++g)
    if ((rem -= w[g]) <= 0.0) return g;
  return grid.size() - 1;
}

std::size_t draw(const BandScan& scan, const std::vector<double>& grid,
                 const std::vector<double>& log_prior, std::size_t lo,
                 std::size_t hi, double mu, double k, double u) {
  std::vector<double> lw(grid.size());
  std::vector<std::uint32_t> idx(grid.size());
  return draw_band(scan, grid, log_prior.data(), lo, hi, mu, k, u, lw.data(),
                   idx.data());
}

// A random band: grids of every word-length, so band lengths hit every
// residue modulo the vector widths, and log-priors spread wide enough that
// some entries fall to the prune and some survive it.
struct RandomBand {
  std::vector<double> grid, log_prior;
  std::size_t lo = 0, hi = 0;
  double mu = 0.0, k = 0.0;
};

RandomBand random_band(Rng& rng, int trial) {
  RandomBand b;
  b.grid = make_flat_prior(acfg(3 + trial % 7), 310.0).values();
  for (std::size_t g = 0; g < b.grid.size(); ++g)
    b.log_prior.push_back(-rng.uniform(0.0, 80.0));
  b.lo = rng.uniform_u64(b.grid.size());
  b.hi = rng.uniform_u64(b.grid.size());
  if (b.lo > b.hi) std::swap(b.lo, b.hi);
  b.mu = rng.uniform(-1.0, 1.0);
  b.k = rng.uniform(0.0, 500.0);
  return b;
}

TEST(Gibbs, BandDrawMatchesTheWholeBandWalk) {
  Rng rng(61);
  for (const BandScan& scan : band_scans())
    for (int trial = 0; trial < 500; ++trial) {
      const RandomBand b = random_band(rng, trial);
      const double u = trial % 50 == 0 ? 0.0 : rng.uniform();
      ASSERT_EQ(draw(scan, b.grid, b.log_prior, b.lo, b.hi, b.mu, b.k, u),
                whole_band_draw(b.grid, b.log_prior, b.lo, b.hi, b.mu, b.k, u))
          << scan.isa << " trial " << trial;
    }
}

TEST(Gibbs, BandScansMatchTheScalarScoresBitForBit) {
  // Every variant's scores, maximum and survivors against the scalar
  // expression. A clone that fused d·d·k and the subtraction into an FMA
  // would move score bits that a draw exposes only rarely.
  Rng rng(67);
  for (const BandScan& scan : band_scans())
    for (int trial = 0; trial < 300; ++trial) {
      const RandomBand b = random_band(rng, trial);
      std::vector<double> lw(b.grid.size());
      std::vector<std::uint32_t> idx(b.grid.size());
      double wmax = 0.0;
      idx.resize(scan.scan(b.grid.data(), b.log_prior.data(), b.lo, b.hi, b.mu,
                           b.k, lw.data(), idx.data(), &wmax));

      double ref_max = -1e300;
      for (std::size_t g = b.lo; g <= b.hi; ++g) {
        const double d = b.grid[g] - b.mu;
        const double ref = b.log_prior[g] - d * d * b.k;
        ASSERT_EQ(std::bit_cast<std::uint64_t>(lw[g]),
                  std::bit_cast<std::uint64_t>(ref))
            << scan.isa << " trial " << trial << " g " << g;
        ref_max = std::max(ref_max, ref);
      }
      ASSERT_EQ(wmax, ref_max) << scan.isa << " trial " << trial;
      std::vector<std::uint32_t> ref_idx;
      for (std::size_t g = b.lo; g <= b.hi; ++g)
        if (!(lw[g] - ref_max < -45.0))
          ref_idx.push_back(static_cast<std::uint32_t>(g));
      ASSERT_EQ(idx, ref_idx) << scan.isa << " trial " << trial;
    }
}

TEST(Gibbs, BandDrawEdgeCases) {
  // inv_two_var = 0 makes every score its log-prior, so the weights are
  // set by hand: exp(0) = 1 exactly, and −100 falls to the prune.
  const auto grid = make_flat_prior(acfg(3), 310.0).values();  // 15 entries
  const std::size_t last = grid.size() - 1;
  for (const BandScan& scan : band_scans()) {
    SCOPED_TRACE(scan.isa);
    std::vector<double> lp(grid.size(), -100.0);
    lp[6] = 0.0;
    // One survivor: every positive uniform lands on it.
    for (const double u : {1e-9, 0.5, 0.999})
      EXPECT_EQ(draw(scan, grid, lp, 2, 11, 0.0, 0.0, u), 6u);
    // u·W == 0: the walk stops at its first step, on the band's first
    // index, even though that entry was pruned.
    EXPECT_EQ(draw(scan, grid, lp, 2, 11, 0.0, 0.0, 0.0), 2u);

    // The whole grid as the band is Rng::categorical's draw.
    std::vector<double> w(grid.size(), 0.0);
    double total = 0.0;
    for (std::size_t g = 0; g < grid.size(); ++g) {
      lp[g] = -0.5 * static_cast<double>(g % 5);
      total += w[g] = std::exp(lp[g]);
    }
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      Rng a(seed), b(seed);
      EXPECT_EQ(draw(scan, grid, lp, 0, last, 0.0, 0.0, a.uniform()),
                b.categorical(w, total));
    }

    // Rounding fall-through. Eight weights of ~0.75 ulp(1) after a 1: each
    // add to the running total rounds up a whole ulp, so W = 1 + 8 ulp,
    // while the walk subtracts only ~6 ulp of them from u·W = 1 + 7 ulp and
    // ends positive. The draw is then the grid's last index, pruned or not.
    std::fill(lp.begin(), lp.end(), -100.0);
    lp[0] = 0.0;
    std::fill(lp.begin() + 1, lp.begin() + 9, std::log(0.75 * 0x1p-52));
    const double u_max = std::nextafter(1.0, 0.0);
    EXPECT_EQ(whole_band_draw(grid, lp, 0, last, 0.0, 0.0, u_max), last);
    EXPECT_EQ(draw(scan, grid, lp, 0, last, 0.0, 0.0, u_max), last);

    // A NaN μ makes the total NaN, and a band whose scores are all −∞
    // makes it zero: both are errors, not a silent last-bin draw.
    EXPECT_THROW(draw(scan, grid, lp, 0, last, std::nan(""), 1.0, 0.5),
                 CheckError);
    std::fill(lp.begin(), lp.end(), -std::numeric_limits<double>::infinity());
    EXPECT_THROW(draw(scan, grid, lp, 0, last, 0.0, 0.0, 0.5), CheckError);
  }
}

TEST(Gibbs, FastAndReferencePosteriorMarginalsAgreeAcrossSeeds) {
  // Statistical equivalence on independent chains: fast and reference
  // sampling processes with different seeds must estimate the same
  // posterior marginals (they are the same Markov kernel).
  const Matrix x = rank1_data({0.7, -0.4, 0.55}, 300, 0.25, 0.02, 53);
  const auto prior = make_flat_prior(acfg(6), 310.0);
  auto settings = fast_settings(55);
  settings.burn_in = 300;
  settings.samples = 1500;
  const auto fast = sample_projection(x, prior, settings);
  auto ref_settings = settings;
  ref_settings.seed = 56;  // independent chain
  ref_settings.reference_impl = true;
  const auto ref = sample_projection(x, prior, ref_settings);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    EXPECT_NEAR(fast.lambda_mean[r], ref.lambda_mean[r], 0.05);
    EXPECT_NEAR(fast.psi[r], ref.psi[r], std::abs(ref.psi[r]) * 0.5);
  }
}

}  // namespace
}  // namespace oclp
