#include "bayes/gibbs.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/rng.hpp"
#include "linalg/decompositions.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace oclp {

namespace {
/// Dominant eigenvalue of the (uncentered) second-moment matrix of x —
/// the natural scale of the strongest remaining mode of variation.
double dominant_eigenvalue(const Matrix& x) {
  const std::size_t n = x.cols();
  Matrix s = x * x.transposed();
  s *= 1.0 / static_cast<double>(n);
  const EigenSym eig = jacobi_eigen_sym(s);
  return eig.values.front();
}

/// Grid entries whose log-weight sits below wmax + kLogPrune are treated
/// as zero-probability by the fast path. exp() only underflows to an exact
/// 0.0 below wmax − 746, but pruning there barely pays: on Table-I data
/// the single-factor model's Ψ absorbs the unexplained modes, the λ
/// conditional is merely sharp — not razor-thin — and most of the 2^wl
/// grid still exponentiates. Pruning at −45 is what makes the grid step
/// cheap, and its effect on the draw is provably negligible: every pruned
/// entry has weight < e^−45 of the maximum (which is exactly 1), so the
/// pruned probability mass is < |grid|·e^−45 ≈ 10⁻¹⁶ of the total and a
/// draw can only differ when the uniform lands inside that sliver —
/// < 10⁻⁸ over a full Table-I run. The golden tests against
/// sample_projection_reference pin chain identity empirically.
constexpr double kLogPrune = -45.0;

/// Safety margin (in log units) added when converting kLogPrune into a
/// scoring-band radius, absorbing the rounding slop of the radius
/// computation; entries wrongly kept are scored exactly, so the margin
/// only errs towards correctness.
constexpr double kBandMargin = 2.0;

/// First grid index with value >= x (grid ascending).
std::size_t grid_lower(const std::vector<double>& grid, double x) {
  return static_cast<std::size_t>(
      std::lower_bound(grid.begin(), grid.end(), x) - grid.begin());
}

// --- Band scans ---------------------------------------------------------------
// Both variants score with the scalar code's operations in its order, and
// -ffp-contract=off keeps the lanes from fusing them, so both write the same
// lw bits. The maximum of finite values is the same in any lane order, and
// a signed-zero wmax gives the same exp(e). As in timing/lane_kernels, the
// AVX-512 clone carries a per-function target attribute, picked at run time.

std::size_t scan_scalar(const double* grid, const double* log_prior,
                        std::size_t lo, std::size_t hi, double mu, double k,
                        double* lw, std::uint32_t* idx, double* wmax) {
  *wmax = -1e300;
  for (std::size_t g = lo; g <= hi; ++g) {
    const double d = grid[g] - mu;
    lw[g] = log_prior[g] - d * d * k;
    *wmax = std::max(*wmax, lw[g]);
  }
  std::size_t n = 0;
  for (std::size_t g = lo; g <= hi; ++g) {
    idx[n] = static_cast<std::uint32_t>(g);
    n += !(lw[g] - *wmax < kLogPrune);
  }
  return n;
}

#if defined(__x86_64__)
// The tail runs masked. max(w, acc) keeps acc when w is NaN, as
// std::max(acc, w) does, and "not less than" keeps a NaN as a survivor.
__attribute__((target("avx512f")))
std::size_t scan_avx512(const double* grid, const double* log_prior,
                        std::size_t lo, std::size_t hi, double mu, double k,
                        double* lw, std::uint32_t* idx, double* wmax) {
  const std::size_t end = hi + 1;
  const auto mask = [end](std::size_t g) {
    return static_cast<__mmask8>(end - g >= 8 ? 0xFF : (1u << (end - g)) - 1);
  };
  const __m512d vmu = _mm512_set1_pd(mu), vk = _mm512_set1_pd(k);
  __m512d acc = _mm512_set1_pd(-1e300);
  for (std::size_t g = lo; g < end; g += 8) {
    const __mmask8 m = mask(g);
    const __m512d d = _mm512_sub_pd(_mm512_maskz_loadu_pd(m, grid + g), vmu);
    const __m512d w = _mm512_sub_pd(_mm512_maskz_loadu_pd(m, log_prior + g),
                                    _mm512_mul_pd(_mm512_mul_pd(d, d), vk));
    _mm512_mask_storeu_pd(lw + g, m, w);
    acc = _mm512_mask_max_pd(acc, m, w, acc);
  }
  alignas(64) double lanes[8];
  _mm512_store_pd(lanes, acc);
  *wmax = *std::max_element(lanes, lanes + 8);
  const __m512d vmax = _mm512_set1_pd(*wmax), prune = _mm512_set1_pd(kLogPrune);
  std::size_t n = 0;
  for (std::size_t g = lo; g < end; g += 8) {
    const __m512d e = _mm512_sub_pd(_mm512_maskz_loadu_pd(mask(g), lw + g), vmax);
    for (unsigned keep = _mm512_mask_cmp_pd_mask(mask(g), e, prune, _CMP_NLT_UQ);
         keep != 0; keep &= keep - 1)
      idx[n++] = static_cast<std::uint32_t>(g + std::countr_zero(keep));
  }
  return n;
}
#endif  // __x86_64__
}  // namespace

const std::vector<BandScan>& band_scans() {
  static const std::vector<BandScan> scans = [] {
    std::vector<BandScan> v{{scan_scalar, "scalar"}};
#if defined(__x86_64__)
    if (__builtin_cpu_supports("avx512f")) v.push_back({scan_avx512, "avx512f"});
#endif
    return v;
  }();
  return scans;
}

std::size_t draw_band(const BandScan& scan, const std::vector<double>& grid,
                      const double* log_prior, std::size_t lo, std::size_t hi,
                      double mu, double inv_two_var, double u, double* lw,
                      std::uint32_t* idx) {
  double wmax = 0.0;
  const std::size_t n =
      scan.scan(grid.data(), log_prior, lo, hi, mu, inv_two_var, lw, idx, &wmax);
  // A pruned entry's weight is exactly +0.0: adding it leaves the running
  // total as it was, and subtracting it leaves a positive remainder
  // positive, so the survivors alone, in index order, give the total and
  // the walk over the whole band.
  double total = 0.0;
  for (std::size_t j = 0; j < n; ++j)
    total += lw[idx[j]] = std::exp(lw[idx[j]] - wmax);
  OCLP_CHECK_MSG(std::isfinite(total), "categorical: non-finite weight total");
  OCLP_CHECK_MSG(total > 0.0, "categorical: all weights are zero");
  double rem = u * total;
  if (rem == 0.0) return lo;  // the band walk stops at its first step
  for (std::size_t j = 0; j < n; ++j)
    if ((rem -= lw[idx[j]]) <= 0.0) return idx[j];
  return grid.size() - 1;
}

GibbsResult sample_projection(const Matrix& x, const CoeffPrior& prior,
                              const GibbsSettings& settings,
                              const BandScan& scan) {
  if (settings.reference_impl) return sample_projection_reference(x, prior, settings);

  const std::size_t p = x.rows();
  const std::size_t n = x.cols();
  OCLP_CHECK(p >= 1 && n >= 2);
  OCLP_CHECK(prior.size() >= 2);
  OCLP_CHECK(settings.burn_in >= 0 && settings.samples >= 1);

  Rng rng(settings.seed);
  double fvar_prior = settings.factor_variance;
  if (fvar_prior <= 0.0) fvar_prior = std::max(dominant_eigenvalue(x), 1e-9);
  const auto& grid = prior.values();
  std::vector<double> log_prior(grid.size());
  double log_pmax = -1e300;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    log_prior[i] = std::log(std::max(prior.probability(i), 1e-300));
    log_pmax = std::max(log_pmax, log_prior[i]);
  }

  // --- iteration-invariant sufficient statistic -----------------------------
  // sum_xx[r] = Σ_i x(r,i)²: with sum_xf and sum_ff it makes the residual
  // sum of squares Σ_i (x(r,i) − λ_r f_i)² an O(1) evaluation per row.
  std::vector<double> sum_xx(p, 0.0);
  settings.exec.for_each(0, p, [&](std::size_t r) {
    const double* xr = x.data() + r * n;
    double s = 0.0;
    for (std::size_t i = 0; i < n; ++i) s += xr[i] * xr[i];
    sum_xx[r] = s;
  });

  // --- state ---------------------------------------------------------------
  std::vector<double> lambda(p);
  // Start from the data's dominant direction snapped to the grid, so short
  // chains (tests) land in the right mode quickly; the chain remains free
  // to leave it.
  {
    std::vector<double> v(p, 0.0);
    for (std::size_t r = 0; r < p; ++r)
      v[r] = std::sqrt(sum_xx[r] / static_cast<double>(n));
    const double nv = norm(v);
    for (std::size_t r = 0; r < p; ++r) {
      const double init = nv > 0.0 ? v[r] / nv : 0.0;
      lambda[r] = prior.value(prior.nearest_index(init));
    }
  }
  std::vector<double> psi(p, 0.01);
  std::vector<double> f(n, 0.0);
  std::vector<double> sum_xf(p, 0.0);

  // --- accumulators ----------------------------------------------------------
  std::vector<double> lambda_acc(p, 0.0);
  std::vector<double> psi_acc(p, 0.0);
  // Per-entry visit counts over the grid (marginal posterior histograms).
  std::vector<std::vector<std::uint32_t>> visits(p,
      std::vector<std::uint32_t>(grid.size(), 0));
  std::vector<std::size_t> last_index(p, 0);
  double loglik_acc = 0.0;

  std::vector<double> weights(grid.size());
  std::vector<std::uint32_t> survivors(grid.size());
  const int total_iters = settings.burn_in + settings.samples;
  for (int iter = 0; iter < total_iters; ++iter) {
    // -- f_i | λ, Ψ ---------------------------------------------------------
    double prec = 1.0 / fvar_prior;  // factor prior f ~ N(0, v)
    for (std::size_t r = 0; r < p; ++r) prec += lambda[r] * lambda[r] / psi[r];
    const double fvar = 1.0 / prec;
    const double fsd = std::sqrt(fvar);
    for (std::size_t i = 0; i < n; ++i) {
      double num = 0.0;
      for (std::size_t r = 0; r < p; ++r) num += lambda[r] * x(r, i) / psi[r];
      f[i] = rng.normal(num * fvar, fsd);
    }

    double sum_ff = 0.0;
    for (std::size_t i = 0; i < n; ++i) sum_ff += f[i] * f[i];

    // One fused pass over the data per iteration: sum_xf[r] = Σ_i x(r,i)·f_i
    // feeds both the Ψ scale below and the λ conditional mean afterwards
    // (the pre-restructure code recomputed it row by row in the λ step).
    // Distinct-row writes with a fixed per-row summation order, so the
    // policy cannot perturb the chain; every rng draw stays on this thread.
    settings.exec.for_each(0, p, [&](std::size_t r) {
      const double* xr = x.data() + r * n;
      double s = 0.0;
      for (std::size_t i = 0; i < n; ++i) s += xr[i] * f[i];
      sum_xf[r] = s;
    });

    // -- Ψ_p | λ, F ----------------------------------------------------------
    // Σ_i (x − λf)² = sum_xx − 2λ·sum_xf + λ²·sum_ff: O(1) per row. Clamp at
    // zero — cancellation can leave a tiny negative where the residual
    // vanishes, and the InvGamma scale must stay positive.
    for (std::size_t r = 0; r < p; ++r) {
      const double ss = std::max(
          sum_xx[r] - 2.0 * lambda[r] * sum_xf[r] + lambda[r] * lambda[r] * sum_ff,
          0.0);
      psi[r] = rng.inverse_gamma(settings.psi_shape + 0.5 * static_cast<double>(n),
                                 settings.psi_scale + 0.5 * ss);
      psi[r] = std::max(psi[r], 1e-12);
    }

    // -- λ_p | F, Ψ_p over the grid -------------------------------------------
    for (std::size_t r = 0; r < p; ++r) {
      double mu = 0.0, inv_two_var = 0.0;
      if (sum_ff > 1e-12) {
        mu = sum_xf[r] / sum_ff;
        inv_two_var = sum_ff / (2.0 * psi[r]);
      }
      // Scoring band. The exact log-weight at the grid point nearest μ is a
      // lower bound L0 on wmax, so any entry with
      //   log_pmax − d²·inv_two_var < L0 + kLogPrune − kBandMargin
      // can neither attain the maximum nor survive the prune — its score is
      // never needed. Those entries form the complement of a contiguous
      // window |grid − μ| ≤ radius (the quadratic is monotone on each side
      // of μ), found by binary search; everything outside is treated as
      // zero weight without being scored. wmax over the band equals wmax
      // over the full grid, because the excluded entries are all < L0 ≤ wmax.
      std::size_t g_lo = 0, g_hi = grid.size() - 1;
      if (inv_two_var > 0.0) {
        std::size_t g0 = grid_lower(grid, mu);
        if (g0 == grid.size()) g0 = grid.size() - 1;
        else if (g0 > 0 && mu - grid[g0 - 1] < grid[g0] - mu) --g0;
        const double d0 = grid[g0] - mu;
        const double l0 = log_prior[g0] - d0 * d0 * inv_two_var;
        const double radius =
            std::sqrt((log_pmax - l0 - kLogPrune + kBandMargin) / inv_two_var);
        g_lo = grid_lower(grid, mu - radius);
        g_hi = static_cast<std::size_t>(
                   std::upper_bound(grid.begin(), grid.end(), mu + radius) -
                   grid.begin());
        g_hi = g_hi > 0 ? g_hi - 1 : 0;
        // The nearest-to-μ point is provably inside the band (radius ≥ |d0|);
        // clamp anyway so rounding slop can never produce an empty window.
        g_lo = std::min(g_lo, g0);
        g_hi = std::max(g_hi, g0);
      }
      const std::size_t g =
          draw_band(scan, grid, log_prior.data(), g_lo, g_hi, mu, inv_two_var,
                    rng.uniform(), weights.data(), survivors.data());
      last_index[r] = g;
      lambda[r] = grid[g];
    }

    if (iter >= settings.burn_in) {
      for (std::size_t r = 0; r < p; ++r) {
        lambda_acc[r] += lambda[r];
        psi_acc[r] += psi[r];
        ++visits[r][last_index[r]];
      }
      // Log joint (up to constants) as a mixing diagnostic; the residual
      // sum of squares reuses the sufficient statistics (λ here is the
      // fresh draw, so this is not the Ψ-step value), and the λ prior term
      // reads the drawn grid index directly instead of re-searching it.
      double ll = 0.0;
      for (std::size_t r = 0; r < p; ++r) {
        const double ss = std::max(
            sum_xx[r] - 2.0 * lambda[r] * sum_xf[r] + lambda[r] * lambda[r] * sum_ff,
            0.0);
        ll += -0.5 * ss / psi[r] -
              0.5 * static_cast<double>(n) * std::log(psi[r]);
        ll += log_prior[last_index[r]];
      }
      loglik_acc += ll;
    }
  }

  GibbsResult result;
  result.lambda_mean.resize(p);
  result.lambda.resize(p);
  result.psi.resize(p);
  const double inv_s = 1.0 / static_cast<double>(settings.samples);
  for (std::size_t r = 0; r < p; ++r) {
    result.lambda_mean[r] = lambda_acc[r] * inv_s;
    std::size_t mode = 0;
    for (std::size_t g = 1; g < grid.size(); ++g)
      if (visits[r][g] > visits[r][mode]) mode = g;
    result.lambda[r] = grid[mode];
    result.psi[r] = psi_acc[r] * inv_s;
  }
  result.visits = std::move(visits);
  result.avg_log_likelihood = loglik_acc * inv_s;
  return result;
}

GibbsResult sample_projection_reference(const Matrix& x, const CoeffPrior& prior,
                                        const GibbsSettings& settings) {
  const std::size_t p = x.rows();
  const std::size_t n = x.cols();
  OCLP_CHECK(p >= 1 && n >= 2);
  OCLP_CHECK(prior.size() >= 2);
  OCLP_CHECK(settings.burn_in >= 0 && settings.samples >= 1);

  Rng rng(settings.seed);
  double fvar_prior = settings.factor_variance;
  if (fvar_prior <= 0.0) fvar_prior = std::max(dominant_eigenvalue(x), 1e-9);
  const auto& grid = prior.values();
  std::vector<double> log_prior(grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i)
    log_prior[i] = std::log(std::max(prior.probability(i), 1e-300));

  // --- state ---------------------------------------------------------------
  std::vector<double> lambda(p);
  // Start from the data's dominant direction snapped to the grid, so short
  // chains (tests) land in the right mode quickly; the chain remains free
  // to leave it.
  {
    std::vector<double> v(p, 0.0);
    for (std::size_t r = 0; r < p; ++r) {
      double s = 0.0;
      for (std::size_t i = 0; i < n; ++i) s += x(r, i) * x(r, i);
      v[r] = std::sqrt(s / static_cast<double>(n));
    }
    const double nv = norm(v);
    for (std::size_t r = 0; r < p; ++r) {
      const double init = nv > 0.0 ? v[r] / nv : 0.0;
      lambda[r] = prior.value(prior.nearest_index(init));
    }
  }
  std::vector<double> psi(p, 0.01);
  std::vector<double> f(n, 0.0);

  // --- accumulators ----------------------------------------------------------
  std::vector<double> lambda_acc(p, 0.0);
  std::vector<double> psi_acc(p, 0.0);
  // Per-entry visit counts over the grid (marginal posterior histograms).
  std::vector<std::vector<std::uint32_t>> visits(p,
      std::vector<std::uint32_t>(grid.size(), 0));
  std::vector<std::size_t> last_index(p, 0);
  double loglik_acc = 0.0;

  std::vector<double> weights(grid.size());
  const int total = settings.burn_in + settings.samples;
  for (int iter = 0; iter < total; ++iter) {
    // -- f_i | λ, Ψ ---------------------------------------------------------
    double prec = 1.0 / fvar_prior;  // factor prior f ~ N(0, v)
    for (std::size_t r = 0; r < p; ++r) prec += lambda[r] * lambda[r] / psi[r];
    const double fvar = 1.0 / prec;
    const double fsd = std::sqrt(fvar);
    for (std::size_t i = 0; i < n; ++i) {
      double num = 0.0;
      for (std::size_t r = 0; r < p; ++r) num += lambda[r] * x(r, i) / psi[r];
      f[i] = rng.normal(num * fvar, fsd);
    }

    double sum_ff = 0.0;
    for (std::size_t i = 0; i < n; ++i) sum_ff += f[i] * f[i];

    // -- Ψ_p | λ, F ----------------------------------------------------------
    for (std::size_t r = 0; r < p; ++r) {
      double ss = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        const double res = x(r, i) - lambda[r] * f[i];
        ss += res * res;
      }
      psi[r] = rng.inverse_gamma(settings.psi_shape + 0.5 * static_cast<double>(n),
                                 settings.psi_scale + 0.5 * ss);
      psi[r] = std::max(psi[r], 1e-12);
    }

    // -- λ_p | F, Ψ_p over the grid -------------------------------------------
    for (std::size_t r = 0; r < p; ++r) {
      double sum_xf = 0.0;
      for (std::size_t i = 0; i < n; ++i) sum_xf += x(r, i) * f[i];
      double mu = 0.0, inv_two_var = 0.0;
      if (sum_ff > 1e-12) {
        mu = sum_xf / sum_ff;
        inv_two_var = sum_ff / (2.0 * psi[r]);
      }
      double wmax = -1e300;
      for (std::size_t g = 0; g < grid.size(); ++g) {
        const double d = grid[g] - mu;
        const double lw = log_prior[g] - d * d * inv_two_var;
        weights[g] = lw;
        wmax = std::max(wmax, lw);
      }
      for (auto& w : weights) w = std::exp(w - wmax);
      const std::size_t g = rng.categorical(weights);
      last_index[r] = g;
      lambda[r] = grid[g];
    }

    if (iter >= settings.burn_in) {
      for (std::size_t r = 0; r < p; ++r) {
        lambda_acc[r] += lambda[r];
        psi_acc[r] += psi[r];
        ++visits[r][last_index[r]];
      }
      // Log joint (up to constants) as a mixing diagnostic.
      double ll = 0.0;
      for (std::size_t r = 0; r < p; ++r) {
        double ss = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
          const double res = x(r, i) - lambda[r] * f[i];
          ss += res * res;
        }
        ll += -0.5 * ss / psi[r] -
              0.5 * static_cast<double>(n) * std::log(psi[r]);
        ll += log_prior[prior.nearest_index(lambda[r])];
      }
      loglik_acc += ll;
    }
  }

  GibbsResult result;
  result.lambda_mean.resize(p);
  result.lambda.resize(p);
  result.psi.resize(p);
  const double inv_s = 1.0 / static_cast<double>(settings.samples);
  for (std::size_t r = 0; r < p; ++r) {
    result.lambda_mean[r] = lambda_acc[r] * inv_s;
    std::size_t mode = 0;
    for (std::size_t g = 1; g < grid.size(); ++g)
      if (visits[r][g] > visits[r][mode]) mode = g;
    result.lambda[r] = grid[mode];
    result.psi[r] = psi_acc[r] * inv_s;
  }
  result.visits = std::move(visits);
  result.avg_log_likelihood = loglik_acc * inv_s;
  return result;
}

}  // namespace oclp
