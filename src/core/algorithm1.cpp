#include "core/algorithm1.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <numeric>

#include "bayes/prior.hpp"
#include "common/rng.hpp"
#include "core/objective.hpp"
#include "linalg/decompositions.hpp"

namespace oclp {

namespace {
constexpr double kRidge = 1e-10;
}

std::vector<std::size_t> pareto_front(const std::vector<CandidateProjection>& cands) {
  // Sort by area ascending (ties: MSE ascending); sweep keeping strictly
  // improving MSE — the classic min-min staircase.
  std::vector<std::size_t> order(cands.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (cands[a].area != cands[b].area) return cands[a].area < cands[b].area;
    return cands[a].mse < cands[b].mse;
  });
  std::vector<std::size_t> front;
  double best_mse = std::numeric_limits<double>::infinity();
  for (auto i : order) {
    if (cands[i].mse < best_mse) {
      front.push_back(i);
      best_mse = cands[i].mse;
    }
  }
  return front;
}

std::vector<std::size_t> select_by_bins(const std::vector<CandidateProjection>& cands,
                                        const std::vector<std::size_t>& pareto,
                                        int q) {
  OCLP_CHECK(q >= 1);
  if (pareto.empty()) return {};
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (auto i : pareto) {
    lo = std::min(lo, cands[i].mse);
    hi = std::max(hi, cands[i].mse);
  }
  if (!(hi > lo)) {
    // Degenerate MSE range: a single bin, one survivor.
    return {pareto.front()};
  }
  std::vector<std::size_t> chosen;
  std::vector<bool> filled(static_cast<std::size_t>(q), false);
  std::vector<std::size_t> best(static_cast<std::size_t>(q), 0);
  for (auto i : pareto) {
    auto bin = static_cast<std::size_t>(
        std::floor((cands[i].mse - lo) / (hi - lo) * q));
    if (bin >= static_cast<std::size_t>(q)) bin = static_cast<std::size_t>(q) - 1;
    if (!filled[bin] || cands[i].mse < cands[best[bin]].mse) {
      filled[bin] = true;
      best[bin] = i;
    }
  }
  for (std::size_t b = 0; b < static_cast<std::size_t>(q); ++b)
    if (filled[b]) chosen.push_back(best[b]);
  return chosen;
}

OptimisationFramework::OptimisationFramework(OptimisationSettings settings,
                                             Matrix x_train,
                                             ErrorModelMap models,
                                             AreaModel area)
    : settings_(std::move(settings)),
      x_centered_(std::move(x_train)),
      models_(std::move(models)),
      area_(std::move(area)) {
  OCLP_CHECK(settings_.dims_k >= 1);
  OCLP_CHECK_MSG(!settings_.configs.empty(),
                 "the configuration search list is empty");
  OCLP_CHECK(settings_.beta > 0.0 && settings_.target_freq_mhz > 0.0);
  OCLP_CHECK(settings_.q >= 1);
  OCLP_CHECK(x_centered_.rows() >= static_cast<std::size_t>(settings_.dims_k));
  OCLP_CHECK(x_centered_.cols() >= 2);
  for (const auto& config : settings_.configs) {
    const auto it = models_.find(config);
    OCLP_CHECK_MSG(it != models_.end(), "missing error model for " << config);
    it->second.require_config(config, "optimisation framework");
    OCLP_CHECK_MSG(area_.covers(config), "area model lacks " << config);
  }
  mu_ = center_rows(x_centered_);
}

std::vector<LinearProjectionDesign> OptimisationFramework::run(
    const ExecPolicy& exec) {
  const auto p = x_centered_.rows();
  const std::size_t num_cfg = settings_.configs.size();

  // The prior depends only on (config, target frequency, β) — never on the
  // dimension or the parent — so each configuration's prior is built once
  // for the whole run instead of once per (parent × config) job.
  std::vector<CoeffPrior> priors;
  priors.reserve(num_cfg);
  for (const auto& config : settings_.configs)
    priors.push_back(make_prior(models_.at(config), config,
                                settings_.target_freq_mhz, settings_.beta));

  // Parents carried between dimensions; dimension 1 grows from the empty
  // design.
  std::vector<LinearProjectionDesign> parents(1);
  parents[0].target_freq_mhz = settings_.target_freq_mhz;

  for (int d = 0; d < settings_.dims_k; ++d) {
    const std::size_t jobs = parents.size() * num_cfg;
    std::vector<CandidateProjection> candidates(jobs);
    // One byte per flag: workers write distinct elements concurrently, and
    // std::vector<bool>'s bit packing would make that a data race.
    std::vector<std::uint8_t> valid(jobs, 0);

    // The residual of the training data under a parent's columns depends
    // only on the parent, so it is computed once per dimension here rather
    // than once per config job (a num_cfg-fold reduction of the
    // projection_factors + GEMM work). All config jobs of a parent
    // then read the shared matrix concurrently.
    std::vector<Matrix> residuals(parents.size());
    exec.for_each(0, parents.size(), [&](std::size_t parent_idx) {
      const LinearProjectionDesign& parent = parents[parent_idx];
      Matrix residual = x_centered_;
      if (!parent.columns.empty()) {
        const Matrix basis = parent.basis();
        const Matrix f = projection_factors(basis, x_centered_, kRidge);
        // Same policy one layer down; a pooled policy invoked from inside
        // its own pool runs inline, so this nests safely.
        residual -= multiply(basis, f, exec);
      }
      residuals[parent_idx] = std::move(residual);
    });

    const auto run_job = [&](std::size_t job) {
      const std::size_t parent_idx = job / num_cfg;
      const std::size_t cfg_idx = job % num_cfg;
      const MultConfig& config = settings_.configs[cfg_idx];
      const LinearProjectionDesign& parent = parents[parent_idx];
      const Matrix& residual = residuals[parent_idx];
      const CoeffPrior& prior = priors[cfg_idx];

      GibbsSettings gibbs = settings_.gibbs;
      // Seeded by the config's grid resolution, not its list index, so
      // reordering or widening the search list never reshuffles the chains
      // of configurations that were already in it.
      gibbs.seed = hash_mix(settings_.gibbs.seed,
                            static_cast<std::uint64_t>(d) << 32 | parent_idx,
                            hash_mix(static_cast<std::uint64_t>(config.wordlength),
                                     static_cast<std::uint64_t>(config.arch),
                                     static_cast<std::uint64_t>(config.pipeline_depth)));
      const GibbsResult sample = sample_projection(residual, prior, gibbs);

      DesignColumn col = make_column(sample.lambda, config);
      if (col.is_zero()) return;  // degenerate projection: drop candidate

      CandidateProjection cand;
      cand.design = parent;
      cand.design.columns.push_back(std::move(col));

      const Matrix basis = cand.design.basis();
      const Matrix f = projection_factors(basis, x_centered_, kRidge);
      cand.mse = reconstruction_mse(x_centered_, basis, f);

      double area = 0.0;
      for (const auto& c : cand.design.columns)
        area += area_.column_estimate(c.config, static_cast<int>(p),
                                      settings_.input_wordlength);
      cand.area = area;

      cand.design.training_mse = cand.mse;
      cand.design.area_estimate = cand.area;
      candidates[job] = std::move(cand);
      valid[job] = 1;
    };
    // Longest chain first: a chain's cost grows with its prior's grid
    // (Eqs. 7-8), so chains go out largest grid first, ties in job order,
    // each item pulling the next one off a shared cursor when it starts.
    std::vector<std::size_t> order(jobs);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return priors[a % num_cfg].size() > priors[b % num_cfg].size();
    });
    std::atomic<std::size_t> next{0};
    exec.for_each(0, jobs, [&](std::size_t) { run_job(order[next++]); });

    std::vector<CandidateProjection> live;
    live.reserve(jobs);
    for (std::size_t j = 0; j < jobs; ++j)
      if (valid[j]) live.push_back(std::move(candidates[j]));
    OCLP_CHECK_MSG(!live.empty(), "every candidate collapsed at dimension " << d);

    const auto front = pareto_front(live);
    const auto picked = select_by_bins(live, front, settings_.q);
    parents.clear();
    for (auto i : picked) parents.push_back(std::move(live[i].design));
  }

  // Finalise: predicted over-clocking variance, origin tag, area order.
  for (auto& design : parents) {
    design.predicted_overclock_var = predicted_overclock_variance(design, models_);
    design.origin = "OF beta=" + std::to_string(settings_.beta);
  }
  std::sort(parents.begin(), parents.end(),
            [](const LinearProjectionDesign& a, const LinearProjectionDesign& b) {
              return a.area_estimate < b.area_estimate;
            });
  return parents;
}

}  // namespace oclp
