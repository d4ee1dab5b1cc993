// Section VI-E reproduction (Eqs. 7-8): the run-time of the optimisation
// framework. We measure our Gibbs sampler per word-length with
// google-benchmark, then compare the *shape* (exponential growth in wl and
// the chain-count factor of Eq. 7) against the paper's fitted model.
// Absolute seconds differ — different machine, different implementation —
// but R(wl+1)/R(wl) ≈ e^0.6427 ≈ 1.9 is the paper's scaling claim, driven
// by the 2^wl growth of the coefficient grid.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "bayes/gibbs.hpp"
#include "bayes/prior.hpp"
#include "bench_common.hpp"
#include "core/runtime_model.hpp"

using namespace oclp;
using namespace oclp::bench;

namespace {

void BM_SampleProjection(benchmark::State& state) {
  const int wl = static_cast<int>(state.range(0));
  Context& ctx = Context::get();
  const auto& models = ctx.error_models_at_target();
  const MultConfig cfg{MultArch::Array, wl, 1};
  const auto prior = make_prior(models.at(cfg), cfg, ctx.table1.clock_mhz, 4.0);
  Matrix xc = ctx.x_train;
  center_rows(xc);
  GibbsSettings gibbs;
  gibbs.burn_in = 100;  // scaled-down chain: the per-iteration cost is what
  gibbs.samples = 300;  // grows with wl
  gibbs.seed = 11;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sample_projection(xc, prior, gibbs));
  }
  state.counters["paper_R_wl_seconds"] = runtime_per_projection_s(wl);
}

BENCHMARK(BM_SampleProjection)->DenseRange(3, 9)->Unit(benchmark::kMillisecond);

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct WlTiming {
  int wl = 0;
  double fast_iters_per_s = 0.0;
  double ref_iters_per_s = 0.0;
  bool chains_match = false;
};

/// Sampler throughput at one word-length, fast path vs the retained
/// reference implementation, on the Table-I training data with the β=4
/// hardware prior. Also checks the determinism contract: both paths must
/// produce bitwise-identical draws (λ chain and per-entry visit counts).
WlTiming time_wordlength(const Matrix& xc, const ErrorModel& model, int wl,
                         double clock_mhz) {
  const auto prior =
      make_prior(model, MultConfig{MultArch::Array, wl, 1}, clock_mhz, 4.0);
  GibbsSettings gibbs;
  gibbs.burn_in = 100;
  gibbs.samples = 300;
  gibbs.seed = 11;
  const double iters = gibbs.burn_in + gibbs.samples;

  WlTiming t;
  t.wl = wl;
  const GibbsResult fast = sample_projection(xc, prior, gibbs);
  GibbsSettings ref_settings = gibbs;
  ref_settings.reference_impl = true;
  const GibbsResult ref = sample_projection(xc, prior, ref_settings);
  t.chains_match = fast.lambda == ref.lambda && fast.visits == ref.visits;

  const auto throughput = [&](bool reference_impl) {
    GibbsSettings s = gibbs;
    s.reference_impl = reference_impl;
    const auto t0 = std::chrono::steady_clock::now();
    int reps = 0;
    double dt = 0.0;
    do {
      benchmark::DoNotOptimize(sample_projection(xc, prior, s));
      ++reps;
      dt = seconds_since(t0);
    } while (dt < 0.4);
    return iters * reps / dt;
  };
  t.fast_iters_per_s = throughput(false);
  t.ref_iters_per_s = throughput(true);
  return t;
}

/// Fit t(wl) = a·exp(b·wl) by least squares on log t.
void fit_exponential(const std::vector<int>& wls, const std::vector<double>& t,
                     double* a, double* b) {
  double mx = 0.0, my = 0.0;
  for (std::size_t i = 0; i < wls.size(); ++i) {
    mx += wls[i];
    my += std::log(t[i]);
  }
  mx /= static_cast<double>(wls.size());
  my /= static_cast<double>(wls.size());
  double sxx = 0.0, sxy = 0.0;
  for (std::size_t i = 0; i < wls.size(); ++i) {
    const double dx = wls[i] - mx;
    sxx += dx * dx;
    sxy += dx * (std::log(t[i]) - my);
  }
  *b = sxy / sxx;
  *a = std::exp(my - *b * mx);
}

bool designs_equal(const std::vector<LinearProjectionDesign>& a,
                   const std::vector<LinearProjectionDesign>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].columns.size() != b[i].columns.size()) return false;
    for (std::size_t c = 0; c < a[i].columns.size(); ++c) {
      if (a[i].columns[c].config != b[i].columns[c].config ||
          a[i].columns[c].values() != b[i].columns[c].values())
        return false;
    }
    if (a[i].area_estimate != b[i].area_estimate ||
        a[i].training_mse != b[i].training_mse)
      return false;
  }
  return true;
}

/// BENCH_optimiser.json: the band-scan ISA, sampler iterations/second per
/// word-length (fast vs reference), the exponential R(wl) fitted to the
/// measured fast path at the Table-I chain length, and the end-to-end
/// Algorithm-1 run time at full Table-I settings both ways. The
/// *_checksum_match fields say whether the fast path drew the reference's
/// chains and designs; tools/check_perf_floors.py fails CI on a false one.
void write_optimiser_probe(const char* path) {
  Context& ctx = Context::get();
  const auto& models = ctx.error_models_at_target();
  Matrix xc = ctx.x_train;
  center_rows(xc);

  std::vector<WlTiming> timings;
  for (int wl = ctx.table1.wl_min; wl <= ctx.table1.wl_max; ++wl)
    timings.push_back(time_wordlength(
        xc, models.at(MultConfig{MultArch::Array, wl, 1}), wl,
        ctx.table1.clock_mhz));

  // R(wl): fast-path seconds per projection at the Table-I chain length.
  const double chain_iters =
      static_cast<double>(ctx.table1.burn_in + ctx.table1.projection_samples);
  std::vector<int> wls;
  std::vector<double> proj_seconds;
  for (const auto& t : timings) {
    wls.push_back(t.wl);
    proj_seconds.push_back(chain_iters / t.fast_iters_per_s);
  }
  double fit_a = 0.0, fit_b = 0.0;
  fit_exponential(wls, proj_seconds, &fit_a, &fit_b);

  // End-to-end Algorithm 1 at full Table-I settings (β=4), mirroring
  // Context::run_framework but toggling the sampler implementation.
  OptimisationSettings os;
  os.dims_k = static_cast<int>(ctx.table1.dims_k);
  os.configs = ctx.table1_configs();
  os.beta = 4.0;
  os.target_freq_mhz = ctx.table1.clock_mhz;
  os.q = ctx.table1.q;
  os.input_wordlength = ctx.table1.input_wordlength;
  os.gibbs.burn_in = ctx.table1.burn_in;
  os.gibbs.samples = ctx.table1.projection_samples;
  os.gibbs.seed = hash_mix(7, static_cast<std::uint64_t>(os.beta * 1024.0));

  auto t0 = std::chrono::steady_clock::now();
  OptimisationFramework fast_of(os, ctx.x_train, models, ctx.area_model());
  const auto fast_designs = fast_of.run();
  const double dt_fast = seconds_since(t0);

  os.gibbs.reference_impl = true;
  t0 = std::chrono::steady_clock::now();
  OptimisationFramework ref_of(os, ctx.x_train, models, ctx.area_model());
  const auto ref_designs = ref_of.run();
  const double dt_ref = seconds_since(t0);

  const bool identical = designs_equal(fast_designs, ref_designs);

  std::ofstream out(path);
  out.precision(10);
  out << "{\n"
      << "  \"bench\": \"optimiser_fast_path\",\n"
      << "  \"band_scan_isa\": \"" << band_scans().back().isa << "\",\n"
      << "  \"beta\": 4,\n"
      << "  \"throughput_chain_iterations\": 400,\n"
      << "  \"per_wordlength\": [\n";
  for (std::size_t i = 0; i < timings.size(); ++i) {
    const auto& t = timings[i];
    out << "    {\"wl\": " << t.wl
        << ", \"fast_iters_per_sec\": " << t.fast_iters_per_s
        << ", \"reference_iters_per_sec\": " << t.ref_iters_per_s
        << ", \"speedup\": " << t.fast_iters_per_s / t.ref_iters_per_s
        << ", \"chains_checksum_match\": " << (t.chains_match ? "true" : "false")
        << "}" << (i + 1 < timings.size() ? "," : "") << "\n";
  }
  const auto& wl9 = timings.back();
  out << "  ],\n"
      << "  \"speedup_wl" << wl9.wl
      << "\": " << wl9.fast_iters_per_s / wl9.ref_iters_per_s << ",\n"
      << "  \"fitted_R_wl\": {\"a_seconds\": " << fit_a
      << ", \"b_per_wl\": " << fit_b
      << ", \"chain_iterations\": " << chain_iters
      << ", \"paper_a\": 0.4266, \"paper_b\": 0.6427},\n"
      << "  \"end_to_end_table1\": {\"fast_seconds\": " << dt_fast
      << ", \"reference_seconds\": " << dt_ref
      << ", \"speedup\": " << dt_ref / dt_fast
      << ", \"designs_checksum_match\": " << (identical ? "true" : "false")
      << "}\n"
      << "}\n";
  std::printf(
      "optimiser_fast_path: wl=%d sampler %.3g its/s vs reference %.3g its/s "
      "(%.2fx); R(wl) fit %.3g*exp(%.3g*wl) s; end-to-end %.3gs vs %.3gs "
      "(%.2fx), designs %s\n",
      wl9.wl, wl9.fast_iters_per_s, wl9.ref_iters_per_s,
      wl9.fast_iters_per_s / wl9.ref_iters_per_s, fit_a, fit_b, dt_fast,
      dt_ref, dt_ref / dt_fast, identical ? "identical" : "DIVERGED");
}

}  // namespace

int main(int argc, char** argv) {
  print_header("Eqs. 7-8 — optimisation framework run-time model",
               "Expected shape: per-projection cost grows with word-length "
               "(the grid doubles per bit); paper model R(wl) ~ exp(0.6427 wl).");

  // Eq. 7 with the paper's example settings.
  const std::vector<int> wls{3, 4, 5, 6, 7, 8, 9};
  const double total = runtime_total_s(1, 3, 5, 2, wls);
  std::cout << "paper model, #Freqs=1 K=3 Q=5 #HP=2 wl=3..9: " << total
            << " s = " << total / 60.0
            << " min (paper: 1 h 44 min = 104 min)\n";
  Table table({"wordlength", "paper_R_wl_s", "growth_vs_prev"});
  double prev = 0.0;
  for (int wl : wls) {
    const double r = runtime_per_projection_s(wl);
    table.add_row({static_cast<long long>(wl), r, prev > 0 ? r / prev : 0.0});
    prev = r;
  }
  table.print(std::cout);
  std::cout << "\nMeasured sampler cost per word-length follows below; compare"
            << "\nthe growth trend with paper_R_wl_seconds.\n\n";

  write_optimiser_probe("BENCH_optimiser.json");

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
