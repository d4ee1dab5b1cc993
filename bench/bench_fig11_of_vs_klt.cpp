// Figure 11 reproduction — the paper's headline: reconstruction MSE of the
// projected data at 310 MHz for the proposed optimisation framework
// (β = 4, 8) against the KLT baseline at coefficient word-lengths 3..9.
// Expected shape: OF designs sit on/below the KLT curve everywhere, and
// roughly an order of magnitude below it where over-clocking errors hit
// the KLT designs (large word-lengths); OF designs behave as predicted.
//
// Writes BENCH_paper.json into the CWD: the geomean headline, the number of
// KLT points it compares, and `paper_checksum_match` — an FNV-1a over every
// point's coefficients and its area, predicted-MSE and actual-MSE bits,
// compared with kPaperGolden. Any change that moves a Fig-11 bit flips the
// match, which tools/check_perf_floors.py fails in CI; a change that means
// to move it re-blesses kPaperGolden, says why in CHANGES.md and updates
// EXPERIMENTS.md.
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "bench_common.hpp"
#include "core/baseline.hpp"
#include "golden_checksum.hpp"

using namespace oclp;
using namespace oclp::bench;

namespace {

// FNV-1a of every Fig-11 point on the reference die (kReferenceDieSeed),
// captured before serving gated multipliers as exact arithmetic.
constexpr std::uint64_t kPaperGolden = 0x964ac618b38fc65eULL;

void mix_point(testing_golden::Fnv1a& h, const LinearProjectionDesign& d,
               double actual) {
  for (const DesignColumn& col : d.columns) {
    h.mix(static_cast<std::uint64_t>(col.config.arch));
    h.mix(static_cast<std::uint64_t>(col.config.wordlength));
    h.mix(static_cast<std::uint64_t>(col.config.pipeline_depth));
    for (const QuantCoeff& c : col.coeffs) {
      h.mix(static_cast<std::uint64_t>(c.sign < 0));
      h.mix(static_cast<std::uint64_t>(c.magnitude));
    }
  }
  h.mix(d.area_estimate);
  h.mix(d.predicted_objective());
  h.mix(actual);
}

}  // namespace

int main() {
  print_header("Figure 11 — MSE vs area at 310 MHz: OF (beta=4,8) vs KLT (wl 3..9)",
               "Expected shape: OF ~an order of magnitude lower actual MSE "
               "than KLT at comparable area; 310 MHz = 1.85x tool Fmax.");
  Context& ctx = Context::get();

  Table table({"series", "design", "area_les", "predicted_mse", "actual_mse"});

  struct Point {
    double area, actual;
    bool is_of;
  };
  std::vector<Point> points;
  testing_golden::Fnv1a checksum;

  for (double beta : ctx.table1.betas) {
    const auto run = ctx.run_framework(beta);
    for (const auto& d : run.designs) {
      const double actual = ctx.hardware_mse(d, run.data_mean, true);
      table.add_row({std::string("OF beta=") + std::to_string(beta).substr(0, 3),
                     d.origin, d.area_estimate, d.predicted_objective(), actual});
      points.push_back({d.area_estimate, actual, true});
      mix_point(checksum, d, actual);
    }
  }

  Matrix xc = ctx.x_train;
  const auto mu = center_rows(xc);
  const auto klt = make_klt_family(
      ctx.x_train, ctx.table1.dims_k, ctx.table1_configs(),
      ctx.table1.clock_mhz, ctx.table1.input_wordlength, ctx.area_model(),
      &ctx.error_models_at_target());
  for (const auto& d : klt) {
    const double actual = ctx.hardware_mse(d, mu, true);
    table.add_row({std::string("KLT"), d.origin, d.area_estimate,
                   d.predicted_objective(), actual});
    points.push_back({d.area_estimate, actual, false});
    mix_point(checksum, d, actual);
  }
  table.print(std::cout);

  // Headline metric: for each KLT point, the best OF design of no larger
  // area; geometric-mean MSE improvement.
  double log_ratio_sum = 0.0;
  int comparisons = 0;
  for (const auto& k : points) {
    if (k.is_of) continue;
    double best_of = -1.0;
    for (const auto& o : points)
      if (o.is_of && o.area <= k.area * 1.05 &&
          (best_of < 0.0 || o.actual < best_of))
        best_of = o.actual;
    if (best_of > 0.0) {
      log_ratio_sum += std::log(k.actual / best_of);
      ++comparisons;
    }
  }
  const double geomean =
      comparisons > 0 ? std::exp(log_ratio_sum / comparisons) : 0.0;
  if (comparisons > 0)
    std::cout << "geometric-mean actual-MSE improvement of OF over KLT at "
              << "comparable area: " << geomean << "x over " << comparisons
              << " comparisons (paper: ~10x)\n";

  const bool match = checksum.h == kPaperGolden;
  std::printf("paper checksum %016" PRIx64 " (golden %016" PRIx64 "): %s\n",
              checksum.h, kPaperGolden, match ? "match" : "MISMATCH");
  std::ofstream os("BENCH_paper.json");
  os.precision(10);
  os << "{\n  \"fig11\": {\n"
     << "    \"geomean\": " << geomean << ",\n"
     << "    \"comparisons\": " << comparisons << ",\n"
     << "    \"paper_checksum_match\": " << (match ? "true" : "false")
     << "\n  }\n}\n";
  std::printf("-> BENCH_paper.json\n");
  return 0;
}
