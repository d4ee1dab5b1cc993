// Slack-gate coverage of the benchmark workloads: the share of multiplier
// streams the slack gate runs without settle propagation (DESIGN.md §12),
// measured on each perfbench workload's configuration rather than
// predicted from critical paths.
//
//  * serve_steady — the 18-multiplier wl-5 design at 250 MHz on the
//    reference die (jittered plan) behind a 2-worker, batch-64, 5 %-checked
//    server, loaded paused and drained;
//  * fleet_drift — the two-die fleet (die seeds 22 and 83, jitter-free),
//    per die and per phase: nominal, die 1 derated 1.6× (re-characterised
//    under the drift), drift removed (re-characterised again);
//  * design_table1 — the reference die's Table-I flow at 310 MHz: the
//    characterisation streams of array wl 3..9 over both locations, and the
//    KLT designs' hardware evaluation over 5 P&R runs. Algorithm 1's own
//    designs are not rebuilt here; they run the same multipliers at the
//    same clock.
//
// Prints one line per workload (and per fleet phase); no JSON — the shares
// are recorded by hand where a change claims them.
#include <cstdio>
#include <vector>

#include "area/area_model.hpp"
#include "charlib/char_circuit.hpp"
#include "common/rng.hpp"
#include "core/baseline.hpp"
#include "core/circuit_eval.hpp"
#include "core/settings.hpp"
#include "core/synthetic.hpp"
#include "fabric/calibration.hpp"
#include "mult/bitcodec.hpp"
#include "serve/fleet.hpp"
#include "serve/server.hpp"

using namespace oclp;

namespace {

constexpr int kServeWl = 5;
constexpr int kWlX = 9;
constexpr std::size_t kRequests = 16384;

// The serving workloads' ℤ⁶→ℤ³ basis.
LinearProjectionDesign serve_design() {
  static const double kBasis[3][6] = {
      {0.40, 0.42, 0.38, 0.41, 0.39, 0.43},
      {0.52, 0.33, 0.08, -0.21, -0.45, -0.58},
      {-0.35, 0.47, 0.51, 0.12, -0.44, -0.39}};
  const MultConfig cfg{MultArch::Array, kServeWl, 1};
  LinearProjectionDesign d;
  for (const auto& col : kBasis)
    d.columns.push_back(make_column(std::vector<double>(col, col + 6), cfg));
  d.target_freq_mhz = 250.0;
  return d;
}

Device reference_device() {
  Device device(reference_device_config(), kReferenceDieSeed);
  device.set_temperature(kCharacterisationTempC);
  return device;
}

std::vector<std::vector<std::uint32_t>> request_codes(std::size_t n) {
  SyntheticDataConfig dc;
  dc.cases = n;
  dc.seed = 7;
  const Matrix x = make_synthetic_dataset(dc);
  std::vector<std::vector<std::uint32_t>> out(n);
  std::vector<double> sample(x.rows());
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t r = 0; r < x.rows(); ++r) sample[r] = x(r, i);
    out[i] = encode_input(sample, kWlX);
  }
  return out;
}

double share(std::uint64_t gated, std::uint64_t full) {
  return gated + full == 0 ? 0.0
                           : static_cast<double>(gated) /
                                 static_cast<double>(gated + full);
}

void serve_steady(const std::vector<std::vector<std::uint32_t>>& codes) {
  const auto design = serve_design();
  CircuitPlan plan = simulated_plan(design, reference_location_1());
  plan.with_jitter = true;
  ServeConfig cfg;
  cfg.workers = 2;
  cfg.queue_capacity = kRequests;
  cfg.max_batch = 64;
  cfg.max_wait_ms = 0.1;
  cfg.check_fraction = 0.05;
  cfg.start_paused = true;
  cfg.governor.f_target_mhz = 250.0;
  cfg.governor.f_floor_mhz = 160.0;
  ProjectionServer server(design, reference_device(), plan, kWlX, nullptr, cfg,
                          nullptr);
  for (std::size_t i = 0; i < kRequests; ++i)
    server.submit({i + 1, codes[i % codes.size()], 0.0});
  server.resume();
  server.wait_idle();
  const auto s = server.metrics_snapshot();
  std::printf("serve_steady   gated %8llu  full %8llu  share %.3f\n",
              static_cast<unsigned long long>(s.streams_gated),
              static_cast<unsigned long long>(s.streams_full), s.gated_share());
}

void fleet_drift(const std::vector<std::vector<std::uint32_t>>& codes) {
  FleetConfig cfg;
  cfg.die_seeds = {22, 83};
  cfg.device = reference_device_config();
  cfg.wl_x = kWlX;
  cfg.with_jitter = false;
  cfg.serve.workers = 1;
  cfg.serve.queue_capacity = kRequests;
  cfg.serve.max_batch = 64;
  cfg.serve.max_wait_ms = 0.1;
  cfg.serve.check_fraction = 0.05;
  cfg.serve.governor.window_checks = 16;
  cfg.serve.governor.step_down_factor = 0.7;
  cfg.serve.governor.step_up_mhz = 10.0;
  cfg.serve.governor.healthy_windows_to_ramp = 2;
  cfg.recheck_samples = 160;
  ProjectionFleet fleet(serve_design(), cfg);
  std::vector<ServeMetrics::Snapshot> before(fleet.num_dies());
  for (std::size_t d = 0; d < fleet.num_dies(); ++d)
    std::printf("fleet_drift    die %zu target %.1f MHz\n", d,
                fleet.die_status(d).f_target_mhz);

  std::uint64_t id = 0, all_gated = 0, all_full = 0;
  const auto phase = [&](const char* name) {
    for (std::size_t i = 0; i < kRequests / 4; ++i, ++id)
      fleet.submit({id + 1, codes[id % codes.size()], 0.0});
    fleet.wait_idle();
    for (std::size_t d = 0; d < fleet.num_dies(); ++d) {
      const auto s = fleet.server(d).metrics_snapshot();
      const std::uint64_t g = s.streams_gated - before[d].streams_gated;
      const std::uint64_t f = s.streams_full - before[d].streams_full;
      all_gated += g;
      all_full += f;
      std::printf("fleet_drift    %-8s die %zu  gated %8llu  full %8llu  share %.3f\n",
                  name, d, static_cast<unsigned long long>(g),
                  static_cast<unsigned long long>(f), share(g, f));
      before[d] = s;
    }
  };
  phase("nominal");
  fleet.set_die_drift(1, 1.6);
  phase("derated");
  fleet.recharacterise(1);
  phase("rechkd");
  fleet.set_die_drift(1, 1.0);
  fleet.recharacterise(1);
  phase("cleared");
  fleet.stop();
  std::printf("fleet_drift    all phases  gated %8llu  full %8llu  share %.3f\n",
              static_cast<unsigned long long>(all_gated),
              static_cast<unsigned long long>(all_full),
              share(all_gated, all_full));
}

void design_table1() {
  const CaseStudySettings t1;
  const Device device = reference_device();
  const std::vector<double> freqs{t1.clock_mhz};

  // Characterisation: every multiplicand's run_multi stream, per location.
  std::uint64_t char_gated = 0, char_full = 0;
  Rng rng(2014);
  std::vector<std::uint32_t> xs(800);
  for (auto& x : xs) x = static_cast<std::uint32_t>(rng.uniform_u64(1u << kWlX));
  for (int wl = 3; wl <= 9; ++wl) {
    for (const Placement& loc : {reference_location_1(), reference_location_2()}) {
      CharCircuitConfig cc;
      cc.mult = MultConfig{MultArch::Array, wl, 1};
      cc.wl_x = kWlX;
      const CharacterisationCircuit circuit(cc, device, loc);
      CharacterisationCircuit::Workspace ws;
      for (std::uint32_t m = 0; m < (1u << wl); ++m) {
        circuit.run_multi(m, xs, freqs, m + 1, &ws);
        ++(ws.stream.gated ? char_gated : char_full);
      }
    }
  }
  std::printf("design_table1  characterisation  gated %8llu  full %8llu  share %.3f\n",
              static_cast<unsigned long long>(char_gated),
              static_cast<unsigned long long>(char_full),
              share(char_gated, char_full));

  // Hardware evaluation of the KLT family, one batch per P&R run as in
  // evaluate_hardware_mse.
  SyntheticDataConfig dc;
  dc.cases = t1.training_cases;
  const Matrix x_train = make_synthetic_dataset(dc);
  dc.cases = 1000;
  dc.seed = 99;
  const Matrix x_test = make_synthetic_dataset(dc);
  const AreaModel area = AreaModel::fit(collect_area_samples(
      mult_config_range(MultArch::Array, 3, 9), kWlX, 6, 1));
  std::vector<std::vector<std::uint32_t>> codes(x_test.cols());
  std::vector<const std::vector<std::uint32_t>*> batch;
  std::vector<double> sample(x_test.rows());
  for (std::size_t i = 0; i < x_test.cols(); ++i) {
    for (std::size_t r = 0; r < x_test.rows(); ++r) sample[r] = x_test(r, i);
    codes[i] = encode_input(sample, kWlX);
    batch.push_back(&codes[i]);
  }
  std::uint64_t hw_gated = 0, hw_full = 0;
  std::vector<std::vector<double>> ys;
  for (const auto& d :
       make_klt_family(x_train, t1.dims_k, mult_config_range(MultArch::Array, 3, 9),
                       t1.clock_mhz, kWlX, area, nullptr)) {
    for (int r = 0; r < 5; ++r) {
      ProjectionCircuit circuit(d, device, actual_plan(d, device, hash_mix(0xB0A2D, r)),
                                kWlX, nullptr, hash_mix(0xB0A2D, r, 2));
      circuit.project_batch(batch, ys);
      hw_gated += circuit.stream_counts().gated;
      hw_full += circuit.stream_counts().full;
    }
  }
  std::printf("design_table1  hardware eval     gated %8llu  full %8llu  share %.3f\n",
              static_cast<unsigned long long>(hw_gated),
              static_cast<unsigned long long>(hw_full), share(hw_gated, hw_full));
}

}  // namespace

int main() {
  const auto codes = request_codes(4096);
  serve_steady(codes);
  fleet_drift(codes);
  design_table1();
  return 0;
}
