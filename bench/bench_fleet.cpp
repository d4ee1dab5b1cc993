// Fleet-serving benchmark (DESIGN.md "Fleet serving"): deploys the same
// over-clocked Linear Projection design across three synthetic dies of one
// family behind the ProjectionFleet and measures
//
//  1. fleet throughput vs a single server — each die is characterised at
//     its own error-free fmax; the headline is the whole fleet behind the
//     router, driven closed-loop under a mixed BestEffort /
//     LatencySensitive load (`concurrent`), with the per-die routed counts
//     of the headroom policy. Every die's server workers share this host's
//     cores, so this is what the fleet measurably serves here. Each die is
//     also driven alone; the sum of those rates (`per_die_sum_model`) is a
//     model of dedicated silicon per die, never measured at once;
//  2. the single-server baseline both are compared with: one die of the
//     family with identical serve settings, driven alone;
//  3. the live re-characterisation control plane: environment drift
//     injected on one die while the background probe thread walks the
//     fleet; the probe detects the shrunken error-free regime, moves that
//     die's governor floor within one cycle, and the AIMD loop — now
//     unlocked — steps the clock through the old floor into the
//     drift-adjusted safe regime. Per-die frequency timelines prove the
//     other dies never moved.
//
// Results go to BENCH_fleet.json; `--smoke` shrinks the load for CI.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "fabric/calibration.hpp"
#include "serve/fleet.hpp"

using namespace oclp;

namespace {

constexpr int kWlX = 8;
const std::vector<std::uint64_t> kDieSeeds = {22, 83, 13};

LinearProjectionDesign fleet_design() {
  const MultConfig cfg{MultArch::Array, 8, 1};
  LinearProjectionDesign d;
  d.columns.push_back(make_column(
      {255.0 / 256, -239.0 / 256, 251.0 / 256, -223.0 / 256}, cfg));
  d.columns.push_back(make_column(
      {-247.0 / 256, 233.0 / 256, 253.0 / 256, 227.0 / 256}, cfg));
  d.target_freq_mhz = 400.0;
  d.origin = "bench-fleet";
  return d;
}

FleetConfig base_config(std::vector<std::uint64_t> die_seeds,
                        std::size_t queue_capacity) {
  FleetConfig cfg;
  cfg.die_seeds = std::move(die_seeds);
  cfg.device = reference_device_config();
  cfg.wl_x = kWlX;
  cfg.with_jitter = false;
  cfg.serve.workers = 1;
  cfg.serve.queue_capacity = queue_capacity;
  cfg.serve.max_batch = 16;
  cfg.serve.max_wait_ms = 0.0;
  cfg.serve.check_fraction = 0.05;
  return cfg;
}

std::vector<std::vector<std::uint32_t>> request_stream(std::size_t n,
                                                       std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<std::uint32_t>> reqs(n);
  for (auto& codes : reqs) {
    codes.resize(4);
    for (auto& c : codes)
      c = static_cast<std::uint32_t>(rng.uniform_u64(1u << kWlX));
  }
  return reqs;
}

struct DiePoint {
  DieStatus status;
  double requests_per_sec = 0.0;
};

/// Closed-loop rate of one die driven alone (the per-die sum model adds
/// these up). One warm-up pass, then best of three timed reps — the host
/// is shared, and a scheduler hiccup in any single rep would be charged to
/// the die.
double die_rate(ProjectionServer& server, std::size_t requests,
                std::uint64_t seed) {
  const auto stream = request_stream(requests, seed);
  double best = 0.0;
  for (int rep = 0; rep < 4; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < requests; ++i)
      server.submit({static_cast<std::uint64_t>(i + 1), stream[i], 0.0});
    server.wait_idle();
    const double rate =
        static_cast<double>(requests) /
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    if (rep > 0) best = std::max(best, rate);
  }
  return best;
}

struct ConcurrentRun {
  std::size_t requests = 0;
  double seconds = 0.0;
  double requests_per_sec = 0.0;
  std::vector<std::uint64_t> routed;  ///< per die
};

/// The whole fleet behind the router under a mixed-SLO load (every third
/// request latency-sensitive), every die serving at once on this host.
ConcurrentRun concurrent_run(ProjectionFleet& fleet, std::size_t requests) {
  const auto stream = request_stream(requests, 0xF1EE7);
  const std::vector<std::uint64_t> before = [&] {
    std::vector<std::uint64_t> r;
    for (std::size_t i = 0; i < fleet.num_dies(); ++i)
      r.push_back(fleet.die_status(i).routed);
    return r;
  }();
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < requests; ++i)
    fleet.submit({static_cast<std::uint64_t>(i + 1), stream[i], 0.0},
                 i % 3 == 0 ? SloClass::LatencySensitive
                            : SloClass::BestEffort);
  fleet.wait_idle();
  ConcurrentRun run;
  run.requests = requests;
  run.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  run.requests_per_sec = static_cast<double>(requests) / run.seconds;
  for (std::size_t i = 0; i < fleet.num_dies(); ++i)
    run.routed.push_back(fleet.die_status(i).routed - before[i]);
  return run;
}

struct DriftResult {
  double derate = 0.0;
  double floor_before_mhz = 0.0;
  double floor_after_mhz = 0.0;
  double recheck_fmax_mhz = 0.0;
  double fb_construction_mhz = 0.0;
  double detection_ms = 0.0;  ///< drift injection → floor move
  std::uint64_t cycles_at_detection = 0;
  double settled_freq_mhz = 0.0;  ///< drifted die, after the AIMD descent
  std::vector<ServeMetrics::Snapshot> snaps;  ///< per die
  std::vector<DieStatus> status;              ///< per die, final
};

/// Drift scenario: background re-characterisation on, severe drift on die
/// 0 (old floor × derate > fB, so AIMD alone cannot recover), serving
/// continues throughout.
DriftResult drift_scenario(const LinearProjectionDesign& design, bool smoke) {
  auto cfg = base_config(kDieSeeds, 1 << 16);
  cfg.serve.check_fraction = 1.0;
  cfg.serve.governor.window_checks = 8;
  cfg.serve.governor.slo_error_rate = 0.05;
  cfg.serve.governor.step_down_factor = 0.5;
  cfg.serve.governor.step_up_mhz = 10.0;
  cfg.serve.governor.healthy_windows_to_ramp = 2;
  cfg.recheck_period_ms = 2.0;
  cfg.recheck_samples = smoke ? 80 : 160;
  ProjectionFleet fleet(design, cfg);

  DriftResult out;
  out.derate = 2.6;
  out.floor_before_mhz = fleet.die_status(0).f_floor_mhz;
  out.fb_construction_mhz = fleet.die_status(0).error_free_fmax_mhz;

  const std::size_t warm = smoke ? 64 : 512;
  const auto stream = request_stream(warm + 4096, 0xD41F7);
  std::uint64_t id = 0;
  for (std::size_t i = 0; i < warm; ++i, ++id)
    fleet.submit({id + 1, stream[id], 0.0});
  fleet.wait_idle();

  // Inject the drift and let the background probe catch it.
  const auto t_drift = std::chrono::steady_clock::now();
  fleet.set_die_drift(0, out.derate);
  const auto deadline = t_drift + std::chrono::seconds(30);
  while (fleet.die_status(0).f_floor_mhz >= out.floor_before_mhz &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  out.detection_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t_drift)
          .count();
  out.cycles_at_detection = fleet.die_status(0).recharacterisations;
  out.floor_after_mhz = fleet.die_status(0).f_floor_mhz;
  out.recheck_fmax_mhz = fleet.die_status(0).recheck_fmax_mhz;

  // Serve on: the checked requests breach, and the governor walks the
  // drifted die down through the old floor while the other dies hold.
  const std::size_t settle = smoke ? 256 : 2048;
  for (std::size_t i = 0; i < settle; ++i, ++id)
    fleet.submit({id + 1, stream[id], 0.0});
  fleet.wait_idle();
  out.settled_freq_mhz = fleet.server(0).governor().frequency_mhz();

  for (std::size_t i = 0; i < fleet.num_dies(); ++i) {
    out.snaps.push_back(fleet.server(i).metrics_snapshot());
    out.status.push_back(fleet.die_status(i));
  }
  fleet.stop();
  return out;
}

void write_json(const char* path, bool smoke, const std::vector<DiePoint>& dies,
                double baseline_rps, double sum_model_rps,
                const ConcurrentRun& conc, const DriftResult& drift) {
  std::ofstream os(path);
  os.precision(10);
  os << "{\n  \"bench\": \"fleet\",\n"
     << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
     << "  \"dies\": [\n";
  for (std::size_t i = 0; i < dies.size(); ++i) {
    const auto& s = dies[i].status;
    os << "    {\"die_seed\": " << s.die_seed
       << ", \"inter_die_factor\": " << s.inter_die_factor
       << ", \"error_free_fmax_mhz\": " << s.error_free_fmax_mhz
       << ", \"f_target_mhz\": " << s.f_target_mhz
       << ", \"f_floor_mhz\": " << s.f_floor_mhz
       << ", \"requests_per_sec\": " << dies[i].requests_per_sec << "}"
       << (i + 1 < dies.size() ? "," : "") << "\n";
  }
  os << "  ],\n"
     << "  \"single_server_baseline_rps\": " << baseline_rps << ",\n"
     << "  \"concurrent\": {\"requests\": " << conc.requests
     << ", \"seconds\": " << conc.seconds
     << ", \"requests_per_sec\": " << conc.requests_per_sec
     << ", \"vs_single_server\": " << conc.requests_per_sec / baseline_rps
     << ", \"routed\": [";
  for (std::size_t i = 0; i < conc.routed.size(); ++i)
    os << (i ? ", " : "") << conc.routed[i];
  os << "]},\n"
     << "  \"per_die_sum_model\": {\"model\": \"sum of the per-die rates, "
        "each die driven alone: dedicated silicon per die, not measured at "
        "once\", \"requests_per_sec\": "
     << sum_model_rps
     << ", \"vs_single_server\": " << sum_model_rps / baseline_rps << "},\n"
     << "  \"drift\": {\n"
     << "    \"die\": 0,\n"
     << "    \"derate\": " << drift.derate << ",\n"
     << "    \"fb_construction_mhz\": " << drift.fb_construction_mhz << ",\n"
     << "    \"floor_before_mhz\": " << drift.floor_before_mhz << ",\n"
     << "    \"floor_after_mhz\": " << drift.floor_after_mhz << ",\n"
     << "    \"recheck_fmax_mhz\": " << drift.recheck_fmax_mhz << ",\n"
     << "    \"detection_ms\": " << drift.detection_ms << ",\n"
     << "    \"cycles_at_detection\": " << drift.cycles_at_detection << ",\n"
     << "    \"settled_freq_mhz\": " << drift.settled_freq_mhz << ",\n"
     << "    \"per_die\": [\n";
  for (std::size_t i = 0; i < drift.snaps.size(); ++i) {
    const auto& snap = drift.snaps[i];
    const auto& s = drift.status[i];
    os << "      {\"die_seed\": " << s.die_seed
       << ", \"recharacterisations\": " << s.recharacterisations
       << ", \"f_floor_mhz\": " << s.f_floor_mhz
       << ", \"freq_mhz\": " << s.freq_mhz
       << ", \"served\": " << snap.served
       << ", \"checks\": " << snap.checks
       << ", \"check_errors\": " << snap.check_errors
       << ", \"latency_overflow\": " << snap.latency_overflow
       << ", \"frequency_timeline\": [";
    for (std::size_t j = 0; j < snap.frequency_timeline.size(); ++j)
      os << (j ? ", " : "") << "{\"at_served\": "
         << snap.frequency_timeline[j].at_served
         << ", \"freq_mhz\": " << snap.frequency_timeline[j].freq_mhz << "}";
    os << "]}" << (i + 1 < drift.snaps.size() ? "," : "") << "\n";
  }
  os << "    ]\n  }\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;

  const auto design = fleet_design();
  const std::size_t requests = smoke ? 256 : 4096;

  // Baseline: one server on the reference die, identical serve settings.
  double baseline_rps = 0.0;
  {
    ProjectionFleet single(design, base_config({kDieSeeds[0]}, requests));
    baseline_rps = die_rate(single.server(0), requests, 0xB453);
    single.stop();
    std::printf("baseline: single server %8.0f req/s\n", baseline_rps);
  }

  ProjectionFleet fleet(design, base_config(kDieSeeds, requests));
  std::vector<DiePoint> dies;
  double sum_model_rps = 0.0;
  for (std::size_t i = 0; i < fleet.num_dies(); ++i) {
    DiePoint p;
    p.requests_per_sec = die_rate(fleet.server(i), requests, 0xD1E0 + i);
    p.status = fleet.die_status(i);
    sum_model_rps += p.requests_per_sec;
    std::printf(
        "die %zu: seed %llu inter_die %.3f fB %.0f MHz target %.0f MHz "
        "%8.0f req/s alone\n",
        i, static_cast<unsigned long long>(p.status.die_seed),
        p.status.inter_die_factor, p.status.error_free_fmax_mhz,
        p.status.f_target_mhz, p.requests_per_sec);
    dies.push_back(std::move(p));
  }

  const auto conc = concurrent_run(fleet, requests);
  fleet.stop();
  std::printf("fleet (every die at once): %8.0f req/s = %.2fx single server, "
              "routed [",
              conc.requests_per_sec, conc.requests_per_sec / baseline_rps);
  for (std::size_t i = 0; i < conc.routed.size(); ++i)
    std::printf("%s%llu", i ? ", " : "",
                static_cast<unsigned long long>(conc.routed[i]));
  std::printf("]\n");
  std::printf("per-die sum (model, each die alone): %8.0f req/s = %.2fx\n",
              sum_model_rps, sum_model_rps / baseline_rps);

  const auto drift = drift_scenario(design, smoke);
  std::printf(
      "drift: derate %.2fx on die 0 -> recheck fB %.0f MHz (was %.0f), "
      "floor %.0f -> %.0f MHz in %llu cycle(s), %.1f ms; governor settled "
      "at %.1f MHz (old floor %.0f)\n",
      drift.derate, drift.recheck_fmax_mhz, drift.fb_construction_mhz,
      drift.floor_before_mhz, drift.floor_after_mhz,
      static_cast<unsigned long long>(drift.cycles_at_detection),
      drift.detection_ms, drift.settled_freq_mhz, drift.floor_before_mhz);

  write_json("BENCH_fleet.json", smoke, dies, baseline_rps, sum_model_rps, conc,
             drift);
  std::printf("-> BENCH_fleet.json\n");
  return 0;
}
