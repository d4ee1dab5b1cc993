// Serving-runtime benchmark (DESIGN.md "Serving runtime"): deploys a small
// over-clocked Linear Projection design behind the ProjectionServer and
// measures
//
//  1. serving capacity vs micro-batch size — a paused one-worker server
//     preloaded with one request stream, resumed and timed while it
//     empties its queue (the repository benchmark's drain), per max_batch,
//     with the batch-64 drain's served outputs checked bit for bit against
//     the scalar loop of the double-walk reference, and the row core's
//     gated ns/sample on its own;
//  2. batch scaling of the projection kernel itself — samples/sec of the
//     batched run_stream path (ProjectionCircuit::project_batch) against
//     the per-sample scalar loop of the double-walk reference
//     (tests/reference), on the same jittered clock stream, with a bitwise
//     checksum proving the two paths agree on every output — batch 1 both
//     slack-gated and forced to run its streams in full;
//  3. the slack gate — batch-64 samples/sec of project_batch with the
//     gate on against the same circuit forced to run every multiplier
//     stream in full (ProjectionCircuit::set_slack_gate), at a clock
//     whose shortest drawable period clears the multipliers' critical
//     path, with a bitwise checksum;
//  4. worker pinning and the inline crossover — full-stream project_batch
//     at batch 4 to 1024 inline, on an unpinned local pool, on the pinned
//     global pool and under the circuit's default rule, with a bitwise
//     checksum over all four;
//  5. the degradation trace: a temperature-derate step injected mid-run,
//     the sampled safe-frequency checks catching the error-rate breach,
//     the FrequencyGovernor stepping the clock down to the characterised
//     floor and re-ramping after recovery, written as the server's
//     metrics snapshot (ServeMetrics::Snapshot::to_json).
//
// Results go to BENCH_serve.json so successive PRs can track the serving
// trajectory mechanically. `--smoke` shrinks the load for CI.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <vector>

#include "charlib/sweep.hpp"
#include "common/exec_policy.hpp"
#include "common/rng.hpp"
#include "fabric/calibration.hpp"
#include "fabric/timing_annotation.hpp"
#include "mult/bitcodec.hpp"
#include "mult/multiplier.hpp"
#include "reference/double_sim.hpp"
#include "reference/scalar_projection.hpp"
#include "serve/server.hpp"
#include "timing/overclock_sim.hpp"

#include "bench_host.hpp"

using namespace oclp;

namespace {

constexpr int kWlX = 8;

LinearProjectionDesign serve_design(double freq_mhz) {
  const MultConfig cfg{MultArch::Array, 8, 1};
  LinearProjectionDesign d;
  d.columns.push_back(make_column(
      {255.0 / 256, -239.0 / 256, 251.0 / 256, -223.0 / 256}, cfg));
  d.columns.push_back(make_column(
      {-247.0 / 256, 233.0 / 256, 253.0 / 256, 227.0 / 256}, cfg));
  d.target_freq_mhz = freq_mhz;
  d.origin = "bench-serve";
  return d;
}

Device make_device() {
  Device device(reference_device_config(), kReferenceDieSeed);
  device.set_temperature(kCharacterisationTempC);
  return device;
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

struct ThroughputPoint {
  std::size_t max_batch = 0;
  std::uint64_t served = 0;
  double seconds = 0.0;
  double requests_per_sec = 0.0;
  double mean_batch_size = 0.0;
};

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// One capacity drain: a paused one-worker server is preloaded with the
// whole request stream (the front door is not timed), then resumed and
// timed until its queue is empty and its last batch done. `served` (may
// be null) receives each request's outputs by id.
ThroughputPoint drain_at_batch(std::size_t max_batch,
                               const std::vector<std::vector<std::uint32_t>>& stream,
                               std::vector<std::vector<double>>* served) {
  const auto design = serve_design(150.0);
  const Device device = make_device();
  auto plan = simulated_plan(design, reference_location_1());
  plan.with_jitter = false;

  ServeConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = stream.size();  // nothing is shed
  cfg.max_batch = max_batch;
  cfg.max_wait_ms = 0.0;
  cfg.check_fraction = 0.05;
  cfg.start_paused = true;
  cfg.governor.f_target_mhz = 150.0;
  cfg.governor.f_floor_mhz = 100.0;

  ProjectionServer::ResultCallback collect;
  if (served != nullptr) {
    served->assign(stream.size(), {});
    collect = [served](const ServeResult& r) { (*served)[r.id - 1] = r.y; };
  }
  ProjectionServer server(design, device, plan, kWlX, nullptr, cfg, collect);
  for (std::size_t i = 0; i < stream.size(); ++i)
    server.submit({static_cast<std::uint64_t>(i + 1), stream[i], 0.0});
  const auto t0 = std::chrono::steady_clock::now();
  server.resume();
  server.wait_idle();
  const double dt = seconds_since(t0);
  const auto snap = server.metrics_snapshot();

  ThroughputPoint p;
  p.max_batch = max_batch;
  p.served = snap.served;
  p.seconds = dt;
  p.requests_per_sec = static_cast<double>(snap.served) / dt;
  p.mean_batch_size = snap.mean_batch_size;
  return p;
}

struct Throughput {
  std::vector<ThroughputPoint> points;
  /// The gated row core alone: project_rows over blocks of 64 rows at the
  /// drains' clock, where every multiplier is gated.
  double row_kernel_ns_per_sample = 0.0;
  bool checksum_match = true;  ///< batch-64 served outputs == scalar loop
};

// Capacity drains per max_batch, in rounds (every size once per round, the
// best of five kept, so a slow spell of the host does not land on one
// size), plus the row core's own cost at batch 64. The batch-64 drain's
// outputs are compared bit for bit with the double-walk reference's scalar
// loop over the same stream (no jitter, so its clock seed is moot).
Throughput run_throughput(bool smoke) {
  constexpr int kRounds = 5;
  const std::size_t batches[] = {1, 4, 16, 64};
  const auto stream = request_stream(smoke ? 8192 : 32768, 0xBE7C4);
  Throughput out;
  out.points.resize(std::size(batches));
  std::vector<std::vector<double>> served;
  for (int round = 0; round < kRounds; ++round)
    for (std::size_t b = 0; b < std::size(batches); ++b) {
      const bool last = batches[b] == 64 && round == 0;
      const ThroughputPoint p =
          drain_at_batch(batches[b], stream, last ? &served : nullptr);
      if (p.requests_per_sec > out.points[b].requests_per_sec) out.points[b] = p;
    }

  const auto design = serve_design(150.0);
  const Device device = make_device();
  auto plan = simulated_plan(design, reference_location_1());
  plan.with_jitter = false;
  ref::ScalarProjection scalar(design, device, plan, kWlX, nullptr, 1);
  std::vector<double> y;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    scalar.project(stream[i], y);
    out.checksum_match =
        out.checksum_match && served[i].size() == y.size() &&
        std::memcmp(served[i].data(), y.data(), y.size() * sizeof(double)) == 0;
  }

  ProjectionCircuit circuit(design, device, plan, kWlX, nullptr, 1);
  const std::size_t p = design.dims_p(), k = design.dims_k();
  constexpr std::size_t kBatch = 64;
  const std::size_t n = stream.size() / kBatch * kBatch;
  std::vector<std::uint32_t> rows;
  for (std::size_t i = 0; i < n; ++i)
    rows.insert(rows.end(), stream[i].begin(), stream[i].end());
  std::vector<double> ys(kBatch * k);
  double best = 1e300;
  for (int round = 0; round < kRounds; ++round) {
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t s0 = 0; s0 < n; s0 += kBatch)
      circuit.project_rows(rows.data() + s0 * p, kBatch, ys.data());
    best = std::min(best, seconds_since(t0));
  }
  out.row_kernel_ns_per_sample = best * 1e9 / static_cast<double>(n);
  return out;
}

struct BatchScalingPoint {
  std::size_t batch = 0;
  double samples_per_sec = 0.0;
  double speedup = 0.0;  ///< vs the scalar per-sample loop of the same run
};

struct BatchScaling {
  std::size_t samples = 0;
  double scalar_samples_per_sec = 0.0;
  std::vector<BatchScalingPoint> points;
  double batch1_vs_scalar_speedup = 0.0;   ///< at batch size 1
  /// At batch size 1 with the slack gate off: every stream runs the full
  /// single-lane walk.
  double batch1_full_vs_scalar_speedup = 0.0;
  double batched_vs_scalar_speedup = 0.0;  ///< at the largest batch size
  bool checksum_match = true;  ///< batched outputs bitwise equal to scalar
};

// Kernel-level batch scaling: the same jittered request stream pushed
// through the double-walk reference loop (ref::ScalarProjection, one timed
// step per multiplier and sample) and through project_batch at several
// batch sizes, each pass on a fresh projector with the same clock seed — so
// the batched path must reproduce the reference jitter draw order and
// outputs bit for bit (checked via memcmp on every y vector). The passes
// run in rounds, every configuration once per round, and each keeps its
// best round, so a slow spell of the host does not land on one side only.
BatchScaling run_batch_scaling(bool smoke) {
  const auto design = serve_design(150.0);
  const Device device = make_device();
  auto plan = simulated_plan(design, reference_location_1());
  plan.with_jitter = true;  // every sample gets its own jittered period
  constexpr std::uint64_t kClockSeed = 42;
  constexpr int kRounds = 5;

  BatchScaling out;
  out.samples = smoke ? 2048 : 16384;
  const auto stream = request_stream(out.samples, 0xBA7C);

  std::vector<std::vector<double>> want(out.samples);
  const auto scalar_pass = [&] {
    ref::ScalarProjection scalar(design, device, plan, kWlX, nullptr,
                                 kClockSeed);
    std::vector<double> y;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t s = 0; s < out.samples; ++s) {
      scalar.project(stream[s], y);
      want[s] = y;
    }
    return seconds_since(t0);
  };
  const auto batched_pass = [&](std::size_t batch, bool gate) {
    ProjectionCircuit batched(design, device, plan, kWlX, nullptr, kClockSeed);
    batched.set_slack_gate(gate);
    std::vector<const std::vector<std::uint32_t>*> inputs;
    std::vector<std::vector<double>> ys;
    bool match = true;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t s0 = 0; s0 < out.samples; s0 += batch) {
      const std::size_t bn = std::min(batch, out.samples - s0);
      inputs.clear();
      for (std::size_t i = 0; i < bn; ++i) inputs.push_back(&stream[s0 + i]);
      batched.project_batch(inputs, ys);
      for (std::size_t i = 0; i < bn; ++i)
        match = match && ys[i].size() == want[s0 + i].size() &&
                std::memcmp(ys[i].data(), want[s0 + i].data(),
                            ys[i].size() * sizeof(double)) == 0;
    }
    const double dt = seconds_since(t0);
    out.checksum_match = out.checksum_match && match;
    return dt;
  };

  // (batch, slack gate) per configuration; the last is batch 1 ungated.
  const std::pair<std::size_t, bool> configs[] = {
      {1, true}, {4, true}, {16, true}, {64, true}, {1, false}};
  double scalar_s = 1e300;
  std::vector<double> best_s(std::size(configs), 1e300);
  for (int round = 0; round < kRounds; ++round) {
    scalar_s = std::min(scalar_s, scalar_pass());
    for (std::size_t c = 0; c < std::size(configs); ++c)
      best_s[c] = std::min(best_s[c],
                           batched_pass(configs[c].first, configs[c].second));
  }
  out.scalar_samples_per_sec = static_cast<double>(out.samples) / scalar_s;
  for (std::size_t c = 0; c + 1 < std::size(configs); ++c) {
    BatchScalingPoint p;
    p.batch = configs[c].first;
    p.samples_per_sec = static_cast<double>(out.samples) / best_s[c];
    p.speedup = scalar_s / best_s[c];
    out.points.push_back(p);
  }
  out.batch1_vs_scalar_speedup = out.points.front().speedup;
  out.batched_vs_scalar_speedup = out.points.back().speedup;
  out.batch1_full_vs_scalar_speedup = scalar_s / best_s.back();
  return out;
}

struct SettleKernel {
  std::size_t samples = 0;
  double int_samples_per_sec = 0.0;
  double double_samples_per_sec = 0.0;
  double int_vs_double_speedup = 0.0;
  bool checksum_match = true;  ///< captures bitwise equal across kernels
};

// Settle-kernel section: the integer-picosecond max-plus stream kernel
// (what project_batch runs per multiplier) against the double-walk
// reference stream (tests/reference, one advance per sample), on one
// calibrated 8×8 multiplier with per-sample jittered-period captures. Both
// run the same netlist and delays, so toggle activity is identical; the
// captured words must agree bit for bit (the PsGrid dequantisation is
// exact).
SettleKernel run_settle_kernel(bool smoke) {
  const Device device = make_device();
  Netlist nl = make_multiplier(8, kWlX);
  auto delays = annotate_timing(nl, device, reference_location_1());
  const ref::DoubleSim ref_sim(nl, delays);
  OverclockSim sim(std::move(nl), std::move(delays));
  const std::size_t ni = sim.netlist().num_inputs();

  SettleKernel out;
  out.samples = smoke ? 4096 : 32768;
  Rng rng(0x5E77);
  std::vector<std::uint8_t> flat(out.samples * ni);
  std::vector<double> periods(out.samples);
  std::vector<std::uint64_t> pticks(out.samples);
  const double crit_ns =
      PsGrid::to_ns(static_cast<std::uint32_t>(sim.critical_path_ticks()));
  for (std::size_t s = 0; s < out.samples; ++s) {
    auto row = to_bits(rng.uniform_u64(256), 8);
    append_bits(row, rng.uniform_u64(1u << kWlX), kWlX);
    std::copy(row.begin(), row.end(), flat.begin() + s * ni);
    periods[s] = rng.uniform(0.45, 1.05) * crit_ns;
    pticks[s] = PsGrid::period_ticks(periods[s]);
  }

  // Best-of repeated timing (one pass is milliseconds, below scheduler
  // noise): repeat until the budget accumulates and keep the fastest rep.
  const double budget_s = smoke ? 0.3 : 1.5;
  const auto best_seconds = [&](auto&& fn) {
    double best = 1e300, acc = 0.0;
    int reps = 0;
    while (acc < budget_s || reps < 3) {
      const auto t0 = std::chrono::steady_clock::now();
      fn();
      const double dt =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      best = std::min(best, dt);
      acc += dt;
      ++reps;
    }
    return best;
  };

  const std::vector<std::uint8_t> zero(ni, 0);
  OverclockSim::State st;
  OverclockSim::SweepStream stream;
  std::uint64_t checksum_int = 0, checksum_double = 0;
  const double dt_int = best_seconds([&] {
    checksum_int = 0;
    sim.reset(st, zero);
    sim.run_stream(st, flat.data(), out.samples, stream);
    for (std::size_t s = 0; s < out.samples; ++s)
      checksum_int += stream.capture_word_ticks(s, pticks[s]);
  });
  ref::DoubleSim::State ref_st;
  ref::DoubleSim::Stream ref_stream;
  const double dt_double = best_seconds([&] {
    checksum_double = 0;
    ref_sim.reset(ref_st, zero);
    ref_sim.run_stream(ref_st, flat.data(), out.samples, ref_stream);
    for (std::size_t s = 0; s < out.samples; ++s)
      checksum_double += ref_stream.capture_word(s, periods[s]);
  });
  out.int_samples_per_sec = static_cast<double>(out.samples) / dt_int;
  out.double_samples_per_sec = static_cast<double>(out.samples) / dt_double;
  out.int_vs_double_speedup =
      out.int_samples_per_sec / out.double_samples_per_sec;
  out.checksum_match = checksum_int == checksum_double;
  return out;
}

struct SlackGate {
  std::size_t samples = 0;
  double gated_samples_per_sec = 0.0;
  double full_samples_per_sec = 0.0;
  double gated_vs_full_speedup = 0.0;
  double gated_share = 0.0;     ///< of the gated run's multiplier streams
  bool checksum_match = true;   ///< gated outputs bitwise equal to full
};

// Slack-gate section: the batch-scaling design at its 150 MHz clock, whose
// shortest drawable period (the −4σ clamp) clears every multiplier's
// structural critical path, served in batches of 64 through two circuits
// with the same clock seed — one with the gate on, one forced to run every
// stream in full. The gated circuit is gated at every period its clock can
// draw, so it draws no jitter at all and every term is exact arithmetic;
// the full one draws every period and captures every stream. The gate may
// only move the speed: every output must agree bit for bit, so
// slack_gate_checksum_match witnesses that the skipped draws move no bit.
SlackGate run_slack_gate(bool smoke) {
  const auto design = serve_design(150.0);
  const Device device = make_device();
  auto plan = simulated_plan(design, reference_location_1());
  plan.with_jitter = true;
  constexpr std::uint64_t kClockSeed = 42;
  constexpr std::size_t kBatch = 64;

  SlackGate out;
  out.samples = smoke ? 4096 : 32768;
  const auto stream = request_stream(out.samples, 0x51AC);

  const auto run = [&](bool gate, std::vector<std::vector<double>>& all) {
    ProjectionCircuit circuit(design, device, plan, kWlX, nullptr, kClockSeed);
    circuit.set_slack_gate(gate);
    std::vector<const std::vector<std::uint32_t>*> inputs;
    std::vector<std::vector<double>> ys;
    all.resize(out.samples);
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t s0 = 0; s0 < out.samples; s0 += kBatch) {
      inputs.clear();
      for (std::size_t i = 0; i < kBatch; ++i) inputs.push_back(&stream[s0 + i]);
      circuit.project_batch(inputs, ys);
      for (std::size_t i = 0; i < kBatch; ++i) all[s0 + i] = ys[i];
    }
    const double dt =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    const auto counts = circuit.stream_counts();
    if (gate)
      out.gated_share = static_cast<double>(counts.gated) /
                        static_cast<double>(counts.gated + counts.full);
    return static_cast<double>(out.samples) / dt;
  };

  // Alternate the two runs and keep each one's best of three, so a slow
  // spell of the host does not land on one side only.
  std::vector<std::vector<double>> gated_ys, full_ys;
  for (int rep = 0; rep < 3; ++rep) {
    out.gated_samples_per_sec =
        std::max(out.gated_samples_per_sec, run(true, gated_ys));
    out.full_samples_per_sec =
        std::max(out.full_samples_per_sec, run(false, full_ys));
  }
  out.gated_vs_full_speedup =
      out.gated_samples_per_sec / out.full_samples_per_sec;
  for (std::size_t s = 0; s < out.samples; ++s)
    out.checksum_match =
        out.checksum_match && gated_ys[s].size() == full_ys[s].size() &&
        std::memcmp(gated_ys[s].data(), full_ys[s].data(),
                    gated_ys[s].size() * sizeof(double)) == 0;
  return out;
}

struct PoolPinningPoint {
  std::size_t batch = 0;
  double inline_samples_per_sec = 0.0;
  double unpinned_samples_per_sec = 0.0;
  double pinned_samples_per_sec = 0.0;
  double default_samples_per_sec = 0.0;  ///< the circuit's own rule
};

struct PoolPinning {
  std::size_t samples = 0;
  std::size_t workers = 0;
  std::vector<PoolPinningPoint> points;  ///< ascending batch size
  bool checksum_match = true;  ///< every policy's outputs bitwise equal
};

// Pool-pinning section: the slack-gate section's 150 MHz jittered design
// with the gate off, so every batch runs every multiplier stream in full —
// the only serving work that fans out. Each batch size runs inline
// (ExecPolicy::serial()), on an unpinned local pool of the global pool's
// size, on the pinned global pool (one chunk per worker, as project_rows'
// default), and under the circuit's default rule (inline below
// ProjectionCircuit::kInlineStreamBatch samples, the pinned pool from
// there). Every (batch, policy) pair runs once per round, the rounds
// interleave them, and each keeps its best round; the policy may only move
// the speed, so every output must agree bit for bit.
PoolPinning run_pool_pinning(bool smoke) {
  const auto design = serve_design(150.0);
  const Device device = make_device();
  auto plan = simulated_plan(design, reference_location_1());
  plan.with_jitter = true;
  constexpr std::uint64_t kClockSeed = 42;
  constexpr int kRounds = 5;
  constexpr ExecChunking kOnePerWorker{0, 1};
  const std::size_t batches[] = {4, 8, 16, 32, 64, 128, 256, 1024};

  PoolPinning out;
  out.samples = smoke ? 4096 : 32768;
  out.workers = ThreadPool::global().size();
  const auto stream = request_stream(out.samples, 0x9199);
  ThreadPool unpinned(0);
  // nullopt: the circuit's default rule.
  const std::optional<ExecPolicy> policies[] = {
      ExecPolicy::serial(), ExecPolicy::pooled(&unpinned, kOnePerWorker),
      ExecPolicy::pooled(nullptr, kOnePerWorker), std::nullopt};
  constexpr std::size_t kPolicies = std::size(policies);

  const auto run = [&](std::size_t batch, const std::optional<ExecPolicy>& exec,
                       std::vector<std::vector<double>>& all) {
    ProjectionCircuit circuit(design, device, plan, kWlX, nullptr, kClockSeed);
    circuit.set_slack_gate(false);
    if (exec) circuit.set_exec_policy(*exec);
    std::vector<const std::vector<std::uint32_t>*> inputs;
    std::vector<std::vector<double>> ys;
    all.resize(out.samples);
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t s0 = 0; s0 < out.samples; s0 += batch) {
      inputs.clear();
      for (std::size_t i = 0; i < batch; ++i) inputs.push_back(&stream[s0 + i]);
      circuit.project_batch(inputs, ys);
      for (std::size_t i = 0; i < batch; ++i) all[s0 + i] = ys[i];
    }
    return seconds_since(t0);
  };

  const std::size_t nb = std::size(batches);
  std::vector<double> best_s(nb * kPolicies, 1e300);
  std::vector<std::vector<std::vector<double>>> ys(kPolicies);
  for (int round = 0; round < kRounds; ++round)
    for (std::size_t b = 0; b < nb; ++b)
      for (std::size_t p = 0; p < kPolicies; ++p) {
        best_s[b * kPolicies + p] =
            std::min(best_s[b * kPolicies + p], run(batches[b], policies[p], ys[p]));
        if (p == 0) continue;
        for (std::size_t s = 0; s < out.samples; ++s)
          out.checksum_match =
              out.checksum_match && ys[p][s].size() == ys[0][s].size() &&
              std::memcmp(ys[p][s].data(), ys[0][s].data(),
                          ys[0][s].size() * sizeof(double)) == 0;
      }
  const auto rate = [&](double sec) {
    return static_cast<double>(out.samples) / sec;
  };
  for (std::size_t b = 0; b < nb; ++b) {
    const double* t = best_s.data() + b * kPolicies;
    out.points.push_back(
        {batches[b], rate(t[0]), rate(t[1]), rate(t[2]), rate(t[3])});
  }
  return out;
}

struct DegradationTrace {
  double f_target_mhz = 0.0, f_floor_mhz = 0.0, hot_derate = 0.0;
  ServeMetrics::Snapshot snap;
};

DegradationTrace degradation_trace(bool smoke) {
  const Device device = make_device();
  std::vector<double> freqs;
  for (double f = 120.0; f <= 540.0; f += 20.0) freqs.push_back(f);
  const auto curve =
      error_rate_curve(device, 8, kWlX, reference_location_1(), freqs,
                       smoke ? 200 : 600, 99);
  const auto regimes = find_regimes(curve);
  const double fb = regimes.error_free_fmax_mhz;
  const double fc = regimes.usable_fmax_mhz;

  DegradationTrace trace;
  trace.f_target_mhz = 0.9 * fb;
  trace.hot_derate = (fc + 20.0) / trace.f_target_mhz;
  trace.f_floor_mhz = std::min(0.5 * fb, 0.9 * fb / trace.hot_derate);

  GovernorConfig gov;
  gov.f_target_mhz = trace.f_target_mhz;
  gov.f_floor_mhz = trace.f_floor_mhz;
  gov.slo_error_rate = 0.05;
  gov.window_checks = smoke ? 16 : 32;
  gov.step_down_factor = trace.f_floor_mhz / trace.f_target_mhz;
  gov.step_up_mhz = trace.f_target_mhz - trace.f_floor_mhz;
  gov.healthy_windows_to_ramp = 2;

  ServeConfig cfg;
  cfg.workers = 1;
  cfg.max_batch = 4;
  cfg.max_wait_ms = 0.0;
  cfg.check_fraction = 1.0;
  cfg.governor = gov;

  const auto design = serve_design(trace.f_target_mhz);
  auto plan = simulated_plan(design, reference_location_1());
  plan.with_jitter = false;

  ProjectionServer server(design, device, plan, kWlX, nullptr, cfg, nullptr);
  const std::size_t w = gov.window_checks;
  const auto stream = request_stream(6 * w, 2014);
  std::uint64_t id = 0;
  auto drive = [&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i, ++id)
      server.submit({id + 1, stream[id], 0.0});
    server.wait_idle();
  };
  drive(2 * w);                        // nominal
  server.set_timing_derate(trace.hot_derate);
  drive(2 * w);                        // breach, step down, hold at floor
  server.set_timing_derate(1.0);
  drive(2 * w);                        // recover, ramp back
  trace.snap = server.metrics_snapshot();
  return trace;
}

void write_json(const char* path, bool smoke, const Throughput& throughput,
                const BatchScaling& scaling, const SettleKernel& kernel,
                const SlackGate& gate, const PoolPinning& pinning,
                const DegradationTrace& trace) {
  std::ofstream os(path);
  os.precision(10);
  os << "{\n  \"bench\": \"serve\",\n"
     << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
     << "  \"host\": " << bench::host_json() << ",\n"
     << "  \"throughput_vs_batch\": {\n    \"measure\": \"drain\",\n"
     << "    \"points\": [\n";
  const auto& points = throughput.points;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& p = points[i];
    os << "      {\"max_batch\": " << p.max_batch << ", \"served\": " << p.served
       << ", \"seconds\": " << p.seconds
       << ", \"requests_per_sec\": " << p.requests_per_sec
       << ", \"ns_per_request\": " << 1e9 / p.requests_per_sec
       << ", \"mean_batch_size\": " << p.mean_batch_size << "}"
       << (i + 1 < points.size() ? "," : "") << "\n";
  }
  // End-to-end serving gain of micro-batching: drained req/s at the
  // largest max_batch over max_batch 1.
  os << "    ],\n"
     << "    \"server_batch64_vs_batch1\": "
     << points.back().requests_per_sec / points.front().requests_per_sec
     << ",\n"
     << "    \"gated_row_kernel_b64_ns_per_sample\": "
     << throughput.row_kernel_ns_per_sample << ",\n"
     << "    \"served_vs_scalar_checksum_match\": "
     << (throughput.checksum_match ? "true" : "false") << "\n  },\n"
     << "  \"batch_scaling\": {\n"
     << "    \"samples\": " << scaling.samples << ",\n"
     << "    \"scalar_samples_per_sec\": " << scaling.scalar_samples_per_sec
     << ",\n    \"points\": [\n";
  for (std::size_t i = 0; i < scaling.points.size(); ++i) {
    const auto& p = scaling.points[i];
    os << "      {\"batch\": " << p.batch
       << ", \"samples_per_sec\": " << p.samples_per_sec
       << ", \"speedup\": " << p.speedup << "}"
       << (i + 1 < scaling.points.size() ? "," : "") << "\n";
  }
  os << "    ],\n"
     << "    \"batch1_vs_scalar_speedup\": "
     << scaling.batch1_vs_scalar_speedup << ",\n"
     << "    \"batch1_full_vs_scalar_speedup\": "
     << scaling.batch1_full_vs_scalar_speedup << ",\n"
     << "    \"batched_vs_scalar_speedup\": "
     << scaling.batched_vs_scalar_speedup << ",\n"
     << "    \"batched_vs_scalar_checksum_match\": "
     << (scaling.checksum_match ? "true" : "false") << "\n"
     << "  },\n"
     << "  \"settle_kernel\": {\n"
     << "    \"samples\": " << kernel.samples << ",\n"
     << "    \"int_samples_per_sec\": " << kernel.int_samples_per_sec << ",\n"
     << "    \"double_samples_per_sec\": " << kernel.double_samples_per_sec
     << ",\n"
     << "    \"int_vs_double_speedup\": " << kernel.int_vs_double_speedup
     << ",\n"
     << "    \"int_vs_double_checksum_match\": "
     << (kernel.checksum_match ? "true" : "false") << "\n"
     << "  },\n"
     << "  \"slack_gate\": {\n"
     << "    \"samples\": " << gate.samples << ",\n"
     << "    \"batch\": 64,\n"
     << "    \"gated_samples_per_sec\": " << gate.gated_samples_per_sec << ",\n"
     << "    \"full_samples_per_sec\": " << gate.full_samples_per_sec << ",\n"
     << "    \"gated_vs_full_speedup\": " << gate.gated_vs_full_speedup
     << ",\n"
     << "    \"gated_share\": " << gate.gated_share << ",\n"
     << "    \"slack_gate_checksum_match\": "
     << (gate.checksum_match ? "true" : "false") << "\n"
     << "  },\n"
     << "  \"pool_pinning\": {\n"
     << "    \"samples\": " << pinning.samples << ",\n"
     << "    \"workers\": " << pinning.workers << ",\n"
     << "    \"points\": [\n";
  for (std::size_t i = 0; i < pinning.points.size(); ++i) {
    const auto& p = pinning.points[i];
    os << "      {\"batch\": " << p.batch
       << ", \"inline_samples_per_sec\": " << p.inline_samples_per_sec
       << ", \"unpinned_samples_per_sec\": " << p.unpinned_samples_per_sec
       << ", \"pinned_samples_per_sec\": " << p.pinned_samples_per_sec
       << ", \"default_samples_per_sec\": " << p.default_samples_per_sec << "}"
       << (i + 1 < pinning.points.size() ? "," : "") << "\n";
  }
  os << "    ],\n"
     << "    \"inline_below\": " << ProjectionCircuit::kInlineStreamBatch
     << ",\n";
  for (const auto& p : pinning.points)
    if (p.batch == 64 || p.batch == 1024)
      os << "    \"pinned_vs_unpinned_b" << p.batch << "\": "
         << p.pinned_samples_per_sec / p.unpinned_samples_per_sec << ",\n";
  for (const auto& p : pinning.points)
    os << "    \"pinned_vs_inline_b" << p.batch << "\": "
       << p.pinned_samples_per_sec / p.inline_samples_per_sec << ",\n";
  os << "    \"pool_pinning_checksum_match\": "
     << (pinning.checksum_match ? "true" : "false") << "\n"
     << "  },\n"
     << "  \"degradation\": {\n"
     << "    \"f_target_mhz\": " << trace.f_target_mhz << ",\n"
     << "    \"f_floor_mhz\": " << trace.f_floor_mhz << ",\n"
     << "    \"hot_derate\": " << trace.hot_derate << ",\n"
     << "    \"snapshot\": " << trace.snap.to_json() << "  }\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;

  const auto throughput = run_throughput(smoke);
  for (const auto& p : throughput.points)
    std::printf(
        "throughput: max_batch=%-3zu %8.0f req/s drained, %6.1f ns/request "
        "(mean batch %.2f)\n",
        p.max_batch, p.requests_per_sec, 1e9 / p.requests_per_sec,
        p.mean_batch_size);
  std::printf("throughput: max_batch 64 vs 1 %.2fx\n",
              throughput.points.back().requests_per_sec /
                  throughput.points.front().requests_per_sec);
  std::printf("throughput: gated row kernel %.2f ns/sample at batch 64\n",
              throughput.row_kernel_ns_per_sample);
  std::printf("throughput: served vs scalar checksum %s\n",
              throughput.checksum_match ? "MATCH" : "MISMATCH");

  const auto scaling = run_batch_scaling(smoke);
  std::printf("batch scaling: scalar %8.0f samples/s\n",
              scaling.scalar_samples_per_sec);
  for (const auto& p : scaling.points)
    std::printf("batch scaling: batch=%-3zu %8.0f samples/s (%.2fx)\n",
                p.batch, p.samples_per_sec, p.speedup);
  std::printf("batch scaling: batch=1 ungated %.2fx\n",
              scaling.batch1_full_vs_scalar_speedup);
  std::printf("batch scaling: checksum %s\n",
              scaling.checksum_match ? "MATCH" : "MISMATCH");

  const auto kernel = run_settle_kernel(smoke);
  std::printf(
      "settle kernel: int-ps %8.0f samples/s, double %8.0f samples/s "
      "(%.2fx), checksum %s\n",
      kernel.int_samples_per_sec, kernel.double_samples_per_sec,
      kernel.int_vs_double_speedup,
      kernel.checksum_match ? "MATCH" : "MISMATCH");

  const auto gate = run_slack_gate(smoke);
  std::printf(
      "slack gate: batch 64 gated %8.0f samples/s, full %8.0f samples/s "
      "(%.2fx), gated share %.2f, checksum %s\n",
      gate.gated_samples_per_sec, gate.full_samples_per_sec,
      gate.gated_vs_full_speedup, gate.gated_share,
      gate.checksum_match ? "MATCH" : "MISMATCH");

  const auto pinning = run_pool_pinning(smoke);
  for (const auto& p : pinning.points)
    std::printf(
        "pool pinning: batch %-4zu inline %8.0f, unpinned %8.0f, pinned "
        "%8.0f, default %8.0f samples/s (pinned vs inline %.2fx)\n",
        p.batch, p.inline_samples_per_sec, p.unpinned_samples_per_sec,
        p.pinned_samples_per_sec, p.default_samples_per_sec,
        p.pinned_samples_per_sec / p.inline_samples_per_sec);
  std::printf("pool pinning: %zu workers, checksum %s\n", pinning.workers,
              pinning.checksum_match ? "MATCH" : "MISMATCH");

  const auto trace = degradation_trace(smoke);
  std::printf(
      "degradation: target %.1f MHz, hot derate %.2fx -> floor %.1f MHz; "
      "%llu/%llu checks errored; %zu frequency changes; "
      "%llu latencies past the histogram\n",
      trace.f_target_mhz, trace.hot_derate, trace.f_floor_mhz,
      static_cast<unsigned long long>(trace.snap.check_errors),
      static_cast<unsigned long long>(trace.snap.checks),
      trace.snap.frequency_timeline.size(),
      static_cast<unsigned long long>(trace.snap.latency_overflow));

  write_json("BENCH_serve.json", smoke, throughput, scaling, kernel, gate,
             pinning, trace);
  std::printf("-> BENCH_serve.json\n");
  return 0;
}
