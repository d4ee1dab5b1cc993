#include "charlib/sweep.hpp"

#include <algorithm>
#include <mutex>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "fabric/timing_annotation.hpp"
#include "mult/bitcodec.hpp"

namespace oclp {

std::vector<std::uint32_t> uniform_stream(int wl_x, std::size_t n,
                                          std::uint64_t seed) {
  Rng rng(hash_mix(seed, 0x57eaULL, wl_x));
  std::vector<std::uint32_t> xs(n);
  for (auto& x : xs)
    x = static_cast<std::uint32_t>(rng.uniform_u64(std::uint64_t{1} << wl_x));
  return xs;
}

namespace {

// Sweep the given multiplicand rows of `model` on `device`: one circuit
// per location for the whole sweep — construction (netlist build + timing
// annotation + STA) dwarfs a single stream run, so it must not sit inside
// the per-multiplicand loop. Workers share the circuits through the const
// single-pass API with one workspace per chunk. Each worker writes only its
// own model row, so any policy/chunking is bitwise-identical to serial.
void sweep_rows(const Device& device, const SweepSettings& settings,
                const std::vector<std::uint32_t>& rows, ErrorModel& model,
                const ExecPolicy& exec) {
  const auto& freqs = model.freqs_mhz();
  const auto stream = uniform_stream(model.data_wordlength(),
                                     settings.samples_per_point,
                                     settings.stream_seed);

  CharCircuitConfig ccfg;
  ccfg.mult = model.config();
  ccfg.wl_x = model.data_wordlength();
  ccfg.with_jitter = settings.with_jitter;
  ccfg.fsm_clock_mhz = settings.fsm_clock_mhz;
  ccfg.bram_depth = settings.bram_depth;

  std::vector<CharacterisationCircuit> circuits;
  circuits.reserve(settings.locations.size());
  for (const auto& loc : settings.locations)
    circuits.emplace_back(ccfg, device, loc);

  auto worker = [&](std::size_t ri, CharacterisationCircuit::Workspace& ws) {
    const std::uint32_t m = rows[ri];
    std::vector<RunningStats> err(freqs.size());
    std::vector<std::size_t> erroneous(freqs.size(), 0);
    std::vector<std::size_t> total(freqs.size(), 0);
    // One pass over the stream per location yields every frequency point.
    for (std::size_t li = 0; li < circuits.size(); ++li) {
      const auto traces = circuits[li].run_multi(
          m, stream, freqs,
          hash_mix(settings.stream_seed, m,
                   settings.locations[li].route_seed),
          &ws);
      for (std::size_t fi = 0; fi < freqs.size(); ++fi) {
        for (auto e : traces[fi].error) err[fi].add(static_cast<double>(e));
        erroneous[fi] += traces[fi].erroneous;
        total[fi] += traces[fi].error.size();
      }
    }
    for (std::size_t fi = 0; fi < freqs.size(); ++fi)
      model.set(m, fi, err[fi].variance(), err[fi].mean(),
                total[fi] ? static_cast<double>(erroneous[fi]) /
                                static_cast<double>(total[fi])
                          : 0.0);
  };
  std::vector<CharacterisationCircuit::Workspace> workspaces(
      exec.num_chunks(rows.size()));
  exec.for_chunks(0, rows.size(),
                  [&](std::size_t c0, std::size_t c1, std::size_t chunk) {
                    for (std::size_t ri = c0; ri < c1; ++ri)
                      worker(ri, workspaces[chunk]);
                  });
}

std::vector<double> sorted_freqs(const SweepSettings& settings) {
  OCLP_CHECK(!settings.freqs_mhz.empty());
  OCLP_CHECK(!settings.locations.empty());
  OCLP_CHECK(settings.samples_per_point >= 2);
  std::vector<double> freqs = settings.freqs_mhz;
  std::sort(freqs.begin(), freqs.end());
  return freqs;
}

}  // namespace

ErrorModel characterise_multiplier(const Device& device,
                                   const MultConfig& config, int wl_x,
                                   const SweepSettings& settings,
                                   const ExecPolicy& exec) {
  ErrorModel model(config, wl_x, sorted_freqs(settings));
  std::vector<std::uint32_t> rows(model.num_multiplicands());
  for (std::uint32_t m = 0; m < rows.size(); ++m) rows[m] = m;
  sweep_rows(device, settings, rows, model, exec);
  return model;
}

SurrogateSweep characterise_multiplier_surrogate(
    const Device& device, const MultConfig& config, int wl_x,
    const SweepSettings& settings, std::size_t probe_stride,
    const ExecPolicy& exec) {
  OCLP_CHECK_MSG(probe_stride >= 1, "surrogate probe stride must be >= 1");
  SurrogateSweep out{ErrorModel(config, wl_x, sorted_freqs(settings)), 0, 0};
  ErrorModel& model = out.model;
  const auto num_m = static_cast<std::uint32_t>(model.num_multiplicands());
  out.total_rows = num_m;

  // Strided probe rows plus both endpoints, so every unprobed row is
  // bracketed and the interpolation never extrapolates.
  std::vector<std::uint32_t> rows;
  for (std::uint32_t m = 0; m < num_m;
       m += static_cast<std::uint32_t>(probe_stride))
    rows.push_back(m);
  if (rows.back() != num_m - 1) rows.push_back(num_m - 1);
  out.probed_rows = rows.size();
  sweep_rows(device, settings, rows, model, exec);

  // Per-frequency linear interpolation of the three statistics across the
  // multiplicand axis. E(m, f) is not smooth in m (settle time follows the
  // carry structure of the constant, not its magnitude), which is exactly
  // why this is a ranking surrogate and not a servable model.
  const std::size_t nf = model.freqs_mhz().size();
  for (std::size_t ri = 0; ri + 1 < rows.size(); ++ri) {
    const std::uint32_t m0 = rows[ri], m1 = rows[ri + 1];
    for (std::uint32_t m = m0 + 1; m < m1; ++m) {
      const double t = static_cast<double>(m - m0) / static_cast<double>(m1 - m0);
      for (std::size_t fi = 0; fi < nf; ++fi) {
        const double f = model.freqs_mhz()[fi];
        model.set(m, fi,
                  (1.0 - t) * model.variance(m0, f) + t * model.variance(m1, f),
                  (1.0 - t) * model.mean_error(m0, f) +
                      t * model.mean_error(m1, f),
                  (1.0 - t) * model.error_rate(m0, f) +
                      t * model.error_rate(m1, f));
      }
    }
  }
  return out;
}

SubsweepReport recharacterise_multiplier(const CharacterisationCircuit& circuit,
                                         ErrorModel& model,
                                         const SubsweepSettings& settings,
                                         const ExecPolicy& exec) {
  OCLP_CHECK_MSG(!model.empty(), "subsweep needs a constructed error model");
  model.require_config(circuit.config().mult, "subsweep");
  OCLP_CHECK_MSG(circuit.config().wl_x == model.data_wordlength(),
                 "subsweep circuit streams wl_x=" << circuit.config().wl_x
                                                  << " but the model is for wl_x="
                                                  << model.data_wordlength());
  OCLP_CHECK(settings.samples_per_point >= 2);
  OCLP_CHECK(settings.timing_derate > 0.0);

  // Merge the focus list with the rotating stride slice into a sorted
  // unique probe set.
  std::vector<std::uint32_t> probe = settings.multiplicands;
  const auto num_m = static_cast<std::uint32_t>(model.num_multiplicands());
  for (std::uint32_t m : probe)
    OCLP_CHECK_MSG(m < num_m, "subsweep multiplicand " << m
                                                       << " out of range for wl_m="
                                                       << model.wordlength());
  if (settings.m_stride > 0) {
    const auto start = static_cast<std::uint32_t>(
        settings.m_phase % settings.m_stride);
    for (std::uint32_t m = start; m < num_m;
         m += static_cast<std::uint32_t>(settings.m_stride))
      probe.push_back(m);
  }
  std::sort(probe.begin(), probe.end());
  probe.erase(std::unique(probe.begin(), probe.end()), probe.end());
  OCLP_CHECK_MSG(!probe.empty(),
                 "subsweep has nothing to probe (empty focus list and no "
                 "stride coverage)");

  // The probe runs at derated frequencies but records under the nominal
  // grid. Points whose derated frequency reaches the supporting-logic Fmax
  // cannot be measured by the framework (run_multi would throw to avoid
  // injecting errors of its own) — they are dropped here and count as
  // erroneous for the fB estimate, which is conservative.
  const auto& grid = model.freqs_mhz();
  std::vector<double> run_freqs;
  std::vector<std::size_t> grid_index;
  run_freqs.reserve(grid.size());
  for (std::size_t fi = 0; fi < grid.size(); ++fi) {
    const double f = grid[fi] * settings.timing_derate;
    if (f < circuit.support_fmax_mhz()) {
      run_freqs.push_back(f);
      grid_index.push_back(fi);
    }
  }
  SubsweepReport report;
  report.skipped_freqs = grid.size() - run_freqs.size();
  OCLP_CHECK_MSG(!run_freqs.empty(),
                 "subsweep: every grid point derated past the supporting "
                 "logic Fmax ("
                     << circuit.support_fmax_mhz() << " MHz)");

  const auto stream = uniform_stream(model.data_wordlength(),
                                     settings.samples_per_point,
                                     settings.stream_seed);

  // erroneous_at[j]: any probed code erred at run_freqs[j] (ascending).
  std::vector<std::uint8_t> erroneous_at(run_freqs.size(), 0);
  std::mutex merge_mutex;

  auto worker = [&](std::size_t pi, CharacterisationCircuit::Workspace& ws) {
    const std::uint32_t m = probe[pi];
    const auto traces = circuit.run_multi(
        m, stream, run_freqs, hash_mix(settings.stream_seed, m, 0x5B5EE7ULL),
        &ws);
    std::lock_guard lock(merge_mutex);
    for (std::size_t j = 0; j < run_freqs.size(); ++j) {
      RunningStats err;
      for (auto e : traces[j].error) err.add(static_cast<double>(e));
      const auto total = traces[j].error.size();
      model.set(m, grid_index[j], err.variance(), err.mean(),
                total ? static_cast<double>(traces[j].erroneous) /
                            static_cast<double>(total)
                      : 0.0);
      if (traces[j].erroneous > 0) erroneous_at[j] = 1;
    }
  };

  // Distinct model rows / erroneous_at slots per probe (the mutex only
  // serialises the writes), so the policy cannot change the result.
  std::vector<CharacterisationCircuit::Workspace> workspaces(
      exec.num_chunks(probe.size()));
  exec.for_chunks(0, probe.size(),
                  [&](std::size_t c0, std::size_t c1, std::size_t chunk) {
                    for (std::size_t pi = c0; pi < c1; ++pi)
                      worker(pi, workspaces[chunk]);
                  });

  // fB over the probed codes: highest grid frequency below the first
  // erroneous (or unprobeable) point, in ascending order — same rule as
  // find_regimes, so a spurious clean point above the onset cannot extend
  // the regime.
  for (std::size_t j = 0; j < run_freqs.size(); ++j) {
    if (grid_index[j] != j) break;  // a skipped point interrupts the scan
    if (erroneous_at[j]) break;
    report.error_free_fmax_mhz = grid[j];
  }
  report.probed = probe.size();
  return report;
}

std::vector<ErrorRatePoint> error_rate_curve(const Device& device, int wl_a,
                                             int wl_b, const Placement& placement,
                                             const std::vector<double>& freqs_mhz,
                                             std::size_t samples,
                                             std::uint64_t seed,
                                             const ExecPolicy& exec) {
  OCLP_CHECK(!freqs_mhz.empty() && samples >= 2);
  const std::size_t nf = freqs_mhz.size();

  CharCircuitConfig ccfg;
  ccfg.mult = MultConfig{MultArch::Array, wl_a, 1};
  ccfg.wl_x = wl_b;

  // One circuit for the whole curve; every frequency point comes from the
  // same single-pass stream.
  CharacterisationCircuit circuit(ccfg, device, placement);

  // Both operands random: stream a fresh random multiplicand per short
  // burst. Bursts keep the fixed-port semantics of the circuit while
  // exercising the whole operand space; their specs are pre-drawn so the
  // bursts can run in parallel yet merge deterministically in order.
  const std::size_t burst = 16;
  struct BurstSpec {
    std::uint32_t m;
    std::uint64_t xs_seed, jitter_seed;
    std::size_t n;
  };
  std::vector<BurstSpec> bursts;
  bursts.reserve((samples + burst - 1) / burst);
  Rng rng(hash_mix(seed, 0xF19uLL));
  for (std::size_t remaining = samples; remaining > 0;) {
    BurstSpec b;
    b.n = std::min(burst, remaining);
    b.m = static_cast<std::uint32_t>(rng.uniform_u64(std::uint64_t{1} << wl_a));
    b.xs_seed = rng.next();
    b.jitter_seed = rng.next();
    bursts.push_back(b);
    remaining -= b.n;
  }

  std::vector<std::vector<RunningStats>> burst_err(
      bursts.size(), std::vector<RunningStats>(nf));
  std::vector<std::vector<std::size_t>> burst_bad(
      bursts.size(), std::vector<std::size_t>(nf, 0));

  auto worker = [&](std::size_t bi, CharacterisationCircuit::Workspace& ws) {
    const auto& b = bursts[bi];
    const auto xs = uniform_stream(wl_b, b.n, b.xs_seed);
    const auto traces =
        circuit.run_multi(b.m, xs, freqs_mhz, b.jitter_seed, &ws);
    for (std::size_t fi = 0; fi < nf; ++fi) {
      for (auto e : traces[fi].error)
        burst_err[bi][fi].add(static_cast<double>(e));
      burst_bad[bi][fi] = traces[fi].erroneous;
    }
  };

  // Bursts fill distinct slots in parallel; the order-sensitive
  // RunningStats merge below stays a serial fixed-order fold, so the
  // curve is bitwise-independent of the policy.
  std::vector<CharacterisationCircuit::Workspace> workspaces(
      exec.num_chunks(bursts.size()));
  exec.for_chunks(0, bursts.size(),
                  [&](std::size_t c0, std::size_t c1, std::size_t chunk) {
                    for (std::size_t bi = c0; bi < c1; ++bi)
                      worker(bi, workspaces[chunk]);
                  });

  std::vector<ErrorRatePoint> curve(nf);
  for (std::size_t fi = 0; fi < nf; ++fi) {
    RunningStats err;
    std::size_t bad = 0;
    for (std::size_t bi = 0; bi < bursts.size(); ++bi) {
      err.merge(burst_err[bi][fi]);
      bad += burst_bad[bi][fi];
    }
    curve[fi] = ErrorRatePoint{
        freqs_mhz[fi],
        samples ? static_cast<double>(bad) / static_cast<double>(samples) : 0.0,
        err.variance()};
  }
  return curve;
}

OperatingRegimes find_regimes(const std::vector<ErrorRatePoint>& curve,
                              double meaningful_rate) {
  OperatingRegimes reg;
  if (curve.empty()) return reg;
  std::vector<ErrorRatePoint> pts = curve;
  std::sort(pts.begin(), pts.end(), [](const ErrorRatePoint& a,
                                       const ErrorRatePoint& b) {
    return a.freq_mhz < b.freq_mhz;
  });
  // fB is the highest frequency *below the first erroneous point*: a
  // spurious error-free measurement above the error onset (sampling noise
  // on a non-monotonic curve) must not extend the error-free regime.
  for (const auto& pt : pts) {
    if (pt.error_rate > 0.0) break;
    reg.error_free_fmax_mhz = pt.freq_mhz;
  }
  // Same rule for fC against the meaningful-rate threshold.
  for (const auto& pt : pts) {
    if (pt.error_rate >= meaningful_rate) break;
    reg.usable_fmax_mhz = pt.freq_mhz;
  }
  return reg;
}

}  // namespace oclp
