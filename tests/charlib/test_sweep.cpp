#include "charlib/sweep.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/stats.hpp"
#include "fabric/calibration.hpp"

namespace oclp {
namespace {

MultConfig acfg(int wl) { return MultConfig{MultArch::Array, wl, 1}; }

class SweepTest : public ::testing::Test {
 protected:
  SweepTest() : device_(reference_device_config(), kReferenceDieSeed) {
    device_.set_temperature(kCharacterisationTempC);
    settings_.locations = {reference_location_1()};
    settings_.samples_per_point = 200;
  }
  Device device_;
  SweepSettings settings_;
};

TEST(UniformStream, RangeAndDeterminism) {
  const auto a = uniform_stream(5, 1000, 42);
  const auto b = uniform_stream(5, 1000, 42);
  EXPECT_EQ(a, b);
  for (auto x : a) ASSERT_LT(x, 32u);
  const auto c = uniform_stream(5, 1000, 43);
  EXPECT_NE(a, c);
}

TEST(UniformStream, CoversTheRange) {
  const auto xs = uniform_stream(3, 500, 1);
  std::vector<int> seen(8, 0);
  for (auto x : xs) ++seen[x];
  for (int s : seen) EXPECT_GT(s, 0);
}

TEST_F(SweepTest, LowFrequencyModelIsAllZero) {
  settings_.freqs_mhz = {100.0};
  const auto model = characterise_multiplier(device_, acfg(4), 4, settings_);
  for (std::uint32_t m = 0; m < 16; ++m) {
    EXPECT_DOUBLE_EQ(model.variance(m, 100.0), 0.0) << "m=" << m;
    EXPECT_DOUBLE_EQ(model.error_rate(m, 100.0), 0.0);
  }
}

TEST_F(SweepTest, HighFrequencyShowsDataDependence) {
  // 5×5 at the reference slow corner errs from ~500 MHz; 640 MHz is deep in
  // the error-prone regime but still under the supporting-logic limit.
  settings_.freqs_mhz = {640.0};
  settings_.samples_per_point = 400;
  const auto model = characterise_multiplier(device_, acfg(5), 5, settings_);
  // m = 0: no partial products, never any error.
  EXPECT_DOUBLE_EQ(model.variance(0, 640.0), 0.0);
  // The all-ones multiplicand toggles every row: must err at this clock.
  EXPECT_GT(model.variance(31, 640.0), 0.0);
  // On average, low-popcount multiplicands err less than high-popcount ones.
  double low = 0.0, high = 0.0;
  int nlow = 0, nhigh = 0;
  for (std::uint32_t m = 0; m < 32; ++m) {
    const int pc = __builtin_popcount(m);
    if (pc <= 1) {
      low += model.error_rate(m, 640.0);
      ++nlow;
    } else if (pc >= 4) {
      high += model.error_rate(m, 640.0);
      ++nhigh;
    }
  }
  EXPECT_LT(low / nlow, high / nhigh);
}

TEST_F(SweepTest, VarianceGrowsWithFrequency) {
  settings_.freqs_mhz = {300.0, 550.0, 660.0};
  settings_.samples_per_point = 300;
  const auto model = characterise_multiplier(device_, acfg(5), 5, settings_);
  double v300 = 0.0, v550 = 0.0, v660 = 0.0;
  for (std::uint32_t m = 0; m < 32; ++m) {
    v300 += model.variance(m, 300.0);
    v550 += model.variance(m, 550.0);
    v660 += model.variance(m, 660.0);
  }
  EXPECT_LE(v300, v550);
  EXPECT_LT(v550, v660);
  EXPECT_DOUBLE_EQ(v300, 0.0);
}

TEST_F(SweepTest, MultipleLocationsAggregate) {
  settings_.freqs_mhz = {640.0};
  settings_.locations = {reference_location_1(), reference_location_2()};
  settings_.samples_per_point = 150;
  const auto model = characterise_multiplier(device_, acfg(5), 5, settings_);
  EXPECT_GT(model.max_variance(), 0.0);
}

// CCM lowers one DUT per constant, and m = 0's product is constant zero: a
// DUT with no timing path. It must neither stop the rig from being built
// (its Fmax would be 1000/0) nor move the worst-case Fmax, and its row
// reads zero error at every frequency.
TEST_F(SweepTest, CcmCharacterisesEveryConstantIncludingZero) {
  const MultConfig ccm{MultArch::Ccm, 3, 1};
  settings_.freqs_mhz = {200.0, 400.0, 640.0};
  settings_.locations = {reference_location_1(), reference_location_2()};
  const auto model = characterise_multiplier(device_, ccm, 9, settings_);
  for (const double f : settings_.freqs_mhz) {
    EXPECT_DOUBLE_EQ(model.error_rate(0, f), 0.0) << f << " MHz";
    EXPECT_DOUBLE_EQ(model.variance(0, f), 0.0) << f << " MHz";
    EXPECT_DOUBLE_EQ(model.mean_error(0, f), 0.0) << f << " MHz";
  }
  EXPECT_GT(model.max_variance(), 0.0);  // some constant errs at 640 MHz

  CharCircuitConfig cfg;
  cfg.mult = ccm;
  cfg.wl_x = 9;
  for (const Placement& loc : settings_.locations) {
    const CharacterisationCircuit circuit(cfg, device_, loc);
    EXPECT_TRUE(std::isfinite(circuit.dut_tool_fmax_mhz()));
    EXPECT_TRUE(std::isfinite(circuit.dut_device_fmax_mhz()));
    EXPECT_GT(circuit.dut_device_fmax_mhz(), 0.0);
  }
}

TEST_F(SweepTest, DeterministicAcrossRuns) {
  settings_.freqs_mhz = {400.0};
  const auto a = characterise_multiplier(device_, acfg(4), 4, settings_);
  const auto b = characterise_multiplier(device_, acfg(4), 4, settings_);
  for (std::uint32_t m = 0; m < 16; ++m)
    EXPECT_DOUBLE_EQ(a.variance(m, 400.0), b.variance(m, 400.0));
}

TEST_F(SweepTest, ErrorRateCurveIsBroadlyIncreasing) {
  std::vector<double> freqs{150.0, 250.0, 350.0, 450.0};
  const auto curve = error_rate_curve(device_, 6, 6, reference_location_1(),
                                      freqs, 1500, 3);
  ASSERT_EQ(curve.size(), 4u);
  EXPECT_DOUBLE_EQ(curve[0].error_rate, 0.0);
  EXPECT_GT(curve[3].error_rate, curve[1].error_rate);
  EXPECT_GT(curve[3].error_rate, 0.01);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(curve[i].freq_mhz, freqs[i]);
}

TEST(FindRegimes, ExtractsBoundaries) {
  std::vector<ErrorRatePoint> curve{
      {100.0, 0.0, 0.0}, {200.0, 0.0, 0.0}, {300.0, 0.1, 1.0},
      {400.0, 0.4, 2.0}, {500.0, 0.8, 3.0}};
  const auto reg = find_regimes(curve, 0.5);
  EXPECT_DOUBLE_EQ(reg.error_free_fmax_mhz, 200.0);  // fB
  EXPECT_DOUBLE_EQ(reg.usable_fmax_mhz, 400.0);      // fC
}

TEST(FindRegimes, AllErrorFree) {
  std::vector<ErrorRatePoint> curve{{100.0, 0.0, 0.0}, {200.0, 0.0, 0.0}};
  const auto reg = find_regimes(curve);
  EXPECT_DOUBLE_EQ(reg.error_free_fmax_mhz, 200.0);
  EXPECT_DOUBLE_EQ(reg.usable_fmax_mhz, 200.0);
}

// The seed per-frequency reference path: one full stream simulation per
// (m, frequency, location), accumulated exactly as the sweep engine does.
ErrorModel reference_characterisation(const Device& device,
                                      const MultConfig& config, int wl_x,
                                      const SweepSettings& settings) {
  std::vector<double> freqs = settings.freqs_mhz;
  std::sort(freqs.begin(), freqs.end());
  ErrorModel model(config, wl_x, freqs);
  const auto stream = uniform_stream(wl_x, settings.samples_per_point,
                                     settings.stream_seed);
  CharCircuitConfig ccfg;
  ccfg.mult = config;
  ccfg.wl_x = wl_x;
  ccfg.with_jitter = settings.with_jitter;
  ccfg.fsm_clock_mhz = settings.fsm_clock_mhz;
  ccfg.bram_depth = settings.bram_depth;
  for (std::uint32_t m = 0; m < model.num_multiplicands(); ++m) {
    for (std::size_t fi = 0; fi < freqs.size(); ++fi) {
      RunningStats err;
      std::size_t erroneous = 0, total = 0;
      for (const auto& loc : settings.locations) {
        CharacterisationCircuit circuit(ccfg, device, loc);
        const auto trace =
            circuit.run(m, stream, freqs[fi],
                        hash_mix(settings.stream_seed, m, loc.route_seed));
        for (auto e : trace.error) err.add(static_cast<double>(e));
        erroneous += trace.erroneous;
        total += trace.error.size();
      }
      model.set(m, fi, err.variance(), err.mean(),
                total ? static_cast<double>(erroneous) /
                            static_cast<double>(total)
                      : 0.0);
    }
  }
  return model;
}

TEST_F(SweepTest, SinglePassMatchesPerFrequencyReferenceBitwise) {
  // Jitter-free golden regression: the single-pass engine must reproduce
  // the per-frequency reference path bit for bit on a 4×4 sweep with three
  // frequencies and two locations.
  settings_.with_jitter = false;
  settings_.locations = {reference_location_1(), reference_location_2()};
  settings_.samples_per_point = 200;

  CharCircuitConfig probe_cfg;
  probe_cfg.mult = acfg(4);
  probe_cfg.wl_x = 4;
  probe_cfg.with_jitter = false;
  CharacterisationCircuit probe1(probe_cfg, device_, reference_location_1());
  CharacterisationCircuit probe2(probe_cfg, device_, reference_location_2());
  const double f0 =
      std::min(probe1.dut_device_fmax_mhz(), probe2.dut_device_fmax_mhz());
  const double support =
      std::min(probe1.support_fmax_mhz(), probe2.support_fmax_mhz());
  settings_.freqs_mhz = {0.7 * f0, std::min(1.05 * f0, 0.9 * support),
                         std::min(1.3 * f0, 0.97 * support)};
  ASSERT_LT(settings_.freqs_mhz[1], settings_.freqs_mhz[2]);

  const auto single_pass = characterise_multiplier(device_, acfg(4), 4, settings_);
  const auto reference = reference_characterisation(device_, acfg(4), 4, settings_);

  bool any_error = false;
  for (std::uint32_t m = 0; m < 16; ++m)
    for (double f : settings_.freqs_mhz) {
      EXPECT_EQ(single_pass.variance(m, f), reference.variance(m, f))
          << "m=" << m << " f=" << f;
      EXPECT_EQ(single_pass.mean_error(m, f), reference.mean_error(m, f))
          << "m=" << m << " f=" << f;
      EXPECT_EQ(single_pass.error_rate(m, f), reference.error_rate(m, f))
          << "m=" << m << " f=" << f;
      any_error |= reference.error_rate(m, f) > 0.0;
    }
  EXPECT_TRUE(any_error);  // the grid must actually reach the error regime
}

TEST_F(SweepTest, JitteredSinglePassIsStatisticallyEquivalent) {
  // With jitter the single-pass engine draws one deviation per sample and
  // applies it to every frequency, instead of one independent stream per
  // frequency. Per-frequency marginals must stay equivalent: at a marginal
  // clock the aggregate error statistics have to agree closely (jitter is
  // ±4σ = 48 ps against periods of ~1.5 ns, so it only flips samples whose
  // slack is within that window).
  settings_.with_jitter = true;
  settings_.freqs_mhz = {640.0};
  settings_.samples_per_point = 400;
  const auto single_pass = characterise_multiplier(device_, acfg(5), 5, settings_);
  const auto reference = reference_characterisation(device_, acfg(5), 5, settings_);

  double total_abs_diff = 0.0;
  for (std::uint32_t m = 0; m < 32; ++m) {
    const double d =
        std::abs(single_pass.error_rate(m, 640.0) - reference.error_rate(m, 640.0));
    EXPECT_LE(d, 0.10) << "m=" << m;
    total_abs_diff += d;
  }
  EXPECT_LE(total_abs_diff / 32.0, 0.02);
  EXPECT_GT(single_pass.max_variance(), 0.0);
}

TEST_F(SweepTest, ConstructsEachLocationCircuitExactlyOnce) {
  settings_.freqs_mhz = {300.0, 450.0, 600.0};
  settings_.locations = {reference_location_1(), reference_location_2()};
  settings_.samples_per_point = 50;
  const auto before = CharacterisationCircuit::construction_count();
  characterise_multiplier(device_, acfg(4), 4, settings_);
  const auto after = CharacterisationCircuit::construction_count();
  EXPECT_EQ(after - before, settings_.locations.size());
}

TEST_F(SweepTest, ErrorRateCurveBuildsOneCircuitForAllFrequencies) {
  const std::vector<double> freqs{150.0, 300.0, 450.0};
  const auto before = CharacterisationCircuit::construction_count();
  error_rate_curve(device_, 5, 5, reference_location_1(), freqs, 200, 11);
  EXPECT_EQ(CharacterisationCircuit::construction_count() - before, 1u);
}

TEST(FindRegimes, NonMonotonicCurveStopsAtFirstError) {
  // A spurious zero-error measurement above the error onset must extend
  // neither regime.
  std::vector<ErrorRatePoint> curve{
      {100.0, 0.0, 0.0}, {200.0, 0.2, 1.0}, {300.0, 0.0, 0.0},
      {400.0, 0.6, 2.0}, {500.0, 0.0, 0.0}};
  const auto reg = find_regimes(curve, 0.5);
  EXPECT_DOUBLE_EQ(reg.error_free_fmax_mhz, 100.0);
  EXPECT_DOUBLE_EQ(reg.usable_fmax_mhz, 300.0);
}

TEST(FindRegimes, FirstPointErroneousGivesZero) {
  std::vector<ErrorRatePoint> curve{{100.0, 0.7, 1.0}, {200.0, 0.9, 2.0}};
  const auto reg = find_regimes(curve, 0.5);
  EXPECT_DOUBLE_EQ(reg.error_free_fmax_mhz, 0.0);
  EXPECT_DOUBLE_EQ(reg.usable_fmax_mhz, 0.0);
}

TEST(FindRegimes, UnsortedInputIsSortedByFrequency) {
  std::vector<ErrorRatePoint> curve{
      {400.0, 0.4, 2.0}, {100.0, 0.0, 0.0}, {300.0, 0.1, 1.0},
      {200.0, 0.0, 0.0}};
  const auto reg = find_regimes(curve, 0.3);
  EXPECT_DOUBLE_EQ(reg.error_free_fmax_mhz, 200.0);
  EXPECT_DOUBLE_EQ(reg.usable_fmax_mhz, 300.0);
}

TEST_F(SweepTest, InvalidSettingsThrow) {
  SweepSettings bad;
  bad.freqs_mhz = {};
  bad.locations = {reference_location_1()};
  EXPECT_THROW(characterise_multiplier(device_, acfg(4), 4, bad), CheckError);
  bad.freqs_mhz = {300.0};
  bad.locations = {};
  EXPECT_THROW(characterise_multiplier(device_, acfg(4), 4, bad), CheckError);
}

// --- subsampled online re-characterisation ---------------------------------

class SubsweepTest : public ::testing::Test {
 protected:
  SubsweepTest() : device_(reference_device_config(), kReferenceDieSeed) {
    device_.set_temperature(kCharacterisationTempC);
    ccfg_.mult = acfg(4);
    ccfg_.wl_x = 4;
    ccfg_.with_jitter = false;
  }
  CharacterisationCircuit circuit() const {
    return CharacterisationCircuit(ccfg_, device_, reference_location_1());
  }
  Device device_;
  CharCircuitConfig ccfg_;
};

TEST_F(SubsweepTest, UpdatesOnlyProbedRows) {
  const auto circ = circuit();
  ErrorModel model(acfg(4), 4, {100.0, 200.0});
  for (std::uint32_t m = 0; m < 16; ++m)
    for (std::size_t fi = 0; fi < 2; ++fi) model.set(m, fi, 1.0, 2.0, 0.0);

  SubsweepSettings probe;
  probe.multiplicands = {3, 11};
  probe.samples_per_point = 100;
  const auto report = recharacterise_multiplier(circ, model, probe);

  EXPECT_EQ(report.probed, 2u);
  EXPECT_EQ(report.skipped_freqs, 0u);
  // Probed rows were re-measured (error-free at these safe clocks: zero
  // variance/mean replaces the sentinel values); unprobed rows untouched.
  for (std::uint32_t m = 0; m < 16; ++m)
    for (double f : {100.0, 200.0}) {
      if (m == 3 || m == 11) {
        EXPECT_DOUBLE_EQ(model.variance(m, f), 0.0);
        EXPECT_DOUBLE_EQ(model.mean_error(m, f), 0.0);
      } else {
        EXPECT_DOUBLE_EQ(model.variance(m, f), 1.0);
        EXPECT_DOUBLE_EQ(model.mean_error(m, f), 2.0);
      }
    }
}

TEST_F(SubsweepTest, StrideCoverageRotatesWithPhase) {
  const auto circ = circuit();
  auto probed_rows = [&](std::uint64_t phase) {
    ErrorModel model(acfg(4), 4, {100.0});
    for (std::uint32_t m = 0; m < 16; ++m) model.set(m, 0, 1.0, 0.0, 0.0);
    SubsweepSettings probe;
    probe.m_stride = 8;
    probe.m_phase = phase;
    probe.samples_per_point = 50;
    recharacterise_multiplier(circ, model, probe);
    std::vector<std::uint32_t> rows;
    for (std::uint32_t m = 0; m < 16; ++m)
      if (model.variance(m, 100.0) == 0.0) rows.push_back(m);
    return rows;
  };
  EXPECT_EQ(probed_rows(0), (std::vector<std::uint32_t>{0, 8}));
  EXPECT_EQ(probed_rows(1), (std::vector<std::uint32_t>{1, 9}));
  EXPECT_EQ(probed_rows(9), (std::vector<std::uint32_t>{1, 9}));  // mod stride
}

TEST_F(SubsweepTest, ErrorFreeFmaxFollowsTheFirstErroneousPoint) {
  // 8×8 at the reference placement errs well below 640 (the Figure-1
  // landscape), so a grid spanning the onset yields a mid-grid fB.
  CharCircuitConfig cc;
  cc.mult = acfg(8);
  cc.wl_x = 8;
  cc.with_jitter = false;
  CharacterisationCircuit circ(cc, device_, reference_location_1());
  std::vector<double> grid;
  for (double f = 100.0; f <= 640.0; f += 30.0) grid.push_back(f);
  ErrorModel model(acfg(8), 8, grid);
  SubsweepSettings probe;
  probe.multiplicands = {255, 222};
  probe.samples_per_point = 150;
  const auto clean = recharacterise_multiplier(circ, model, probe);
  EXPECT_GT(clean.error_free_fmax_mhz, 0.0);
  EXPECT_LT(clean.error_free_fmax_mhz, 640.0);

  // Emulated drift (delays × d): the same probe on the same grid must see
  // a smaller error-free regime — this is what the fleet's control plane
  // keys its floor adjustment on.
  ErrorModel drifted(acfg(8), 8, grid);
  probe.timing_derate = 2.0;
  const auto hot = recharacterise_multiplier(circ, drifted, probe);
  EXPECT_LT(hot.error_free_fmax_mhz, clean.error_free_fmax_mhz);
}

TEST_F(SubsweepTest, GridPointsPastSupportFmaxAreSkipped) {
  const auto circ = circuit();
  // Derate the probe so the top of the grid lands beyond the supporting
  // logic's Fmax: those points are unprobeable and must be skipped (and
  // counted), not crash the framework's own-error guard.
  const double support = circ.support_fmax_mhz();
  ErrorModel model(acfg(4), 4, {100.0, 0.9 * support});
  SubsweepSettings probe;
  probe.multiplicands = {5};
  probe.samples_per_point = 50;
  probe.timing_derate = 1.5;
  const auto report = recharacterise_multiplier(circ, model, probe);
  EXPECT_EQ(report.skipped_freqs, 1u);
}

TEST_F(SubsweepTest, DeterministicAcrossRuns) {
  const auto circ = circuit();
  auto run = [&] {
    ErrorModel model(acfg(4), 4, {100.0, 500.0, 640.0});
    SubsweepSettings probe;
    probe.multiplicands = {15, 13};
    probe.m_stride = 4;
    probe.samples_per_point = 120;
    recharacterise_multiplier(circ, model, probe);
    return model;
  };
  const auto a = run();
  const auto b = run();
  for (std::uint32_t m = 0; m < 16; ++m)
    for (double f : {100.0, 500.0, 640.0}) {
      EXPECT_DOUBLE_EQ(a.variance(m, f), b.variance(m, f));
      EXPECT_DOUBLE_EQ(a.mean_error(m, f), b.mean_error(m, f));
    }
}

TEST_F(SubsweepTest, Validation) {
  const auto circ = circuit();
  ErrorModel model(acfg(4), 4, {100.0});
  SubsweepSettings probe;  // nothing to probe
  EXPECT_THROW(recharacterise_multiplier(circ, model, probe), CheckError);
  probe.multiplicands = {16};  // out of range for wl_m = 4
  EXPECT_THROW(recharacterise_multiplier(circ, model, probe), CheckError);
  probe.multiplicands = {1};
  probe.samples_per_point = 1;
  EXPECT_THROW(recharacterise_multiplier(circ, model, probe), CheckError);
  probe.samples_per_point = 50;
  probe.timing_derate = 0.0;
  EXPECT_THROW(recharacterise_multiplier(circ, model, probe), CheckError);
  ErrorModel wrong_wl(acfg(5), 4, {100.0});
  probe.timing_derate = 1.0;
  EXPECT_THROW(recharacterise_multiplier(circ, wrong_wl, probe), CheckError);
  ErrorModel empty;
  EXPECT_THROW(recharacterise_multiplier(circ, empty, probe), CheckError);
}

}  // namespace
}  // namespace oclp
