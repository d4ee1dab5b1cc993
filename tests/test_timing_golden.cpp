// Golden checksums of the timed-simulation consumers: the Figure-4
// characterisation traces, the Razor baseline's detection counts and
// recovered outputs, a scalar projection loop across a mid-stream clock
// retarget on every multiplier architecture, and one end-to-end hardware
// MSE. The expected values are FNV-1a checksums of a known-good build, so
// any change to the settle arithmetic, the jitter draw order or the
// capture rule that moves a single bit fails here.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "charlib/char_circuit.hpp"
#include "charlib/sweep.hpp"
#include "common/rng.hpp"
#include "core/circuit_eval.hpp"
#include "core/design.hpp"
#include "core/synthetic.hpp"
#include "fabric/calibration.hpp"
#include "fabric/timing_annotation.hpp"
#include "linalg/matrix.hpp"
#include "mult/bitcodec.hpp"
#include "mult/multiplier.hpp"
#include "timing/razor.hpp"

#include "golden_checksum.hpp"

namespace oclp {
namespace {

Device reference_device() {
  Device device(reference_device_config(), kReferenceDieSeed);
  device.set_temperature(kCharacterisationTempC);
  return device;
}

// bench_fig4_two_locations: 8×8 array multiplier, multiplicand 222 at
// 320 MHz, jitter on, 29 400 samples, at both reference locations.
TEST(TimingGolden, Fig4CharacterisationTraces) {
  const Device device = reference_device();
  CharCircuitConfig cfg;
  cfg.mult = MultConfig{MultArch::Array, 8, 1};
  cfg.wl_x = 8;
  ASSERT_TRUE(cfg.with_jitter);
  const auto xs = uniform_stream(8, 29400, 2014);
  const Placement locations[2] = {reference_location_1(),
                                  reference_location_2()};
  const std::uint64_t want[2] = {0xf359d10a328ca2c7ull,
                                 0x09279919a319c83dull};
  for (int l = 0; l < 2; ++l) {
    CharacterisationCircuit circuit(cfg, device, locations[l]);
    const CharTrace t = circuit.run(kFig4Multiplicand, xs, kFig4ClockMhz, 5);
    testing_golden::Fnv1a f;
    f.mix(std::uint64_t{t.erroneous});
    f.mix(std::uint64_t{t.fsm_cycles});
    for (std::size_t i = 0; i < t.observed.size(); ++i) {
      f.mix(t.observed[i]);
      f.mix(static_cast<std::uint64_t>(t.error[i]));
    }
    EXPECT_EQ(f.h, want[l]) << "location " << l + 1 << std::hex << " got 0x"
                            << f.h;
  }
}

// bench_baseline_razor: a 9×9 multiplier at reference location 1 clocked at
// 310 MHz over a fixed 10 000-pair stream, at the bench's four shadow
// margins.
TEST(TimingGolden, RazorBaselineCountsAndRecoveredOutputs) {
  const Device device = reference_device();
  constexpr int kWl = 9;
  const Netlist nl = make_multiplier(kWl, kWl);
  const auto delays = annotate_timing(nl, device, reference_location_1());
  Rng rng(7);
  std::vector<std::pair<unsigned, unsigned>> stream;
  for (int i = 0; i < 10000; ++i)
    stream.emplace_back(rng.uniform_u64(512), rng.uniform_u64(512));

  const double margins[4] = {0.3, 0.8, 1.5, 3.0};
  const std::uint64_t want[4] = {0x946048e7e1b7fdccull, 0x2de72a33602b9d44ull,
                                 0xe88304c16d13fc0eull, 0xe88304c16d13fc0eull};
  for (int mi = 0; mi < 4; ++mi) {
    RazorConfig cfg;
    cfg.shadow_margin_ns = margins[mi];
    cfg.recovery_penalty_cycles = 1;
    RazorSim razor(nl, delays, cfg);
    std::vector<std::uint8_t> in;
    append_bits(in, 0, kWl);
    append_bits(in, 0, kWl);
    razor.reset(in);
    testing_golden::Fnv1a f;
    for (const auto& [a, b] : stream) {
      in.clear();
      append_bits(in, a, kWl);
      append_bits(in, b, kWl);
      const auto res = razor.step(in, 1000.0 / 310.0);
      f.mix(from_bits(res.outputs));
      f.mix(std::uint64_t{res.error_detected} |
            std::uint64_t{res.undetected_error} << 1);
    }
    f.mix(std::uint64_t{razor.errors_detected()});
    f.mix(std::uint64_t{razor.errors_undetected()});
    f.mix(std::uint64_t{razor.cycles_consumed()});
    EXPECT_EQ(f.h, want[mi]) << "margin " << margins[mi] << std::hex
                             << " got 0x" << f.h;
  }
}

// One column per multiplier architecture (array, Wallace, CCM, pipelined
// array), jittered clock at 310 MHz, retargeted mid-stream to a derated
// 280 MHz.
LinearProjectionDesign mixed_design() {
  LinearProjectionDesign d;
  d.columns.push_back(make_column({0.75, -0.5, 0.875},
                                  MultConfig{MultArch::Array, 5, 1}));
  d.columns.push_back(make_column({-0.625, 0.90625, 0.25},
                                  MultConfig{MultArch::Wallace, 6, 1}));
  d.columns.push_back(make_column({0.9375, 0.4375, -0.8125},
                                  MultConfig{MultArch::Ccm, 5, 1}));
  d.columns.push_back(make_column({0.53125, -0.96875, 0.71875},
                                  MultConfig{MultArch::Array, 6, 2}));
  d.target_freq_mhz = 310.0;
  return d;
}

TEST(TimingGolden, ProjectLoopAcrossSetClockOnEveryArchitecture) {
  const Device device = reference_device();
  const auto design = mixed_design();
  const auto plan = simulated_plan(design, reference_location_1());
  constexpr int kWlX = 8;
  ProjectionCircuit circuit(design, device, plan, kWlX, nullptr, 42);
  Rng rng(0x601D);
  testing_golden::Fnv1a f;
  std::vector<double> y;
  for (int s = 0; s < 400; ++s) {
    if (s == 200) circuit.set_clock(280.0, 1.1);
    std::vector<std::uint32_t> codes(design.dims_p());
    for (auto& c : codes)
      c = static_cast<std::uint32_t>(rng.uniform_u64(1u << kWlX));
    circuit.project(codes, y);
    for (const double v : y) f.mix(v);
  }
  EXPECT_EQ(f.h, 0x5df849d74d784a1bull) << std::hex << " got 0x" << f.h;
}

TEST(TimingGolden, HardwareMseOfAFixedDesign) {
  const Device device = reference_device();
  LinearProjectionDesign design;
  const MultConfig cfg{MultArch::Array, 6, 1};
  design.columns.push_back(
      make_column({0.40625, 0.40625, 0.40625, 0.40625, 0.40625, 0.40625}, cfg));
  design.columns.push_back(
      make_column({0.5, -0.5, 0.25, -0.25, 0.5, -0.375}, cfg));
  design.target_freq_mhz = 330.0;
  SyntheticDataConfig dc;
  dc.cases = 500;
  Matrix x = make_synthetic_dataset(dc);
  Matrix xc = x;
  const auto mu = center_rows(xc);
  const auto plan = actual_plan(design, device, 9);
  const double mse =
      evaluate_hardware_mse(design, x, mu, device, plan, 9, nullptr, 77);
  testing_golden::Fnv1a f;
  f.mix(mse);
  EXPECT_EQ(f.h, 0x4efa3a86e918dfd1ull)
      << std::hex << " got 0x" << f.h << " mse " << mse;
}

}  // namespace
}  // namespace oclp
