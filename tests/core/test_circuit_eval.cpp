#include "core/circuit_eval.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "area/area_model.hpp"
#include "common/rng.hpp"
#include "core/baseline.hpp"
#include "core/synthetic.hpp"
#include "fabric/calibration.hpp"
#include "klt/klt.hpp"

namespace oclp {
namespace {

class CircuitEvalTest : public ::testing::Test {
 protected:
  CircuitEvalTest()
      : device_(reference_device_config(), kReferenceDieSeed),
        area_(AreaModel::fit(collect_area_samples(
            mult_config_range(MultArch::Array, 3, 9), 9, 10, 1))) {
    device_.set_temperature(kCharacterisationTempC);
    SyntheticDataConfig dc;
    dc.cases = 80;
    x_train_ = make_synthetic_dataset(dc);
    dc.cases = 120;
    dc.seed = 99;
    x_test_ = make_synthetic_dataset(dc);
    Matrix xc = x_train_;
    mu_ = center_rows(xc);
  }

  LinearProjectionDesign design(int wl, double freq) const {
    return make_klt_design(x_train_, 3, MultConfig{MultArch::Array, wl, 1},
                           freq, 9, area_, nullptr);
  }

  Device device_;
  AreaModel area_;
  Matrix x_train_, x_test_;
  std::vector<double> mu_;
};

TEST_F(CircuitEvalTest, PlansHaveOnePlacementPerMultiplier) {
  const auto d = design(5, 310.0);
  const auto sim = simulated_plan(d, reference_location_1());
  EXPECT_EQ(sim.mult_placements.size(), 18u);  // K=3 × P=6
  for (const auto& p : sim.mult_placements) {
    EXPECT_EQ(p.x, reference_location_1().x);
    EXPECT_EQ(p.route_seed, reference_location_1().route_seed);
  }
  const auto act = actual_plan(d, device_, 7);
  EXPECT_EQ(act.mult_placements.size(), 18u);
}

TEST_F(CircuitEvalTest, ActualPlanIsDeterministicInSeed) {
  const auto d = design(5, 310.0);
  const auto a = actual_plan(d, device_, 7);
  const auto b = actual_plan(d, device_, 7);
  for (std::size_t i = 0; i < a.mult_placements.size(); ++i) {
    EXPECT_EQ(a.mult_placements[i].x, b.mult_placements[i].x);
    EXPECT_EQ(a.mult_placements[i].route_seed, b.mult_placements[i].route_seed);
  }
  const auto c = actual_plan(d, device_, 8);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.mult_placements.size(); ++i)
    any_diff |= a.mult_placements[i].x != c.mult_placements[i].x ||
                a.mult_placements[i].y != c.mult_placements[i].y;
  EXPECT_TRUE(any_diff);
}

TEST_F(CircuitEvalTest, ProjectExactMatchesLinearAlgebra) {
  const auto d = design(6, 200.0);
  auto plan = simulated_plan(d, reference_location_1());
  ProjectionCircuit circuit(d, device_, plan, 9, nullptr, 1);
  const Matrix basis = d.basis();
  std::vector<double> sample(6);
  for (std::size_t r = 0; r < 6; ++r) sample[r] = x_test_(r, 0);
  const auto codes = encode_input(sample, 9);
  const auto y = circuit.project_exact(codes);
  for (std::size_t k = 0; k < 3; ++k) {
    double expected = 0.0;
    for (std::size_t p = 0; p < 6; ++p)
      expected += basis(p, k) * (static_cast<double>(codes[p]) / 512.0);
    EXPECT_NEAR(y[k], expected, 1e-12);
  }
}

TEST_F(CircuitEvalTest, LowFrequencyHardwareMatchesExact) {
  auto d = design(6, 100.0);  // far below any timing limit
  auto plan = simulated_plan(d, reference_location_1());
  ProjectionCircuit circuit(d, device_, plan, 9, nullptr, 1);
  for (std::size_t i = 0; i < 25; ++i) {
    std::vector<double> sample(6);
    for (std::size_t r = 0; r < 6; ++r) sample[r] = x_test_(r, i);
    const auto codes = encode_input(sample, 9);
    const auto hw = circuit.project(codes);
    const auto exact = circuit.project_exact(codes);
    for (std::size_t k = 0; k < 3; ++k) ASSERT_NEAR(hw[k], exact[k], 1e-12);
  }
}

TEST_F(CircuitEvalTest, HardwareMseAtLowClockMatchesSoftware) {
  auto d = design(7, 100.0);
  const double software = reconstruction_mse(d.basis(), x_test_);
  const auto plan = simulated_plan(d, reference_location_1());
  const double hardware =
      evaluate_hardware_mse(d, x_test_, mu_, device_, plan, 9, nullptr, 1);
  // Only input quantisation (9 bits) separates them.
  EXPECT_NEAR(hardware, software, software * 0.25 + 2e-6);
}

TEST_F(CircuitEvalTest, OverclockedHardwareDegrades) {
  auto slow = design(9, 150.0);
  auto fast = design(9, 420.0);  // deep in the error-prone regime
  const auto plan_slow = simulated_plan(slow, reference_location_1());
  const auto plan_fast = simulated_plan(fast, reference_location_1());
  const double mse_slow =
      evaluate_hardware_mse(slow, x_test_, mu_, device_, plan_slow, 9, nullptr, 1);
  const double mse_fast =
      evaluate_hardware_mse(fast, x_test_, mu_, device_, plan_fast, 9, nullptr, 1);
  EXPECT_GT(mse_fast, mse_slow * 10.0);
}

TEST_F(CircuitEvalTest, JitterOffIsDeterministic) {
  auto d = design(8, 330.0);
  auto plan = simulated_plan(d, reference_location_1());
  plan.with_jitter = false;
  const double a =
      evaluate_hardware_mse(d, x_test_, mu_, device_, plan, 9, nullptr, 1);
  const double b =
      evaluate_hardware_mse(d, x_test_, mu_, device_, plan, 9, nullptr, 2);
  EXPECT_DOUBLE_EQ(a, b);  // clock seed only matters through jitter
}

// Golden property: project_batch must be bitwise-identical to a sequential
// project() loop — same jittered clock draws (same clock_seed), same
// accumulation order — for every batch size, including the partial-chunk
// tails around the 64-lane eval64 boundary, and across a mid-stream
// set_clock retarget with an environment derate.
TEST_F(CircuitEvalTest, ProjectBatchBitwiseMatchesSequentialProject) {
  const auto d = design(8, 420.0);  // deep in the error-prone regime
  const auto plan = simulated_plan(d, reference_location_1());  // jitter ON
  const std::size_t p = d.dims_p();

  Rng rng(31);
  std::vector<std::vector<std::uint32_t>> stream(130);
  for (auto& codes : stream) {
    codes.resize(p);
    for (auto& c : codes) c = static_cast<std::uint32_t>(rng.uniform_u64(512));
  }
  const std::size_t retarget_at = 65;  // mid-stream clock retarget + derate

  // Sequential reference: one project() per sample.
  ProjectionCircuit seq(d, device_, plan, 9, nullptr, /*clock_seed=*/7);
  std::vector<std::vector<double>> want(stream.size());
  for (std::size_t s = 0; s < stream.size(); ++s) {
    if (s == retarget_at) seq.set_clock(300.0, 1.18);
    seq.project(stream[s], want[s]);
  }

  for (std::size_t batch_size : {std::size_t{1}, std::size_t{63},
                                 std::size_t{64}, std::size_t{65}}) {
    ProjectionCircuit bat(d, device_, plan, 9, nullptr, /*clock_seed=*/7);
    std::vector<const std::vector<std::uint32_t>*> batch;
    std::vector<std::vector<double>> ys;
    std::size_t s = 0;
    bool poked_empty = false;
    while (s < stream.size()) {
      if (s == retarget_at) bat.set_clock(300.0, 1.18);
      if (!poked_empty && s > 0) {
        // An empty batch is a no-op: no clock draw, no state change.
        bat.project_batch({}, ys);
        ASSERT_TRUE(ys.empty());
        poked_empty = true;
      }
      std::size_t chunk = std::min(batch_size, stream.size() - s);
      if (s < retarget_at) chunk = std::min(chunk, retarget_at - s);
      batch.clear();
      for (std::size_t i = 0; i < chunk; ++i) batch.push_back(&stream[s + i]);
      bat.project_batch(batch, ys);
      ASSERT_EQ(ys.size(), chunk);
      for (std::size_t i = 0; i < chunk; ++i) {
        ASSERT_EQ(ys[i].size(), want[s + i].size());
        for (std::size_t k = 0; k < ys[i].size(); ++k)
          ASSERT_EQ(ys[i][k], want[s + i][k])
              << "batch_size=" << batch_size << " sample=" << s + i
              << " k=" << k;
      }
      s += chunk;
    }
  }
}

// Batched and sequential paths may also interleave on one circuit: the
// multiplier register state and the jitter stream carry across.
TEST_F(CircuitEvalTest, ProjectBatchInterleavesWithProject) {
  const auto d = design(7, 400.0);
  const auto plan = simulated_plan(d, reference_location_1());
  const std::size_t p = d.dims_p();

  Rng rng(57);
  std::vector<std::vector<std::uint32_t>> stream(24);
  for (auto& codes : stream) {
    codes.resize(p);
    for (auto& c : codes) c = static_cast<std::uint32_t>(rng.uniform_u64(512));
  }

  ProjectionCircuit seq(d, device_, plan, 9, nullptr, 11);
  ProjectionCircuit mix(d, device_, plan, 9, nullptr, 11);
  std::vector<std::vector<double>> want(stream.size());
  for (std::size_t s = 0; s < stream.size(); ++s) seq.project(stream[s], want[s]);

  std::vector<double> y;
  std::vector<std::vector<double>> ys;
  std::size_t s = 0;
  while (s < stream.size()) {
    if (s % 2 == 0) {
      mix.project(stream[s], y);
      ASSERT_EQ(y, want[s]);
      ++s;
    } else {
      const std::size_t chunk = std::min<std::size_t>(5, stream.size() - s);
      std::vector<const std::vector<std::uint32_t>*> batch;
      for (std::size_t i = 0; i < chunk; ++i) batch.push_back(&stream[s + i]);
      mix.project_batch(batch, ys);
      for (std::size_t i = 0; i < chunk; ++i) ASSERT_EQ(ys[i], want[s + i]);
      s += chunk;
    }
  }
}

// Jitter-determinism regression: the clock_seed fully determines the
// jittered period sequence under both paths — equal seeds replay bitwise,
// different seeds draw different clocks (visible as diverging outputs in
// the error-prone regime).
TEST_F(CircuitEvalTest, ProjectBatchJitterIsSeedDeterministic) {
  const auto d = design(8, 420.0);
  const auto plan = simulated_plan(d, reference_location_1());
  const std::size_t p = d.dims_p();

  Rng rng(97);
  std::vector<std::vector<std::uint32_t>> stream(96);
  for (auto& codes : stream) {
    codes.resize(p);
    for (auto& c : codes) c = static_cast<std::uint32_t>(rng.uniform_u64(512));
  }
  std::vector<const std::vector<std::uint32_t>*> batch;
  for (const auto& codes : stream) batch.push_back(&codes);

  auto run_batched = [&](std::uint64_t seed) {
    ProjectionCircuit c(d, device_, plan, 9, nullptr, seed);
    std::vector<std::vector<double>> ys;
    c.project_batch(batch, ys);
    return ys;
  };

  const auto a = run_batched(3);
  const auto b = run_batched(3);
  ASSERT_EQ(a, b);  // same seed ⇒ identical clocks ⇒ identical outputs

  const auto c = run_batched(4);
  bool any_diff = false;
  for (std::size_t s = 0; s < a.size(); ++s) any_diff |= a[s] != c[s];
  EXPECT_TRUE(any_diff);  // different seed ⇒ different jitter draws
}

// Fused references: the settled rows project_batch returns from its own
// stream pass must equal project_settled() bit for bit, for every column
// architecture (array, Wallace, CCM, pipelined), batch sizes around the
// scalar detour and the 64-lane chunk edges, and empty / full / sparse
// (unordered, repeated) row selections — at a gated clock and at an
// over-clocked one. Asking for references must not perturb the outputs.
TEST_F(CircuitEvalTest, ProjectBatchFusedReferencesMatchProjectSettled) {
  const std::vector<double> vals{0.81, -0.62, 0.44, -0.27, 0.93, -0.15};
  LinearProjectionDesign d;
  for (const MultConfig cfg :
       {MultConfig{MultArch::Array, 5, 1}, MultConfig{MultArch::Wallace, 5, 1},
        MultConfig{MultArch::Ccm, 5, 1}, MultConfig{MultArch::Array, 5, 2}})
    d.columns.push_back(make_column(vals, cfg));
  const std::size_t p = d.dims_p();

  Rng rng(404);
  std::vector<std::vector<std::uint32_t>> stream(65);
  for (auto& codes : stream) {
    codes.resize(p);
    for (auto& c : codes) c = static_cast<std::uint32_t>(rng.uniform_u64(512));
  }

  for (const double freq : {150.0, 420.0}) {
    d.target_freq_mhz = freq;
    const auto plan = simulated_plan(d, reference_location_1());
    ProjectionCircuit fused(d, device_, plan, 9, nullptr, 5);
    ProjectionCircuit plain(d, device_, plan, 9, nullptr, 5);
    std::size_t offset = 0;
    for (std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{63},
                          std::size_t{64}, std::size_t{65}}) {
      std::vector<const std::vector<std::uint32_t>*> batch;
      for (std::size_t i = 0; i < n; ++i)
        batch.push_back(&stream[(offset + i) % stream.size()]);
      offset += n;
      std::vector<std::vector<double>> settled;
      plain.project_settled(batch, settled);

      std::vector<std::size_t> all(n), sparse;
      for (std::size_t i = 0; i < n; ++i) all[i] = i;
      for (std::size_t i = n; i-- > 0;)
        if (i % 3 == 0) sparse.push_back(i);
      sparse.push_back(n - 1);  // repeated row
      for (const auto* rows : {&all, &sparse}) {
        std::vector<std::vector<double>> ys, want, refs;
        fused.project_batch(batch, ys, rows, &refs);
        plain.project_batch(batch, want);
        const std::string what = "f " + std::to_string(freq) + " n " +
                                 std::to_string(n) + " rows " +
                                 std::to_string(rows->size());
        ASSERT_EQ(ys, want) << what;
        ASSERT_EQ(refs.size(), rows->size()) << what;
        for (std::size_t j = 0; j < rows->size(); ++j)
          ASSERT_EQ(refs[j], settled[(*rows)[j]]) << what << " j " << j;
      }
      const std::vector<std::size_t> none;
      std::vector<std::vector<double>> ys, want, refs(3);
      fused.project_batch(batch, ys, &none, &refs);
      plain.project_batch(batch, want);
      ASSERT_EQ(ys, want);
      ASSERT_TRUE(refs.empty());
    }
    // Both stream kinds fed references: gated at the slow clock, full
    // when over-clocked.
    const auto counts = fused.stream_counts();
    EXPECT_GT(freq < 200.0 ? counts.gated : counts.full, 0u) << freq;
  }
}

// A circuit whose clock crosses the slack-gate bound between batches, via
// set_clock with and without derate: gated and full streams alternate on
// the same multipliers (register state carried across), and every output
// must match the scalar project() loop and a circuit with the gate off.
TEST_F(CircuitEvalTest, ProjectBatchSlackGateCrossesTheBoundWithSetClock) {
  const auto d = design(5, 150.0);
  const auto plan = simulated_plan(d, reference_location_1());  // jitter ON
  const std::size_t p = d.dims_p();

  Rng rng(71);
  std::vector<std::vector<std::uint32_t>> stream(6 * 64);
  for (auto& codes : stream) {
    codes.resize(p);
    for (auto& c : codes) c = static_cast<std::uint32_t>(rng.uniform_u64(512));
  }
  // (nominal MHz, derate) per 64-sample segment: 150 and 150·1.18 sit
  // below the wl-5 bound, 420 and 250·1.6 above it.
  const std::pair<double, double> clocks[] = {
      {150.0, 1.0}, {420.0, 1.0}, {150.0, 1.18},
      {250.0, 1.6}, {200.0, 1.0}, {420.0, 1.0}};

  ProjectionCircuit seq(d, device_, plan, 9, nullptr, 13);
  ProjectionCircuit gated(d, device_, plan, 9, nullptr, 13);
  ProjectionCircuit full(d, device_, plan, 9, nullptr, 13);
  full.set_slack_gate(false);
  std::vector<const std::vector<std::uint32_t>*> batch;
  std::vector<std::vector<double>> ys_gated, ys_full;
  std::vector<double> y;
  for (std::size_t seg = 0; seg < 6; ++seg) {
    if (seg > 0) {
      seq.set_clock(clocks[seg].first, clocks[seg].second);
      gated.set_clock(clocks[seg].first, clocks[seg].second);
      full.set_clock(clocks[seg].first, clocks[seg].second);
    }
    batch.clear();
    for (std::size_t i = 0; i < 64; ++i) batch.push_back(&stream[seg * 64 + i]);
    gated.project_batch(batch, ys_gated);
    full.project_batch(batch, ys_full);
    for (std::size_t i = 0; i < 64; ++i) {
      seq.project(stream[seg * 64 + i], y);
      ASSERT_EQ(ys_gated[i], y) << "segment " << seg << " sample " << i;
      ASSERT_EQ(ys_full[i], y) << "segment " << seg << " sample " << i;
    }
  }
  const std::uint64_t kp = d.dims_k() * d.dims_p();
  EXPECT_EQ(gated.stream_counts().gated + gated.stream_counts().full, 6 * kp);
  EXPECT_GE(gated.stream_counts().gated, 3 * kp);  // the three slow segments
  EXPECT_GT(gated.stream_counts().full, 0u);
  EXPECT_EQ(full.stream_counts().gated, 0u);
  EXPECT_EQ(full.stream_counts().full, 6 * kp);
}

TEST_F(CircuitEvalTest, ProjectBatchReferenceRowsAreValidated) {
  const auto d = design(5, 310.0);
  const auto plan = simulated_plan(d, reference_location_1());
  ProjectionCircuit circuit(d, device_, plan, 9, nullptr, 1);
  const std::vector<std::uint32_t> codes(d.dims_p(), 3);
  std::vector<std::vector<double>> ys, refs;
  const std::vector<std::size_t> out_of_range{2};
  EXPECT_THROW(circuit.project_batch({&codes, &codes}, ys, &out_of_range, &refs),
               CheckError);
  const std::vector<std::size_t> first{0};
  EXPECT_THROW(circuit.project_batch({&codes, &codes}, ys, &first, nullptr),
               CheckError);
}

TEST_F(CircuitEvalTest, ProjectBatchValidatesInputs) {
  const auto d = design(5, 310.0);
  const auto plan = simulated_plan(d, reference_location_1());
  ProjectionCircuit circuit(d, device_, plan, 9, nullptr, 1);
  std::vector<std::vector<double>> ys;
  const std::vector<std::uint32_t> short_codes{1, 2, 3};
  EXPECT_THROW(circuit.project_batch({&short_codes}, ys), CheckError);
  EXPECT_THROW(circuit.project_batch({nullptr}, ys), CheckError);
}

TEST_F(CircuitEvalTest, PlanSizeMismatchThrows) {
  const auto d = design(5, 310.0);
  CircuitPlan bad;
  bad.mult_placements.assign(5, reference_location_1());
  EXPECT_THROW(ProjectionCircuit(d, device_, bad, 9, nullptr, 1), CheckError);
}

TEST_F(CircuitEvalTest, WrongInputSizeThrows) {
  const auto d = design(5, 310.0);
  const auto plan = simulated_plan(d, reference_location_1());
  ProjectionCircuit circuit(d, device_, plan, 9, nullptr, 1);
  EXPECT_THROW(circuit.project({1, 2, 3}), CheckError);
}

}  // namespace
}  // namespace oclp
