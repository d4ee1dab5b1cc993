#include "core/circuit_eval.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <iterator>
#include <string>
#include <utility>

#include "area/area_model.hpp"
#include "common/rng.hpp"
#include "core/baseline.hpp"
#include "core/synthetic.hpp"
#include "fabric/calibration.hpp"
#include "fabric/timing_annotation.hpp"
#include "klt/klt.hpp"
#include "mult/ccm.hpp"
#include "mult/multiplier.hpp"
#include "reference/scalar_projection.hpp"

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

/// The CheckError message `call` throws, or "(no CheckError)".
std::string check_message(const std::function<void()>& call) {
  try {
    call();
  } catch (const CheckError& e) {
    return e.what();
  }
  return "(no CheckError)";
}

/// A synthetic error model for `cfg`: a per-code, per-frequency mean error
/// (code units) that makes every column's correction visible in the low
/// bits of its outputs.
ErrorModel synthetic_model(const MultConfig& cfg, int wl_x) {
  ErrorModel model(cfg, wl_x, {100.0, 300.0, 500.0});
  for (std::uint32_t m = 0; m < model.num_multiplicands(); ++m)
    for (std::size_t fi = 0; fi < 3; ++fi)
      model.set(m, fi, 1.0, 0.37 * m - 1.3 * static_cast<double>(fi), 0.01);
  return model;
}

/// Bitwise equality of two output rows (a −0.0 would not equal +0.0).
bool same_bits(const double* a, const double* b, std::size_t n) {
  return std::memcmp(a, b, n * sizeof(double)) == 0;
}

// Golden property: the row core (project_rows) and its pointer adapter
// (project_batch) must be bitwise-identical to the scalar double-walk loop
// — same jittered clock draws (same clock_seed), and an exact integer
// reduction equal to the loop's double sum — for every block size, from
// the lone row to the partial-chunk tails around the 64-lane eval64
// boundary; on gated, mixed and full blocks; with and without mean-error
// corrections; across mid-stream set_clock retargets with an environment
// derate; and with a CCM column beside array and Wallace columns.
TEST_F(CircuitEvalTest, ProjectBatchBitwiseMatchesSequentialProject) {
  const int wl_x = 9;
  // An array, a CCM and a Wallace column: gated at 150 MHz (the per-clock
  // gate), mixed at 300 MHz (Wallace gated, array streamed), and at 420 MHz
  // every stream but a few short CCM constants' runs in full.
  const std::vector<double> vals{0.81, -0.62, 0.44, -0.27, 0.93, -0.15};
  LinearProjectionDesign mixed;
  for (const MultConfig cfg :
       {MultConfig{MultArch::Array, 5, 1}, MultConfig{MultArch::Ccm, 5, 1},
        MultConfig{MultArch::Wallace, 5, 1}})
    mixed.columns.push_back(make_column(vals, cfg));
  mixed.target_freq_mhz = 150.0;
  ErrorModelMap models;
  for (const auto& col : mixed.columns)
    models.emplace(col.config, synthetic_model(col.config, wl_x));

  struct Retarget {
    std::size_t at;
    double freq, derate;
  };
  struct Case {
    LinearProjectionDesign design;
    const ErrorModelMap* models;
    std::vector<Retarget> retargets;
    std::size_t samples;
  };
  const Case cases[] = {
      // The KLT array design deep in the error-prone regime: full streams.
      {design(8, 420.0), nullptr, {{65, 300.0, 1.18}}, 130},
      {mixed, nullptr, {{70, 300.0, 1.0}, {140, 420.0, 1.0}}, 210},
      {mixed, &models, {{70, 300.0, 1.0}, {140, 250.0, 1.6}}, 210},
  };

  for (std::size_t ci = 0; ci < std::size(cases); ++ci) {
    const Case& c = cases[ci];
    const auto plan = simulated_plan(c.design, reference_location_1());  // jitter ON
    const std::size_t p = c.design.dims_p();
    const std::size_t k = c.design.dims_k();

    Rng rng(31 + ci);
    std::vector<std::vector<std::uint32_t>> stream(c.samples);
    std::vector<std::uint32_t> rows;
    for (auto& codes : stream) {
      codes.resize(p);
      for (auto& x : codes) x = static_cast<std::uint32_t>(rng.uniform_u64(512));
      rows.insert(rows.end(), codes.begin(), codes.end());
    }
    const auto retarget_at = [&](std::size_t s) -> const Retarget* {
      for (const auto& r : c.retargets)
        if (r.at == s) return &r;
      return nullptr;
    };

    // Sequential reference: one double-walk step per multiplier and sample.
    ref::ScalarProjection seq(c.design, device_, plan, wl_x, c.models,
                              /*clock_seed=*/7);
    std::vector<std::vector<double>> want(stream.size());
    for (std::size_t s = 0; s < stream.size(); ++s) {
      if (const Retarget* r = retarget_at(s)) seq.set_clock(r->freq, r->derate);
      seq.project(stream[s], want[s]);
    }

    for (std::size_t batch_size : {std::size_t{1}, std::size_t{63},
                                   std::size_t{64}, std::size_t{65}}) {
      // The row core and the pointer adapter, on twin circuits.
      ProjectionCircuit core(c.design, device_, plan, wl_x, c.models, 7);
      ProjectionCircuit adapter(c.design, device_, plan, wl_x, c.models, 7);
      std::vector<const std::vector<std::uint32_t>*> batch;
      std::vector<std::vector<double>> ys;
      std::vector<double> y;
      std::size_t s = 0;
      bool poked_empty = false;
      while (s < stream.size()) {
        if (const Retarget* r = retarget_at(s)) {
          core.set_clock(r->freq, r->derate);
          adapter.set_clock(r->freq, r->derate);
        }
        if (!poked_empty && s > 0) {
          // An empty block is a no-op: no clock draw, no state change.
          core.project_rows(rows.data(), 0, nullptr);
          adapter.project_batch({}, ys);
          ASSERT_TRUE(ys.empty());
          poked_empty = true;
        }
        std::size_t chunk = std::min(batch_size, stream.size() - s);
        for (const auto& r : c.retargets)
          if (s < r.at) chunk = std::min(chunk, r.at - s);
        y.assign(chunk * k, -1.0);
        const auto before = core.stream_counts();
        core.project_rows(rows.data() + s * p, chunk, y.data());
        const auto after = core.stream_counts();
        batch.clear();
        for (std::size_t i = 0; i < chunk; ++i) batch.push_back(&stream[s + i]);
        adapter.project_batch(batch, ys);
        ASSERT_EQ(ys.size(), chunk);
        for (std::size_t i = 0; i < chunk; ++i) {
          ASSERT_EQ(want[s + i].size(), k);
          ASSERT_TRUE(same_bits(y.data() + i * k, want[s + i].data(), k))
              << "case " << ci << " batch_size=" << batch_size
              << " sample=" << s + i;
          ASSERT_EQ(ys[i].size(), k);
          ASSERT_TRUE(same_bits(ys[i].data(), want[s + i].data(), k))
              << "case " << ci << " batch_size=" << batch_size
              << " sample=" << s + i;
        }
        // The KLT design's first blocks run every stream in full; the
        // mixed design's blocks are all-gated, mixed, then streamed.
        const auto gated = after.gated - before.gated;
        const auto full = after.full - before.full;
        if (ci == 0 && s < 65) {
          EXPECT_EQ(gated, 0u) << "s=" << s;
        }
        if (ci > 0 && s < 70) {
          EXPECT_EQ(full, 0u) << "case " << ci << " s=" << s;
        }
        if (ci > 0 && s >= 70 && s < 140) {
          EXPECT_GT(gated, 0u) << "case " << ci << " s=" << s;
          EXPECT_GT(full, 0u) << "case " << ci << " s=" << s;
        }
        if (s >= 140) {
          EXPECT_GT(full, 0u) << "case " << ci << " s=" << s;
        }
        s += chunk;
      }
    }
  }
}

// settled_rows and its adapters agree bit for bit, and with the exact
// integer arithmetic they stand for.
TEST_F(CircuitEvalTest, SettledRowsMatchAdaptersAndExactArithmetic) {
  const std::vector<double> vals{0.81, -0.62, 0.44, -0.27, 0.93, -0.15};
  LinearProjectionDesign d;
  for (const MultConfig cfg :
       {MultConfig{MultArch::Array, 5, 1}, MultConfig{MultArch::Ccm, 5, 1}})
    d.columns.push_back(make_column(vals, cfg));
  d.target_freq_mhz = 420.0;
  const auto plan = simulated_plan(d, reference_location_1());
  const ProjectionCircuit circuit(d, device_, plan, 9, nullptr, 1);
  const std::size_t p = d.dims_p(), k = d.dims_k();

  Rng rng(17);
  std::vector<std::vector<std::uint32_t>> stream(70);
  std::vector<const std::vector<std::uint32_t>*> batch;
  std::vector<std::uint32_t> rows;
  for (auto& codes : stream) {
    codes.resize(p);
    for (auto& x : codes) x = static_cast<std::uint32_t>(rng.uniform_u64(512));
    rows.insert(rows.end(), codes.begin(), codes.end());
    batch.push_back(&codes);
  }
  std::vector<double> y(stream.size() * k);
  circuit.settled_rows(rows.data(), stream.size(), y.data());
  std::vector<std::vector<double>> ys;
  circuit.project_settled(batch, ys);
  for (std::size_t s = 0; s < stream.size(); ++s) {
    ASSERT_TRUE(same_bits(ys[s].data(), y.data() + s * k, k)) << s;
    const auto exact = circuit.project_exact(stream[s]);
    ASSERT_TRUE(same_bits(exact.data(), y.data() + s * k, k)) << s;
    for (std::size_t kk = 0; kk < k; ++kk) {
      std::int64_t acc = 0;
      for (std::size_t pp = 0; pp < p; ++pp)
        acc += d.columns[kk].coeffs[pp].sign *
               static_cast<std::int64_t>(d.columns[kk].coeffs[pp].magnitude *
                                         stream[s][pp]);
      EXPECT_EQ(y[s * k + kk], std::ldexp(static_cast<double>(acc), -(5 + 9)));
    }
  }
}

// The exact reduction's bound: a column whose P terms of wl+wl_x bits can
// reach 2^53 is rejected before any lowering, naming the column; P·(2^51−1)
// stays below 2^53 up to P = 4.
TEST_F(CircuitEvalTest, ConstructorRejectsColumnsBeyondTheExactBound) {
  const auto column = [](std::size_t p, int wl) {
    DesignColumn col;
    col.config = MultConfig{MultArch::Array, wl, 1};
    col.coeffs.assign(p, QuantCoeff{1, 3, wl});
    return col;
  };
  for (const std::size_t p : {std::size_t{4}, std::size_t{5}}) {
    LinearProjectionDesign d;
    d.columns = {column(p, 5), column(p, 20)};  // wl+wl_x = 36 and 51
    d.target_freq_mhz = 100.0;
    const auto plan = simulated_plan(d, reference_location_1());
    const std::string msg = check_message(
        [&] { ProjectionCircuit(d, device_, plan, 31, nullptr, 1); });
    if (p == 4) {
      EXPECT_EQ(msg, "(no CheckError)");
    } else {
      EXPECT_NE(msg.find("output dimension 1: 5 terms of wl+wl_x=51 bits"),
                std::string::npos)
          << msg;
    }
  }
}

// project() and project_batch may also interleave on one circuit: the
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

  ref::ScalarProjection seq(d, device_, plan, 9, nullptr, 11);
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

// Largest structural critical path over a design's multipliers placed at
// `loc`, in PsGrid ticks — what ProjectionCircuit's per-clock gate bounds.
std::uint64_t max_critical_ticks(const LinearProjectionDesign& d,
                                 const Device& device, const Placement& loc,
                                 int wl_x) {
  std::uint64_t crit = 0;
  for (const auto& col : d.columns)
    for (const auto& coeff : col.coeffs) {
      Netlist nl =
          col.config.arch == MultArch::Ccm
              ? make_ccm_multiplier(col.config, coeff.magnitude, wl_x)
              : make_multiplier(col.config, wl_x);
      auto delays = annotate_timing(nl, device, loc);
      crit = std::max(crit, OverclockSim(std::move(nl), std::move(delays))
                                .critical_path_ticks());
    }
  return crit;
}

// The per-clock gate's predicate is inclusive: a largest critical path
// equal to the shortest drawable period's tick threshold passes (a capture
// at exactly that many ticks is settled), one tick more fails.
TEST(ProjectionCircuitClockGate, PredicateIsInclusiveAtTheThreshold) {
  for (const double min_period_ns : {3.952, 4.0, 6.666, 2.5 + 1.0 / 1024}) {
    const std::uint64_t ticks = PsGrid::period_ticks(min_period_ns);
    EXPECT_TRUE(ProjectionCircuit::gated_at_every_period(ticks, min_period_ns))
        << min_period_ns;
    EXPECT_TRUE(
        ProjectionCircuit::gated_at_every_period(ticks - 1, min_period_ns))
        << min_period_ns;
    EXPECT_FALSE(
        ProjectionCircuit::gated_at_every_period(ticks + 1, min_period_ns))
        << min_period_ns;
  }
  // A clock whose ±4σ clamp reaches a zero or negative period gates
  // nothing with a path.
  EXPECT_FALSE(ProjectionCircuit::gated_at_every_period(1, -0.5));
  EXPECT_TRUE(ProjectionCircuit::gated_at_every_period(0, -0.5));
}

// A circuit whose clock crosses the slack-gate bound between batches, via
// set_clock with and without derate, on array, Wallace, CCM and depth-2
// pipelined columns: each multiplier is gated on its own critical path, so
// batches run all-arithmetic (inline), mixed or all-full. The first batch
// is gated (its sims were never streamed), single-sample batches and
// project() land on both sides of the bound, and gated batches are
// followed by full batches and by project() — each full stream after a
// gated one runs on the lazily rebuilt register state. Every output must
// match the scalar double-walk loop and a circuit with the gate off.
TEST_F(CircuitEvalTest, ProjectBatchSlackGateCrossesTheBoundWithSetClock) {
  const std::vector<double> vals{0.81, -0.62, 0.44, -0.27, 0.93, -0.15};
  LinearProjectionDesign d;
  for (const MultConfig cfg :
       {MultConfig{MultArch::Array, 5, 1}, MultConfig{MultArch::Wallace, 5, 1},
        MultConfig{MultArch::Ccm, 5, 1}, MultConfig{MultArch::Array, 5, 2}})
    d.columns.push_back(make_column(vals, cfg));
  d.target_freq_mhz = 150.0;
  const auto plan = simulated_plan(d, reference_location_1());  // jitter ON
  const std::size_t p = d.dims_p();
  const std::uint64_t kp = d.dims_k() * p;

  Rng rng(71);
  std::vector<std::vector<std::uint32_t>> stream(1024);
  for (auto& codes : stream) {
    codes.resize(p);
    for (auto& c : codes) c = static_cast<std::uint32_t>(rng.uniform_u64(512));
  }
  // (samples, nominal MHz, derate, via project()): 150, 200 and 150·1.18
  // sit below every column's bound, 420 and 250·1.6 above all of them, and
  // 300 between the Wallace and array bounds. 150 MHz clears every
  // critical path even at the shortest period the clock can draw, so its
  // batches draw no period at all (the per-clock gate). The closing
  // stretch stays at 150 MHz without a retarget, turns the gated
  // circuit's gate off there (its draws then start where none were taken
  // before) and back on, then retargets across the bound.
  const struct {
    std::size_t n;
    double freq, derate;
    bool scalar;
    bool retarget = true;  ///< set_clock before the call (after the first)
    bool gate = true;      ///< the gated circuit's slack gate for the call
  } calls[] = {{64, 150.0, 1.0, false},  {1, 150.0, 1.0, false},
               {64, 420.0, 1.0, false},  {1, 420.0, 1.0, false},
               {64, 150.0, 1.18, false}, {1, 420.0, 1.0, true},
               {64, 250.0, 1.6, false},  {1, 200.0, 1.0, false},
               {1, 200.0, 1.0, true},    {1, 420.0, 1.0, false},
               {64, 300.0, 1.0, false},  {65, 200.0, 1.0, false},
               {1, 300.0, 1.0, true},    {64, 420.0, 1.0, false},
               {64, 150.0, 1.0, false},  {64, 150.0, 1.0, false, false},
               {1, 150.0, 1.0, true, false},
               {64, 150.0, 1.0, false, false, false},
               {1, 150.0, 1.0, true, false, false},
               {64, 150.0, 1.0, false, false},
               {64, 420.0, 1.0, false},  {64, 150.0, 1.0, false}};
  ASSERT_TRUE(ProjectionCircuit::gated_at_every_period(
      max_critical_ticks(d, device_, reference_location_1(), 9),
      ClockGen(150.0, device_.config().jitter_sigma_ns, 1).min_period_ns()));

  ref::ScalarProjection seq(d, device_, plan, 9, nullptr, 13);
  ProjectionCircuit gated(d, device_, plan, 9, nullptr, 13);
  ProjectionCircuit full(d, device_, plan, 9, nullptr, 13);
  full.set_slack_gate(false);
  std::vector<const std::vector<std::uint32_t>*> batch;
  std::vector<std::vector<double>> ys_gated, ys_full;
  std::vector<double> y;
  std::size_t next = 0, call = 0;
  for (const auto& c : calls) {
    if (call > 0 && c.retarget) {
      seq.set_clock(c.freq, c.derate);
      gated.set_clock(c.freq, c.derate);
      full.set_clock(c.freq, c.derate);
    }
    gated.set_slack_gate(c.gate);
    batch.clear();
    for (std::size_t i = 0; i < c.n; ++i) batch.push_back(&stream[next + i]);
    const auto before = gated.stream_counts();
    if (c.scalar) {
      ys_gated.assign(1, gated.project(*batch[0]));
      ys_full.assign(1, full.project(*batch[0]));
    } else {
      gated.project_batch(batch, ys_gated);
      full.project_batch(batch, ys_full);
    }
    for (std::size_t i = 0; i < c.n; ++i) {
      seq.project(stream[next + i], y);
      ASSERT_EQ(ys_gated[i], y) << "call " << call << " sample " << i;
      ASSERT_EQ(ys_full[i], y) << "call " << call << " sample " << i;
    }
    const auto after = gated.stream_counts();
    if (call == 0) {  // the first batch ran no stream at all
      EXPECT_EQ(after.full, 0u);
    }
    if (c.freq == 300.0) {  // mixed: Wallace gated, array streamed
      EXPECT_GT(after.gated - before.gated, 0u) << "call " << call;
      EXPECT_GT(after.full - before.full, 0u) << "call " << call;
    }
    if (!c.gate) {  // the hook turns the per-clock gate off as well
      EXPECT_EQ(after.gated - before.gated, 0u) << "call " << call;
    }
    next += c.n;
    ++call;
  }
  const std::uint64_t all = kp * std::size(calls);
  EXPECT_EQ(gated.stream_counts().gated + gated.stream_counts().full, all);
  EXPECT_GE(gated.stream_counts().gated, 6 * kp);  // the six slow calls
  EXPECT_GE(gated.stream_counts().full, 6 * kp);   // the six fast ones
  EXPECT_EQ(full.stream_counts().gated, 0u);
  EXPECT_EQ(full.stream_counts().full, all);
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

// Every entry point checks every code against the wl_x-bit input port
// before any work: a gated multiplier multiplies the whole code while a
// full stream keeps only its low wl_x bits, so an out-of-range request
// would otherwise be answered differently on either side of the bound.
// The error names the row and the input.

TEST_F(CircuitEvalTest, ProjectBatchRejectsCodesWiderThanWlX) {
  const auto d = design(8, 420.0);  // full streams: every clock draw shows
  const auto plan = simulated_plan(d, reference_location_1());
  ProjectionCircuit circuit(d, device_, plan, 9, nullptr, 1);
  ProjectionCircuit twin(d, device_, plan, 9, nullptr, 1);
  const std::vector<std::uint32_t> ok(d.dims_p(), 511), wide{1, 2, 512, 4, 5, 6},
      short_codes{1, 2, 3};
  std::vector<std::vector<double>> ys, want;
  EXPECT_NE(check_message([&] { circuit.project_batch({&ok, &wide}, ys); })
                .find("row 1, input 2: code 512 out of range for wl_x=9"),
            std::string::npos);
  EXPECT_NE(check_message([&] { circuit.project_batch({&ok, &short_codes}, ys); })
                .find("row 1 has 3 codes for a P=6 design"),
            std::string::npos);
  // A rejected batch draws no clock and moves no register: the next batch
  // is the one a fresh twin serves.
  Rng rng(5);
  std::vector<std::vector<std::uint32_t>> stream(64);
  std::vector<const std::vector<std::uint32_t>*> batch;
  for (auto& codes : stream) {
    codes.resize(d.dims_p());
    for (auto& c : codes) c = static_cast<std::uint32_t>(rng.uniform_u64(512));
    batch.push_back(&codes);
  }
  circuit.project_batch(batch, ys);
  twin.project_batch(batch, want);
  EXPECT_EQ(ys, want);
  EXPECT_EQ(circuit.stream_counts().full, twin.stream_counts().full);
}

TEST_F(CircuitEvalTest, ProjectSettledRejectsCodesWiderThanWlX) {
  const auto d = design(5, 150.0);
  const auto plan = simulated_plan(d, reference_location_1());
  const ProjectionCircuit circuit(d, device_, plan, 9, nullptr, 1);
  const std::vector<std::uint32_t> ok(d.dims_p(), 3), wide{1, 2, 3, 4, 5, 1u << 20},
      long_codes(d.dims_p() + 1, 1);
  std::vector<std::vector<double>> ys;
  EXPECT_NE(check_message([&] { circuit.project_settled({&ok, &ok, &wide}, ys); })
                .find("row 2, input 5: code 1048576 out of range for wl_x=9"),
            std::string::npos);
  EXPECT_NE(check_message([&] { circuit.project_settled({&long_codes}, ys); })
                .find("row 0 has 7 codes for a P=6 design"),
            std::string::npos);
  EXPECT_THROW(circuit.project_settled({nullptr}, ys), CheckError);
}

TEST_F(CircuitEvalTest, ProjectExactRejectsCodesWiderThanWlX) {
  const auto d = design(5, 150.0);
  const auto plan = simulated_plan(d, reference_location_1());
  const ProjectionCircuit circuit(d, device_, plan, 9, nullptr, 1);
  EXPECT_NE(check_message([&] { circuit.project_exact({600, 1, 2, 3, 4, 5}); })
                .find("row 0, input 0: code 600 out of range for wl_x=9"),
            std::string::npos);
  // A short vector used to be read past its end.
  EXPECT_NE(check_message([&] { circuit.project_exact({1, 2}); })
                .find("row 0 has 2 codes for a P=6 design"),
            std::string::npos);
  EXPECT_EQ(circuit.project_exact({511, 0, 0, 0, 0, 0}).size(), 3u);
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
