#include "core/algorithm1.hpp"

#include <gtest/gtest.h>

#include "charlib/sweep.hpp"
#include "common/rng.hpp"
#include "core/synthetic.hpp"
#include "fabric/calibration.hpp"
#include "golden_checksum.hpp"

namespace oclp {
namespace {

MultConfig acfg(int wl) { return MultConfig{MultArch::Array, wl, 1}; }

CandidateProjection cand(double area, double mse) {
  CandidateProjection c;
  c.area = area;
  c.mse = mse;
  return c;
}

TEST(ParetoFront, ExtractsTheStaircase) {
  std::vector<CandidateProjection> cands{
      cand(10, 5.0),  // on front
      cand(20, 4.0),  // on front
      cand(15, 6.0),  // dominated by (10, 5)
      cand(30, 4.5),  // dominated by (20, 4)
      cand(40, 1.0),  // on front
  };
  const auto front = pareto_front(cands);
  ASSERT_EQ(front.size(), 3u);
  EXPECT_EQ(front[0], 0u);
  EXPECT_EQ(front[1], 1u);
  EXPECT_EQ(front[2], 4u);
}

TEST(ParetoFront, PropertyNoMemberDominatesAnother) {
  Rng rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<CandidateProjection> cands;
    for (int i = 0; i < 60; ++i)
      cands.push_back(cand(rng.uniform(100, 1000), rng.uniform(0.01, 1.0)));
    const auto front = pareto_front(cands);
    ASSERT_FALSE(front.empty());
    // No front member dominated by any candidate.
    for (auto fi : front)
      for (const auto& other : cands) {
        const bool dominates = other.area <= cands[fi].area &&
                               other.mse < cands[fi].mse;
        EXPECT_FALSE(dominates && other.area < cands[fi].area);
      }
    // Front is sorted by area with strictly decreasing MSE.
    for (std::size_t i = 1; i < front.size(); ++i) {
      EXPECT_LE(cands[front[i - 1]].area, cands[front[i]].area);
      EXPECT_GT(cands[front[i - 1]].mse, cands[front[i]].mse);
    }
  }
}

TEST(ParetoFront, SinglePointAndEmpty) {
  EXPECT_TRUE(pareto_front({}).empty());
  const auto front = pareto_front({cand(5, 1.0)});
  ASSERT_EQ(front.size(), 1u);
}

TEST(SelectByBins, AtMostQSurvivors) {
  Rng rng(5);
  std::vector<CandidateProjection> cands;
  for (int i = 0; i < 50; ++i)
    cands.push_back(cand(rng.uniform(1, 100), rng.uniform(0.0, 1.0)));
  const auto front = pareto_front(cands);
  for (int q = 1; q <= 8; ++q) {
    const auto picked = select_by_bins(cands, front, q);
    EXPECT_LE(picked.size(), static_cast<std::size_t>(q));
    EXPECT_GE(picked.size(), 1u);
    // Everything picked is on the front.
    for (auto p : picked)
      EXPECT_NE(std::find(front.begin(), front.end(), p), front.end());
  }
}

TEST(SelectByBins, KeepsTheGlobalMinimum) {
  std::vector<CandidateProjection> cands{cand(10, 0.9), cand(20, 0.5),
                                         cand(30, 0.1)};
  const auto front = pareto_front(cands);
  const auto picked = select_by_bins(cands, front, 3);
  EXPECT_NE(std::find(picked.begin(), picked.end(), 2u), picked.end());
}

TEST(SelectByBins, DegenerateMseRange) {
  std::vector<CandidateProjection> cands{cand(10, 0.5), cand(20, 0.5)};
  const auto front = pareto_front(cands);
  const auto picked = select_by_bins(cands, front, 5);
  EXPECT_EQ(picked.size(), 1u);
}

TEST(ParetoFront, EqualAreaCandidatesKeepOnlyTheBestMse) {
  // Several candidates tie on area: only the least-MSE one can be on the
  // front (the staircase is strict in both coordinates).
  std::vector<CandidateProjection> cands{
      cand(10, 0.9), cand(10, 0.4), cand(10, 0.7), cand(25, 0.3),
      cand(25, 0.5),
  };
  const auto front = pareto_front(cands);
  ASSERT_EQ(front.size(), 2u);
  EXPECT_EQ(front[0], 1u);  // (10, 0.4)
  EXPECT_EQ(front[1], 3u);  // (25, 0.3)
}

TEST(ParetoFront, AllCandidatesIdenticalKeepsOne) {
  std::vector<CandidateProjection> cands(4, cand(10, 0.5));
  const auto front = pareto_front(cands);
  ASSERT_EQ(front.size(), 1u);
  EXPECT_EQ(front[0], 0u);
}

TEST(SelectByBins, AllEqualMseSingleBinSurvivor) {
  // Equal MSE across a front of distinct areas: the range is degenerate, a
  // single bin forms and exactly one candidate survives.
  std::vector<CandidateProjection> cands{cand(10, 0.5), cand(20, 0.5),
                                         cand(30, 0.5), cand(40, 0.5)};
  std::vector<std::size_t> fake_front{0, 1, 2, 3};
  const auto picked = select_by_bins(cands, fake_front, 4);
  ASSERT_EQ(picked.size(), 1u);
  EXPECT_EQ(picked[0], 0u);
}

TEST(SelectByBins, QLargerThanFrontReturnsWholeFront) {
  std::vector<CandidateProjection> cands{cand(10, 0.9), cand(20, 0.5),
                                         cand(30, 0.1)};
  const auto front = pareto_front(cands);
  ASSERT_EQ(front.size(), 3u);
  const auto picked = select_by_bins(cands, front, 50);
  // With far more bins than members, no two members share a bin.
  EXPECT_EQ(picked.size(), front.size());
}

TEST(SelectByBins, EmptyFrontSelectsNothing) {
  EXPECT_TRUE(select_by_bins({}, {}, 3).empty());
}

class Algorithm1Test : public ::testing::Test {
 protected:
  Algorithm1Test() : device_(reference_device_config(), kReferenceDieSeed) {
    device_.set_temperature(kCharacterisationTempC);
    SyntheticDataConfig dc;
    dc.cases = 60;
    x_train_ = make_synthetic_dataset(dc);

    SweepSettings ss;
    ss.freqs_mhz = {310.0};
    ss.locations = {reference_location_1()};
    ss.samples_per_point = 120;
    for (int wl = 3; wl <= 6; ++wl)
      models_.emplace(acfg(wl),
                      characterise_multiplier(device_, acfg(wl), 9, ss));
    area_ = AreaModel::fit(collect_area_samples(
        mult_config_range(MultArch::Array, 3, 6), 9, 8, 3));

    settings_.dims_k = 2;
    settings_.configs = mult_config_range(MultArch::Array, 3, 6);
    settings_.q = 3;
    settings_.gibbs.burn_in = 60;
    settings_.gibbs.samples = 150;
  }

  Device device_;
  Matrix x_train_;
  ErrorModelMap models_;
  AreaModel area_ = AreaModel::fit(collect_area_samples(
      mult_config_range(MultArch::Array, 3, 6), 9, 2, 3));
  OptimisationSettings settings_;
};

TEST_F(Algorithm1Test, ProducesSortedValidDesigns) {
  OptimisationFramework of(settings_, x_train_, models_, area_);
  const auto designs = of.run();
  ASSERT_FALSE(designs.empty());
  EXPECT_LE(designs.size(), 3u);
  for (std::size_t i = 0; i < designs.size(); ++i) {
    const auto& d = designs[i];
    EXPECT_EQ(d.dims_k(), 2u);
    EXPECT_EQ(d.dims_p(), 6u);
    EXPECT_GT(d.area_estimate, 0.0);
    EXPECT_GT(d.training_mse, 0.0);
    EXPECT_GE(d.predicted_overclock_var, 0.0);
    EXPECT_DOUBLE_EQ(d.target_freq_mhz, 310.0);
    EXPECT_NE(d.origin.find("OF"), std::string::npos);
    for (const auto& col : d.columns) {
      EXPECT_GE(col.wordlength(), 3);
      EXPECT_LE(col.wordlength(), 6);
      EXPECT_EQ(col.config.arch, MultArch::Array);
      EXPECT_FALSE(col.is_zero());
    }
    if (i > 0) { EXPECT_GE(d.area_estimate, designs[i - 1].area_estimate); }
  }
}

TEST_F(Algorithm1Test, DeterministicInSeed) {
  OptimisationFramework a(settings_, x_train_, models_, area_);
  OptimisationFramework b(settings_, x_train_, models_, area_);
  const auto da = a.run();
  const auto db = b.run();
  ASSERT_EQ(da.size(), db.size());
  for (std::size_t i = 0; i < da.size(); ++i) {
    EXPECT_DOUBLE_EQ(da[i].training_mse, db[i].training_mse);
    EXPECT_DOUBLE_EQ(da[i].area_estimate, db[i].area_estimate);
  }
}

TEST_F(Algorithm1Test, MoreDimensionsReduceTrainingMse) {
  settings_.dims_k = 1;
  OptimisationFramework of1(settings_, x_train_, models_, area_);
  const auto d1 = of1.run();
  settings_.dims_k = 3;
  OptimisationFramework of3(settings_, x_train_, models_, area_);
  const auto d3 = of3.run();
  ASSERT_FALSE(d1.empty());
  ASSERT_FALSE(d3.empty());
  auto best = [](const std::vector<LinearProjectionDesign>& ds) {
    double m = 1e18;
    for (const auto& d : ds) m = std::min(m, d.training_mse);
    return m;
  };
  EXPECT_LT(best(d3), best(d1));
}

TEST_F(Algorithm1Test, FastSamplerReproducesReferenceDesigns) {
  // End-to-end determinism contract: running Algorithm 1 with the fast
  // sampler and with the retained reference implementation must select the
  // same designs (the per-job chains are bitwise identical).
  OptimisationFramework fast_of(settings_, x_train_, models_, area_);
  const auto fast = fast_of.run();
  settings_.gibbs.reference_impl = true;
  OptimisationFramework ref_of(settings_, x_train_, models_, area_);
  const auto ref = ref_of.run();
  ASSERT_EQ(fast.size(), ref.size());
  for (std::size_t i = 0; i < fast.size(); ++i) {
    EXPECT_DOUBLE_EQ(fast[i].training_mse, ref[i].training_mse);
    EXPECT_DOUBLE_EQ(fast[i].area_estimate, ref[i].area_estimate);
    ASSERT_EQ(fast[i].columns.size(), ref[i].columns.size());
    for (std::size_t c = 0; c < fast[i].columns.size(); ++c) {
      EXPECT_EQ(fast[i].columns[c].config, ref[i].columns[c].config);
      EXPECT_EQ(fast[i].columns[c].values(), ref[i].columns[c].values());
    }
  }
}

std::uint64_t design_checksum(
    const std::vector<LinearProjectionDesign>& designs) {
  testing_golden::Fnv1a f;
  f.mix(std::uint64_t{designs.size()});
  for (const auto& d : designs) {
    for (const auto& col : d.columns) {
      f.mix(static_cast<std::uint64_t>(col.config.arch));
      f.mix(static_cast<std::uint64_t>(col.config.wordlength));
      f.mix(static_cast<std::uint64_t>(col.config.pipeline_depth));
      for (const auto& q : col.coeffs)
        f.mix(static_cast<std::uint64_t>(q.magnitude) << 1 | (q.sign < 0));
    }
    f.mix(d.training_mse);
    f.mix(d.area_estimate);
    f.mix(d.predicted_overclock_var);
  }
  return f.h;
}

TEST_F(Algorithm1Test, DesignsDoNotDependOnTheScheduleOrPolicy) {
  // Every chain is seeded by its job and writes its own candidate slot, so
  // neither the order the chains run in nor the policy that runs them may
  // move a bit of the designs. The checksum was captured from a known-good
  // build and pins configs, coefficients, training MSE, area estimate and
  // predicted over-clocking variance.
  constexpr std::uint64_t kGolden = 0x7ec86dd26c77058dull;
  for (const auto& exec :
       {ExecPolicy::serial(), ExecPolicy::pooled(),
        ExecPolicy::pooled(nullptr, ExecChunking{1}), ExecPolicy::pinned()}) {
    OptimisationFramework of(settings_, x_train_, models_, area_);
    const std::uint64_t got = design_checksum(of.run(exec));
    EXPECT_EQ(got, kGolden) << std::hex << "got 0x" << got;
  }
}

TEST_F(Algorithm1Test, MissingModelThrowsAtConstruction) {
  settings_.configs = mult_config_range(MultArch::Array, 3, 9);  // models_ only cover 3..6
  EXPECT_THROW(OptimisationFramework(settings_, x_train_, models_, area_),
               CheckError);
}

TEST_F(Algorithm1Test, DataMeanIsExposed) {
  OptimisationFramework of(settings_, x_train_, models_, area_);
  Matrix xc = x_train_;
  const auto mu = center_rows(xc);
  ASSERT_EQ(of.data_mean().size(), mu.size());
  for (std::size_t i = 0; i < mu.size(); ++i)
    EXPECT_DOUBLE_EQ(of.data_mean()[i], mu[i]);
}

}  // namespace
}  // namespace oclp
