#include "fabric/clock.hpp"

#include <gtest/gtest.h>

#include "common/stats.hpp"

namespace oclp {
namespace {

TEST(ClockGen, NominalPeriodMatchesFrequency) {
  ClockGen clk(250.0, 0.0, 1);
  EXPECT_DOUBLE_EQ(clk.nominal_period_ns(), 4.0);
  EXPECT_DOUBLE_EQ(clk.freq_mhz(), 250.0);
}

TEST(ClockGen, ZeroJitterIsExact) {
  ClockGen clk(320.0, 0.0, 1);
  for (int i = 0; i < 100; ++i)
    EXPECT_DOUBLE_EQ(clk.next_period_ns(), clk.nominal_period_ns());
}

TEST(ClockGen, JitterStatistics) {
  const double sigma = 0.015;
  ClockGen clk(310.0, sigma, 7);
  RunningStats st;
  for (int i = 0; i < 50000; ++i) st.add(clk.next_period_ns());
  EXPECT_NEAR(st.mean(), clk.nominal_period_ns(), 5e-4);
  EXPECT_NEAR(st.stddev(), sigma, 2e-3);
}

TEST(ClockGen, JitterIsClampedToFourSigma) {
  const double sigma = 0.02;
  ClockGen clk(310.0, sigma, 9);
  const double nominal = clk.nominal_period_ns();
  for (int i = 0; i < 100000; ++i) {
    const double p = clk.next_period_ns();
    ASSERT_LE(std::abs(p - nominal), 4.0 * sigma + 1e-12);
  }
}

// min_period_ns() is a true bound: no draw falls below it, and the clamp
// reaches it exactly (the same double expression), so it is also the
// tightest bound. A wide σ makes the clamp visible on the period itself.
TEST(ClockGen, MinPeriodIsTheClampedDrawBound) {
  const double sigma = 0.4;
  ClockGen clk(310.0, sigma, 11);
  const double bound = clk.min_period_ns();
  EXPECT_DOUBLE_EQ(bound, clk.nominal_period_ns() - 4.0 * sigma);
  int at_bound = 0;
  for (int i = 0; i < 100000; ++i) {
    const double p = clk.next_period_ns();
    ASSERT_GE(p, bound) << "draw " << i;
    at_bound += p == bound;
  }
  EXPECT_GT(at_bound, 0);
  EXPECT_EQ(clk.min_period_ns(), bound);  // drawing never moves it

  const ClockGen still(310.0, 0.0, 11);
  EXPECT_EQ(still.min_period_ns(), still.nominal_period_ns());
}

TEST(ClockGen, DeterministicInSeed) {
  ClockGen a(310.0, 0.01, 42), b(310.0, 0.01, 42);
  for (int i = 0; i < 100; ++i)
    EXPECT_DOUBLE_EQ(a.next_period_ns(), b.next_period_ns());
}

TEST(ClockGen, InvalidParametersThrow) {
  EXPECT_THROW(ClockGen(0.0, 0.01, 1), CheckError);
  EXPECT_THROW(ClockGen(100.0, -0.1, 1), CheckError);
}

}  // namespace
}  // namespace oclp
