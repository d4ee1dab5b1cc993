// ExecPolicy: chunking math, deterministic fixed-order reduction, and the
// bitwise Serial-vs-Pool guarantee of every consumer that routes through
// the policy layer (multiply, characterise_multiplier, Gibbs scoring,
// project_batch).
#include "common/exec_policy.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <string>

#include "bayes/gibbs.hpp"
#include "bayes/prior.hpp"
#include "charlib/sweep.hpp"
#include "common/rng.hpp"
#include "core/circuit_eval.hpp"
#include "core/design.hpp"
#include "fabric/calibration.hpp"
#include "linalg/matrix.hpp"

namespace oclp {
namespace {

TEST(ExecPolicy, SerialAutoIsOneChunk) {
  const auto p = ExecPolicy::serial();
  EXPECT_EQ(p.kind(), ExecKind::Serial);
  EXPECT_EQ(p.workers(), 1u);
  EXPECT_EQ(p.num_chunks(1000), 1u);
  EXPECT_EQ(p.chunk_size_for(1000), 1000u);
  EXPECT_EQ(p.num_chunks(0), 0u);
}

TEST(ExecPolicy, PooledAutoMakesAFewChunksPerWorker) {
  const ExecPolicy p;  // default = pooled on the global pool
  EXPECT_EQ(p.kind(), ExecKind::Pool);
  const std::size_t w = p.workers();
  ASSERT_GE(w, 1u);
  const std::size_t n = 10000;
  // ceil(n / (w * chunks_per_worker)) chunks of equal size (last ragged).
  const std::size_t size = p.chunk_size_for(n);
  EXPECT_EQ(size, (n + w * 4 - 1) / (w * 4));
  EXPECT_EQ(p.num_chunks(n), (n + size - 1) / size);
}

TEST(ExecPolicy, ExplicitChunkSizeIsHonouredByBothKinds) {
  for (const auto& p : {ExecPolicy::serial(ExecChunking{7}),
                        ExecPolicy::pooled(nullptr, ExecChunking{7})}) {
    EXPECT_EQ(p.chunk_size_for(100), 7u);
    EXPECT_EQ(p.num_chunks(100), 15u);  // ceil(100/7)
  }
}

TEST(ExecPolicy, ForChunksTilesTheRangeExactly) {
  for (const auto& p : {ExecPolicy::serial(ExecChunking{5}),
                        ExecPolicy::pooled(nullptr, ExecChunking{5}),
                        ExecPolicy(), ExecPolicy::serial()}) {
    std::mutex mu;
    std::vector<std::uint8_t> seen(143, 0);
    std::set<std::size_t> chunks;
    p.for_chunks(10, 143, [&](std::size_t c0, std::size_t c1,
                              std::size_t chunk) {
      std::lock_guard lock(mu);
      ASSERT_LT(c0, c1);
      for (std::size_t i = c0; i < c1; ++i) {
        ASSERT_EQ(seen[i], 0u) << "index covered twice";
        seen[i] = 1;
      }
      ASSERT_TRUE(chunks.insert(chunk).second) << "chunk index repeated";
    });
    for (std::size_t i = 0; i < seen.size(); ++i)
      EXPECT_EQ(seen[i], i >= 10 ? 1 : 0) << "index " << i;
    // Chunk indices are 0..num_chunks-1 (ascending, gap-free).
    EXPECT_EQ(chunks.size(), p.num_chunks(133));
    EXPECT_EQ(*chunks.rbegin() + 1, chunks.size());
  }
  // Empty and inverted ranges are no-ops.
  ExecPolicy().for_chunks(5, 5, [](std::size_t, std::size_t, std::size_t) {
    FAIL() << "empty range must not invoke the body";
  });
}

TEST(ExecPolicy, ForEachVisitsEveryIndexOnce) {
  const std::size_t n = 1000;
  for (const auto& p : {ExecPolicy::serial(), ExecPolicy()}) {
    std::vector<std::atomic<int>> visits(n);
    p.for_each(0, n, [&](std::size_t i) { ++visits[i]; });
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(visits[i].load(), 1);
  }
}

TEST(ExecPolicy, ReduceCombinesInAscendingChunkOrder) {
  // String concatenation is maximally order-sensitive: any reordering of
  // the per-chunk partials changes the result.
  const auto run = [](const ExecPolicy& p) {
    return p.reduce<std::string>(
        0, 26,
        std::string{},
        [](std::size_t c0, std::size_t c1) {
          std::string s;
          for (std::size_t i = c0; i < c1; ++i)
            s.push_back(static_cast<char>('a' + i));
          return s;
        },
        [](std::string acc, std::string part) { return acc + part; });
  };
  const std::string want = "abcdefghijklmnopqrstuvwxyz";
  EXPECT_EQ(run(ExecPolicy::serial()), want);
  EXPECT_EQ(run(ExecPolicy::serial(ExecChunking{3})), want);
  EXPECT_EQ(run(ExecPolicy()), want);
  EXPECT_EQ(run(ExecPolicy::pooled(nullptr, ExecChunking{1})), want);
  EXPECT_EQ(run(ExecPolicy::pooled(nullptr, ExecChunking{5})), want);
}

TEST(ExecPolicy, PinnedMatchesSerialTilingAndResults) {
  // Same explicit chunk size ⇒ identical chunk index → range mapping
  // across Serial and the (pinned) global pool, which is what lets
  // consumers key workspaces on the chunk index under any policy.
  for (std::size_t chunk_size : {std::size_t{1}, std::size_t{7}}) {
    std::vector<std::vector<std::size_t>> tilings;
    for (const auto& p :
         {ExecPolicy::serial(ExecChunking{chunk_size}),
          ExecPolicy::pooled(nullptr, ExecChunking{chunk_size})}) {
      std::mutex mu;
      std::vector<std::size_t> tiling(3 * p.num_chunks(100));
      p.for_chunks(0, 100, [&](std::size_t c0, std::size_t c1,
                               std::size_t chunk) {
        std::lock_guard lock(mu);
        tiling[3 * chunk] = c0;
        tiling[3 * chunk + 1] = c1;
        tiling[3 * chunk + 2] = chunk;
      });
      tilings.push_back(std::move(tiling));
    }
    EXPECT_EQ(tilings[0], tilings[1]);
  }
}

TEST(ExecPolicy, NestedPooledUseRunsInlineWithoutDeadlock) {
  // A pooled policy invoked from inside a worker of the same pool must run
  // inline — saturating the pool with outer tasks that each fan out again
  // must still terminate.
  const std::size_t outer = ThreadPool::global().size() * 4 + 3;
  std::vector<std::size_t> sums(outer, 0);
  ExecPolicy{}.for_each(0, outer, [&](std::size_t o) {
    std::size_t s = 0;
    ExecPolicy{}.for_each(0, 100, [&](std::size_t i) { s += i; });
    sums[o] = s;
  });
  for (std::size_t o = 0; o < outer; ++o) EXPECT_EQ(sums[o], 4950u);
}

TEST(ExecPolicy, MultiplyIsBitwiseIdenticalAcrossPolicies) {
  Rng rng(17);
  Matrix a(37, 19), b(19, 23);
  for (std::size_t i = 0; i < a.size(); ++i) a.data()[i] = rng.normal(0, 1);
  for (std::size_t i = 0; i < b.size(); ++i) b.data()[i] = rng.normal(0, 1);
  const Matrix ref = multiply(a, b, ExecPolicy::serial());
  for (const auto& p : {ExecPolicy(), ExecPolicy::pooled(nullptr, ExecChunking{1}),
                        ExecPolicy::pooled(nullptr, ExecChunking{3}),
                        ExecPolicy::serial(ExecChunking{16})}) {
    const Matrix got = multiply(a, b, p);
    ASSERT_TRUE(got.same_shape(ref));
    for (std::size_t i = 0; i < ref.size(); ++i)
      ASSERT_EQ(got.data()[i], ref.data()[i]) << "entry " << i;
  }
}

TEST(ExecPolicy, SweepIsBitwiseIdenticalSerialVsPool) {
  Device device(reference_device_config(), kReferenceDieSeed);
  device.set_temperature(kCharacterisationTempC);
  SweepSettings ss;
  ss.locations = {reference_location_1()};
  ss.samples_per_point = 120;
  ss.freqs_mhz = {250.0, 400.0};
  const MultConfig cfg{MultArch::Array, 4, 1};
  const auto serial =
      characterise_multiplier(device, cfg, 4, ss, ExecPolicy::serial());
  const auto pooled = characterise_multiplier(device, cfg, 4, ss, ExecPolicy{});
  for (std::uint32_t m = 0; m < 16; ++m)
    for (double f : ss.freqs_mhz) {
      ASSERT_EQ(serial.variance(m, f), pooled.variance(m, f));
      ASSERT_EQ(serial.mean_error(m, f), pooled.mean_error(m, f));
      ASSERT_EQ(serial.error_rate(m, f), pooled.error_rate(m, f));
    }
}

TEST(ExecPolicy, ErrorRateCurveIsBitwiseIdenticalSerialVsPool) {
  Device device(reference_device_config(), kReferenceDieSeed);
  device.set_temperature(kCharacterisationTempC);
  const std::vector<double> freqs{200.0, 350.0, 450.0};
  const auto serial = error_rate_curve(device, 5, 5, reference_location_1(),
                                       freqs, 300, 7, ExecPolicy::serial());
  const auto pooled = error_rate_curve(device, 5, 5, reference_location_1(),
                                       freqs, 300, 7, ExecPolicy{});
  ASSERT_EQ(serial.size(), pooled.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial[i].error_rate, pooled[i].error_rate);
    ASSERT_EQ(serial[i].error_variance, pooled[i].error_variance);
  }
}

TEST(ExecPolicy, GibbsChainIsBitwiseIdenticalAcrossPolicies) {
  Rng rng(5);
  Matrix x(6, 40);
  for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = rng.normal(0, 1);
  const CoeffPrior prior =
      make_flat_prior(MultConfig{MultArch::Array, 5, 1}, 310.0);
  GibbsSettings gs;
  gs.burn_in = 20;
  gs.samples = 60;
  gs.seed = 33;
  const GibbsResult ref = sample_projection(x, prior, gs);
  for (const auto& p : {ExecPolicy(), ExecPolicy::pooled(nullptr, ExecChunking{1}),
                        ExecPolicy::serial(ExecChunking{2})}) {
    GibbsSettings alt = gs;
    alt.exec = p;
    const GibbsResult got = sample_projection(x, prior, alt);
    ASSERT_EQ(got.lambda, ref.lambda);
    ASSERT_EQ(got.lambda_mean, ref.lambda_mean);
    ASSERT_EQ(got.psi, ref.psi);
    ASSERT_EQ(got.visits, ref.visits);
    ASSERT_EQ(got.avg_log_likelihood, ref.avg_log_likelihood);
  }
}

TEST(ExecPolicy, ProjectBatchIsBitwiseIdenticalAcrossChunkSizes) {
  Device device(reference_device_config(), kReferenceDieSeed);
  device.set_temperature(kCharacterisationTempC);
  LinearProjectionDesign design;
  const MultConfig cfg{MultArch::Array, 5, 1};
  design.columns.push_back(make_column({0.75, -0.5, 0.25, 0.125}, cfg));
  design.columns.push_back(make_column({-0.25, 0.625, -0.75, 0.5}, cfg));
  design.target_freq_mhz = 330.0;
  const int wl_x = 6;
  const auto plan = simulated_plan(design, reference_location_1());

  Rng rng(29);
  std::vector<std::vector<std::uint32_t>> requests(70);
  for (auto& r : requests) {
    r.resize(design.dims_p());
    for (auto& c : r)
      c = static_cast<std::uint32_t>(rng.uniform_u64(1u << wl_x));
  }
  std::vector<const std::vector<std::uint32_t>*> batch;
  for (const auto& r : requests) batch.push_back(&r);

  std::vector<std::vector<double>> ref_ys;
  {
    ProjectionCircuit circuit(design, device, plan, wl_x, nullptr, 42);
    circuit.set_exec_policy(ExecPolicy::serial());
    circuit.project_batch(batch, ref_ys);
  }
  for (std::size_t chunk : {std::size_t{1}, std::size_t{3}, std::size_t{16}}) {
    ProjectionCircuit circuit(design, device, plan, wl_x, nullptr, 42);
    circuit.set_exec_policy(ExecPolicy::pooled(nullptr, ExecChunking{chunk}));
    std::vector<std::vector<double>> ys;
    circuit.project_batch(batch, ys);
    ASSERT_EQ(ys.size(), ref_ys.size());
    for (std::size_t s = 0; s < ys.size(); ++s)
      ASSERT_EQ(ys[s], ref_ys[s]) << "chunk size " << chunk << " sample " << s;
  }
}

}  // namespace
}  // namespace oclp
