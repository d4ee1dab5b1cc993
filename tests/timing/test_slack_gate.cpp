// Property tests for the slack-gated stream kernel: a stream whose
// shortest capture period reaches the structural critical path skips
// settle propagation and the toggle snapshot, yet every capture, the
// settled words and the post-stream State must stay bitwise identical to
// the full integer kernel and to the double reference — for random
// single-track and pipelined netlists, every lane-kernel ISA and
// crossover, stream lengths around the 64-lane chunk edges, gates just
// below / at / above the bound, and clocks that cross the bound between
// consecutive calls.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "mult/bitcodec.hpp"
#include "timing/lane_kernels.hpp"
#include "timing/overclock_sim.hpp"

#include "random_circuits.hpp"

namespace oclp {
namespace {

void expect_same_state(const OverclockSim::State& a,
                       const OverclockSim::State& b, const std::string& what) {
  ASSERT_EQ(a.prev, b.prev) << what;
  ASSERT_EQ(a.out_settle, b.out_settle) << what;
  ASSERT_EQ(a.out_prev, b.out_prev) << what;
  ASSERT_EQ(a.out_next, b.out_next) << what;
  ASSERT_EQ(a.last_output_settle_ns, b.last_output_settle_ns) << what;
}

class SlackGateSeeds : public ::testing::TestWithParam<int> {};

TEST_P(SlackGateSeeds, OverclockSimGatedStreamMatchesFullAndReference) {
  Rng rng(GetParam() * 6151 + 17);
  for (const bool with_regs : {false, true}) {
    Netlist nl = random_netlist(6, 56, 9, with_regs, rng);
    const auto delays = grid_delays(nl, rng);
    OverclockSim sim(std::move(nl), delays, TimingMode::Auto);
    ASSERT_TRUE(sim.integer_kernel());
    const std::uint64_t crit = sim.critical_path_ticks();
    ASSERT_GT(crit, 1u);

    const std::size_t nin = sim.netlist().num_inputs();
    std::vector<std::uint8_t> init(nin);
    for (auto& b : init) b = static_cast<std::uint8_t>(rng.uniform_u64(2));

    lane::DenseKernels variants[3];
    const int nv = lane::all_dense_kernels(variants);
    for (std::size_t n : {std::size_t{1}, std::size_t{63}, std::size_t{64},
                          std::size_t{65}, std::size_t{4096}}) {
      const auto inputs = random_stream(n, nin, rng);
      // The reference stream is kernel-independent: run it once per n.
      OverclockSim::State rst;
      OverclockSim::SweepStream ref;
      sim.reset(rst, init);
      sim.run_stream_ref(rst, inputs.data(), n, ref);

      for (int v = 0; v < nv; ++v) {
        for (const int cutoff : {0, 65, variants[v].dense_cutoff}) {
          lane::DenseKernels k = variants[v];
          k.dense_cutoff = cutoff;
          sim.set_lane_kernels(k);
          // Just below the bound (full), at it (a bit is stale only when
          // settle > period, so this gates) and above it.
          for (const std::uint64_t gate : {crit - 1, crit, crit + 37}) {
            const std::string what =
                std::string(variants[v].isa) + " cutoff " +
                std::to_string(cutoff) + " n " + std::to_string(n) +
                " gate " + std::to_string(gate) + "/" + std::to_string(crit) +
                (with_regs ? " regs" : "");
            OverclockSim::State fst, gst;
            OverclockSim::SweepStream full, gated;
            sim.reset(fst, init);
            sim.reset(gst, init);
            sim.run_stream(fst, inputs.data(), n, full);
            sim.run_stream(gst, inputs.data(), n, gated, gate);
            ASSERT_FALSE(full.gated) << what;
            ASSERT_EQ(gated.gated, gate >= crit) << what;

            ASSERT_EQ(gated.settled, full.settled) << what;
            ASSERT_EQ(full.settled, ref.settled) << what;
            if (!gated.gated) {
              ASSERT_EQ(gated.toggle_begin, full.toggle_begin) << what;
              ASSERT_EQ(gated.toggle_bit, full.toggle_bit) << what;
              ASSERT_EQ(gated.toggle_settle_ticks, full.toggle_settle_ticks)
                  << what;
            }
            // Captures at any period the gate admits: against the full
            // integer stream and the double reference.
            for (std::size_t s = 0; s < n; ++s) {
              const std::uint64_t p = gate + rng.uniform_u64(crit);
              const std::uint64_t w = gated.capture_word_ticks(s, p);
              ASSERT_EQ(w, full.capture_word_ticks(s, p)) << what << " s " << s;
              ASSERT_EQ(w, gated.capture_word(s, PsGrid::to_ns(
                               static_cast<std::uint32_t>(p))))
                  << what << " s " << s;
              ASSERT_EQ(w, ref.capture_word(
                               s, PsGrid::to_ns(static_cast<std::uint32_t>(p))))
                  << what << " s " << s;
            }
            expect_same_state(gst, fst, what);
            expect_same_state(gst, rst, what + " vs reference");
          }
        }
      }
    }
    sim.set_lane_kernels(lane::dense_kernels());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SlackGateSeeds, ::testing::Range(1, 4));

// The double kernel carries no critical path (critical_path_ticks() == 0),
// so no period, however long, may gate it.
TEST(OverclockSimSlackGate, DoubleKernelNeverGates) {
  Rng rng(23);
  for (const bool with_regs : {false, true}) {
    Netlist nl = random_netlist(5, 40, 7, with_regs, rng);
    const auto delays = grid_delays(nl, rng);
    OverclockSim sim(std::move(nl), delays, TimingMode::DoubleRef);
    ASSERT_FALSE(sim.integer_kernel());
    ASSERT_EQ(sim.critical_path_ticks(), 0u);
    const std::size_t nin = sim.netlist().num_inputs();
    const std::vector<std::uint8_t> init(nin, 0);
    const auto inputs = random_stream(130, nin, rng);

    OverclockSim::State gst, rst;
    OverclockSim::SweepStream gated, ref;
    sim.reset(gst, init);
    sim.reset(rst, init);
    sim.run_stream(gst, inputs.data(), 130, gated, ~std::uint64_t{0});
    sim.run_stream_ref(rst, inputs.data(), 130, ref);
    EXPECT_FALSE(gated.gated);
    EXPECT_FALSE(gated.has_ticks);
    EXPECT_EQ(gated.settled, ref.settled);
    EXPECT_EQ(gated.toggle_begin, ref.toggle_begin);
    EXPECT_EQ(gated.toggle_bit, ref.toggle_bit);
    EXPECT_EQ(gated.toggle_settle, ref.toggle_settle);
    expect_same_state(gst, rst, "double kernel");
  }
}

// One circuit whose clock crosses the bound between consecutive calls: the
// stream-driven sim alternates gated and full run_stream calls (plus
// interleaved step()s) over the convenience State, and must track a
// step()-only twin sample for sample. After every stream call the
// last-edge State — what resample_last(), last_output_settle_ns() and the
// next step() read — must agree at periods below the bound too, so a gated
// call may not leave stale settle times or register values behind.
TEST(OverclockSimSlackGate, ClockCrossingTheBoundBetweenCallsKeepsState) {
  Rng rng(77);
  for (const bool with_regs : {false, true}) {
    Netlist nl = random_netlist(6, 60, 8, with_regs, rng);
    const auto delays = grid_delays(nl, rng);
    OverclockSim streamed(nl, delays, TimingMode::Auto);
    OverclockSim stepped(std::move(nl), delays, TimingMode::Auto);
    ASSERT_TRUE(streamed.integer_kernel());
    const std::uint64_t crit = streamed.critical_path_ticks();
    const double crit_ns = PsGrid::to_ns(static_cast<std::uint32_t>(crit));
    const std::size_t nin = streamed.netlist().num_inputs();

    std::vector<std::uint8_t> init(nin, 1);
    streamed.reset(init);
    stepped.reset(init);

    // (samples, capture period as a fraction of the critical path): the
    // period alternates above and below the bound from call to call.
    const struct {
      std::size_t n;
      double frac;
    } calls[] = {{37, 1.5}, {64, 0.55}, {1, 1.0}, {130, 0.8},
                 {5, 2.0},  {65, 1.0},  {70, 0.4}, {64, 1.25}};
    OverclockSim::SweepStream stream;
    std::vector<std::uint8_t> row(nin);
    std::size_t call = 0;
    for (const auto& c : calls) {
      const std::string what = "call " + std::to_string(call++) +
                               (with_regs ? " regs" : "");
      const double period = c.frac * crit_ns;
      const std::uint64_t pticks = PsGrid::period_ticks(period);
      const auto inputs = random_stream(c.n, nin, rng);
      streamed.run_stream(inputs.data(), c.n, stream, pticks);
      ASSERT_EQ(stream.gated, pticks >= crit) << what;
      for (std::size_t s = 0; s < c.n; ++s) {
        row.assign(inputs.begin() + static_cast<std::ptrdiff_t>(s * nin),
                   inputs.begin() + static_cast<std::ptrdiff_t>((s + 1) * nin));
        const std::uint64_t want = from_bits(stepped.step(row, period));
        ASSERT_EQ(stream.capture_word_ticks(s, pticks), want)
            << what << " s " << s;
      }
      ASSERT_EQ(streamed.last_output_settle_ns(), stepped.last_output_settle_ns())
          << what;
      ASSERT_EQ(streamed.last_settled_outputs(), stepped.last_settled_outputs())
          << what;
      for (const double q : {0.3, 0.7, 1.0, 3.0})
        ASSERT_EQ(streamed.resample_last(q * crit_ns),
                  stepped.resample_last(q * crit_ns))
            << what << " resample " << q;
      // The next edge, clocked well below the bound, reads the carried
      // register values and the previous frame directly.
      for (auto& b : row) b = static_cast<std::uint8_t>(rng.uniform_u64(2));
      ASSERT_EQ(streamed.step(row, 0.45 * crit_ns),
                stepped.step(row, 0.45 * crit_ns))
          << what << " next step";
    }
  }
}

}  // namespace
}  // namespace oclp
