// Property tests for the slack-gated stream kernel: a stream whose
// shortest capture period reaches the structural critical path computes
// values only (no settle propagation, no toggle snapshot), yet every
// capture, the settled words and the post-stream register values must stay
// bitwise identical to the full integer kernel and to the double-walk
// reference — for random single-track and pipelined netlists, every
// lane-kernel ISA and crossover, stream lengths from the single-lane walk
// to several 64-lane chunks, gates just below / at / above the bound, and
// clocks that cross the bound between consecutive calls.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "mult/bitcodec.hpp"
#include "reference/double_sim.hpp"
#include "timing/lane_kernels.hpp"
#include "timing/overclock_sim.hpp"

#include "random_circuits.hpp"

namespace oclp {
namespace {

class SlackGateSeeds : public ::testing::TestWithParam<int> {};

TEST_P(SlackGateSeeds, OverclockSimGatedStreamMatchesFullAndReference) {
  Rng rng(GetParam() * 6151 + 17);
  for (const bool with_regs : {false, true}) {
    Netlist nl = random_netlist(6, 56, 9, with_regs, rng);
    const auto delays = grid_delays(nl, rng);
    const ref::DoubleSim ref_sim(nl, delays);
    OverclockSim sim(std::move(nl), delays);
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
      ref::DoubleSim::State rst;
      ref::DoubleSim::Stream ref;
      ref_sim.reset(rst, init);
      ref_sim.run_stream(rst, inputs.data(), n, ref);

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
            ASSERT_EQ(gst.prev, fst.prev) << what;
            ASSERT_EQ(gst.prev, rst.prev) << what << " vs reference";
          }
        }
      }
    }
    sim.set_lane_kernels(lane::dense_kernels());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SlackGateSeeds, ::testing::Range(1, 4));

// One circuit whose clock crosses the bound between consecutive calls: the
// stream-driven sim alternates gated and full run_stream calls (plus
// interleaved step()s) over the convenience State, and must track a
// double-walk twin stepped sample for sample. After every stream call the
// next step() — clocked well below the bound, so it reads the carried
// register values and the previous frame directly — and its resamples must
// agree too, so a gated call may not leave stale register values behind.
TEST(OverclockSimSlackGate, ClockCrossingTheBoundBetweenCallsKeepsState) {
  Rng rng(77);
  for (const bool with_regs : {false, true}) {
    Netlist nl = random_netlist(6, 60, 8, with_regs, rng);
    const auto delays = grid_delays(nl, rng);
    ref::DoubleSim stepped(nl, delays);
    OverclockSim streamed(std::move(nl), delays);
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
                 {5, 2.0},  {65, 1.0},  {70, 0.4}, {64, 1.25},
                 {1, 0.6},  {1, 1.75}};
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
      for (auto& b : row) b = static_cast<std::uint8_t>(rng.uniform_u64(2));
      ASSERT_EQ(streamed.step(row, 0.45 * crit_ns),
                stepped.step(row, 0.45 * crit_ns))
          << what << " next step";
      ASSERT_EQ(streamed.last_output_settle_ns(), stepped.last_output_settle_ns())
          << what;
      ASSERT_EQ(streamed.last_settled_outputs(), stepped.last_settled_outputs())
          << what;
      for (const double q : {0.3, 0.7, 1.0, 3.0})
        ASSERT_EQ(streamed.resample_last(q * crit_ns),
                  stepped.resample_last(q * crit_ns))
            << what << " resample " << q;
    }
  }
}

}  // namespace
}  // namespace oclp
