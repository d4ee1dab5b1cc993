// Property tests for the slack theorem the gated callers rely on. No
// recorded settle time — on the single track or either track of the
// pipelined model — exceeds OverclockSim::critical_path_ticks(), so a
// stream captured at any period at or above it captures exactly its
// settled words. project_batch and the characterisation circuit therefore
// skip a gated stream altogether and take the functional value instead,
// and a sim that skipped streams is rebuilt by reset() to the last row it
// saw. Both halves are pinned here against the double-walk reference —
// for random single-track and pipelined netlists, every lane-kernel ISA
// and crossover, stream lengths from the single-lane walk to several
// 64-lane chunks, and clocks that cross the bound between calls.
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

// Sample `s` of a row-major input stream.
std::vector<std::uint8_t> stream_row(const std::vector<std::uint8_t>& inputs,
                                     std::size_t s, std::size_t nin) {
  return {inputs.begin() + static_cast<std::ptrdiff_t>(s * nin),
          inputs.begin() + static_cast<std::ptrdiff_t>((s + 1) * nin)};
}

class SlackGateSeeds : public ::testing::TestWithParam<int> {};

// A stream at a gated clock (every period ≥ the critical path) captures its
// settled words, whatever the kernel: full runs record every settle tick
// within the bound, capture at and above the bound returns the settled
// word, which is the reference's functional value, and reset() to the last
// row rebuilds exactly the state the stream left behind.
TEST_P(SlackGateSeeds, OverclockSimGatedStreamMatchesFullAndReference) {
  Rng rng(GetParam() * 6151 + 17);
  for (const bool with_regs : {false, true}) {
    Netlist nl = random_netlist(6, 56, 9, with_regs, rng);
    const auto delays = grid_delays(nl, rng);
    const ref::DoubleSim ref_sim(nl, delays);
    OverclockSim sim(std::move(nl), delays);
    const std::uint64_t crit = sim.critical_path_ticks();
    ASSERT_GT(crit, 1u);
    const double crit_ns = PsGrid::to_ns(static_cast<std::uint32_t>(crit));

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
      // The lazy rebuild a gated caller performs before its next stream.
      OverclockSim::State rebuilt;
      sim.reset(rebuilt, stream_row(inputs, n - 1, nin));

      for (int v = 0; v < nv; ++v) {
        for (const int cutoff : {0, 65, variants[v].dense_cutoff}) {
          lane::DenseKernels k = variants[v];
          k.dense_cutoff = cutoff;
          sim.set_lane_kernels(k);
          const std::string what =
              std::string(variants[v].isa) + " cutoff " +
              std::to_string(cutoff) + " n " + std::to_string(n) +
              (with_regs ? " regs" : "");
          OverclockSim::State st;
          OverclockSim::SweepStream out;
          sim.reset(st, init);
          sim.run_stream(st, inputs.data(), n, out);

          // The theorem: every recorded settle time is within the bound.
          for (const std::uint32_t t : out.toggle_settle_ticks)
            ASSERT_LE(t, crit) << what;
          ASSERT_EQ(out.settled, ref.settled) << what;
          // So any capture the gate admits is the settled word.
          for (std::size_t s = 0; s < n; ++s) {
            const std::uint64_t p = crit + rng.uniform_u64(crit);
            ASSERT_EQ(out.capture_word_ticks(s, crit), out.settled[s])
                << what << " s " << s;
            ASSERT_EQ(out.capture_word_ticks(s, p), out.settled[s])
                << what << " s " << s;
            ASSERT_EQ(ref.capture_word(s, crit_ns), out.settled[s])
                << what << " s " << s << " vs reference";
          }
          ASSERT_EQ(st.prev, rst.prev) << what << " vs reference";
          ASSERT_EQ(rebuilt.prev, st.prev) << what << " rebuilt state";
        }
      }
    }
    sim.set_lane_kernels(lane::dense_kernels());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SlackGateSeeds, ::testing::Range(1, 4));

// One circuit whose clock crosses the bound between consecutive calls,
// driven the way project_batch drives its multipliers: a call at or above
// the bound runs no stream and answers every sample with its functional
// value (CompiledNetlist::eval); a call below it first rebuilds a sim that
// skipped its last calls — reset() to the last row seen — then streams in
// full. The answers must track a double-walk twin stepped sample for
// sample, and so must the step() that follows every call (clocked below
// the bound, so it reads the rebuilt register values and previous frame
// directly) and its resamples.
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

    std::vector<std::uint8_t> last(nin, 1);  // the last row either side saw
    streamed.reset(last);
    stepped.reset(last);
    bool synced = true;  // streamed holds the settled state of `last`
    const auto rebuild = [&] {
      if (!synced) streamed.reset(last);
      synced = true;
    };

    // (samples, capture period as a fraction of the critical path): the
    // period alternates above and below the bound from call to call, with
    // runs of gated calls and single-sample calls on both sides.
    const struct {
      std::size_t n;
      double frac;
    } calls[] = {{37, 1.5}, {64, 0.55}, {1, 1.0},  {130, 0.8}, {5, 2.0},
                 {65, 1.0}, {70, 0.4},  {64, 1.25}, {1, 0.6},  {1, 1.75},
                 {3, 1.1},  {64, 0.7}};
    OverclockSim::SweepStream stream;
    std::vector<std::uint8_t> vals, outs, row;
    std::size_t call = 0;
    for (const auto& c : calls) {
      const std::string what = "call " + std::to_string(call++) +
                               (with_regs ? " regs" : "");
      const double period = c.frac * crit_ns;
      const std::uint64_t pticks = PsGrid::period_ticks(period);
      const bool gated = pticks >= crit;
      const auto inputs = random_stream(c.n, nin, rng);
      if (!gated) {
        rebuild();
        streamed.run_stream(inputs.data(), c.n, stream);
      }
      for (std::size_t s = 0; s < c.n; ++s) {
        row = stream_row(inputs, s, nin);
        std::uint64_t got = 0;
        if (gated) {
          streamed.compiled().eval_outputs(row, vals, outs);
          got = from_bits(outs);
        } else {
          got = stream.capture_word_ticks(s, pticks);
        }
        ASSERT_EQ(got, from_bits(stepped.step(row, period))) << what << " s " << s;
      }
      last = row;
      synced = !gated;

      for (auto& b : row) b = static_cast<std::uint8_t>(rng.uniform_u64(2));
      rebuild();
      ASSERT_EQ(streamed.step(row, 0.45 * crit_ns),
                stepped.step(row, 0.45 * crit_ns))
          << what << " next step";
      last = row;
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
