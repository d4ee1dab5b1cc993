// Property tests for the lane-parallel dense row fills: every dispatchable
// ISA variant (scalar / AVX2 / AVX-512), forced through the dense path,
// the sparse path, and the adaptive crossover, must reproduce the retained
// double reference bitwise on arbitrary circuits — settled words, toggle
// layout, settle ticks — including partial 64-lane tails and the
// all-lanes-toggle / zero-toggle extremes.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "netlist/compiled.hpp"
#include "netlist/netlist.hpp"
#include "timing/lane_kernels.hpp"
#include "timing/overclock_sim.hpp"

#include "random_circuits.hpp"

namespace oclp {
namespace {

// Run `inputs` through `sim` with the given kernels/cutoff and require the
// stream (and post-stream state) to be bitwise identical to the double
// reference.
void expect_matches_reference(OverclockSim& sim,
                              const std::vector<std::uint8_t>& init,
                              const std::vector<std::uint8_t>& inputs,
                              std::size_t n, const std::string& what) {
  OverclockSim::State ist, dst;
  sim.reset(ist, init);
  sim.reset(dst, init);
  OverclockSim::SweepStream istream, dstream;
  sim.run_stream(ist, inputs.data(), n, istream);
  sim.run_stream_ref(dst, inputs.data(), n, dstream);

  ASSERT_EQ(istream.settled, dstream.settled) << what;
  ASSERT_EQ(istream.toggle_begin, dstream.toggle_begin) << what;
  ASSERT_EQ(istream.toggle_bit, dstream.toggle_bit) << what;
  ASSERT_EQ(istream.toggle_settle_ticks.size(), dstream.toggle_settle.size())
      << what;
  for (std::size_t t = 0; t < dstream.toggle_settle.size(); ++t)
    ASSERT_EQ(PsGrid::to_ns(istream.toggle_settle_ticks[t]),
              dstream.toggle_settle[t])
        << what << " toggle " << t;
  ASSERT_EQ(ist.out_settle, dst.out_settle) << what;
  ASSERT_EQ(ist.out_prev, dst.out_prev) << what;
  ASSERT_EQ(ist.out_next, dst.out_next) << what;
}

class LaneKernelSeeds : public ::testing::TestWithParam<int> {};

TEST_P(LaneKernelSeeds, EveryIsaAndCrossoverMatchesReference) {
  Rng rng(GetParam() * 7919 + 3);
  for (const bool with_regs : {false, true}) {
    Netlist nl = random_netlist(6, 64, 10, with_regs, rng);
    const auto delays = grid_delays(nl, rng);
    OverclockSim sim(std::move(nl), delays, TimingMode::Auto);
    ASSERT_TRUE(sim.integer_kernel());

    std::vector<std::uint8_t> init(sim.netlist().num_inputs());
    for (auto& b : init) b = static_cast<std::uint8_t>(rng.uniform_u64(2));

    lane::DenseKernels variants[3];
    const int nv = lane::all_dense_kernels(variants);
    ASSERT_GE(nv, 1);
    // n covers a lone chunk, both sides of the 64-lane boundary, and a
    // multi-chunk stream with a partial tail.
    for (std::size_t n : {std::size_t{5}, std::size_t{64}, std::size_t{131}}) {
      const auto inputs = random_stream(n, sim.netlist().num_inputs(), rng);
      for (int v = 0; v < nv; ++v) {
        // Cutoff 0 forces every toggled cell down the dense row fill,
        // 65 forces the sparse toggled-lane path, and the ISA default
        // exercises the adaptive switch.
        for (const int cutoff : {0, 65, variants[v].dense_cutoff}) {
          lane::DenseKernels k = variants[v];
          k.dense_cutoff = cutoff;
          sim.set_lane_kernels(k);
          expect_matches_reference(
              sim, init, inputs, n,
              std::string(variants[v].isa) + " cutoff " +
                  std::to_string(cutoff) + " n " + std::to_string(n) +
                  (with_regs ? " regs" : ""));
        }
      }
    }
    sim.set_lane_kernels(lane::dense_kernels());
  }
}

TEST_P(LaneKernelSeeds, ToggleDensityExtremesMatchReference) {
  // All-lanes-toggle: complement the whole input vector every sample, so
  // every input net toggles in every lane and the dense fill runs at full
  // occupancy. Zero-toggle: repeat one vector for the whole stream, so
  // after the first sample no toggle word has any bit set and the kernel
  // must coast through empty rows.
  Rng rng(GetParam() * 104729 + 11);
  for (const bool with_regs : {false, true}) {
    Netlist nl = random_netlist(5, 48, 8, with_regs, rng);
    const auto delays = grid_delays(nl, rng);
    OverclockSim sim(std::move(nl), delays, TimingMode::Auto);
    ASSERT_TRUE(sim.integer_kernel());

    const std::size_t nin = sim.netlist().num_inputs();
    std::vector<std::uint8_t> init(nin, 0);
    const std::size_t n = 97;  // partial tail in the second chunk

    std::vector<std::uint8_t> alternating(n * nin);
    for (std::size_t s = 0; s < n; ++s)
      for (std::size_t i = 0; i < nin; ++i)
        alternating[s * nin + i] = static_cast<std::uint8_t>(s & 1);

    std::vector<std::uint8_t> constant(n * nin, 1);

    lane::DenseKernels variants[3];
    const int nv = lane::all_dense_kernels(variants);
    for (int v = 0; v < nv; ++v) {
      for (const int cutoff : {0, 65, variants[v].dense_cutoff}) {
        lane::DenseKernels k = variants[v];
        k.dense_cutoff = cutoff;
        sim.set_lane_kernels(k);
        const std::string tag = std::string(variants[v].isa) + " cutoff " +
                                std::to_string(cutoff) +
                                (with_regs ? " regs" : "");
        expect_matches_reference(sim, init, alternating, n,
                                 tag + " all-toggle");
        expect_matches_reference(sim, init, constant, n, tag + " zero-toggle");
      }
    }
    sim.set_lane_kernels(lane::dense_kernels());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LaneKernelSeeds, ::testing::Range(1, 7));

TEST(LaneKernels, DispatchSelectsASupportedVariant) {
  const lane::DenseKernels& k = lane::dense_kernels();
  ASSERT_NE(k.fill, nullptr);
  ASSERT_NE(k.fill2, nullptr);
  EXPECT_GT(k.dense_cutoff, 0);
  EXPECT_LE(k.dense_cutoff, 64);

  // The dispatched variant must be one of the enumerable ones, and the
  // enumeration always starts with the portable scalar kernel.
  lane::DenseKernels variants[3];
  const int nv = lane::all_dense_kernels(variants);
  ASSERT_GE(nv, 1);
  ASSERT_LE(nv, 3);
  EXPECT_STREQ(variants[0].isa, "scalar");
  bool found = false;
  for (int v = 0; v < nv; ++v)
    if (variants[v].fill == k.fill && variants[v].fill2 == k.fill2)
      found = true;
  EXPECT_TRUE(found) << "dispatched isa " << k.isa;
}

// Every variant's 8×8-block transposes (portable, and GFNI where the CPU
// has it) against the bit-at-a-time definitions, over every row width
// around the 8-byte block edges, partial and full chunks, and byte values
// with stray high bits (only bit 0 of an input byte counts). The input
// buffer is exactly cn·ni bytes, so an over-read shows under the address
// sanitizer.
TEST(LaneKernels, BlockTransposesMatchBitwiseDefinition) {
  lane::DenseKernels variants[3];
  const int nv = lane::all_dense_kernels(variants);
  for (int v = 0; v < nv; ++v) {
    SCOPED_TRACE(variants[v].isa);
    Rng rng(8);
    for (std::size_t ni : {1, 2, 5, 7, 8, 9, 14, 15, 16, 17, 23, 64}) {
      for (std::size_t cn : {1, 2, 7, 8, 9, 31, 63, 64}) {
        std::vector<std::uint8_t> rows(cn * ni);
        for (auto& b : rows)
          b = static_cast<std::uint8_t>(rng.uniform_u64(256));
        std::vector<std::uint64_t> words(ni, 0xdeadbeefull);
        variants[v].pack(rows.data(), ni, cn, words.data());
        for (std::size_t i = 0; i < ni; ++i) {
          std::uint64_t want = 0;
          for (std::size_t l = 0; l < cn; ++l)
            want |= static_cast<std::uint64_t>(rows[l * ni + i] & 1u) << l;
          ASSERT_EQ(words[i], want)
              << "pack ni " << ni << " cn " << cn << " i " << i;
        }
      }
    }
    for (std::size_t no : {1, 3, 8, 9, 14, 16, 17, 40, 64}) {
      for (std::size_t cn : {1, 5, 8, 13, 63, 64}) {
        std::vector<std::uint64_t> lane_words(no);
        for (auto& w : lane_words) w = rng.next();  // lanes >= cn: don't-care
        // One sentinel past the end: unpack must write exactly cn samples.
        std::vector<std::uint64_t> samples(cn + 1, 0x5a5a5a5aull);
        variants[v].unpack(lane_words.data(), no, cn, samples.data());
        for (std::size_t l = 0; l < cn; ++l) {
          std::uint64_t want = 0;
          for (std::size_t k = 0; k < no; ++k)
            want |= ((lane_words[k] >> l) & 1u) << k;
          ASSERT_EQ(samples[l], want)
              << "unpack no " << no << " cn " << cn << " l " << l;
        }
        ASSERT_EQ(samples[cn], 0x5a5a5a5aull) << "unpack wrote past cn " << cn;
      }
    }
  }
}

}  // namespace
}  // namespace oclp
