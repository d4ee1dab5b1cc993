#include "charlib/char_circuit.hpp"

#include <gtest/gtest.h>

#include "charlib/sweep.hpp"
#include "fabric/calibration.hpp"
#include "fabric/timing_annotation.hpp"
#include "golden_checksum.hpp"
#include "mult/bitcodec.hpp"
#include "netlist/sta.hpp"
#include "reference/double_sim.hpp"

namespace oclp {
namespace {

class CharCircuitTest : public ::testing::Test {
 protected:
  CharCircuitTest()
      : device_(reference_device_config(), kReferenceDieSeed) {
    device_.set_temperature(kCharacterisationTempC);
    cfg_.mult = MultConfig{MultArch::Array, 6, 1};
    cfg_.wl_x = 6;
    cfg_.bram_depth = 64;
  }
  CharCircuitConfig cfg_;
  Device device_;
};

TEST_F(CharCircuitTest, ErrorFreeWellBelowToolFmax) {
  CharacterisationCircuit circuit(cfg_, device_, reference_location_1());
  const auto xs = uniform_stream(6, 500, 1);
  const auto trace = circuit.run(45, xs, circuit.dut_tool_fmax_mhz() * 0.5);
  EXPECT_EQ(trace.erroneous, 0u);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_EQ(trace.expected[i], 45ull * xs[i]);
    EXPECT_EQ(trace.observed[i], trace.expected[i]);
    EXPECT_EQ(trace.error[i], 0);
  }
}

TEST_F(CharCircuitTest, TraceSizesMatchStream) {
  CharacterisationCircuit circuit(cfg_, device_, reference_location_1());
  const auto xs = uniform_stream(6, 333, 2);
  const auto trace = circuit.run(10, xs, 200.0);
  EXPECT_EQ(trace.observed.size(), 333u);
  EXPECT_EQ(trace.expected.size(), 333u);
  EXPECT_EQ(trace.error.size(), 333u);
}

TEST_F(CharCircuitTest, ErrorsAppearWhenHeavilyOverclocked) {
  CharacterisationCircuit circuit(cfg_, device_, reference_location_1());
  const auto xs = uniform_stream(6, 2000, 3);
  // Just below the supporting-logic limit: deep into the error regime.
  const double freq = circuit.support_fmax_mhz() * 0.98;
  const auto trace = circuit.run(63, xs, freq);
  EXPECT_GT(trace.erroneous, 100u);
  // error == observed - expected by definition.
  for (std::size_t i = 0; i < xs.size(); ++i)
    EXPECT_EQ(trace.error[i], static_cast<std::int64_t>(trace.observed[i]) -
                                  static_cast<std::int64_t>(trace.expected[i]));
}

TEST_F(CharCircuitTest, SupportLogicIsFasterThanDutErrorRegion) {
  CharacterisationCircuit circuit(cfg_, device_, reference_location_1());
  // The invariant the paper engineers: the supporting modules' limit sits
  // well above the DUT's device-view Fmax.
  EXPECT_GT(circuit.support_fmax_mhz(), circuit.dut_device_fmax_mhz() * 1.5);
  EXPECT_GT(circuit.dut_device_fmax_mhz(), circuit.dut_tool_fmax_mhz());
}

TEST_F(CharCircuitTest, RunBeyondSupportLimitThrows) {
  CharacterisationCircuit circuit(cfg_, device_, reference_location_1());
  const auto xs = uniform_stream(6, 10, 4);
  EXPECT_THROW(circuit.run(1, xs, circuit.support_fmax_mhz() * 1.1), CheckError);
}

TEST_F(CharCircuitTest, MultiplicandOutOfRangeThrows) {
  CharacterisationCircuit circuit(cfg_, device_, reference_location_1());
  const auto xs = uniform_stream(6, 10, 5);
  EXPECT_THROW(circuit.run(64, xs, 100.0), CheckError);  // 6-bit port
}

TEST_F(CharCircuitTest, FsmCyclesAccountForBatches) {
  CharacterisationCircuit circuit(cfg_, device_, reference_location_1());
  const auto xs = uniform_stream(6, 200, 6);  // 64-word BRAM → 4 batches
  const auto trace = circuit.run(7, xs, 150.0);
  // Each batch costs 2·batch + 4 supporting cycles.
  EXPECT_EQ(trace.fsm_cycles, 2u * 200 + 4u * 4);
}

TEST_F(CharCircuitTest, DeterministicForEqualSeeds) {
  CharacterisationCircuit a(cfg_, device_, reference_location_1());
  CharacterisationCircuit b(cfg_, device_, reference_location_1());
  const auto xs = uniform_stream(6, 500, 7);
  const auto ta = a.run(33, xs, 350.0, 99);
  const auto tb = b.run(33, xs, 350.0, 99);
  EXPECT_EQ(ta.error, tb.error);
}

TEST_F(CharCircuitTest, JitterSeedChangesHighFrequencyErrors) {
  // The paper attributes run-to-run variation at high frequency to clock
  // jitter; different jitter draws must be able to flip marginal samples.
  CharacterisationCircuit circuit(cfg_, device_, reference_location_1());
  const auto xs = uniform_stream(6, 3000, 8);
  const double freq = circuit.dut_device_fmax_mhz() * 1.02;  // marginal regime
  const auto ta = circuit.run(63, xs, freq, 1);
  const auto tb = circuit.run(63, xs, freq, 2);
  EXPECT_NE(ta.error, tb.error);
}

TEST_F(CharCircuitTest, ConstructorBuildsDutNetlistExactlyOnce) {
  const auto before = multiplier_arch_build_count();
  CharacterisationCircuit circuit(cfg_, device_, reference_location_1());
  EXPECT_EQ(multiplier_arch_build_count() - before, 1u);
}

TEST_F(CharCircuitTest, ConstructionCountHookCounts) {
  const auto before = CharacterisationCircuit::construction_count();
  CharacterisationCircuit a(cfg_, device_, reference_location_1());
  CharacterisationCircuit b(cfg_, device_, reference_location_2());
  EXPECT_EQ(CharacterisationCircuit::construction_count() - before, 2u);
}

TEST_F(CharCircuitTest, RunMultiMatchesRunPerFrequencyJitterFree) {
  cfg_.with_jitter = false;
  CharacterisationCircuit circuit(cfg_, device_, reference_location_1());
  const auto xs = uniform_stream(6, 400, 21);
  const double f0 = circuit.dut_device_fmax_mhz();
  const std::vector<double> freqs{0.6 * f0, 1.02 * f0,
                                  circuit.support_fmax_mhz() * 0.95};

  const auto multi = circuit.run_multi(17, xs, freqs, 5);
  ASSERT_EQ(multi.size(), freqs.size());
  // Both drivers run the one integer kernel; the double walk of
  // tests/reference, stepped at each nominal period, is the independent
  // witness.
  ref::DoubleSim walk(circuit.dut(), annotate_timing(circuit.dut(), device_,
                                                     reference_location_1()));
  const auto bits = [](std::uint32_t x) {
    auto b = to_bits(17, 6);
    append_bits(b, x, 6);
    return b;
  };
  for (std::size_t fi = 0; fi < freqs.size(); ++fi) {
    const auto ref = circuit.run(17, xs, freqs[fi], 5);
    EXPECT_EQ(multi[fi].observed, ref.observed) << "f=" << freqs[fi];
    EXPECT_EQ(multi[fi].expected, ref.expected);
    EXPECT_EQ(multi[fi].error, ref.error);
    EXPECT_EQ(multi[fi].erroneous, ref.erroneous);
    EXPECT_EQ(multi[fi].fsm_cycles, ref.fsm_cycles);
    walk.reset(bits(0));
    for (std::size_t i = 0; i < xs.size(); ++i)
      ASSERT_EQ(from_bits(walk.step(bits(xs[i]), 1000.0 / freqs[fi])),
                ref.observed[i])
          << "f=" << freqs[fi] << " sample " << i;
  }
  // The grid has to span both regimes for the comparison to mean anything.
  EXPECT_EQ(multi[0].erroneous, 0u);
  EXPECT_GT(multi[2].erroneous, 0u);
}

TEST_F(CharCircuitTest, RunMultiDeterministicWithSharedWorkspace) {
  CharacterisationCircuit circuit(cfg_, device_, reference_location_1());
  const auto xs = uniform_stream(6, 300, 22);
  const std::vector<double> freqs{250.0, 400.0};
  CharacterisationCircuit::Workspace ws;
  const auto a = circuit.run_multi(33, xs, freqs, 7, &ws);
  const auto b = circuit.run_multi(33, xs, freqs, 7, &ws);  // reused buffers
  const auto c = circuit.run_multi(33, xs, freqs, 7);       // call-local
  for (std::size_t fi = 0; fi < freqs.size(); ++fi) {
    EXPECT_EQ(a[fi].error, b[fi].error);
    EXPECT_EQ(a[fi].error, c[fi].error);
  }
}

TEST_F(CharCircuitTest, RunMultiJitterSeedMatters) {
  CharacterisationCircuit circuit(cfg_, device_, reference_location_1());
  const auto xs = uniform_stream(6, 3000, 23);
  const double freq = circuit.dut_device_fmax_mhz() * 1.02;  // marginal
  const auto ta = circuit.run_multi(63, xs, {freq}, 1);
  const auto tb = circuit.run_multi(63, xs, {freq}, 2);
  const auto ta2 = circuit.run_multi(63, xs, {freq}, 1);
  EXPECT_NE(ta[0].error, tb[0].error);
  EXPECT_EQ(ta[0].error, ta2[0].error);
}

TEST_F(CharCircuitTest, RunMultiValidatesInputs) {
  CharacterisationCircuit circuit(cfg_, device_, reference_location_1());
  const auto xs = uniform_stream(6, 10, 24);
  EXPECT_THROW(circuit.run_multi(64, xs, {100.0}), CheckError);  // 6-bit port
  EXPECT_THROW(circuit.run_multi(1, xs, {}), CheckError);
  EXPECT_THROW(
      circuit.run_multi(1, xs, {100.0, circuit.support_fmax_mhz() * 1.1}),
      CheckError);
}

// At clocks whose shortest jittered period clears the DUT's critical path
// the slack theorem makes every capture the exact product, so run and
// run_multi answer from m·x without streaming: zero errors, with the same
// ClockGen and jitter draws in the same order. The checksum pins every
// trace field, over array and pipelined Wallace DUTs, to the values the
// full stream produced before gated points stopped streaming.
TEST_F(CharCircuitTest, GatedClockTracesAreExactAndUnchanged) {
  testing_golden::Fnv1a h;
  const auto mix = [&h](const CharTrace& t) {
    EXPECT_EQ(t.erroneous, 0u);
    EXPECT_EQ(t.observed, t.expected);
    for (std::size_t i = 0; i < t.observed.size(); ++i) {
      h.mix(t.observed[i]);
      h.mix(t.expected[i]);
      h.mix(static_cast<std::uint64_t>(t.error[i]));
    }
    h.mix(static_cast<std::uint64_t>(t.erroneous));
    h.mix(static_cast<std::uint64_t>(t.fsm_cycles));
  };
  const std::vector<double> freqs{100.0, 150.0};
  for (const MultConfig mult :
       {MultConfig{MultArch::Array, 6, 1}, MultConfig{MultArch::Wallace, 6, 2}}) {
    cfg_.mult = mult;
    CharacterisationCircuit circuit(cfg_, device_, reference_location_1());
    const auto xs = uniform_stream(6, 300, 31);
    for (const std::uint32_t m : {0u, 1u, 9u, (1u << mult.wordlength) - 1}) {
      for (const double f : freqs) mix(circuit.run(m, xs, f, m + 3));
      CharacterisationCircuit::Workspace ws;
      for (const CharTrace& t : circuit.run_multi(m, xs, freqs, m + 3, &ws))
        mix(t);
      EXPECT_TRUE(ws.gated) << mult << " m " << m;
    }
  }
  EXPECT_EQ(h.h, 0x95b6cb98d6bc2225ULL);
}

TEST(SupportLogic, ShallowAndCorrectShape) {
  const Netlist support = make_support_logic(8192);
  EXPECT_LE(support.depth(), 8);  // log-depth counter + FSM cone
  EXPECT_EQ(support.num_inputs(), 13u + 2u + 1u);  // addr + state + run_en
  const Netlist dut = make_multiplier(8, 8);
  EXPECT_LT(support.depth(), dut.depth() / 2);
}

TEST(SupportLogic, CounterIncrementIsCorrect) {
  const Netlist support = make_support_logic(16);  // 4 address bits
  // next = addr + 1 (mod 16) when inspecting the first 4 outputs.
  for (unsigned addr = 0; addr < 16; ++addr) {
    std::vector<std::uint8_t> in;
    for (int i = 0; i < 4; ++i) in.push_back((addr >> i) & 1);
    in.push_back(0);  // state0
    in.push_back(0);  // state1
    in.push_back(1);  // run_en
    const auto out = support.evaluate_outputs(in);
    unsigned next = 0;
    for (int i = 0; i < 4; ++i) next |= static_cast<unsigned>(out[i]) << i;
    EXPECT_EQ(next, (addr + 1) % 16);
  }
}

}  // namespace
}  // namespace oclp
