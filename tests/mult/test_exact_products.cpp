// Exactness precondition of the slack gate's arithmetic: a gated multiplier
// contributes sign·(m·x)·2^-(wl+wl_x) instead of its settled capture, which
// is bit-identical only if every compiled multiplier computes m·x exactly.
// The interpreter checks (test_multiplier, test_ccm, test_arch_golden) stop
// at small sizes, so this drives the compiled forms that serving and
// characterisation actually run — CompiledNetlist::eval64, 64 operand pairs
// per call, over every (m, x) pair, plus a seeded sample through the scalar
// CompiledNetlist::eval — for every configuration the benches use: array
// and Wallace at wl 3..9 × pipeline depth 1–2 × wl_x 8 and 9, and every
// CCM constant at wl 3..9 with wl_x 9 (at most 2^18 pairs per netlist).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "mult/bitcodec.hpp"
#include "mult/multiplier.hpp"
#include "netlist/compiled.hpp"

namespace oclp {
namespace {

// Every (m, x) pair with m < 2^wl_m (a single fixed `ccm_constant` when the
// constant is baked in and only the x port remains), 64 per eval64 call,
// then `samples` seeded pairs through the scalar eval.
void expect_exact(const Netlist& nl, int wl_m, int wl_x, bool ccm,
                  std::uint32_t ccm_constant, std::size_t samples, Rng& rng,
                  const std::string& what) {
  const CompiledNetlist cnl = CompiledNetlist::compile(nl);
  const std::size_t mb = ccm ? 0 : static_cast<std::size_t>(wl_m);
  ASSERT_EQ(cnl.num_inputs(), mb + static_cast<std::size_t>(wl_x)) << what;
  ASSERT_LE(cnl.num_outputs(), 64u) << what;
  ASSERT_GE(cnl.num_outputs(), static_cast<std::size_t>(wl_m + wl_x)) << what;

  const std::uint64_t nx = std::uint64_t{1} << wl_x;
  const std::uint64_t pairs = (ccm ? 1 : std::uint64_t{1} << wl_m) * nx;
  const auto operands = [&](std::uint64_t i) {
    return std::pair<std::uint64_t, std::uint64_t>{ccm ? ccm_constant : i / nx,
                                                   i % nx};
  };
  std::vector<std::uint64_t> words(cnl.num_nets());
  // Inputs are the multiplicand bits (none for a CCM), then the x bits.
  const auto in_word = [&](std::size_t i) -> std::uint64_t& {
    return words[static_cast<std::size_t>(cnl.input_net(i))];
  };
  for (std::uint64_t i0 = 0; i0 < pairs; i0 += 64) {
    const std::uint64_t lanes = std::min<std::uint64_t>(64, pairs - i0);
    std::fill(words.begin(), words.end(), 0);
    for (std::uint64_t l = 0; l < lanes; ++l) {
      const auto [m, x] = operands(i0 + l);
      for (std::size_t b = 0; b < mb; ++b)
        in_word(b) |= ((m >> b) & 1u) << l;
      for (std::size_t b = 0; b < static_cast<std::size_t>(wl_x); ++b)
        in_word(mb + b) |= ((x >> b) & 1u) << l;
    }
    cnl.eval64(words);
    for (std::uint64_t l = 0; l < lanes; ++l) {
      std::uint64_t product = 0;
      for (std::size_t o = 0; o < cnl.num_outputs(); ++o)
        product |= ((words[static_cast<std::size_t>(cnl.out_net(o))] >> l) & 1u)
                   << o;
      const auto [m, x] = operands(i0 + l);
      ASSERT_EQ(product, m * x) << what << " m " << m << " x " << x;
    }
  }

  std::vector<std::uint8_t> in, vals, out;
  for (std::size_t s = 0; s < samples; ++s) {
    const auto [m, x] = operands(rng.uniform_u64(pairs));
    in.clear();
    if (!ccm) append_bits(in, static_cast<std::uint32_t>(m), wl_m);
    append_bits(in, static_cast<std::uint32_t>(x), wl_x);
    cnl.eval_outputs(in, vals, out);
    ASSERT_EQ(from_bits(out), m * x) << what << " eval m " << m << " x " << x;
  }
}

TEST(ExactProducts, CompiledMultipliersComputeEveryProductExactly) {
  Rng rng(0xE7AC7);
  for (const MultArch arch : {MultArch::Array, MultArch::Wallace})
    for (int wl = 3; wl <= 9; ++wl)
      for (int depth = 1; depth <= 2; ++depth)
        for (const int wl_x : {8, 9}) {
          const MultConfig cfg{arch, wl, depth};
          std::ostringstream what;
          what << cfg << " wl_x " << wl_x;
          expect_exact(make_multiplier(cfg, wl_x), wl, wl_x, false, 0, 512, rng,
                       what.str());
        }
  for (int wl = 3; wl <= 9; ++wl) {
    const MultConfig cfg{MultArch::Ccm, wl, 1};
    for (std::uint32_t m = 0; m < (1u << wl); ++m) {
      std::ostringstream what;
      what << cfg << " constant " << m;
      expect_exact(make_ccm_multiplier(cfg, m, 9), wl, 9, true, m, 16, rng,
                   what.str());
    }
  }
}

}  // namespace
}  // namespace oclp
