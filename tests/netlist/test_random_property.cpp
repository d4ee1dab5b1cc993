// Property tests over randomly generated netlists: the structural
// invariants that every module above the netlist layer relies on must hold
// for arbitrary circuits, not just multipliers.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"
#include "netlist/compiled.hpp"
#include "netlist/netlist.hpp"
#include "netlist/sta.hpp"
#include "reference/double_sim.hpp"
#include "timing/overclock_sim.hpp"

namespace oclp {
namespace {

// A random combinational DAG: n_in inputs, n_cells random 1-3 input cells
// whose fanins are uniformly drawn among already-defined nets.
Netlist random_netlist(std::size_t n_in, std::size_t n_cells, std::size_t n_out,
                       Rng& rng) {
  static const CellType kTypes[] = {
      CellType::Not,  CellType::And2, CellType::Or2,   CellType::Xor2,
      CellType::Nand2, CellType::Nor2, CellType::Xnor2, CellType::AndNot2,
      CellType::Maj3, CellType::Xor3, CellType::Mux2};
  NetlistBuilder nb;
  nb.add_inputs(n_in);
  for (std::size_t i = 0; i < n_cells; ++i) {
    const CellType type = kTypes[rng.uniform_u64(std::size(kTypes))];
    const auto pick = [&] {
      return static_cast<std::int32_t>(rng.uniform_u64(nb.num_nets()));
    };
    const std::int32_t a = pick();
    const std::int32_t b = cell_arity(type) > 1 ? pick() : -1;
    const std::int32_t c = cell_arity(type) > 2 ? pick() : -1;
    nb.add_cell(type, a, b, c);
  }
  for (std::size_t o = 0; o < n_out; ++o)
    nb.mark_output(static_cast<std::int32_t>(
        rng.uniform_u64(n_in + n_cells)));
  return nb.build();
}

// Snap the delayed cells' delays onto the PsGrid (the only delays an
// OverclockSim lowers); free cells keep theirs, which lowering ignores.
void snap_delays(const Netlist& nl, std::vector<double>& delays) {
  for (std::size_t i = 0; i < nl.num_cells(); ++i)
    if (!cell_is_free(nl.cells()[i].type))
      delays[i] = PsGrid::snap_ns(delays[i]);
}

std::vector<std::uint8_t> random_inputs(std::size_t n, Rng& rng) {
  std::vector<std::uint8_t> in(n);
  for (auto& b : in) b = static_cast<std::uint8_t>(rng.uniform_u64(2));
  return in;
}

class RandomNetlist : public ::testing::TestWithParam<int> {};

TEST_P(RandomNetlist, LevelsAreConsistentWithTopology) {
  Rng rng(GetParam());
  const Netlist nl = random_netlist(6, 60, 8, rng);
  const auto lvl = nl.levels();
  for (std::size_t i = 0; i < nl.num_inputs(); ++i) EXPECT_EQ(lvl[i], 0);
  for (std::size_t i = 0; i < nl.num_cells(); ++i) {
    const Cell& c = nl.cells()[i];
    const int out_lvl = lvl[nl.num_inputs() + i];
    for (int k = 0; k < cell_arity(c.type); ++k)
      EXPECT_GE(out_lvl, lvl[c.in[k]] + (cell_is_free(c.type) ? 0 : 1));
  }
  EXPECT_LE(nl.depth(), static_cast<int>(nl.num_cells()));
}

TEST_P(RandomNetlist, StaArrivalsRespectFaninOrdering) {
  Rng rng(GetParam() + 100);
  const Netlist nl = random_netlist(5, 50, 6, rng);
  std::vector<double> delays(nl.num_cells());
  for (auto& d : delays) d = rng.uniform(0.1, 1.0);
  const auto sta = static_timing(nl, delays);
  for (std::size_t i = 0; i < nl.num_cells(); ++i) {
    const Cell& c = nl.cells()[i];
    const double out = sta.arrival_ns[nl.num_inputs() + i];
    for (int k = 0; k < cell_arity(c.type); ++k)
      EXPECT_GE(out + 1e-12, sta.arrival_ns[c.in[k]]);
  }
  // Critical path equals the max arrival over outputs.
  double max_out = 0.0;
  for (auto o : nl.outputs()) max_out = std::max(max_out, sta.arrival_ns[o]);
  EXPECT_DOUBLE_EQ(sta.critical_path_ns, max_out);
}

TEST_P(RandomNetlist, OverclockAtCriticalPathMatchesFunctionalModel) {
  // The foundational guarantee of the over-clocking simulator: sampled at
  // (or beyond) the STA critical path, every output equals the zero-delay
  // functional evaluation — for any circuit and any stimulus.
  Rng rng(GetParam() + 200);
  Netlist nl = random_netlist(7, 70, 10, rng);
  std::vector<double> delays(nl.num_cells(), 0.0);
  for (std::size_t i = 0; i < nl.num_cells(); ++i)
    if (!cell_is_free(nl.cells()[i].type)) delays[i] = rng.uniform(0.05, 0.9);
  snap_delays(nl, delays);
  const double critical =
      std::max(static_timing(nl, delays).critical_path_ns, 1e-6);
  const Netlist reference = nl;  // evaluate() on a pristine copy
  OverclockSim sim(std::move(nl), std::move(delays));
  sim.reset(random_inputs(7, rng));
  for (int step = 0; step < 100; ++step) {
    const auto in = random_inputs(7, rng);
    const auto sampled = sim.step(in, critical);
    const auto truth = reference.evaluate_outputs(in);
    ASSERT_EQ(sampled, truth) << "seed " << GetParam() << " step " << step;
  }
}

TEST_P(RandomNetlist, SettleTimesNeverExceedSta) {
  Rng rng(GetParam() + 300);
  Netlist nl = random_netlist(6, 50, 8, rng);
  std::vector<double> delays(nl.num_cells(), 0.0);
  for (std::size_t i = 0; i < nl.num_cells(); ++i)
    if (!cell_is_free(nl.cells()[i].type)) delays[i] = rng.uniform(0.05, 0.9);
  snap_delays(nl, delays);
  const double critical = static_timing(nl, delays).critical_path_ns;
  OverclockSim sim(std::move(nl), std::move(delays));
  sim.reset(random_inputs(6, rng));
  for (int step = 0; step < 100; ++step) {
    sim.step(random_inputs(6, rng), 1.0);
    ASSERT_LE(sim.last_output_settle_ns(), critical + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomNetlist, ::testing::Range(1, 11));

// --- Compiled-vs-interpreted golden equivalence -----------------------------

// Random DAG over the full cell alphabet, including the free cells
// (Buf/Const) the lowering elides and the constant cones it folds.
Netlist random_netlist_full(std::size_t n_in, std::size_t n_cells,
                            std::size_t n_out, Rng& rng) {
  static const CellType kTypes[] = {
      CellType::Const0, CellType::Const1, CellType::Buf,     CellType::Not,
      CellType::And2,   CellType::Or2,    CellType::Xor2,    CellType::Nand2,
      CellType::Nor2,   CellType::Xnor2,  CellType::AndNot2, CellType::Maj3,
      CellType::Xor3,   CellType::Mux2};
  NetlistBuilder nb;
  nb.add_inputs(n_in);
  for (std::size_t i = 0; i < n_cells; ++i) {
    const CellType type = kTypes[rng.uniform_u64(std::size(kTypes))];
    const auto pick = [&] {
      return static_cast<std::int32_t>(rng.uniform_u64(nb.num_nets()));
    };
    const std::int32_t a = cell_arity(type) > 0 ? pick() : -1;
    const std::int32_t b = cell_arity(type) > 1 ? pick() : -1;
    const std::int32_t c = cell_arity(type) > 2 ? pick() : -1;
    nb.add_cell(type, a, b, c);
  }
  for (std::size_t o = 0; o < n_out; ++o)
    nb.mark_output(static_cast<std::int32_t>(rng.uniform_u64(n_in + n_cells)));
  return nb.build();
}

// Cell-at-a-time interpretation of the over-clocking timing model over the
// original netlist — the pre-lowering evaluation, kept here as the golden
// model the compiled walks must match bit for bit (values AND settle times;
// free cells contribute no delay regardless of their annotation).
struct InterpretedSim {
  const Netlist& nl;
  std::vector<double> delay;
  std::vector<std::uint8_t> prev, next;
  std::vector<double> settle;
  std::vector<double> out_settle;
  std::vector<std::uint8_t> out_prev, out_next;
  double worst = 0.0;

  InterpretedSim(const Netlist& n, std::vector<double> d)
      : nl(n), delay(std::move(d)) {}

  void reset(const std::vector<std::uint8_t>& in) {
    prev = nl.evaluate(in);
    next = prev;
    settle.assign(nl.num_nets(), 0.0);
    out_settle.assign(nl.outputs().size(), 0.0);
    out_prev.assign(nl.outputs().size(), 0);
    out_next.assign(nl.outputs().size(), 0);
  }

  void advance(const std::vector<std::uint8_t>& in) {
    const std::size_t ni = nl.num_inputs();
    for (std::size_t i = 0; i < ni; ++i) {
      next[i] = in[i];
      settle[i] = 0.0;
    }
    const auto& cells = nl.cells();
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const Cell& c = cells[i];
      const std::size_t out = ni + i;
      const int arity = cell_arity(c.type);
      const bool a = arity > 0 && next[c.in[0]];
      const bool b = arity > 1 && next[c.in[1]];
      const bool cc = arity > 2 && next[c.in[2]];
      const auto v = static_cast<std::uint8_t>(cell_eval(c.type, a, b, cc));
      next[out] = v;
      if (v == prev[out]) {
        settle[out] = 0.0;
        continue;
      }
      double launch = 0.0;
      for (int k = 0; k < arity; ++k)
        if (next[c.in[k]] != prev[c.in[k]])
          launch = std::max(launch, settle[c.in[k]]);
      settle[out] = launch + (cell_is_free(c.type) ? 0.0 : delay[i]);
    }
    worst = 0.0;
    for (std::size_t o = 0; o < nl.outputs().size(); ++o) {
      const auto n = nl.outputs()[o];
      worst = std::max(worst, settle[n]);
      out_settle[o] = settle[n];
      out_prev[o] = prev[n];
      out_next[o] = next[n];
    }
    prev = next;
  }

  std::vector<std::uint8_t> capture(double period) const {
    std::vector<std::uint8_t> out(out_settle.size());
    for (std::size_t k = 0; k < out.size(); ++k)
      out[k] = out_settle[k] <= period ? out_next[k] : out_prev[k];
    return out;
  }
};

TEST_P(RandomNetlist, CompiledSimMatchesInterpretedGolden) {
  Rng rng(GetParam() + 400);
  const Netlist nl = random_netlist_full(7, 80, 10, rng);
  // Free cells get random (ignored, off-grid) delays on purpose: the
  // lowering must not let them leak into the settle profile.
  std::vector<double> delays(nl.num_cells());
  for (auto& d : delays) d = rng.uniform(0.05, 0.9);
  snap_delays(nl, delays);

  // Both compiled walks against the interpreter: the double walk's
  // per-edge snapshot, and the integer kernel's step() captures.
  InterpretedSim ref(nl, delays);
  const ref::DoubleSim dsim(nl, delays);
  OverclockSim sim(nl, delays);
  ref::DoubleSim::State st;

  const auto first = random_inputs(7, rng);
  ref.reset(first);
  dsim.reset(st, first);
  sim.reset(first);
  double max_settle = 1.0;
  for (int step = 0; step < 60; ++step) {
    const auto in = random_inputs(7, rng);
    ref.advance(in);
    dsim.advance(st, in);
    sim.step(in, 1.0);
    ASSERT_EQ(st.out_next, ref.out_next) << "seed " << GetParam() << " step " << step;
    ASSERT_EQ(st.out_prev, ref.out_prev) << "seed " << GetParam() << " step " << step;
    ASSERT_EQ(st.out_settle, ref.out_settle)
        << "seed " << GetParam() << " step " << step;
    ASSERT_EQ(st.last_output_settle_ns, ref.worst);
    ASSERT_EQ(sim.last_output_settle_ns(), ref.worst);
    max_settle = std::max(max_settle, ref.worst);
    // Bitwise-identical captures at random periods straddling the settle
    // profile (including periods shorter than every transition).
    std::vector<std::uint8_t> got;
    for (int s = 0; s < 4; ++s) {
      const double period = rng.uniform(1e-3, max_settle + 0.2);
      const auto want = ref.capture(period);
      dsim.capture(st, period, got);
      ASSERT_EQ(got, want)
          << "seed " << GetParam() << " step " << step << " period " << period;
      ASSERT_EQ(sim.resample_last(period), want)
          << "seed " << GetParam() << " step " << step << " period " << period;
    }
  }
}

TEST_P(RandomNetlist, RunStreamMatchesPerEdgeAdvance) {
  Rng rng(GetParam() + 600);
  const Netlist nl = random_netlist_full(6, 90, 9, rng);
  std::vector<double> delays(nl.num_cells());
  for (auto& d : delays) d = rng.uniform(0.05, 0.9);
  snap_delays(nl, delays);
  const ref::DoubleSim dsim(nl, delays);
  OverclockSim sim(nl, delays);

  // An awkward stream length on purpose: full chunks plus a partial tail.
  const std::size_t n = 64 + 64 + 37;
  const auto first = random_inputs(6, rng);
  std::vector<std::uint8_t> flat(n * 6);
  for (std::size_t s = 0; s < n; ++s) {
    const auto in = random_inputs(6, rng);
    std::copy(in.begin(), in.end(), flat.begin() + static_cast<std::ptrdiff_t>(s * 6));
  }

  // Golden: one double-walk advance() per edge, snapshotting the per-edge
  // output word and the (bit, settle) pairs of the outputs that toggled.
  ref::DoubleSim::State ref;
  dsim.reset(ref, first);
  std::vector<std::uint64_t> want_settled(n);
  std::vector<std::vector<std::pair<std::size_t, double>>> want_tog(n);
  std::vector<std::uint8_t> in(6);
  for (std::size_t s = 0; s < n; ++s) {
    std::copy_n(flat.begin() + static_cast<std::ptrdiff_t>(s * 6), 6, in.begin());
    dsim.advance(ref, in);
    for (std::size_t k = 0; k < ref.out_next.size(); ++k) {
      want_settled[s] |= static_cast<std::uint64_t>(ref.out_next[k]) << k;
      if (ref.out_prev[k] != ref.out_next[k])
        want_tog[s].push_back({k, ref.out_settle[k]});
    }
  }

  OverclockSim::State st;
  sim.reset(st, first);
  OverclockSim::SweepStream stream;
  sim.run_stream(st, flat.data(), n, stream);

  ASSERT_EQ(stream.settled.size(), n);
  for (std::size_t s = 0; s < n; ++s) {
    ASSERT_EQ(stream.settled[s], want_settled[s])
        << "seed " << GetParam() << " sample " << s;
    const std::size_t cnt = stream.toggle_begin[s + 1] - stream.toggle_begin[s];
    ASSERT_EQ(cnt, want_tog[s].size()) << "seed " << GetParam() << " sample " << s;
    for (std::size_t t = 0; t < cnt; ++t) {
      const std::size_t ti = stream.toggle_begin[s] + t;
      ASSERT_EQ(stream.toggle_bit[ti], want_tog[s][t].first);
      // Settle times must be bitwise identical, not just close.
      ASSERT_EQ(PsGrid::to_ns(stream.toggle_settle_ticks[ti]),
                want_tog[s][t].second)
          << "seed " << GetParam() << " sample " << s << " toggle " << t;
    }
  }
  // After the stream, `st` must hold the values n advance() calls left.
  ASSERT_EQ(st.prev, ref.prev);
}

TEST_P(RandomNetlist, Eval64LanesMatchScalarEvaluation) {
  Rng rng(GetParam() + 500);
  const Netlist nl = random_netlist_full(8, 70, 12, rng);
  const CompiledNetlist cnl = CompiledNetlist::compile(nl);

  // 64 random samples, one per lane.
  std::vector<std::vector<std::uint8_t>> samples;
  samples.reserve(64);
  for (int l = 0; l < 64; ++l) samples.push_back(random_inputs(8, rng));

  std::vector<std::uint64_t> words(cnl.num_nets(), 0);
  for (std::size_t i = 0; i < cnl.num_inputs(); ++i)
    for (int l = 0; l < 64; ++l)
      words[static_cast<std::size_t>(cnl.input_net(i))] |=
          static_cast<std::uint64_t>(samples[static_cast<std::size_t>(l)][i])
          << l;
  cnl.eval64(words);

  std::vector<std::uint8_t> scratch, scalar_out;
  for (int l = 0; l < 64; ++l) {
    const auto& in = samples[static_cast<std::size_t>(l)];
    const auto truth = nl.evaluate_outputs(in);
    cnl.eval_outputs(in, scratch, scalar_out);
    ASSERT_EQ(scalar_out, truth) << "seed " << GetParam() << " lane " << l;
    for (std::size_t o = 0; o < cnl.num_outputs(); ++o) {
      const auto bit = static_cast<std::uint8_t>(
          (words[static_cast<std::size_t>(cnl.out_net(o))] >> l) & 1u);
      ASSERT_EQ(bit, truth[o]) << "seed " << GetParam() << " lane " << l
                               << " output " << o;
    }
  }
}

}  // namespace
}  // namespace oclp
