#include "timing/overclock_sim.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

namespace oclp {

OverclockSim::OverclockSim(Netlist nl, std::vector<double> cell_delay_ns,
                           TimingMode mode)
    : nl_(std::move(nl)),
      cnl_(CompiledNetlist::compile(nl_)) {
  OCLP_CHECK_MSG(cell_delay_ns.size() == nl_.num_cells(),
                 "one delay per cell required: " << cell_delay_ns.size() << " vs "
                                                 << nl_.num_cells());
  delay_ = cnl_.gather_delays(cell_delay_ns);
  // Lowering-time quantisation onto the integer-picosecond grid. Strict
  // mode rejects off-grid/overflowing delays (naming the cell); auto mode
  // keeps the double kernel for them instead.
  switch (mode) {
    case TimingMode::IntegerExact:
      delay_ticks_ = cnl_.quantise_delays(delay_, &critical_path_ticks_);
      break;
    case TimingMode::Auto:
      if (!cnl_.try_quantise_delays(delay_, delay_ticks_, &critical_path_ticks_)) {
        delay_ticks_.clear();
        critical_path_ticks_ = 0;
      }
      break;
    case TimingMode::DoubleRef:
      break;
  }
  reset(state_, std::vector<std::uint8_t>(nl_.num_inputs(), 0));
  state_.initialised = false;  // the public contract still requires reset()
}

void OverclockSim::reset(State& st, const std::vector<std::uint8_t>& inputs) const {
  OCLP_CHECK(inputs.size() == nl_.num_inputs());
  const std::size_t nn = cnl_.num_nets();
  st.prev.resize(nn);
  for (std::size_t i = 0; i < inputs.size(); ++i) st.prev[2 + i] = inputs[i];
  cnl_.eval(st.prev);
  // next is rewritten per advance except for the sentinel slots, which must
  // hold their fixed values so the transition scan never sees them move.
  st.next.assign(nn, 0);
  st.next[CompiledNetlist::kConst1Net] = 1;
  st.settle.assign(nn, 0.0);
  st.carried.assign(nn, 0.0);
  const std::size_t no = cnl_.num_outputs();
  st.out_settle.assign(no, 0.0);
  st.out_prev.assign(no, 0);
  st.out_next.assign(no, 0);
  st.last_output_settle_ns = 0.0;
  st.initialised = true;
  st.stepped = false;
}

void OverclockSim::advance(State& st, const std::vector<std::uint8_t>& inputs) const {
  OCLP_CHECK_MSG(st.initialised, "OverclockSim::advance before reset");
  OCLP_CHECK(inputs.size() == nl_.num_inputs());

  // Registered inputs switch at the edge: settle 0, value = new input.
  for (std::size_t i = 0; i < inputs.size(); ++i) st.next[2 + i] = inputs[i];

  // Pipelined cones take the two-track walk; register-free cones keep the
  // exact single-track path below.
  if (cnl_.has_registers()) {
    advance_regs(st);
    return;
  }

  // One linear walk over the levelized cells: a truth-table lookup for the
  // functional value, then a transition scan over the three fanin slots
  // (unused and baked slots point at sentinels, which never transition).
  const std::uint8_t* tt = cnl_.truth_tables().data();
  const std::int32_t* fanin = cnl_.fanins().data();
  const std::size_t base = 2 + cnl_.num_inputs();
  const std::size_t nc = cnl_.num_cells();
  std::uint8_t* next = st.next.data();
  const std::uint8_t* prev = st.prev.data();
  double* settle = st.settle.data();
  const double* delay = delay_.data();
  for (std::size_t ci = 0; ci < nc; ++ci) {
    const std::int32_t* f = fanin + 3 * ci;
    const unsigned idx = static_cast<unsigned>(next[f[0]]) |
                         static_cast<unsigned>(next[f[1]]) << 1 |
                         static_cast<unsigned>(next[f[2]]) << 2;
    const auto v = static_cast<std::uint8_t>((tt[ci] >> idx) & 1u);
    const std::size_t out = base + ci;
    next[out] = v;
    // Toggle rates are low for realistic streams (a fixed multiplicand
    // keeps most of the cone quiet), so skipping the settle arithmetic on
    // the unchanged majority beats computing it branch-free. A fanin
    // contributes its settle time only if it transitioned (masked to an
    // exact 0.0 otherwise — settle times are non-negative, so the 0/1
    // multiplication is exact). Every compiled cell owns its full delay:
    // free cells were elided during lowering.
    if (v == prev[out]) {
      settle[out] = 0.0;
      continue;
    }
    double launch = settle[f[0]] * (next[f[0]] != prev[f[0]]);
    launch = std::max(launch, settle[f[1]] * (next[f[1]] != prev[f[1]]));
    launch = std::max(launch, settle[f[2]] * (next[f[2]] != prev[f[2]]));
    settle[out] = launch + delay[ci];
  }

  const std::size_t no = cnl_.num_outputs();
  double worst = 0.0;
  for (std::size_t k = 0; k < no; ++k) {
    const auto o = cnl_.out_net(k);
    worst = std::max(worst, settle[o]);
    st.out_settle[k] = settle[o];
    st.out_prev[k] = prev[o];
    st.out_next[k] = next[o];
  }
  st.last_output_settle_ns = worst;
  st.stepped = true;

  st.prev.swap(st.next);  // cone fully settles before the next edge (see header)
}

// Two-track walk for pipelined cones: L (stage-local settle, restarting at
// each register) and M (carried max of earlier stages' local settles along
// toggled paths); the recorded output settle is max(L, M). Same masking
// and skip-unchanged structure as the single-track loop in advance().
void OverclockSim::advance_regs(State& st) const {
  const std::uint8_t* tt = cnl_.truth_tables().data();
  const std::int32_t* fanin = cnl_.fanins().data();
  const std::uint8_t* is_reg = cnl_.reg_flags().data();
  const std::size_t base = 2 + cnl_.num_inputs();
  const std::size_t nc = cnl_.num_cells();
  std::uint8_t* next = st.next.data();
  const std::uint8_t* prev = st.prev.data();
  double* settle = st.settle.data();
  double* carried = st.carried.data();
  const double* delay = delay_.data();
  for (std::size_t ci = 0; ci < nc; ++ci) {
    const std::int32_t* f = fanin + 3 * ci;
    const unsigned idx = static_cast<unsigned>(next[f[0]]) |
                         static_cast<unsigned>(next[f[1]]) << 1 |
                         static_cast<unsigned>(next[f[2]]) << 2;
    const auto v = static_cast<std::uint8_t>((tt[ci] >> idx) & 1u);
    const std::size_t out = base + ci;
    next[out] = v;
    if (v == prev[out]) {
      settle[out] = 0.0;
      carried[out] = 0.0;
      continue;
    }
    const int g0 = next[f[0]] != prev[f[0]];
    const int g1 = next[f[1]] != prev[f[1]];
    const int g2 = next[f[2]] != prev[f[2]];
    double launch = settle[f[0]] * g0;
    launch = std::max(launch, settle[f[1]] * g1);
    launch = std::max(launch, settle[f[2]] * g2);
    double carry = carried[f[0]] * g0;
    carry = std::max(carry, carried[f[1]] * g1);
    carry = std::max(carry, carried[f[2]] * g2);
    if (is_reg[ci]) {
      carried[out] = std::max(carry, launch);
      settle[out] = delay[ci];
    } else {
      settle[out] = launch + delay[ci];
      carried[out] = carry;
    }
  }

  const std::size_t no = cnl_.num_outputs();
  double worst = 0.0;
  for (std::size_t k = 0; k < no; ++k) {
    const auto o = cnl_.out_net(k);
    const double eff = std::max(settle[o], carried[o]);
    worst = std::max(worst, eff);
    st.out_settle[k] = eff;
    st.out_prev[k] = prev[o];
    st.out_next[k] = next[o];
  }
  st.last_output_settle_ns = worst;
  st.stepped = true;

  st.prev.swap(st.next);
}

void OverclockSim::run_stream(State& st, const std::uint8_t* inputs,
                              std::size_t n, SweepStream& out,
                              std::uint64_t min_period_ticks) const {
  const bool regs = cnl_.has_registers();
  if (integer_kernel()) {
    // The slack gate (see the header): settle <= structural arrival on
    // both tracks, so a period at or above the critical path captures
    // every bit fresh. 0 is "period unknown", never a gate.
    const bool gated =
        min_period_ticks != 0 && min_period_ticks >= critical_path_ticks_;
    regs ? run_stream_impl<true, true>(st, inputs, n, out, gated)
         : run_stream_impl<true, false>(st, inputs, n, out, gated);
  } else {
    regs ? run_stream_impl<false, true>(st, inputs, n, out, false)
         : run_stream_impl<false, false>(st, inputs, n, out, false);
  }
}

void OverclockSim::run_stream_ref(State& st, const std::uint8_t* inputs,
                                  std::size_t n, SweepStream& out) const {
  if (cnl_.has_registers())
    run_stream_impl<false, true>(st, inputs, n, out, false);
  else
    run_stream_impl<false, false>(st, inputs, n, out, false);
}

template <bool kIntKernel, bool kRegs>
void OverclockSim::run_stream_impl(State& st, const std::uint8_t* inputs,
                                   std::size_t n, SweepStream& out,
                                   bool gated) const {
  OCLP_CHECK_MSG(st.initialised, "OverclockSim::run_stream before reset");
  const std::size_t no = cnl_.num_outputs();
  OCLP_CHECK_MSG(no <= 64, "run_stream packs outputs into a 64-bit word; this "
                           "netlist has " << no << " outputs");
  const std::size_t ni = cnl_.num_inputs();
  const std::size_t nn = cnl_.num_nets();
  const std::size_t nc = cnl_.num_cells();
  const std::size_t base = 2 + ni;

  out.settled.resize(n);
  out.toggle_begin.resize(n + 1);
  out.toggle_bit.clear();
  out.toggle_settle.clear();
  out.toggle_settle_ticks.clear();
  out.has_ticks = kIntKernel;
  out.gated = gated;
  out.toggle_begin[0] = 0;
  if (n == 0) return;
  // A gated stream records no toggle pairs: every sample's range is empty.
  if (gated) std::fill(out.toggle_begin.begin(), out.toggle_begin.end(), 0u);

  out.words.resize(nn);
  out.tog.resize(nn);
  // Per-net lane rows of settle times: row[net*64 + l] is net's settle at
  // edge c0+l — PsGrid ticks on the integer kernel, doubles on the
  // reference. Cell slots may be stale between chunks — a cell's settle
  // is only ever read under this edge's toggle mask, and a toggled cell is
  // rewritten (in level order) before any read. Input and sentinel rows
  // are registered/constant (settle 0) and are never written, so they are
  // re-zeroed here in case a previous caller used this scratch for a
  // netlist whose cell slots overlap them.
  if constexpr (kIntKernel) {
    out.lanes_ticks.resize(nn * 64);
    std::fill_n(out.lanes_ticks.data(), base * 64, 0u);
    if constexpr (kRegs) {
      out.lanes_c_ticks.resize(nn * 64);
      std::fill_n(out.lanes_c_ticks.data(), base * 64, 0u);
    }
  } else {
    out.lanes.resize(nn * 64);
    std::fill_n(out.lanes.data(), base * 64, 0.0);
    if constexpr (kRegs) {
      out.lanes_c.resize(nn * 64);
      std::fill_n(out.lanes_c.data(), base * 64, 0.0);
    }
  }
  out.carry.resize(nn);

  // The carry into lane 0 of each chunk is the settled value of the
  // previous sample — initially the settled reset state of `st`.
  std::memcpy(out.carry.data(), st.prev.data(), nn);

  // The device-resolved dense row fills and their sparsity crossover (see
  // lane_kernels.hpp): toggle-word popcount at/above the cutoff hands the
  // whole 64-lane row to the explicit-SIMD fill, below it the sparse
  // per-lane walk touches only the toggled slots.
  const lane::DenseKernels& lk = dense_;
  [[maybe_unused]] const int dense_cutoff = dense_.dense_cutoff;

  const std::int32_t* fanin = cnl_.fanins().data();
  [[maybe_unused]] const double* delay = delay_.data();
  [[maybe_unused]] const std::uint32_t* delay_ticks = delay_ticks_.data();
  [[maybe_unused]] const std::uint8_t* is_reg = cnl_.reg_flags().data();
  std::uint64_t* words = out.words.data();
  std::uint64_t* tog = out.tog.data();
  [[maybe_unused]] double* lanes = out.lanes.data();
  [[maybe_unused]] std::uint32_t* lanes_ticks = out.lanes_ticks.data();
  [[maybe_unused]] double* lanes_c = out.lanes_c.data();
  [[maybe_unused]] std::uint32_t* lanes_c_ticks = out.lanes_c_ticks.data();

  for (std::size_t c0 = 0; c0 < n; c0 += 64) {
    const std::size_t cn = std::min<std::size_t>(64, n - c0);
    const std::uint64_t lanemask =
        cn == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << cn) - 1;
    // Lanes whose settle times this chunk propagates: all of them on a
    // full stream. A gated stream needs them only at its final edge, which
    // seeds the last-edge State below — no capture reads any other.
    std::uint64_t prop = lanemask;
    if (gated) prop = c0 + cn == n ? std::uint64_t{1} << (cn - 1) : 0;

    // Pack this chunk's input bits into lane words (lane l = sample c0+l).
    lk.pack(inputs + c0 * ni, ni, cn, words + 2);
    cnl_.eval64(out.words);

    // Toggle words: lane l is set where sample c0+l differs from its
    // predecessor (lane l-1, or the carried value for lane 0). Lanes at
    // and past cn hold don't-care values; the lane mask drops them here
    // and the output unpack below never emits them.
    if (prop != 0) {
      for (std::size_t net = 0; net < nn; ++net) {
        const std::uint64_t w = words[net];
        tog[net] = (w ^ ((w << 1) | out.carry[net])) & lanemask;
        out.carry[net] = static_cast<std::uint8_t>((w >> (cn - 1)) & 1u);
      }
    } else {
      for (std::size_t net = 0; net < nn; ++net)
        out.carry[net] = static_cast<std::uint8_t>((words[net] >> (cn - 1)) & 1u);
    }

    // Sparse settle propagation, cell-major: every toggled cell fills its
    // settle lane row for exactly the edges it toggled at. Ascending ci is
    // level order, so a fanin's row element is final before any consumer
    // reads it — and a consumer only reads lane l of a fanin when that
    // fanin toggled at lane l (the mask), so stale row slots are never
    // observed.
    //
    // Integer kernel: branch-poor max-plus over uint32 tick rows — an AND
    // mask, two unsigned maxes and an add per cell/lane, no floating
    // point. The uint32 sums cannot overflow (quantisation bounded the
    // worst-case path), and a masked all-zeros launch is exactly the
    // registered-fanin case.
    //
    // Double kernel: the all-ones/all-zeros mask on the settle's bit
    // pattern is exact for the non-negative settle times here (all-ones
    // keeps the value, all-zeros yields +0.0 — exactly what advance()'s
    // 0/1 multiplication produces), so the doubles stay bitwise identical
    // to advance()'s.
    //
    // Every toggle word is cut to `prop`, so a gated stream's final-edge
    // walk reads only rows written at that edge.
    for (std::size_t ci = 0; ci < nc && prop != 0; ++ci) {
      std::uint64_t t = tog[base + ci] & prop;
      if (!t) continue;
      const std::int32_t* f = fanin + 3 * ci;
      const std::uint64_t t0 = tog[f[0]] & prop, t1 = tog[f[1]] & prop,
                          t2 = tog[f[2]] & prop;
      if constexpr (kRegs) {
        // Two-track propagation (local L rows plus carried M rows). The
        // register branch is per-cell, so the dense fill hoists it out of
        // the lane loop entirely — dense pipelined edges vectorise exactly
        // like single-track ones, just over two row pairs.
        const bool reg = is_reg[ci] != 0;
        if constexpr (kIntKernel) {
          const std::uint32_t* r0 = lanes_ticks + static_cast<std::size_t>(f[0]) * 64;
          const std::uint32_t* r1 = lanes_ticks + static_cast<std::size_t>(f[1]) * 64;
          const std::uint32_t* r2 = lanes_ticks + static_cast<std::size_t>(f[2]) * 64;
          const std::uint32_t* cr0 = lanes_c_ticks + static_cast<std::size_t>(f[0]) * 64;
          const std::uint32_t* cr1 = lanes_c_ticks + static_cast<std::size_t>(f[1]) * 64;
          const std::uint32_t* cr2 = lanes_c_ticks + static_cast<std::size_t>(f[2]) * 64;
          std::uint32_t* row = lanes_ticks + (base + ci) * 64;
          std::uint32_t* crow = lanes_c_ticks + (base + ci) * 64;
          const std::uint32_t d = delay_ticks[ci];
          if (std::popcount(t) >= dense_cutoff) {
            lk.fill2(row, crow, r0, r1, r2, cr0, cr1, cr2, t0, t1, t2, d, reg);
            continue;
          }
          do {
            const auto l = static_cast<std::size_t>(std::countr_zero(t));
            const auto m0 = static_cast<std::uint32_t>(0 - ((t0 >> l) & 1ull));
            const auto m1 = static_cast<std::uint32_t>(0 - ((t1 >> l) & 1ull));
            const auto m2 = static_cast<std::uint32_t>(0 - ((t2 >> l) & 1ull));
            std::uint32_t launch = r0[l] & m0;
            launch = std::max(launch, r1[l] & m1);
            launch = std::max(launch, r2[l] & m2);
            std::uint32_t carry = cr0[l] & m0;
            carry = std::max(carry, cr1[l] & m1);
            carry = std::max(carry, cr2[l] & m2);
            if (reg) {
              crow[l] = std::max(carry, launch);
              row[l] = d;
            } else {
              row[l] = launch + d;
              crow[l] = carry;
            }
            t &= t - 1;
          } while (t);
        } else {
          const double* r0 = lanes + static_cast<std::size_t>(f[0]) * 64;
          const double* r1 = lanes + static_cast<std::size_t>(f[1]) * 64;
          const double* r2 = lanes + static_cast<std::size_t>(f[2]) * 64;
          const double* cr0 = lanes_c + static_cast<std::size_t>(f[0]) * 64;
          const double* cr1 = lanes_c + static_cast<std::size_t>(f[1]) * 64;
          const double* cr2 = lanes_c + static_cast<std::size_t>(f[2]) * 64;
          double* row = lanes + (base + ci) * 64;
          double* crow = lanes_c + (base + ci) * 64;
          const double d = delay[ci];
          do {
            const auto l = static_cast<std::size_t>(std::countr_zero(t));
            const std::uint64_t m0 = 0 - ((t0 >> l) & 1ull);
            const std::uint64_t m1 = 0 - ((t1 >> l) & 1ull);
            const std::uint64_t m2 = 0 - ((t2 >> l) & 1ull);
            double launch =
                std::bit_cast<double>(std::bit_cast<std::uint64_t>(r0[l]) & m0);
            launch = std::max(
                launch, std::bit_cast<double>(std::bit_cast<std::uint64_t>(r1[l]) & m1));
            launch = std::max(
                launch, std::bit_cast<double>(std::bit_cast<std::uint64_t>(r2[l]) & m2));
            double carry =
                std::bit_cast<double>(std::bit_cast<std::uint64_t>(cr0[l]) & m0);
            carry = std::max(
                carry, std::bit_cast<double>(std::bit_cast<std::uint64_t>(cr1[l]) & m1));
            carry = std::max(
                carry, std::bit_cast<double>(std::bit_cast<std::uint64_t>(cr2[l]) & m2));
            if (reg) {
              crow[l] = std::max(carry, launch);
              row[l] = d;
            } else {
              row[l] = launch + d;
              crow[l] = carry;
            }
            t &= t - 1;
          } while (t);
        }
        continue;
      }
      if constexpr (kIntKernel) {
        const std::uint32_t* r0 = lanes_ticks + static_cast<std::size_t>(f[0]) * 64;
        const std::uint32_t* r1 = lanes_ticks + static_cast<std::size_t>(f[1]) * 64;
        const std::uint32_t* r2 = lanes_ticks + static_cast<std::size_t>(f[2]) * 64;
        std::uint32_t* row = lanes_ticks + (base + ci) * 64;
        const std::uint32_t d = delay_ticks[ci];
        if (std::popcount(t) >= dense_cutoff) {
          lk.fill(row, r0, r1, r2, t0, t1, t2, d);
        } else {
          do {
            const auto l = static_cast<std::size_t>(std::countr_zero(t));
            const auto m0 = static_cast<std::uint32_t>(0 - ((t0 >> l) & 1ull));
            const auto m1 = static_cast<std::uint32_t>(0 - ((t1 >> l) & 1ull));
            const auto m2 = static_cast<std::uint32_t>(0 - ((t2 >> l) & 1ull));
            std::uint32_t launch = r0[l] & m0;
            launch = std::max(launch, r1[l] & m1);
            launch = std::max(launch, r2[l] & m2);
            row[l] = launch + d;
            t &= t - 1;
          } while (t);
        }
      } else {
        const double* r0 = lanes + static_cast<std::size_t>(f[0]) * 64;
        const double* r1 = lanes + static_cast<std::size_t>(f[1]) * 64;
        const double* r2 = lanes + static_cast<std::size_t>(f[2]) * 64;
        double* row = lanes + (base + ci) * 64;
        const double d = delay[ci];
        do {
          const auto l = static_cast<std::size_t>(std::countr_zero(t));
          const std::uint64_t m0 = 0 - ((t0 >> l) & 1ull);
          const std::uint64_t m1 = 0 - ((t1 >> l) & 1ull);
          const std::uint64_t m2 = 0 - ((t2 >> l) & 1ull);
          double launch =
              std::bit_cast<double>(std::bit_cast<std::uint64_t>(r0[l]) & m0);
          launch = std::max(
              launch, std::bit_cast<double>(std::bit_cast<std::uint64_t>(r1[l]) & m1));
          launch = std::max(
              launch, std::bit_cast<double>(std::bit_cast<std::uint64_t>(r2[l]) & m2));
          row[l] = launch + d;
          t &= t - 1;
        } while (t);
      }
    }

    // Settled output words: the output-net lane words transposed into
    // per-sample words (8×8 bit blocks, see lane_kernels.hpp).
    std::uint64_t out_words[64];
    for (std::size_t k = 0; k < no; ++k) out_words[k] = words[cnl_.out_net(k)];
    lk.unpack(out_words, no, cn, out.settled.data() + c0);

    // Output snapshot as a per-chunk counting sort. The natural per-lane
    // loop tests a ~coin-flip toggle bit per (lane, output) — one branch
    // misprediction per toggled pair dominated the whole kernel. Instead:
    // count each lane's pairs by walking the per-output toggle words (pass
    // 1), prefix-sum into toggle_begin, resize the pair arrays once, then
    // scatter (pass 2). Outputs are visited in ascending k, so within a
    // lane the pairs land in exactly the order the per-lane loop produced.
    // Integer streams record ticks only (has_ticks): consumers capture
    // through the exact tick threshold instead of dequantised doubles.
    // A gated stream records none (see run_stream).
    if (gated) continue;
    std::uint32_t cnt[64] = {0};
    std::size_t pairs = 0;
    for (std::size_t k = 0; k < no; ++k) {
      std::uint64_t t = tog[cnl_.out_net(k)];
      pairs += static_cast<std::size_t>(std::popcount(t));
      while (t) {
        ++cnt[std::countr_zero(t)];
        t &= t - 1;
      }
    }
    const std::size_t tbase = out.toggle_bit.size();
    out.toggle_bit.resize(tbase + pairs);
    if constexpr (kIntKernel)
      out.toggle_settle_ticks.resize(tbase + pairs);
    else
      out.toggle_settle.resize(tbase + pairs);
    std::uint32_t pos[64];
    {
      auto off = static_cast<std::uint32_t>(tbase);
      for (std::size_t l = 0; l < cn; ++l) {
        out.toggle_begin[c0 + l] = off;
        pos[l] = off;
        off += cnt[l];
      }
    }
    for (std::size_t k = 0; k < no; ++k) {
      const auto o = static_cast<std::size_t>(cnl_.out_net(k));
      std::uint64_t t = tog[o];
      while (t) {
        const auto l = static_cast<std::size_t>(std::countr_zero(t));
        const std::uint32_t idx = pos[l]++;
        out.toggle_bit[idx] = static_cast<std::uint8_t>(k);
        // Pipelined cones record the effective settle max(L, M).
        if constexpr (kIntKernel) {
          std::uint32_t ticks = lanes_ticks[o * 64 + l];
          if constexpr (kRegs)
            ticks = std::max(ticks, lanes_c_ticks[o * 64 + l]);
          out.toggle_settle_ticks[idx] = ticks;
        } else {
          double sns = lanes[o * 64 + l];
          if constexpr (kRegs) sns = std::max(sns, lanes_c[o * 64 + l]);
          out.toggle_settle[idx] = sns;
        }
        t &= t - 1;
      }
    }
  }
  out.toggle_begin[n] = static_cast<std::uint32_t>(out.toggle_bit.size());

  // Leave `st` in the state n advance() calls would have produced: prev =
  // final settled values, per-output snapshot of the last edge — read off
  // the final chunk's toggle words and settle rows at the last lane, which
  // both a full and a gated stream propagated.
  std::memcpy(st.prev.data(), out.carry.data(), nn);
  const std::size_t ll = (n - 1) % 64;
  const std::uint64_t last = out.settled[n - 1];
  st.out_settle.resize(no);
  st.out_prev.resize(no);
  st.out_next.resize(no);
  double worst = 0.0;
  for (std::size_t k = 0; k < no; ++k) {
    const auto o = static_cast<std::size_t>(cnl_.out_net(k));
    const auto v = static_cast<std::uint8_t>((last >> k) & 1u);
    const bool toggled = (tog[o] >> ll) & 1u;
    st.out_next[k] = v;
    st.out_prev[k] = static_cast<std::uint8_t>(v ^ toggled);
    double sns = 0.0;
    if (toggled) {
      // Integer streams carry ticks only; the dequantisation is exact, so
      // the advance()/capture() interop stays bitwise (see PsGrid).
      // Pipelined cones record the effective settle max(L, M).
      if constexpr (kIntKernel) {
        std::uint32_t ticks = lanes_ticks[o * 64 + ll];
        if constexpr (kRegs) ticks = std::max(ticks, lanes_c_ticks[o * 64 + ll]);
        sns = PsGrid::to_ns(ticks);
      } else {
        sns = lanes[o * 64 + ll];
        if constexpr (kRegs) sns = std::max(sns, lanes_c[o * 64 + ll]);
      }
    }
    st.out_settle[k] = sns;
    worst = std::max(worst, sns);
  }
  st.last_output_settle_ns = worst;
  st.stepped = true;
}

void OverclockSim::capture(const State& st, double period_ns,
                           std::vector<std::uint8_t>& out) const {
  OCLP_CHECK_MSG(st.stepped, "OverclockSim::capture before any advance");
  OCLP_CHECK(period_ns > 0.0);
  out.resize(st.out_settle.size());
  for (std::size_t k = 0; k < st.out_settle.size(); ++k)
    out[k] = st.out_settle[k] <= period_ns ? st.out_next[k] : st.out_prev[k];
}

const std::vector<std::uint8_t>& OverclockSim::step(
    const std::vector<std::uint8_t>& inputs, double period_ns) {
  OCLP_CHECK_MSG(state_.initialised, "OverclockSim::step before reset");
  OCLP_CHECK(period_ns > 0.0);
  advance(state_, inputs);
  capture(state_, period_ns, captured_);
  return captured_;
}

void OverclockSim::resample_last(double period_ns,
                                 std::vector<std::uint8_t>& out) const {
  OCLP_CHECK_MSG(state_.stepped, "resample_last before any step");
  capture(state_, period_ns, out);
}

std::vector<std::uint8_t> OverclockSim::resample_last(double period_ns) const {
  std::vector<std::uint8_t> captured;
  resample_last(period_ns, captured);
  return captured;
}

void OverclockSim::last_settled_outputs(std::vector<std::uint8_t>& out) const {
  OCLP_CHECK_MSG(state_.stepped, "last_settled_outputs before any step");
  out.assign(state_.out_next.begin(), state_.out_next.end());
}

std::vector<std::uint8_t> OverclockSim::last_settled_outputs() const {
  std::vector<std::uint8_t> out;
  last_settled_outputs(out);
  return out;
}

}  // namespace oclp
