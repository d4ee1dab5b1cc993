#include "timing/overclock_sim.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

namespace oclp {

OverclockSim::OverclockSim(Netlist nl, std::vector<double> cell_delay_ns,
                           TimingMode /*mode*/)
    : nl_(std::move(nl)),
      cnl_(CompiledNetlist::compile(nl_)) {
  OCLP_CHECK_MSG(cell_delay_ns.size() == nl_.num_cells(),
                 "one delay per cell required: " << cell_delay_ns.size() << " vs "
                                                 << nl_.num_cells());
  // Lowering-time quantisation onto the integer-picosecond grid: an
  // off-grid or overflowing delay throws, naming the cell.
  delay_ticks_ = cnl_.quantise_delays(cnl_.gather_delays(cell_delay_ns),
                                      &critical_path_ticks_);
}

void OverclockSim::reset(State& st, const std::vector<std::uint8_t>& inputs) const {
  OCLP_CHECK(inputs.size() == nl_.num_inputs());
  const std::size_t nn = cnl_.num_nets();
  st.prev.resize(nn);
  for (std::size_t i = 0; i < inputs.size(); ++i) st.prev[2 + i] = inputs[i];
  cnl_.eval(st.prev);
  // next is rewritten per walk except for the sentinel slots, which must
  // hold their fixed values so the transition scan never sees them move.
  // Input and sentinel settle slots are never written: registered inputs
  // and constants settle at 0.
  st.next.assign(nn, 0);
  st.next[CompiledNetlist::kConst1Net] = 1;
  st.settle.assign(nn, 0);
  st.carried.assign(cnl_.has_registers() ? nn : 0, 0);
  st.initialised = true;
}

void OverclockSim::run_stream(State& st, const std::uint8_t* inputs,
                              std::size_t n, SweepStream& out) const {
  OCLP_CHECK_MSG(st.initialised, "OverclockSim::run_stream before reset");
  const std::size_t no = cnl_.num_outputs();
  OCLP_CHECK_MSG(no <= 64, "run_stream packs outputs into a 64-bit word; this "
                           "netlist has " << no << " outputs");
  out.settled.resize(n);
  out.toggle_begin.assign(n + 1, 0);
  out.toggle_bit.clear();
  out.toggle_settle_ticks.clear();
  if (n == 0) return;

  const bool regs = cnl_.has_registers();
  if (n == 1)
    regs ? walk_one<true>(st, inputs, out) : walk_one<false>(st, inputs, out);
  else
    regs ? run_lanes<true>(st, inputs, n, out)
         : run_lanes<false>(st, inputs, n, out);
  out.toggle_begin[n] = static_cast<std::uint32_t>(out.toggle_bit.size());
}

// The single-lane walk: one linear pass over the levelized cells — a
// truth-table lookup for the functional value, then masked max-plus over
// the fanins' settle ticks (a fanin contributes only if it toggled too;
// unused and baked slots point at sentinels, which never do). The walk is
// branch-free: an untoggled cell's settle slot receives a value no reader
// observes — consumers read a fanin's slot only under its toggle mask, the
// snapshot only for toggled outputs, and a toggled cell is rewritten (in
// level order) before any consumer reads it. Toggles are coin flips for
// random operands, so skipping the untoggled majority with a branch costs
// more in mispredictions than the arithmetic it saves.
template <bool kRegs>
void OverclockSim::walk_one(State& st, const std::uint8_t* inputs,
                            SweepStream& out) const {
  const std::size_t ni = cnl_.num_inputs();
  const std::size_t base = 2 + ni;
  const std::size_t nc = cnl_.num_cells();
  const std::uint8_t* tt = cnl_.truth_tables().data();
  const std::int32_t* fanin = cnl_.fanins().data();
  [[maybe_unused]] const std::uint8_t* is_reg = cnl_.reg_flags().data();
  const std::uint32_t* delay = delay_ticks_.data();
  std::uint8_t* next = st.next.data();
  const std::uint8_t* prev = st.prev.data();
  std::uint32_t* settle = st.settle.data();
  [[maybe_unused]] std::uint32_t* carried = st.carried.data();

  // Registered inputs switch at the edge: settle 0, value = new input.
  for (std::size_t i = 0; i < ni; ++i)
    next[2 + i] = static_cast<std::uint8_t>(inputs[i] & 1u);
  for (std::size_t ci = 0; ci < nc; ++ci) {
    const std::int32_t* f = fanin + 3 * ci;
    const unsigned a = next[f[0]], b = next[f[1]], c = next[f[2]];
    next[base + ci] =
        static_cast<std::uint8_t>((tt[ci] >> (a | b << 1 | c << 2)) & 1u);
    const std::uint32_t m0 = 0u - static_cast<std::uint32_t>(a != prev[f[0]]);
    const std::uint32_t m1 = 0u - static_cast<std::uint32_t>(b != prev[f[1]]);
    const std::uint32_t m2 = 0u - static_cast<std::uint32_t>(c != prev[f[2]]);
    const std::uint32_t launch =
        std::max({settle[f[0]] & m0, settle[f[1]] & m1, settle[f[2]] & m2});
    if constexpr (kRegs) {
      // Two-track model: L restarts at each register, M carries the max of
      // earlier stages' local settles along toggled paths.
      const std::uint32_t carry = std::max(
          {carried[f[0]] & m0, carried[f[1]] & m1, carried[f[2]] & m2});
      const bool reg = is_reg[ci] != 0;
      carried[base + ci] = reg ? std::max(carry, launch) : carry;
      settle[base + ci] = reg ? delay[ci] : launch + delay[ci];
    } else {
      settle[base + ci] = launch + delay[ci];
    }
  }

  // The sample's snapshot, outputs in ascending k (the lane kernel's pair
  // order). Pipelined cones record the effective settle max(L, M).
  std::uint64_t word = 0;
  for (std::size_t k = 0; k < cnl_.num_outputs(); ++k) {
    const auto o = static_cast<std::size_t>(cnl_.out_net(k));
    word |= static_cast<std::uint64_t>(next[o]) << k;
    if (next[o] == prev[o]) continue;
    std::uint32_t ticks = settle[o];
    if constexpr (kRegs) ticks = std::max(ticks, carried[o]);
    out.toggle_bit.push_back(static_cast<std::uint8_t>(k));
    out.toggle_settle_ticks.push_back(ticks);
  }
  out.settled[0] = word;
  st.prev.swap(st.next);  // cone fully settles before the next edge (see header)
}

template <bool kRegs>
void OverclockSim::run_lanes(State& st, const std::uint8_t* inputs,
                             std::size_t n, SweepStream& out) const {
  const std::size_t no = cnl_.num_outputs();
  const std::size_t ni = cnl_.num_inputs();
  const std::size_t nn = cnl_.num_nets();
  const std::size_t nc = cnl_.num_cells();
  const std::size_t base = 2 + ni;

  out.words.resize(nn);
  out.tog.resize(nn);
  // Per-net lane rows of settle ticks: row[net*64 + l] is net's settle at
  // edge c0+l (cell slots may go stale — see the propagation below). Input
  // and sentinel rows settle at 0 and are never written, so they are
  // re-zeroed in case this scratch last served another netlist.
  out.lanes_ticks.resize(nn * 64);
  std::fill_n(out.lanes_ticks.data(), base * 64, 0u);
  if constexpr (kRegs) {
    out.lanes_c_ticks.resize(nn * 64);
    std::fill_n(out.lanes_c_ticks.data(), base * 64, 0u);
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
  const int dense_cutoff = dense_.dense_cutoff;

  const std::int32_t* fanin = cnl_.fanins().data();
  const std::uint32_t* delay_ticks = delay_ticks_.data();
  [[maybe_unused]] const std::uint8_t* is_reg = cnl_.reg_flags().data();
  std::uint64_t* words = out.words.data();
  std::uint64_t* tog = out.tog.data();
  std::uint32_t* lanes_ticks = out.lanes_ticks.data();
  [[maybe_unused]] std::uint32_t* lanes_c_ticks = out.lanes_c_ticks.data();

  for (std::size_t c0 = 0; c0 < n; c0 += 64) {
    const std::size_t cn = std::min<std::size_t>(64, n - c0);
    const std::uint64_t lanemask =
        cn == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << cn) - 1;

    // Pack this chunk's input bits into lane words (lane l = sample c0+l).
    lk.pack(inputs + c0 * ni, ni, cn, words + 2);
    cnl_.eval64(out.words);

    // Settled output words: the output-net lane words transposed into
    // per-sample words (8×8 bit blocks, see lane_kernels.hpp).
    std::uint64_t out_words[64];
    for (std::size_t k = 0; k < no; ++k) out_words[k] = words[cnl_.out_net(k)];
    lk.unpack(out_words, no, cn, out.settled.data() + c0);

    // Toggle words: lane l is set where sample c0+l differs from its
    // predecessor (lane l-1, or the carried value for lane 0). Lanes at
    // and past cn hold don't-care values; the lane mask drops them here
    // and the output unpack above never emits them.
    for (std::size_t net = 0; net < nn; ++net) {
      const std::uint64_t w = words[net];
      tog[net] = (w ^ ((w << 1) | out.carry[net])) & lanemask;
      out.carry[net] = static_cast<std::uint8_t>((w >> (cn - 1)) & 1u);
    }

    // Sparse settle propagation, cell-major: every toggled cell fills its
    // settle lane row for exactly the edges it toggled at. Ascending ci is
    // level order, so a fanin's row element is final before any consumer
    // reads it — and a consumer only reads lane l of a fanin when that
    // fanin toggled at lane l (the mask), so stale row slots are never
    // observed. Branch-poor max-plus over uint32 tick rows — an AND mask,
    // two unsigned maxes and an add per cell/lane, no floating point. The
    // uint32 sums cannot overflow (quantisation bounded the worst-case
    // path), and a masked all-zeros launch is exactly the registered-fanin
    // case.
    for (std::size_t ci = 0; ci < nc; ++ci) {
      std::uint64_t t = tog[base + ci];
      if (!t) continue;
      const std::int32_t* f = fanin + 3 * ci;
      const std::uint64_t t0 = tog[f[0]], t1 = tog[f[1]], t2 = tog[f[2]];
      const std::uint32_t* r0 = lanes_ticks + static_cast<std::size_t>(f[0]) * 64;
      const std::uint32_t* r1 = lanes_ticks + static_cast<std::size_t>(f[1]) * 64;
      const std::uint32_t* r2 = lanes_ticks + static_cast<std::size_t>(f[2]) * 64;
      std::uint32_t* row = lanes_ticks + (base + ci) * 64;
      const std::uint32_t d = delay_ticks[ci];
      // Pipelined cones propagate two tracks (local L rows plus carried M
      // rows). The register branch is per-cell, so the dense fill hoists it
      // out of the lane loop entirely — dense pipelined edges vectorise
      // exactly like single-track ones, just over two row pairs.
      [[maybe_unused]] const bool reg = kRegs && is_reg[ci] != 0;
      [[maybe_unused]] const std::uint32_t *cr0 = nullptr, *cr1 = nullptr,
                                           *cr2 = nullptr;
      [[maybe_unused]] std::uint32_t* crow = nullptr;
      if constexpr (kRegs) {
        cr0 = lanes_c_ticks + static_cast<std::size_t>(f[0]) * 64;
        cr1 = lanes_c_ticks + static_cast<std::size_t>(f[1]) * 64;
        cr2 = lanes_c_ticks + static_cast<std::size_t>(f[2]) * 64;
        crow = lanes_c_ticks + (base + ci) * 64;
      }
      if (std::popcount(t) >= dense_cutoff) {
        if constexpr (kRegs)
          lk.fill2(row, crow, r0, r1, r2, cr0, cr1, cr2, t0, t1, t2, d, reg);
        else
          lk.fill(row, r0, r1, r2, t0, t1, t2, d);
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
        if constexpr (kRegs) {
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
        } else {
          row[l] = launch + d;
        }
        t &= t - 1;
      } while (t);
    }

    // Output snapshot as a per-chunk counting sort. The natural per-lane
    // loop tests a ~coin-flip toggle bit per (lane, output) — one branch
    // misprediction per toggled pair dominated the whole kernel. Instead:
    // count each lane's pairs by walking the per-output toggle words (pass
    // 1), prefix-sum into toggle_begin, resize the pair arrays once, then
    // scatter (pass 2). Outputs are visited in ascending k, so within a
    // lane the pairs land in exactly the order the per-lane loop produced.
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
    out.toggle_settle_ticks.resize(tbase + pairs);
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
        std::uint32_t ticks = lanes_ticks[o * 64 + l];
        if constexpr (kRegs) ticks = std::max(ticks, lanes_c_ticks[o * 64 + l]);
        out.toggle_settle_ticks[idx] = ticks;
        t &= t - 1;
      }
    }
  }
  // The cone settles fully before the next edge: prev = final values.
  std::memcpy(st.prev.data(), out.carry.data(), nn);
}

namespace {

// The low `n` bits of `w`, one byte each.
void unpack_bits(std::uint64_t w, std::size_t n, std::vector<std::uint8_t>& out) {
  out.resize(n);
  for (std::size_t k = 0; k < n; ++k)
    out[k] = static_cast<std::uint8_t>((w >> k) & 1u);
}

}  // namespace

void OverclockSim::reset(const std::vector<std::uint8_t>& inputs) {
  reset(state_, inputs);
  stepped_ = false;
}

void OverclockSim::run_stream(const std::uint8_t* inputs, std::size_t n,
                              SweepStream& out) {
  stepped_ = false;
  run_stream(state_, inputs, n, out);
}

const std::vector<std::uint8_t>& OverclockSim::step(
    const std::vector<std::uint8_t>& inputs, double period_ns) {
  OCLP_CHECK_MSG(state_.initialised, "OverclockSim::step before reset");
  OCLP_CHECK(period_ns > 0.0);
  OCLP_CHECK(inputs.size() == nl_.num_inputs());
  run_stream(state_, inputs.data(), 1, last_step_);
  stepped_ = true;
  resample_last(period_ns, captured_);
  return captured_;
}

double OverclockSim::last_output_settle_ns() const {
  OCLP_CHECK_MSG(stepped_, "last_output_settle_ns before any step");
  std::uint32_t worst = 0;
  for (const std::uint32_t t : last_step_.toggle_settle_ticks)
    worst = std::max(worst, t);
  return PsGrid::to_ns(worst);
}

void OverclockSim::resample_last(double period_ns,
                                 std::vector<std::uint8_t>& out) const {
  OCLP_CHECK_MSG(stepped_, "resample_last before any step");
  OCLP_CHECK(period_ns > 0.0);
  unpack_bits(last_step_.capture_word(0, period_ns), cnl_.num_outputs(), out);
}

std::vector<std::uint8_t> OverclockSim::resample_last(double period_ns) const {
  std::vector<std::uint8_t> captured;
  resample_last(period_ns, captured);
  return captured;
}

void OverclockSim::last_settled_outputs(std::vector<std::uint8_t>& out) const {
  OCLP_CHECK_MSG(stepped_, "last_settled_outputs before any step");
  unpack_bits(last_step_.settled[0], cnl_.num_outputs(), out);
}

std::vector<std::uint8_t> OverclockSim::last_settled_outputs() const {
  std::vector<std::uint8_t> out;
  last_settled_outputs(out);
  return out;
}

}  // namespace oclp
