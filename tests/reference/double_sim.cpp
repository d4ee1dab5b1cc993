#include "reference/double_sim.hpp"

#include <algorithm>

namespace oclp::ref {

DoubleSim::DoubleSim(Netlist nl, std::vector<double> cell_delay_ns)
    : nl_(std::move(nl)), cnl_(CompiledNetlist::compile(nl_)) {
  OCLP_CHECK_MSG(cell_delay_ns.size() == nl_.num_cells(),
                 "one delay per cell required: " << cell_delay_ns.size() << " vs "
                                                 << nl_.num_cells());
  delay_ = cnl_.gather_delays(cell_delay_ns);
}

void DoubleSim::reset(State& st, const std::vector<std::uint8_t>& inputs) const {
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

void DoubleSim::advance(State& st, const std::vector<std::uint8_t>& inputs) const {
  OCLP_CHECK_MSG(st.initialised, "DoubleSim::advance before reset");
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

  st.prev.swap(st.next);  // cone fully settles before the next edge
}

// Two-track walk for pipelined cones: L (stage-local settle, restarting at
// each register) and M (carried max of earlier stages' local settles along
// toggled paths); the recorded output settle is max(L, M). Same masking
// and skip-unchanged structure as the single-track loop in advance().
void DoubleSim::advance_regs(State& st) const {
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

void DoubleSim::capture(const State& st, double period_ns,
                        std::vector<std::uint8_t>& out) const {
  OCLP_CHECK_MSG(st.stepped, "DoubleSim::capture before any advance");
  OCLP_CHECK(period_ns > 0.0);
  out.resize(st.out_settle.size());
  for (std::size_t k = 0; k < st.out_settle.size(); ++k)
    out[k] = st.out_settle[k] <= period_ns ? st.out_next[k] : st.out_prev[k];
}

void DoubleSim::run_stream(State& st, const std::uint8_t* inputs, std::size_t n,
                           Stream& out) const {
  const std::size_t ni = cnl_.num_inputs();
  const std::size_t no = cnl_.num_outputs();
  OCLP_CHECK(no <= 64);
  out.settled.assign(n, 0);
  out.toggle_begin.assign(n + 1, 0);
  out.toggle_bit.clear();
  out.toggle_settle.clear();
  std::vector<std::uint8_t> row(ni);
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t i = 0; i < ni; ++i)
      row[i] = static_cast<std::uint8_t>(inputs[s * ni + i] & 1u);
    advance(st, row);
    for (std::size_t k = 0; k < no; ++k) {
      out.settled[s] |= static_cast<std::uint64_t>(st.out_next[k]) << k;
      if (st.out_prev[k] != st.out_next[k]) {
        out.toggle_bit.push_back(static_cast<std::uint8_t>(k));
        out.toggle_settle.push_back(st.out_settle[k]);
      }
    }
    out.toggle_begin[s + 1] = static_cast<std::uint32_t>(out.toggle_bit.size());
  }
}

const std::vector<std::uint8_t>& DoubleSim::step(
    const std::vector<std::uint8_t>& inputs, double period_ns) {
  OCLP_CHECK_MSG(state_.initialised, "DoubleSim::step before reset");
  OCLP_CHECK(period_ns > 0.0);
  advance(state_, inputs);
  capture(state_, period_ns, captured_);
  return captured_;
}

std::vector<std::uint8_t> DoubleSim::resample_last(double period_ns) const {
  std::vector<std::uint8_t> out;
  capture(state_, period_ns, out);
  return out;
}

std::vector<std::uint8_t> DoubleSim::last_settled_outputs() const {
  OCLP_CHECK_MSG(state_.stepped, "last_settled_outputs before any step");
  return state_.out_next;
}

}  // namespace oclp::ref
