#include "netlist/compiled.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

namespace oclp {

double PsGrid::snap_ns(double ns) {
  return std::round(ns * kTicksPerNs) / kTicksPerNs;
}

bool PsGrid::try_ticks(double ns, std::uint32_t& ticks) {
  if (!(ns >= 0.0)) return false;  // negative or NaN
  const double scaled = std::ldexp(ns, kFracBits);  // exact (power of two)
  if (!(scaled <= static_cast<double>(std::numeric_limits<std::uint32_t>::max())))
    return false;
  if (scaled != std::floor(scaled)) return false;  // off-grid
  ticks = static_cast<std::uint32_t>(scaled);
  return true;
}

std::uint64_t PsGrid::period_ticks(double period_ns) {
  const double scaled = std::floor(std::ldexp(period_ns, kFracBits));
  if (!(scaled > 0.0)) return 0;
  if (scaled >= 18446744073709551616.0)  // 2^64 (exactly representable)
    return std::numeric_limits<std::uint64_t>::max();
  return static_cast<std::uint64_t>(scaled);
}

namespace {

// eval64's form of every 3-input truth table: its algebraic normal form,
// one all-ones/all-zeros mask per monomial (a Möbius transform over the
// three index bits; monomial bit s selects the fanins set in s). One
// shared table — a netlist only touches the rows of the few cell
// functions it uses.
struct AnfTable {
  std::uint64_t mask[256][8];
  constexpr AnfTable() : mask{} {
    for (unsigned tt = 0; tt < 256; ++tt) {
      unsigned f = tt;
      f ^= (f & 0x55u) << 1;
      f ^= (f & 0x33u) << 2;
      f ^= (f & 0x0Fu) << 4;
      for (unsigned m = 0; m < 8; ++m)
        mask[tt][m] = std::uint64_t{0} - ((f >> m) & 1u);
    }
  }
};
constexpr AnfTable kAnf{};

// Slot references during lowering, before compiled ids exist: original net
// ids, or a sentinel marker for baked/unused (kSlot0) and constant-one
// (kSlot1) fanins.
constexpr std::int32_t kSlot0 = -1;
constexpr std::int32_t kSlot1 = -2;

// Base truth table of a cell: bit (a | b<<1 | c<<2) is cell_eval on those
// fanin values, with bits beyond the arity forced to 0 (exactly what the
// interpreter feeds unused inputs). The table is therefore replicated over
// unused bits, which makes the all-0 / all-1 constant test exact.
std::uint8_t base_truth_table(CellType t) {
  const int arity = cell_arity(t);
  std::uint8_t tt = 0;
  for (int idx = 0; idx < 8; ++idx) {
    const bool a = arity > 0 && (idx & 1);
    const bool b = arity > 1 && (idx & 2);
    const bool c = arity > 2 && (idx & 4);
    if (cell_eval(t, a, b, c)) tt |= static_cast<std::uint8_t>(1u << idx);
  }
  return tt;
}

// Bake fanin slot k to the constant v: every index reads the table entry
// with bit k forced to v, so the result no longer depends on that bit.
std::uint8_t bake_slot(std::uint8_t tt, int k, int v) {
  std::uint8_t out = 0;
  for (int idx = 0; idx < 8; ++idx) {
    const int src = (idx & ~(1 << k)) | (v << k);
    if ((tt >> src) & 1) out |= static_cast<std::uint8_t>(1u << idx);
  }
  return out;
}

}  // namespace

CompiledNetlist CompiledNetlist::compile(const Netlist& nl,
                                         const CompileOptions& opts) {
  const std::size_t ni = nl.num_inputs();
  const auto& cells = nl.cells();
  const auto n_orig = static_cast<std::int32_t>(nl.num_nets());

  CompiledNetlist c;
  c.num_inputs_ = ni;
  c.stats_.source_cells = cells.size();

  // konst: -1 unknown, 0/1 constant. rep: original net carrying the value
  // (an input or a kept cell's output) when not constant.
  std::vector<std::int8_t> konst(static_cast<std::size_t>(n_orig), -1);
  std::vector<std::int32_t> rep(static_cast<std::size_t>(n_orig));
  for (std::int32_t n = 0; n < static_cast<std::int32_t>(ni); ++n) rep[n] = n;

  // Kept (non-elided, non-folded) cells, still in original order.
  struct Kept {
    std::uint8_t tt;
    std::int32_t slot[3];  // kSlot0 / kSlot1 / original rep net
    std::size_t orig;
  };
  std::vector<Kept> kept;
  kept.reserve(cells.size());
  // cell_of[orig net] = index into `kept`, or -1.
  std::vector<std::int32_t> cell_of(static_cast<std::size_t>(n_orig), -1);

  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& cell = cells[i];
    const auto out = static_cast<std::int32_t>(ni + i);
    if (cell.type == CellType::Const0 || cell.type == CellType::Const1) {
      konst[out] = cell.type == CellType::Const1 ? 1 : 0;
      ++c.stats_.elided_free;
      continue;
    }
    if (cell.type == CellType::Buf) {
      konst[out] = konst[cell.in[0]];
      rep[out] = konst[out] < 0 ? rep[cell.in[0]] : 0;
      ++c.stats_.elided_free;
      continue;
    }
    const int arity = cell_arity(cell.type);
    std::uint8_t tt = base_truth_table(cell.type);
    Kept k;
    k.orig = i;
    for (int s = 0; s < 3; ++s) {
      if (s >= arity) {
        k.slot[s] = kSlot0;
        continue;
      }
      const std::int32_t in = cell.in[s];
      if (konst[in] >= 0) {
        if (opts.fold_constants) {
          tt = bake_slot(tt, s, konst[in]);
          k.slot[s] = kSlot0;
        } else {
          k.slot[s] = konst[in] ? kSlot1 : kSlot0;
        }
      } else {
        k.slot[s] = rep[in];
      }
    }
    if (opts.fold_constants && (tt == 0x00 || tt == 0xFF)) {
      konst[out] = tt == 0xFF ? 1 : 0;
      ++c.stats_.folded_constant;
      continue;
    }
    k.tt = tt;
    rep[out] = out;
    cell_of[out] = static_cast<std::int32_t>(kept.size());
    kept.push_back(k);
  }

  // Liveness from the outputs (identity when sweeping is disabled).
  std::vector<std::uint8_t> live(kept.size(), opts.sweep_dead ? 0 : 1);
  if (opts.sweep_dead) {
    std::vector<std::int32_t> stack;
    auto visit = [&](std::int32_t orig_net) {
      if (orig_net < static_cast<std::int32_t>(ni)) return;
      const std::int32_t ki = cell_of[orig_net];
      if (ki >= 0 && !live[ki]) {
        live[ki] = 1;
        stack.push_back(ki);
      }
    };
    for (const auto o : nl.outputs())
      if (konst[o] < 0) visit(rep[o]);
    while (!stack.empty()) {
      const std::int32_t ki = stack.back();
      stack.pop_back();
      for (const auto s : kept[ki].slot)
        if (s >= 0) visit(s);
    }
    for (const auto l : live)
      if (!l) ++c.stats_.swept_dead;
  }

  // Levelize the live cells: fanins of a level-l cell live strictly below
  // l. Levels are 1-based over cells; inputs and sentinels sit at 0.
  std::vector<std::int32_t> lvl(kept.size(), 0);
  std::size_t max_lvl = 0;
  for (std::size_t ki = 0; ki < kept.size(); ++ki) {
    if (!live[ki]) continue;
    std::int32_t m = 0;
    for (const auto s : kept[ki].slot) {
      if (s < static_cast<std::int32_t>(ni)) continue;  // sentinel or input
      m = std::max(m, lvl[cell_of[s]]);
    }
    lvl[ki] = m + 1;
    max_lvl = std::max(max_lvl, static_cast<std::size_t>(lvl[ki]));
  }

  // Bucket by level (stable in original order within a level) and assign
  // compiled ids so each level is a contiguous range.
  c.level_begin_.assign(max_lvl + 1, 0);
  for (std::size_t ki = 0; ki < kept.size(); ++ki)
    if (live[ki]) ++c.level_begin_[static_cast<std::size_t>(lvl[ki])];
  std::size_t acc = 0;
  for (std::size_t l = 1; l <= max_lvl; ++l) {
    const std::size_t count = c.level_begin_[l];
    c.level_begin_[l - 1] = acc;
    acc += count;
  }
  c.level_begin_[max_lvl] = acc;

  std::vector<std::size_t> cursor(c.level_begin_.begin(), c.level_begin_.end());
  std::vector<std::int32_t> compiled_id(kept.size(), -1);
  for (std::size_t ki = 0; ki < kept.size(); ++ki)
    if (live[ki])
      compiled_id[ki] = static_cast<std::int32_t>(
          cursor[static_cast<std::size_t>(lvl[ki]) - 1]++);

  // Emit the SoA arrays in compiled-id order.
  const std::size_t nc = acc;
  c.tt_.resize(nc);
  c.fanin_.resize(3 * nc);
  c.orig_cell_.resize(nc);
  auto map_slot = [&](std::int32_t s) -> std::int32_t {
    if (s == kSlot0) return kConst0Net;
    if (s == kSlot1) return kConst1Net;
    if (s < static_cast<std::int32_t>(ni)) return static_cast<std::int32_t>(2 + s);
    return c.cell_net(static_cast<std::size_t>(compiled_id[cell_of[s]]));
  };
  c.is_reg_.resize(nc);
  for (std::size_t ki = 0; ki < kept.size(); ++ki) {
    if (!live[ki]) continue;
    const auto ci = static_cast<std::size_t>(compiled_id[ki]);
    c.tt_[ci] = kept[ki].tt;
    c.orig_cell_[ci] = kept[ki].orig;
    c.is_reg_[ci] = cells[kept[ki].orig].type == CellType::PipeReg ? 1 : 0;
    if (c.is_reg_[ci]) c.has_regs_ = true;
    for (int s = 0; s < 3; ++s) c.fanin_[3 * ci + static_cast<std::size_t>(s)] = map_slot(kept[ki].slot[s]);
  }
  c.stats_.compiled_cells = nc;
  c.stats_.levels = max_lvl;

  // Original-net alias map and output descriptors.
  c.alias_.assign(static_cast<std::size_t>(n_orig), -1);
  for (std::int32_t n = 0; n < n_orig; ++n) {
    if (konst[n] >= 0) {
      c.alias_[n] = konst[n] ? kConst1Net : kConst0Net;
    } else if (rep[n] < static_cast<std::int32_t>(ni)) {
      c.alias_[n] = static_cast<std::int32_t>(2 + rep[n]);
    } else {
      const std::int32_t ki = cell_of[rep[n]];
      if (ki >= 0 && compiled_id[ki] >= 0)
        c.alias_[n] = c.cell_net(static_cast<std::size_t>(compiled_id[ki]));
    }
  }
  c.out_net_.resize(nl.outputs().size());
  for (std::size_t o = 0; o < nl.outputs().size(); ++o) {
    c.out_net_[o] = c.alias_[nl.outputs()[o]];
    OCLP_CHECK_MSG(c.out_net_[o] >= 0, "output " << o << " lowered to a swept net");
  }
  return c;
}

std::vector<double> CompiledNetlist::gather_delays(
    const std::vector<double>& orig_cell_delay_ns) const {
  OCLP_CHECK_MSG(orig_cell_delay_ns.size() >= stats_.source_cells,
                 "need one delay per original cell: " << orig_cell_delay_ns.size()
                                                      << " vs " << stats_.source_cells);
  std::vector<double> d(num_cells());
  for (std::size_t ci = 0; ci < num_cells(); ++ci)
    d[ci] = orig_cell_delay_ns[orig_cell_[ci]];
  return d;
}

std::vector<std::uint32_t> CompiledNetlist::quantise_delays(
    const std::vector<double>& cell_delay_ns,
    std::uint64_t* critical_path_ticks) const {
  OCLP_CHECK_MSG(cell_delay_ns.size() == num_cells(),
                 "one delay per compiled cell required: " << cell_delay_ns.size()
                                                          << " vs " << num_cells());
  std::vector<std::uint32_t> ticks(num_cells());
  for (std::size_t ci = 0; ci < num_cells(); ++ci)
    OCLP_CHECK_MSG(PsGrid::try_ticks(cell_delay_ns[ci], ticks[ci]),
                   "delay of cell " << orig_cell_[ci] << " (" << cell_delay_ns[ci]
                                    << " ns) is not an exact multiple of the 2^-"
                                    << PsGrid::kFracBits
                                    << " ns grid fitting uint32 ticks");
  // Worst-case levelized path sum of tick counts: the largest settle time
  // the integer kernel can ever produce (every fanin toggles, every cell on
  // the longest chain toggles). Computed in uint64 so the uint32 bound can
  // be *checked* rather than assumed.
  std::vector<std::uint64_t> arrive(num_nets(), 0);
  std::uint64_t worst = 0;
  const std::size_t base = 2 + num_inputs_;
  for (std::size_t ci = 0; ci < num_cells(); ++ci) {
    const std::int32_t* f = &fanin_[3 * ci];
    const std::uint64_t launch =
        std::max({arrive[f[0]], arrive[f[1]], arrive[f[2]]});
    arrive[base + ci] = launch + ticks[ci];
    worst = std::max(worst, arrive[base + ci]);
  }
  OCLP_CHECK_MSG(worst <= std::numeric_limits<std::uint32_t>::max(),
                 "worst-case settle path (" << worst
                                            << " ticks) overflows the uint32 "
                                               "integer-picosecond kernel");
  if (critical_path_ticks != nullptr) *critical_path_ticks = worst;
  return ticks;
}

void CompiledNetlist::eval(std::vector<std::uint8_t>& vals) const {
  OCLP_CHECK(vals.size() == num_nets());
  vals[kConst0Net] = 0;
  vals[kConst1Net] = 1;
  const std::size_t base = 2 + num_inputs_;
  for (std::size_t ci = 0; ci < tt_.size(); ++ci) {
    const std::int32_t* f = &fanin_[3 * ci];
    const unsigned idx = static_cast<unsigned>(vals[f[0]]) |
                         static_cast<unsigned>(vals[f[1]]) << 1 |
                         static_cast<unsigned>(vals[f[2]]) << 2;
    vals[base + ci] = static_cast<std::uint8_t>((tt_[ci] >> idx) & 1u);
  }
}

void CompiledNetlist::eval_outputs(const std::vector<std::uint8_t>& inputs,
                                   std::vector<std::uint8_t>& vals,
                                   std::vector<std::uint8_t>& out) const {
  OCLP_CHECK(inputs.size() == num_inputs_);
  vals.resize(num_nets());
  for (std::size_t i = 0; i < num_inputs_; ++i) vals[2 + i] = inputs[i];
  eval(vals);
  out.resize(out_net_.size());
  for (std::size_t o = 0; o < out_net_.size(); ++o) out[o] = vals[out_net_[o]];
}

void CompiledNetlist::eval64(std::vector<std::uint64_t>& words) const {
  OCLP_CHECK(words.size() == num_nets());
  words[kConst0Net] = 0;
  words[kConst1Net] = ~std::uint64_t{0};
  const std::size_t base = 2 + num_inputs_;
  for (std::size_t ci = 0; ci < tt_.size(); ++ci) {
    const std::int32_t* f = &fanin_[3 * ci];
    const std::uint64_t a = words[f[0]], b = words[f[1]], cc = words[f[2]];
    // XOR of the truth table's ANF monomials, each gated branch-free by
    // its precomputed mask: an exact GF(2) identity, so every lane equals
    // the minterm (truth-table) evaluation bit for bit.
    const std::uint64_t* m = kAnf.mask[tt_[ci]];
    const std::uint64_t ab = a & b;
    words[base + ci] = m[0] ^ (m[1] & a) ^ (m[2] & b) ^ (m[3] & ab) ^
                       (m[4] & cc) ^ (m[5] & a & cc) ^ (m[6] & b & cc) ^
                       (m[7] & ab & cc);
  }
}

}  // namespace oclp
