// Random circuits for the timing property tests: arbitrary DAGs over the
// whole cell library (optionally with pipeline registers), grid-snapped
// delays (OverclockSim lowers only grid-exact ones), and random row-major
// input streams.
#pragma once

#include <cstdint>
#include <iterator>
#include <vector>

#include "common/rng.hpp"
#include "netlist/compiled.hpp"
#include "netlist/netlist.hpp"

namespace oclp {

// A random DAG over 1-3 input cells; with_regs sprinkles PipeRegs in so the
// two-track (kRegs) kernels get exercised too.
inline Netlist random_netlist(std::size_t n_in, std::size_t n_cells,
                              std::size_t n_out, bool with_regs, Rng& rng) {
  static const CellType kTypes[] = {
      CellType::Not,   CellType::And2, CellType::Or2,   CellType::Xor2,
      CellType::Nand2, CellType::Nor2, CellType::Xnor2, CellType::AndNot2,
      CellType::Maj3,  CellType::Xor3, CellType::Mux2};
  NetlistBuilder nb;
  nb.add_inputs(n_in);
  for (std::size_t i = 0; i < n_cells; ++i) {
    const auto pick = [&] {
      return static_cast<std::int32_t>(rng.uniform_u64(nb.num_nets()));
    };
    if (with_regs && rng.uniform_u64(8) == 0) {
      nb.reg_(pick());
      continue;
    }
    const CellType type = kTypes[rng.uniform_u64(std::size(kTypes))];
    const std::int32_t a = pick();
    const std::int32_t b = cell_arity(type) > 1 ? pick() : -1;
    const std::int32_t c = cell_arity(type) > 2 ? pick() : -1;
    nb.add_cell(type, a, b, c);
  }
  for (std::size_t o = 0; o < n_out; ++o)
    nb.mark_output(static_cast<std::int32_t>(rng.uniform_u64(n_in + n_cells)));
  return nb.build();
}

// Grid-snapped random delays.
inline std::vector<double> grid_delays(const Netlist& nl, Rng& rng) {
  std::vector<double> delays(nl.num_cells(), 0.0);
  for (std::size_t i = 0; i < nl.num_cells(); ++i)
    if (!cell_is_free(nl.cells()[i].type))
      delays[i] = PsGrid::snap_ns(rng.uniform(0.05, 0.9));
  return delays;
}

inline std::vector<std::uint8_t> random_stream(std::size_t n,
                                               std::size_t n_in, Rng& rng) {
  std::vector<std::uint8_t> inputs(n * n_in);
  for (auto& b : inputs) b = static_cast<std::uint8_t>(rng.uniform_u64(2));
  return inputs;
}

}  // namespace oclp
