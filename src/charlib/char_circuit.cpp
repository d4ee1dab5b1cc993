#include "charlib/char_circuit.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <map>
#include <utility>

#include "fabric/timing_annotation.hpp"
#include "mult/bitcodec.hpp"
#include "netlist/sta.hpp"

namespace oclp {

namespace {

std::atomic<std::size_t> circuit_constructions{0};

// Build the DUT simulator(s) without duplicating netlists: one build, one
// annotation pass per netlist. Generic architectures need exactly one sim;
// CCM lowers one circuit per multiplicand value (all at the same placement
// — reprogramming the constant re-routes the same site).
std::vector<OverclockSim> make_dut_sims(const CharCircuitConfig& cfg,
                                        const Device& device,
                                        const Placement& placement) {
  std::vector<OverclockSim> sims;
  auto lower = [&](Netlist dut) {
    // Calibrated delays are PsGrid-snapped, so lowering cannot fail short
    // of a calibration bug.
    std::vector<double> delays = annotate_timing(dut, device, placement);
    sims.emplace_back(std::move(dut), std::move(delays));
  };
  if (cfg.mult.arch == MultArch::Ccm) {
    const std::uint32_t count = 1u << cfg.mult.wordlength;
    sims.reserve(count);
    for (std::uint32_t m = 0; m < count; ++m)
      lower(make_ccm_multiplier(cfg.mult, m, cfg.wl_x));
  } else {
    lower(make_multiplier(cfg.mult, cfg.wl_x));
  }
  return sims;
}

// Balanced AND over a bit range with memoised subranges — the carry cone of
// a fast (carry-select-like) BRAM address counter has logarithmic depth.
std::int32_t range_and(NetlistBuilder& nb, const std::vector<std::int32_t>& bits,
                       std::size_t lo, std::size_t hi,
                       std::map<std::pair<std::size_t, std::size_t>, std::int32_t>& memo) {
  OCLP_CHECK(lo < hi);
  if (hi - lo == 1) return bits[lo];
  const auto key = std::make_pair(lo, hi);
  if (auto it = memo.find(key); it != memo.end()) return it->second;
  const std::size_t mid = lo + (hi - lo) / 2;
  const auto net = nb.and_(range_and(nb, bits, lo, mid, memo),
                           range_and(nb, bits, mid, hi, memo));
  memo.emplace(key, net);
  return net;
}

}  // namespace

std::size_t CharacterisationCircuit::construction_count() {
  return circuit_constructions.load(std::memory_order_relaxed);
}

Netlist make_support_logic(std::size_t bram_depth) {
  OCLP_CHECK(bram_depth >= 2);
  int addr_bits = 1;
  while ((std::size_t{1} << addr_bits) < bram_depth) ++addr_bits;

  NetlistBuilder nb;
  const auto addr = nb.add_inputs(static_cast<std::size_t>(addr_bits));
  const auto state = nb.add_inputs(2);  // FSM state register (LOAD/RUN/DRAIN)
  const auto run_en = nb.add_input();

  // Incrementer: next[i] = addr[i] XOR AND(addr[0..i-1]); log-depth carries.
  std::map<std::pair<std::size_t, std::size_t>, std::int32_t> memo;
  std::vector<std::int32_t> next(addr_bits);
  next[0] = nb.not_(addr[0]);
  for (int i = 1; i < addr_bits; ++i) {
    const auto carry = range_and(nb, addr, 0, static_cast<std::size_t>(i), memo);
    next[i] = nb.xor_(addr[i], carry);
  }
  // FSM next-state cone: advance on terminal count while running.
  const auto all_ones = range_and(nb, addr, 0, static_cast<std::size_t>(addr_bits), memo);
  const auto advance = nb.and_(all_ones, run_en);
  const auto next_s0 = nb.xor_(state[0], advance);
  const auto next_s1 = nb.xor_(state[1], nb.and_(state[0], advance));
  for (int i = 0; i < addr_bits; ++i) nb.mark_output(next[i]);
  nb.mark_output(next_s0);
  nb.mark_output(next_s1);
  return nb.build();
}

std::vector<double> bit_error_profile(const CharTrace& trace, int product_bits) {
  OCLP_CHECK(product_bits >= 1 && product_bits <= 63);
  OCLP_CHECK(trace.observed.size() == trace.expected.size());
  std::vector<double> profile(product_bits, 0.0);
  if (trace.observed.empty()) return profile;
  for (std::size_t i = 0; i < trace.observed.size(); ++i) {
    const std::uint64_t flips = trace.observed[i] ^ trace.expected[i];
    for (int b = 0; b < product_bits; ++b)
      if ((flips >> b) & 1) profile[b] += 1.0;
  }
  for (double& p : profile) p /= static_cast<double>(trace.observed.size());
  return profile;
}

CharacterisationCircuit::CharacterisationCircuit(const CharCircuitConfig& cfg,
                                                 const Device& device,
                                                 const Placement& placement)
    : cfg_(cfg),
      device_(&device),
      placement_(placement),
      ccm_(cfg.mult.arch == MultArch::Ccm),
      sims_(make_dut_sims(cfg, device, placement)) {
  OCLP_CHECK(cfg.mult.wordlength >= 1 && cfg.wl_x >= 1 && cfg.bram_depth >= 2);
  circuit_constructions.fetch_add(1, std::memory_order_relaxed);

  // Worst case over the lowered circuits (one for the generic
  // architectures, per-constant for CCM): the rig must be safe for every
  // multiplicand it streams. A DUT with no timing path — the CCM cell of a
  // constant whose product is plain wiring, m = 0 in particular — can
  // never be late, so it bounds neither Fmax.
  dut_tool_fmax_mhz_ = std::numeric_limits<double>::infinity();
  dut_device_fmax_mhz_ = std::numeric_limits<double>::infinity();
  for (const OverclockSim& sim : sims_) {
    const Netlist& nl = sim.netlist();
    const double tool_ns =
        static_timing(nl, tool_timing(nl, device.config())).critical_path_ns;
    const double device_ns = device_critical_path_ns(nl, device, placement);
    if (tool_ns > 0.0)
      dut_tool_fmax_mhz_ = std::min(dut_tool_fmax_mhz_, fmax_mhz(tool_ns));
    if (device_ns > 0.0)
      dut_device_fmax_mhz_ = std::min(dut_device_fmax_mhz_, fmax_mhz(device_ns));
  }

  // The supporting modules live next to the DUT; their placement is part of
  // the same P&R run.
  const Netlist support = make_support_logic(cfg.bram_depth);
  Placement support_place = placement;
  support_place.x += 2;
  support_place.route_seed = hash_mix(placement.route_seed, 0xf5afULL);
  support_fmax_mhz_ =
      fmax_mhz(device_critical_path_ns(support, device, support_place));
}

void CharacterisationCircuit::check_run(
    std::uint32_t m, const std::vector<std::uint32_t>& xs,
    const std::vector<double>& freqs_mhz) const {
  const int wl_m = cfg_.mult.wordlength;
  OCLP_CHECK_MSG(m < (1u << wl_m), "multiplicand " << m << " exceeds "
                                            << wl_m << " bits");
  for ([[maybe_unused]] const std::uint32_t x : xs)
    OCLP_DCHECK(x < (1u << cfg_.wl_x));
  OCLP_CHECK_MSG(!freqs_mhz.empty(), "run_multi needs at least one frequency");
  // The framework must only measure DUT errors: the DUT clock has to stay
  // below the supporting-logic limit, and the FSM domain below both.
  for (double f : freqs_mhz) {
    OCLP_CHECK(f > 0.0);
    OCLP_CHECK_MSG(f < support_fmax_mhz_,
                   "mult_clk " << f << " MHz exceeds supporting-logic Fmax "
                               << support_fmax_mhz_ << " MHz");
  }
  OCLP_CHECK_MSG(cfg_.fsm_clock_mhz < support_fmax_mhz_,
                 "fsm_clk exceeds supporting-logic Fmax");
}

std::size_t CharacterisationCircuit::fsm_cycles(std::size_t n) const {
  // LOAD fills the input BRAM, RUN streams it through the DUT, DRAIN
  // empties the output BRAM — per bram_depth batch, all in fsm_clk.
  std::size_t cycles = 0;
  for (std::size_t done = 0; done < n; done += cfg_.bram_depth)
    cycles += 2 * std::min(cfg_.bram_depth, n - done) + 4;
  return cycles;
}

void CharacterisationCircuit::stream_dut(std::uint32_t m,
                                         const std::vector<std::uint32_t>& xs,
                                         Workspace& ws) const {
  // The per-constant CCM cell has no multiplicand bus — m is baked in.
  const OverclockSim& sim = sim_for(m);
  const std::size_t wlm =
      ccm_ ? 0 : static_cast<std::size_t>(cfg_.mult.wordlength);
  std::vector<std::uint8_t> in;
  if (!ccm_) append_bits(in, m, static_cast<int>(wlm));
  append_bits(in, 0, cfg_.wl_x);
  sim.reset(ws.sim, in);

  // Flatten the stream into an input-bit matrix and settle the whole cone
  // in one batched pass: ws.stream then holds, per edge, the settled
  // output word plus the (bit, settle) list of outputs that toggled.
  const std::size_t n = xs.size();
  const std::size_t nin = in.size();
  ws.input_bits.resize(n * nin + 8);  // store_bit_bytes' slack
  for (std::size_t i = 0; i < n; ++i) {
    std::uint8_t* row = ws.input_bits.data() + i * nin;
    store_bit_bytes(row, m, static_cast<int>(wlm));
    store_bit_bytes(row + wlm, xs[i], cfg_.wl_x);
  }
  sim.run_stream(ws.sim, ws.input_bits.data(), n, ws.stream);
}

CharTrace CharacterisationCircuit::run(std::uint32_t m,
                                       const std::vector<std::uint32_t>& xs,
                                       double freq_mhz,
                                       std::uint64_t jitter_seed) const {
  check_run(m, xs, {freq_mhz});
  ClockGen clock(freq_mhz, cfg_.with_jitter ? device_->config().jitter_sigma_ns : 0.0,
                 hash_mix(jitter_seed, m, static_cast<std::uint64_t>(freq_mhz * 1e3)));

  // One jittered period per edge, drawn up front in sample order — the
  // sequence a clock-by-clock run consumes — and converted once to the
  // exact tick threshold, so the shortest period (the slack gate) is known
  // before anything runs.
  const std::size_t n = xs.size();
  std::vector<std::uint64_t> period_ticks(n);
  std::uint64_t min_ticks = ~std::uint64_t{0};
  for (std::size_t i = 0; i < n; ++i) {
    period_ticks[i] = PsGrid::period_ticks(clock.next_period_ns());
    min_ticks = std::min(min_ticks, period_ticks[i]);
  }
  // A gated point's every capture is its settled word, the exact product.
  const bool gated = min_ticks >= sim_for(m).critical_path_ticks();
  Workspace ws;
  if (!gated) stream_dut(m, xs, ws);

  CharTrace trace;
  trace.fsm_cycles = fsm_cycles(n);
  trace.observed.resize(n);
  trace.expected.resize(n);
  trace.error.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t exp =
        static_cast<std::uint64_t>(m) * static_cast<std::uint64_t>(xs[i]);
    const std::uint64_t obs =
        gated ? exp : ws.stream.capture_word_ticks(i, period_ticks[i]);
    trace.observed[i] = obs;
    trace.expected[i] = exp;
    trace.error[i] =
        static_cast<std::int64_t>(obs) - static_cast<std::int64_t>(exp);
    trace.erroneous += static_cast<std::size_t>(obs != exp);
  }
  return trace;
}

std::vector<CharTrace> CharacterisationCircuit::run_multi(
    std::uint32_t m, const std::vector<std::uint32_t>& xs,
    const std::vector<double>& freqs_mhz, std::uint64_t jitter_seed,
    Workspace* workspace) const {
  check_run(m, xs, freqs_mhz);
  const std::size_t nf = freqs_mhz.size();
  std::vector<double> periods(nf);
  for (std::size_t fi = 0; fi < nf; ++fi) periods[fi] = 1000.0 / freqs_mhz[fi];

  // Same jitter model as ClockGen (clamped Gaussian), but drawn once per
  // sample: the settle snapshot is shared, so the *same* launch edge is
  // sampled by every frequency's register with its own period. Each
  // frequency's period sequence keeps the per-frequency distribution.
  const double sigma =
      cfg_.with_jitter ? device_->config().jitter_sigma_ns : 0.0;
  Rng jitter_rng(hash_mix(jitter_seed, m, 0x3417ULL));

  Workspace local;
  Workspace& ws = workspace ? *workspace : local;

  const std::size_t n = xs.size();
  std::vector<CharTrace> traces(nf);
  for (auto& t : traces) {
    t.observed.resize(n);
    t.expected.resize(n);
    t.error.resize(n);
    t.fsm_cycles = fsm_cycles(n);  // per virtual per-frequency run
  }

  // Jitter is drawn up front, in sample order, so the shortest capture
  // period is known before the stream runs: fl(p_min + j_min) bounds
  // every fl(p_f + j_i), as rounding is monotone. At or above the DUT's
  // critical path the slack gate answers from the exact products instead.
  ws.jitter.resize(n);
  double j_min = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < n; ++i) {
    double j = 0.0;
    if (sigma > 0.0) {
      j = jitter_rng.normal(0.0, sigma);
      const double lim = 4.0 * sigma;  // ClockGen's ±4σ clamp
      if (j > lim) j = lim;
      if (j < -lim) j = -lim;
    }
    ws.jitter[i] = j;
    j_min = std::min(j_min, j);
  }
  const double p_min = *std::min_element(periods.begin(), periods.end());
  ws.gated = PsGrid::period_ticks(p_min + j_min) >=
             sim_for(m).critical_path_ticks();
  if (!ws.gated) stream_dut(m, xs, ws);

  // Sampling a frequency is then obs = settled word with the too-late
  // toggled bits flipped back — O(toggled) per frequency instead of
  // O(output width). The compares run on uint32 ticks against one exact
  // threshold conversion per (sample, frequency) — the jittered period
  // varies per sample, so it cannot hoist further.
  for (std::size_t i = 0; i < n; ++i) {
    const double j = ws.jitter[i];
    const std::uint64_t exp =
        static_cast<std::uint64_t>(m) * static_cast<std::uint64_t>(xs[i]);
    for (std::size_t fi = 0; fi < nf; ++fi) {
      const std::uint64_t obs =
          ws.gated ? exp : ws.stream.capture_word(i, periods[fi] + j);
      CharTrace& t = traces[fi];
      t.observed[i] = obs;
      t.error[i] =
          static_cast<std::int64_t>(obs) - static_cast<std::int64_t>(exp);
      t.erroneous += static_cast<std::size_t>(obs != exp);
    }
    traces[0].expected[i] = exp;
  }
  // The expected sequence is frequency-independent; fill it once and copy.
  for (std::size_t fi = 1; fi < nf; ++fi)
    traces[fi].expected = traces[0].expected;
  return traces;
}

}  // namespace oclp
