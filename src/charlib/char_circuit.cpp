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
    std::vector<double> delays = annotate_timing(dut, device, placement);
    // Calibrated delays are PsGrid-snapped, so the integer settle kernel is
    // required to lower — an off-grid delay here is a calibration bug.
    sims.emplace_back(std::move(dut), std::move(delays),
                      TimingMode::IntegerExact);
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
  // multiplicand it streams.
  dut_tool_fmax_mhz_ = std::numeric_limits<double>::infinity();
  dut_device_fmax_mhz_ = std::numeric_limits<double>::infinity();
  for (const OverclockSim& sim : sims_) {
    dut_tool_fmax_mhz_ = std::min(
        dut_tool_fmax_mhz_, tool_fmax_mhz(sim.netlist(), device.config()));
    dut_device_fmax_mhz_ = std::min(
        dut_device_fmax_mhz_,
        fmax_mhz(device_critical_path_ns(sim.netlist(), device, placement)));
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

CharTrace CharacterisationCircuit::run(std::uint32_t m,
                                       const std::vector<std::uint32_t>& xs,
                                       double freq_mhz, std::uint64_t jitter_seed) {
  const int wl_m = cfg_.mult.wordlength;
  OCLP_CHECK_MSG(m < (1u << wl_m), "multiplicand " << m << " exceeds "
                                            << wl_m << " bits");
  // The framework must only measure DUT errors: the DUT clock has to stay
  // below the supporting-logic limit, and the FSM domain below both.
  OCLP_CHECK_MSG(freq_mhz < support_fmax_mhz_,
                 "mult_clk " << freq_mhz << " MHz exceeds supporting-logic Fmax "
                             << support_fmax_mhz_ << " MHz");
  OCLP_CHECK_MSG(cfg_.fsm_clock_mhz < support_fmax_mhz_,
                 "fsm_clk exceeds supporting-logic Fmax");

  ClockGen clock(freq_mhz, cfg_.with_jitter ? device_->config().jitter_sigma_ns : 0.0,
                 hash_mix(jitter_seed, m, static_cast<std::uint64_t>(freq_mhz * 1e3)));

  CharTrace trace;
  trace.observed.reserve(xs.size());
  trace.expected.reserve(xs.size());
  trace.error.reserve(xs.size());

  // The per-constant CCM cell has no multiplicand bus — m is baked in.
  OverclockSim& sim = sim_for(m);
  std::vector<std::uint8_t> in;
  in.reserve(static_cast<std::size_t>(wl_m + cfg_.wl_x));
  auto encode = [&](std::uint32_t x) {
    in.clear();
    if (!ccm_) append_bits(in, m, wl_m);
    append_bits(in, x, cfg_.wl_x);
  };

  encode(0);
  sim.reset(in);

  std::size_t processed = 0;
  while (processed < xs.size()) {
    const std::size_t batch = std::min(cfg_.bram_depth, xs.size() - processed);
    // FSM bookkeeping: LOAD fills the input BRAM, RUN streams it through
    // the DUT, DRAIN empties the output BRAM — all in the fsm_clk domain.
    trace.fsm_cycles += 2 * batch + 4;
    for (std::size_t i = 0; i < batch; ++i) {
      const std::uint32_t x = xs[processed + i];
      OCLP_DCHECK(x < (1u << cfg_.wl_x));
      encode(x);
      const auto& out = sim.step(in, clock.next_period_ns());
      const std::uint64_t obs = from_bits(out);
      const std::uint64_t exp =
          static_cast<std::uint64_t>(m) * static_cast<std::uint64_t>(x);
      trace.observed.push_back(obs);
      trace.expected.push_back(exp);
      trace.error.push_back(static_cast<std::int64_t>(obs) -
                            static_cast<std::int64_t>(exp));
      if (obs != exp) ++trace.erroneous;
    }
    processed += batch;
  }
  return trace;
}

std::vector<CharTrace> CharacterisationCircuit::run_multi(
    std::uint32_t m, const std::vector<std::uint32_t>& xs,
    const std::vector<double>& freqs_mhz, std::uint64_t jitter_seed,
    Workspace* workspace) const {
  const int wl_m = cfg_.mult.wordlength;
  OCLP_CHECK_MSG(m < (1u << wl_m), "multiplicand " << m << " exceeds "
                                            << wl_m << " bits");
  OCLP_CHECK_MSG(!freqs_mhz.empty(), "run_multi needs at least one frequency");
  for (double f : freqs_mhz) {
    OCLP_CHECK(f > 0.0);
    OCLP_CHECK_MSG(f < support_fmax_mhz_,
                   "mult_clk " << f << " MHz exceeds supporting-logic Fmax "
                               << support_fmax_mhz_ << " MHz");
  }
  OCLP_CHECK_MSG(cfg_.fsm_clock_mhz < support_fmax_mhz_,
                 "fsm_clk exceeds supporting-logic Fmax");

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
  }
  // FSM bookkeeping per virtual per-frequency run (see run()): the stream
  // is loaded/drained through the BRAM in bram_depth batches.
  std::size_t processed = 0;
  while (processed < n) {
    const std::size_t batch = std::min(cfg_.bram_depth, n - processed);
    for (auto& t : traces) t.fsm_cycles += 2 * batch + 4;
    processed += batch;
  }

  // The per-constant CCM cell has no multiplicand bus — m is baked in.
  const OverclockSim& sim = sim_for(m);
  std::vector<std::uint8_t> in;
  in.reserve(static_cast<std::size_t>(wl_m + cfg_.wl_x));
  if (!ccm_) append_bits(in, m, wl_m);
  append_bits(in, 0, cfg_.wl_x);
  sim.reset(ws.sim, in);

  // Flatten the stream into an input-bit matrix and settle the whole cone
  // in one batched pass: ws.stream then holds, per edge, the settled
  // output word plus the (bit, settle) list of outputs that toggled.
  const std::size_t nin = in.size();
  const std::size_t wlm = ccm_ ? 0 : static_cast<std::size_t>(wl_m);
  ws.input_bits.resize(n * nin + 8);  // store_bit_bytes' slack
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t x = xs[i];
    OCLP_DCHECK(x < (1u << cfg_.wl_x));
    std::uint8_t* row = ws.input_bits.data() + i * nin;
    store_bit_bytes(row, m, static_cast<int>(wlm));
    store_bit_bytes(row + wlm, x, cfg_.wl_x);
  }
  // Jitter is drawn up front, in sample order (the same sequence the
  // capture loop below consumed when it drew inline), so the stream knows
  // its shortest capture period before it runs: fl(p_min + j_min) bounds
  // every fl(p_f + j_i), as rounding is monotone. At or above the DUT's
  // critical path the slack gate skips settle propagation altogether.
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
  sim.run_stream(ws.sim, ws.input_bits.data(), n, ws.stream,
                 PsGrid::period_ticks(p_min + j_min));

  // Sampling a frequency is then obs = settled word with the too-late
  // toggled bits flipped back — bitwise identical to thresholding every
  // bit, but O(toggled) per frequency instead of O(output width). With an
  // integer-kernel stream (the production case) the compares run on uint32
  // ticks against one exact threshold conversion per (sample, frequency) —
  // the jittered period varies per sample, so it cannot hoist further —
  // which matches the double rule bitwise (see PsGrid::period_ticks).
  const std::uint32_t* tbegin = ws.stream.toggle_begin.data();
  const std::uint8_t* tbit = ws.stream.toggle_bit.data();
  const bool ticks = ws.stream.has_ticks;
  const double* tsettle = ws.stream.toggle_settle.data();
  const std::uint32_t* tsettle_ticks = ws.stream.toggle_settle_ticks.data();
  for (std::size_t i = 0; i < n; ++i) {
    const double j = ws.jitter[i];
    const std::uint64_t exp =
        static_cast<std::uint64_t>(m) * static_cast<std::uint64_t>(xs[i]);
    const std::uint64_t settled = ws.stream.settled[i];
    for (std::size_t fi = 0; fi < nf; ++fi) {
      const double period = periods[fi] + j;
      std::uint64_t obs = settled;
      if (ticks) {
        const std::uint64_t pticks = PsGrid::period_ticks(period);
        for (std::uint32_t ti = tbegin[i]; ti < tbegin[i + 1]; ++ti)
          obs ^= static_cast<std::uint64_t>(tsettle_ticks[ti] > pticks)
                 << tbit[ti];
      } else {
        for (std::uint32_t ti = tbegin[i]; ti < tbegin[i + 1]; ++ti)
          obs ^= static_cast<std::uint64_t>(tsettle[ti] > period) << tbit[ti];
      }
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
