#include "core/circuit_eval.hpp"

#include <algorithm>
#include <cmath>

#include "common/rng.hpp"
#include "core/synthetic.hpp"
#include "fabric/timing_annotation.hpp"
#include "linalg/decompositions.hpp"
#include "mult/bitcodec.hpp"
#include "mult/ccm.hpp"
#include "mult/multiplier.hpp"

namespace oclp {

namespace {

constexpr double kRidge = 1e-10;

/// One exact reduction of an n-row block into its n×K outputs.
struct RowReduce {
  std::size_t n, p, k;
  const std::uint32_t* codes_t;  ///< P × n: the block's codes by input
  const std::int64_t* coef;      ///< K·P sign·magnitude, column-major
  const std::uint8_t* gated;     ///< K·P: term is coef·x, else a word
  const std::int64_t* words;     ///< K·P × n signed captured words
  const double* scale;           ///< per column: 2^-(wl+wl_x)
  const double* correction;      ///< per column, or nullptr for none
  double* y;                     ///< n × K outputs
};

// Per output column: each term is an integer and every partial sum stays
// below 2^53 (the constructor's bound), so the int64 sum converts exactly
// and the one scale multiply is exact — bitwise the double sum of the
// scaled terms in any order. A contracted multiply-subtract rounds that
// exact product once, as the separate subtract does. Whole groups of eight
// samples run 64 at a time in loops across samples, which vectorise; the
// last n mod 8 samples (a lone row in particular) sum in a register.
[[gnu::always_inline]] inline void row_reduce_body(const RowReduce& r) {
  constexpr std::size_t kBlock = 64, kGroup = 8;
  std::int64_t acc[kBlock];
  const std::size_t whole = r.n / kGroup * kGroup;
  for (std::size_t kk = 0; kk < r.k; ++kk) {
    const double scale = r.scale[kk];
    const double corr = r.correction != nullptr ? r.correction[kk] : 0.0;
    const std::size_t m0 = kk * r.p;
    for (std::size_t s0 = 0; s0 < whole; s0 += kBlock) {
      const std::size_t bn = std::min(kBlock, whole - s0);
      std::fill_n(acc, bn, std::int64_t{0});
      for (std::size_t pp = 0; pp < r.p; ++pp) {
        const std::size_t m = m0 + pp;
        if (r.gated[m]) {
          const std::int64_t c = r.coef[m];
          const std::uint32_t* x = r.codes_t + pp * r.n + s0;
          for (std::size_t s = 0; s < bn; ++s)
            acc[s] += c * static_cast<std::int64_t>(x[s]);
        } else {
          const std::int64_t* w = r.words + m * r.n + s0;
          for (std::size_t s = 0; s < bn; ++s) acc[s] += w[s];
        }
      }
      double* y = r.y + s0 * r.k + kk;
      for (std::size_t s = 0; s < bn; ++s)
        y[s * r.k] = static_cast<double>(acc[s]) * scale - corr;
    }
    for (std::size_t s = whole; s < r.n; ++s) {
      std::int64_t a = 0;
      for (std::size_t pp = 0; pp < r.p; ++pp) {
        const std::size_t m = m0 + pp;
        a += r.gated[m]
                 ? r.coef[m] * static_cast<std::int64_t>(r.codes_t[pp * r.n + s])
                 : r.words[m * r.n + s];
      }
      r.y[s * r.k + kk] = static_cast<double>(a) * scale - corr;
    }
  }
}

// One source, compiled per ISA and picked once at runtime (the lane
// kernels' cached dispatch, which stays usable under the sanitizers).
using RowReduceFn = void (*)(const RowReduce&);
void row_reduce_default(const RowReduce& r) { row_reduce_body(r); }
#if defined(__x86_64__)
__attribute__((target("avx2"))) void row_reduce_avx2(const RowReduce& r) {
  row_reduce_body(r);
}
__attribute__((target("avx512f,avx512dq"))) void row_reduce_avx512(
    const RowReduce& r) {
  row_reduce_body(r);
}
#endif

RowReduceFn row_reduce() {
  static const RowReduceFn fn = [] {
#if defined(__x86_64__)
    if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq"))
      return row_reduce_avx512;
    if (__builtin_cpu_supports("avx2")) return row_reduce_avx2;
#endif
    return row_reduce_default;
  }();
  return fn;
}

}  // namespace

CircuitPlan simulated_plan(const LinearProjectionDesign& design,
                           const Placement& characterised_at) {
  CircuitPlan plan;
  plan.mult_placements.assign(design.dims_k() * design.dims_p(), characterised_at);
  return plan;
}

CircuitPlan actual_plan(const LinearProjectionDesign& design, const Device& device,
                        std::uint64_t par_seed) {
  Rng rng(hash_mix(par_seed, design.dims_k(), design.dims_p()));
  CircuitPlan plan;
  const std::size_t k = design.dims_k();
  const std::size_t p = design.dims_p();
  plan.mult_placements.reserve(k * p);
  // A real placement run packs the datapath into one contiguous region:
  // the K×P multiplier array becomes a block of clusters at a random
  // anchor, so the whole design sometimes straddles the slow corners of
  // the die — which is exactly the placement variation the paper observes
  // between compile-and-download cycles.
  const int col_pitch = 10;  // an 8-wide multiplier cluster plus routing gap
  const int row_pitch = 4;
  const int span_x = static_cast<int>(k - 1) * col_pitch + 9;
  const int span_y = static_cast<int>(p - 1) * row_pitch + 9;
  const int ax = static_cast<int>(
      rng.uniform_int(0, std::max(0, device.width() - span_x)));
  const int ay = static_cast<int>(
      rng.uniform_int(0, std::max(0, device.height() - span_y)));
  for (std::size_t kk = 0; kk < k; ++kk) {
    for (std::size_t pp = 0; pp < p; ++pp) {
      Placement pl;
      pl.x = std::min(ax + static_cast<int>(kk) * col_pitch, device.width() - 1);
      pl.y = std::min(ay + static_cast<int>(pp) * row_pitch, device.height() - 1);
      pl.route_seed = rng.next();
      plan.mult_placements.push_back(pl);
    }
  }
  return plan;
}

ProjectionCircuit::ProjectionCircuit(const LinearProjectionDesign& design,
                                     const Device& device, const CircuitPlan& plan,
                                     int wl_x,
                                     const ErrorModelMap* models,
                                     std::uint64_t clock_seed)
    : design_(design),
      wl_x_(wl_x),
      models_(models),
      freq_mhz_(design.target_freq_mhz),
      jitter_sigma_ns_(plan.with_jitter ? device.config().jitter_sigma_ns : 0.0),
      clock_seed_(clock_seed),
      clock_(design.target_freq_mhz, jitter_sigma_ns_, clock_seed) {
  const std::size_t p = design.dims_p();
  const std::size_t k = design.dims_k();
  OCLP_CHECK(p >= 1 && k >= 1 && design.target_freq_mhz > 0.0);
  OCLP_CHECK_MSG(plan.mult_placements.size() == k * p,
                 "plan has " << plan.mult_placements.size() << " placements for "
                             << k * p << " multipliers");

  // The exact reduction's bound (see project_rows): P terms of at most
  // wl+wl_x bits each must stay below 2^53. Checked before any lowering.
  constexpr std::uint64_t kExact = (std::uint64_t{1} << 53) - 1;
  for (std::size_t kk = 0; kk < k; ++kk) {
    const int bits = design.columns[kk].wordlength() + wl_x;
    OCLP_CHECK_MSG(
        bits < 53 && p <= kExact / ((std::uint64_t{1} << bits) - 1),
        "output dimension " << kk << ": " << p << " terms of wl+wl_x=" << bits
                            << " bits can reach 2^53, beyond the exact "
                               "reduction's P·(2^(wl+wl_x) − 1) < 2^53");
  }

  sims_.reserve(k * p);
  coef_.reserve(k * p);
  for (std::size_t kk = 0; kk < k; ++kk) {
    const DesignColumn& col = design.columns[kk];
    scale_.push_back(std::ldexp(1.0, -(col.wordlength() + wl_x)));
    for (std::size_t pp = 0; pp < p; ++pp) {
      coef_.push_back(col.coeffs[pp].sign *
                      static_cast<std::int64_t>(col.coeffs[pp].magnitude));
      const auto& place = plan.mult_placements[kk * p + pp];
      // A CCM column bakes the coefficient into the netlist (only the x
      // port remains an input), so the lowering is per-constant: any
      // coefficient change — a design hot-swap in particular — must come
      // back through here and pay a full re-lower of the cell.
      Netlist nl = column_is_ccm(col)
                       ? make_ccm_multiplier(col.config,
                                             col.coeffs[pp].magnitude, wl_x)
                       : make_multiplier(col.config, wl_x);
      // annotate_timing snaps onto the PsGrid, so lowering cannot fail
      // short of a mis-calibrated delay.
      auto delays = annotate_timing(nl, device, place);
      sims_.push_back(
          std::make_unique<OverclockSim>(std::move(nl), std::move(delays)));
      max_critical_ticks_ =
          std::max(max_critical_ticks_, sims_.back()->critical_path_ticks());
    }
  }
  all_gated_.assign(k * p, 1);
  // Every register starts flushed to the zero operand, settled lazily by
  // each multiplier's first full stream (project_rows).
  last_x_.assign(p, 0);
  sim_synced_.assign(k * p, 0);
  recompute_mean_correction();
  update_clock_gate();
}

bool ProjectionCircuit::gated_at_every_period(std::uint64_t critical_path_ticks,
                                              double min_period_ns) {
  return critical_path_ticks <= PsGrid::period_ticks(min_period_ns);
}

void ProjectionCircuit::update_clock_gate() {
  // Every period the clock draws is ≥ min_period_ns() and period_ticks is
  // monotone, so a largest critical path within its threshold gates every
  // multiplier of every batch until the clock or the gate changes.
  clock_gated_ = slack_gate_ && gated_at_every_period(max_critical_ticks_,
                                                      clock_.min_period_ns());
}

void ProjectionCircuit::set_slack_gate(bool enabled) {
  slack_gate_ = enabled;
  update_clock_gate();
}

void ProjectionCircuit::recompute_mean_correction() {
  const std::size_t p = dims_p();
  const std::size_t k = dims_k();
  mean_correction_.assign(k, 0.0);
  if (models_ == nullptr) return;
  for (std::size_t kk = 0; kk < k; ++kk) {
    const DesignColumn& col = design_.columns[kk];
    const double scale = std::ldexp(1.0, col.wordlength() + wl_x_);
    const auto it = models_->find(col.config);
    OCLP_CHECK_MSG(it != models_->end(),
                   "no error model for " << col.config);
    // The map key promises the config, but the model carries its own tag —
    // a mis-filed entry (characterised on one config, filed under another)
    // must not correct this column's datapath.
    it->second.require_config(col.config, "projection circuit");
    // A CCM column's deployed coefficients must actually sit on the
    // characterised (m, f) grid — a swapped-in design with an out-of-grid
    // magnitude would otherwise read a row that was never measured.
    // Reject at (re)lower time, naming the output dimension.
    if (column_is_ccm(col)) {
      for (std::size_t pp = 0; pp < p; ++pp)
        OCLP_CHECK_MSG(
            col.coeffs[pp].magnitude < it->second.num_multiplicands(),
            "CCM output dimension " << kk << ", input " << pp
                                    << ": coefficient magnitude "
                                    << col.coeffs[pp].magnitude
                                    << " outside the characterised wl="
                                    << col.wordlength() << " grid ("
                                    << it->second.num_multiplicands()
                                    << " codes)");
    }
    for (std::size_t pp = 0; pp < p; ++pp)
      mean_correction_[kk] += col.coeffs[pp].sign *
                              it->second.mean_error(col.coeffs[pp].magnitude,
                                                    freq_mhz_) /
                              scale;
  }
}

void ProjectionCircuit::set_error_models(const ErrorModelMap* models) {
  models_ = models;
  recompute_mean_correction();
}

void ProjectionCircuit::set_clock(double freq_mhz, double timing_derate) {
  OCLP_CHECK_MSG(freq_mhz > 0.0 && timing_derate > 0.0,
                 "set_clock(" << freq_mhz << ", " << timing_derate << ")");
  freq_mhz_ = freq_mhz;
  // delay·d ≡ period/d: the derate folds into the effective clock. Each
  // retarget gets a fresh deterministic jitter stream.
  clock_ = ClockGen(freq_mhz * timing_derate, jitter_sigma_ns_,
                    hash_mix(clock_seed_, 0xC10C5E7ULL,
                             static_cast<std::uint64_t>(++retargets_)));
  recompute_mean_correction();
  update_clock_gate();
}

void ProjectionCircuit::check_shape(const std::vector<std::uint32_t>* x,
                                    std::size_t row) const {
  OCLP_CHECK_MSG(x != nullptr, "row " << row << " has no input codes");
  OCLP_CHECK_MSG(x->size() == dims_p(), "row " << row << " has " << x->size()
                                               << " codes for a P="
                                               << dims_p() << " design");
}

void ProjectionCircuit::check_range(const std::uint32_t* rows, std::size_t n,
                                    std::size_t first_row) const {
  const std::size_t p = dims_p();
  const std::uint32_t limit = std::uint32_t{1} << wl_x_;
  // The limit is a power of two: a code reaches it iff it sets a bit at or
  // above wl_x, so one OR over the block clears the common case.
  std::uint32_t bits = 0;
  for (std::size_t i = 0; i < n * p; ++i) bits |= rows[i];
  if (bits < limit) return;
  for (std::size_t i = 0; i < n * p; ++i)
    OCLP_CHECK_MSG(rows[i] < limit, "row " << first_row + i / p << ", input "
                                           << i % p << ": code " << rows[i]
                                           << " out of range for wl_x="
                                           << wl_x_);
}

void ProjectionCircuit::project(const std::vector<std::uint32_t>& x_codes,
                                std::vector<double>& y) {
  check_shape(&x_codes, 0);
  y.resize(dims_k());
  project_rows(x_codes.data(), 1, y.data());
}

std::vector<double> ProjectionCircuit::project(const std::vector<std::uint32_t>& x_codes) {
  std::vector<double> y;
  project(x_codes, y);
  return y;
}

void ProjectionCircuit::project_batch(
    const std::vector<const std::vector<std::uint32_t>*>& batch,
    std::vector<std::vector<double>>& ys) {
  const std::size_t p = dims_p();
  const std::size_t k = dims_k();
  const std::size_t n = batch.size();
  batch_rows_.resize(n * p);
  for (std::size_t s = 0; s < n; ++s) {
    check_shape(batch[s], s);
    std::copy(batch[s]->begin(), batch[s]->end(), batch_rows_.begin() + s * p);
  }
  batch_y_.resize(n * k);
  project_rows(batch_rows_.data(), n, batch_y_.data());
  ys.resize(n);
  for (std::size_t s = 0; s < n; ++s)
    ys[s].assign(batch_y_.begin() + s * k, batch_y_.begin() + (s + 1) * k);
}

void ProjectionCircuit::project_rows(const std::uint32_t* rows, std::size_t n,
                                     double* y) {
  const std::size_t p = dims_p();
  const std::size_t k = dims_k();
  check_range(rows, n);
  if (n == 0) return;

  const std::size_t kp = k * p;
  stream_gated_.resize(kp);
  bool any_full = false;
  if (clock_gated_) {
    // The per-clock gate: every multiplier's critical path fits the
    // shortest period this clock can draw, so every capture is its settled
    // word whatever is drawn, and none is. The skipped draws are
    // unobservable: set_clock reseeds from the retarget count, not the
    // stream position, and periods drawn later at this clock (gate turned
    // off) clear every critical path all the same (DESIGN.md §12).
    std::fill(stream_gated_.begin(), stream_gated_.end(), 1);
  } else {
    // All multipliers share the mult_clk domain; one jittered period per
    // edge, drawn in sample order — the exact draw sequence a per-sample
    // loop would consume, so block boundaries never move a clock. The
    // integer capture threshold ⌊period·2^10⌋ is converted once per
    // sample here instead of once per (multiplier, sample) in the capture
    // loop; the conversion is exact for arbitrary jittered periods (see
    // PsGrid), so tick capture matches the double rule bitwise.
    periods_ticks_.resize(n);
    std::uint64_t min_ticks = ~std::uint64_t{0};
    for (std::size_t s = 0; s < n; ++s) {
      periods_ticks_[s] = PsGrid::period_ticks(clock_.next_period_ns());
      min_ticks = std::min(min_ticks, periods_ticks_[s]);
    }
    // The per-block gate, per multiplier: no sample of this block is
    // captured sooner than min_ticks, so a critical path within it proves
    // every capture settled and the multiplier's terms are exact
    // arithmetic.
    for (std::size_t m = 0; m < kp; ++m) {
      stream_gated_[m] =
          slack_gate_ && min_ticks >= sims_[m]->critical_path_ticks();
      any_full |= stream_gated_[m] == 0;
    }
  }

  // The block's codes by input (a row is its own transpose), so both the
  // streams and the reduction read each input's samples contiguously.
  const std::uint32_t* codes_t = rows;
  if (n > 1) {
    codes_t_.resize(p * n);
    for (std::size_t s = 0; s < n; ++s)
      for (std::size_t pp = 0; pp < p; ++pp)
        codes_t_[pp * n + s] = rows[s * p + pp];
    codes_t = codes_t_.data();
  }

  // Full streams only: each chunk of the K·P independent multipliers owns
  // a reusable workspace; each multiplier's register state lives in its
  // sim and its words in its own slice, so the chunk → multiplier mapping
  // never affects results.
  const auto run_chunk = [&](std::size_t m0, std::size_t m1,
                             std::size_t chunk) {
    for (std::size_t m = m0; m < m1; ++m) {
      if (stream_gated_[m]) continue;
      const std::size_t kk = m / p, pp = m % p;
      const DesignColumn& col = design_.columns[kk];
      const std::uint32_t mag = col.coeffs[pp].magnitude;
      BatchWorkspace& ws = batch_ws_.at(chunk);
      OverclockSim& sim = *sims_[m];
      // CCM netlists expose only the x port (the constant is baked in).
      const bool ccm = column_is_ccm(col);
      const std::size_t cb =
          ccm ? 0 : static_cast<std::size_t>(col.wordlength());
      const std::size_t nin = cb + static_cast<std::size_t>(wl_x_);
      // Lazy state rebuild: a sim that skipped its streams settles on the
      // last code it saw — one CompiledNetlist::eval, exactly the settled
      // state a full stream would have left.
      if (!sim_synced_[m]) {
        ws.reset.clear();
        if (!ccm) append_bits(ws.reset, mag, col.wordlength());
        append_bits(ws.reset, last_x_[pp], wl_x_);
        sim.reset(ws.reset);
      }

      // Row-major input-bit matrix: the fixed multiplicand bits (generic
      // path only) plus one streamed operand per sample, with the 8 bytes
      // of slack store_bit_bytes needs past the last row.
      ws.inputs.resize(n * nin + 8);
      const std::uint32_t* x = codes_t + pp * n;
      for (std::size_t s = 0; s < n; ++s) {
        std::uint8_t* row = ws.inputs.data() + s * nin;
        store_bit_bytes(row, mag, static_cast<int>(cb));
        store_bit_bytes(row + cb, x[s], wl_x_);
      }
      sim.run_stream(ws.inputs.data(), n, ws.stream);
      // Per-sample signed word, captured through unsigned tick compares
      // against the pre-converted thresholds.
      const std::int64_t sign = col.coeffs[pp].sign;
      std::int64_t* w = words_.data() + m * n;
      for (std::size_t s = 0; s < n; ++s)
        w[s] = sign * static_cast<std::int64_t>(
                          ws.stream.capture_word_ticks(s, periods_ticks_[s]));
    }
  };
  // Below kInlineStreamBatch samples a fan-out costs more than it spreads
  // (DESIGN.md §12), so small blocks run their streams inline; a policy
  // from set_exec_policy decides every block of more than one sample. A
  // block of arithmetic alone has no stream to run.
  if (any_full) {
    words_.resize(kp * n);
    const bool fan_out = exec_ ? n > 1 : n >= kInlineStreamBatch;
    const ExecPolicy exec =
        exec_.value_or(ExecPolicy::pooled(nullptr, ExecChunking{0, 1}));
    const std::size_t chunks = fan_out ? exec.num_chunks(kp) : 1;
    if (batch_ws_.size() < chunks) batch_ws_.resize(chunks);
    if (fan_out)
      exec.for_chunks(0, kp, run_chunk);
    else
      run_chunk(0, kp, 0);
  }
  for (std::size_t m = 0; m < kp; ++m) {
    ++(stream_gated_[m] ? streams_.gated : streams_.full);
    sim_synced_[m] = stream_gated_[m] == 0;
  }
  last_x_.assign(rows + (n - 1) * p, rows + n * p);

  row_reduce()({n, p, k, codes_t, coef_.data(), stream_gated_.data(),
                words_.data(), scale_.data(), mean_correction_.data(), y});
}

void ProjectionCircuit::settled_rows(const std::uint32_t* rows, std::size_t n,
                                     double* y) const {
  check_range(rows, n);
  // One row at a time: a row is its own transpose, so no scratch is needed
  // and concurrent const calls share nothing.
  const std::size_t p = dims_p();
  const std::size_t k = dims_k();
  for (std::size_t s = 0; s < n; ++s)
    row_reduce()({1, p, k, rows + s * p, coef_.data(), all_gated_.data(),
                  nullptr, scale_.data(), nullptr, y + s * k});
}

void ProjectionCircuit::project_settled(
    const std::vector<const std::vector<std::uint32_t>*>& batch,
    std::vector<std::vector<double>>& ys) const {
  for (std::size_t i = 0; i < batch.size(); ++i) {
    check_shape(batch[i], i);
    check_range(batch[i]->data(), 1, i);
  }
  ys.resize(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ys[i].resize(dims_k());
    settled_rows(batch[i]->data(), 1, ys[i].data());
  }
}

std::vector<double> ProjectionCircuit::project_exact(
    const std::vector<std::uint32_t>& x_codes) const {
  check_shape(&x_codes, 0);
  std::vector<double> y(dims_k());
  settled_rows(x_codes.data(), 1, y.data());
  return y;
}

double evaluate_hardware_mse(const LinearProjectionDesign& design,
                             const Matrix& x, const std::vector<double>& mu,
                             const Device& device, const CircuitPlan& plan,
                             int wl_x, const ErrorModelMap* models,
                             std::uint64_t clock_seed) {
  const std::size_t n = x.cols();
  const std::size_t p = design.dims_p();
  const std::size_t k = design.dims_k();
  OCLP_CHECK(x.rows() == p && mu.size() == p);
  const Matrix basis = design.basis();
  const Matrix normaliser = projection_normaliser(basis, kRidge);
  // Design-time constant Λᵀμ, applied after the datapath (error-free).
  std::vector<double> offset(k, 0.0);
  for (std::size_t c = 0; c < k; ++c) offset[c] = dot(basis.col(c), mu);

  ProjectionCircuit circuit(design, device, plan, wl_x, models, clock_seed);

  // Project the whole evaluation set as one row block — same outputs as a
  // per-sample project() loop, with the 64-lane kernel's amortisation.
  std::vector<std::uint32_t> rows(n * p);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t r = 0; r < p; ++r) rows[i * p + r] = encode_code(x(r, i), wl_x);
  std::vector<double> ys(n * k);
  circuit.project_rows(rows.data(), n, ys.data());

  double total_sq = 0.0;
  std::vector<double> f(k);
  for (std::size_t i = 0; i < n; ++i) {
    double* y = ys.data() + i * k;
    for (std::size_t c = 0; c < k; ++c) y[c] -= offset[c];
    // f = (ΛᵀΛ)⁻¹ y;  x̂ = μ + Λ f
    std::fill(f.begin(), f.end(), 0.0);
    for (std::size_t r = 0; r < k; ++r)
      for (std::size_t c = 0; c < k; ++c) f[r] += normaliser(r, c) * y[c];
    for (std::size_t r = 0; r < p; ++r) {
      double xhat = mu[r];
      for (std::size_t c = 0; c < k; ++c) xhat += basis(r, c) * f[c];
      const double err = x(r, i) - xhat;
      total_sq += err * err;
    }
  }
  return total_sq /
         (static_cast<double>(x.rows()) * static_cast<double>(x.cols()));
}

}  // namespace oclp
