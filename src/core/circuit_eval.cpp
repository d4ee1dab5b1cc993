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

  sims_.reserve(k * p);
  terms_.reserve(k * p);
  for (std::size_t kk = 0; kk < k; ++kk) {
    const DesignColumn& col = design.columns[kk];
    // 2^-(wl + wl_x) is exact, so multiplying by it matches a division by
    // the scale bit for bit, and the sign only flips the sign bit.
    const double inv_scale = std::ldexp(1.0, -(col.wordlength() + wl_x));
    for (std::size_t pp = 0; pp < p; ++pp) {
      terms_.push_back({col.coeffs[pp].magnitude,
                        col.coeffs[pp].sign * inv_scale});
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
  // Every register starts flushed to the zero operand, settled lazily by
  // each multiplier's first full stream (project_batch).
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

void ProjectionCircuit::project(const std::vector<std::uint32_t>& x_codes,
                                std::vector<double>& y) {
  one_in_.assign(1, &x_codes);
  project_batch(one_in_, one_out_);
  y = one_out_[0];
}

std::vector<double> ProjectionCircuit::project(const std::vector<std::uint32_t>& x_codes) {
  std::vector<double> y;
  project(x_codes, y);
  return y;
}

void ProjectionCircuit::check_codes(const std::vector<std::uint32_t>* x,
                                    std::size_t row) const {
  OCLP_CHECK_MSG(x != nullptr, "row " << row << " has no input codes");
  OCLP_CHECK_MSG(x->size() == dims_p(), "row " << row << " has " << x->size()
                                               << " codes for a P="
                                               << dims_p() << " design");
  const std::uint32_t limit = std::uint32_t{1} << wl_x_;
  for (std::size_t pp = 0; pp < x->size(); ++pp)
    OCLP_CHECK_MSG((*x)[pp] < limit, "row " << row << ", input " << pp
                                            << ": code " << (*x)[pp]
                                            << " out of range for wl_x="
                                            << wl_x_);
}

void ProjectionCircuit::project_batch(
    const std::vector<const std::vector<std::uint32_t>*>& batch,
    std::vector<std::vector<double>>& ys) {
  const std::size_t p = dims_p();
  const std::size_t k = dims_k();
  const std::size_t n = batch.size();
  for (std::size_t s = 0; s < n; ++s) check_codes(batch[s], s);
  ys.resize(n);
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
    // loop would consume, so batch boundaries never move a clock. The
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
    // The per-batch gate, per multiplier: no sample of this batch is
    // captured sooner than min_ticks, so a critical path within it proves
    // every capture settled and the multiplier's terms are exact
    // arithmetic.
    for (std::size_t m = 0; m < kp; ++m) {
      stream_gated_[m] =
          slack_gate_ && min_ticks >= sims_[m]->critical_path_ticks();
      any_full |= stream_gated_[m] == 0;
    }
  }

  // Full streams only: each chunk of the K·P independent multipliers owns
  // a reusable workspace; each multiplier's register state lives in its
  // sim, so the chunk → multiplier mapping never affects results and the
  // reduction below is a fixed-order serial sum.
  const auto run_chunk = [&](std::size_t m0, std::size_t m1,
                             std::size_t chunk) {
    for (std::size_t m = m0; m < m1; ++m) {
      if (stream_gated_[m]) continue;
      const std::size_t kk = m / p, pp = m % p;
      const DesignColumn& col = design_.columns[kk];
      const std::uint32_t mag = terms_[m].magnitude;
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
      for (std::size_t s = 0; s < n; ++s) {
        std::uint8_t* row = ws.inputs.data() + s * nin;
        store_bit_bytes(row, mag, static_cast<int>(cb));
        store_bit_bytes(row + cb, (*batch[s])[pp], wl_x_);
      }
      sim.run_stream(ws.inputs.data(), n, ws.stream);
      // Per-sample signed, scaled product, captured through unsigned tick
      // compares against the pre-converted thresholds.
      const double scale = terms_[m].scale;
      double* c = contrib_.data() + m * n;
      for (std::size_t s = 0; s < n; ++s)
        c[s] = static_cast<double>(
                   ws.stream.capture_word_ticks(s, periods_ticks_[s])) *
               scale;
    }
  };
  // A single sample has nothing to amortise a fan-out over: it runs
  // inline. Batches with more distribute their full streams per the
  // policy; a batch of arithmetic alone has no stream to run.
  if (any_full) {
    contrib_.resize(kp * n);
    const std::size_t chunks = n == 1 ? 1 : exec_.num_chunks(kp);
    if (batch_ws_.size() < chunks) batch_ws_.resize(chunks);
    if (n == 1)
      run_chunk(0, kp, 0);
    else
      exec_.for_chunks(0, kp, run_chunk);
  }
  for (std::size_t m = 0; m < kp; ++m) {
    ++(stream_gated_[m] ? streams_.gated : streams_.full);
    sim_synced_[m] = stream_gated_[m] == 0;
  }
  last_x_ = *batch[n - 1];

  // Serial reduction in a fixed accumulation order (pp ascending per
  // output dimension from 0.0, correction last): floating-point addition
  // order is what makes a batch bitwise-identical to the same samples one
  // by one. Gated terms are computed here, where they are summed.
  for (std::size_t s = 0; s < n; ++s) {
    const std::uint32_t* x = batch[s]->data();
    std::vector<double>& y = ys[s];
    y.resize(k);
    for (std::size_t kk = 0; kk < k; ++kk) {
      double acc = 0.0;
      for (std::size_t pp = 0; pp < p; ++pp) {
        const std::size_t m = kk * p + pp;
        acc += stream_gated_[m] ? exact_term(m, x[pp]) : contrib_[m * n + s];
      }
      y[kk] = acc - mean_correction_[kk];
    }
  }
}

void ProjectionCircuit::exact_row(const std::vector<std::uint32_t>& x,
                                  std::vector<double>& y) const {
  const std::size_t p = dims_p();
  y.resize(dims_k());
  for (std::size_t kk = 0; kk < dims_k(); ++kk) {
    double acc = 0.0;
    for (std::size_t pp = 0; pp < p; ++pp) acc += exact_term(kk * p + pp, x[pp]);
    y[kk] = acc;
  }
}

void ProjectionCircuit::project_settled(
    const std::vector<const std::vector<std::uint32_t>*>& batch,
    std::vector<std::vector<double>>& ys) const {
  for (std::size_t i = 0; i < batch.size(); ++i) check_codes(batch[i], i);
  ys.resize(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) exact_row(*batch[i], ys[i]);
}

std::vector<double> ProjectionCircuit::project_exact(
    const std::vector<std::uint32_t>& x_codes) const {
  check_codes(&x_codes, 0);
  std::vector<double> y;
  exact_row(x_codes, y);
  return y;
}

double evaluate_hardware_mse(const LinearProjectionDesign& design,
                             const Matrix& x, const std::vector<double>& mu,
                             const Device& device, const CircuitPlan& plan,
                             int wl_x, const ErrorModelMap* models,
                             std::uint64_t clock_seed) {
  OCLP_CHECK(x.rows() == design.dims_p() && mu.size() == design.dims_p());
  const Matrix basis = design.basis();
  const Matrix normaliser = projection_normaliser(basis, kRidge);
  // Design-time constant Λᵀμ, applied after the datapath (error-free).
  std::vector<double> offset(design.dims_k(), 0.0);
  for (std::size_t k = 0; k < design.dims_k(); ++k)
    offset[k] = dot(basis.col(k), mu);

  ProjectionCircuit circuit(design, device, plan, wl_x, models, clock_seed);

  // Project the whole evaluation set in one batch — same y vectors as a
  // per-sample project() loop, with the 64-lane kernel's amortisation.
  const std::size_t n = x.cols();
  std::vector<std::vector<std::uint32_t>> codes(n);
  std::vector<const std::vector<std::uint32_t>*> batch(n);
  std::vector<double> sample(design.dims_p());
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t r = 0; r < design.dims_p(); ++r) sample[r] = x(r, i);
    codes[i] = encode_input(sample, wl_x);
    batch[i] = &codes[i];
  }
  std::vector<std::vector<double>> ys;
  circuit.project_batch(batch, ys);

  double total_sq = 0.0;
  std::vector<double> f(design.dims_k());
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double>& y = ys[i];
    for (std::size_t k = 0; k < y.size(); ++k) y[k] -= offset[k];
    // f = (ΛᵀΛ)⁻¹ y;  x̂ = μ + Λ f
    std::fill(f.begin(), f.end(), 0.0);
    for (std::size_t r = 0; r < design.dims_k(); ++r)
      for (std::size_t c = 0; c < design.dims_k(); ++c)
        f[r] += normaliser(r, c) * y[c];
    for (std::size_t r = 0; r < design.dims_p(); ++r) {
      double xhat = mu[r];
      for (std::size_t c = 0; c < design.dims_k(); ++c)
        xhat += basis(r, c) * f[c];
      const double err = x(r, i) - xhat;
      total_sq += err * err;
    }
  }
  return total_sq /
         (static_cast<double>(x.rows()) * static_cast<double>(x.cols()));
}

}  // namespace oclp
