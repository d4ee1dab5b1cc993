#include "serve/swap.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <sstream>
#include <thread>

#include "common/rng.hpp"
#include "serve/server.hpp"

namespace oclp {

namespace {

using SteadyClock = std::chrono::steady_clock;

double elapsed_ms(SteadyClock::time_point a, SteadyClock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

}  // namespace

ShadowTap::ShadowTap(ProjectionCircuit circuit, double fraction,
                     double tolerance, std::uint64_t seed,
                     std::uint64_t inject_divergence_every,
                     ServeMetrics* metrics)
    : circuit_(std::move(circuit)),
      fraction_(fraction),
      tolerance_(tolerance),
      seed_(seed),
      inject_every_(inject_divergence_every),
      metrics_(metrics) {
  OCLP_CHECK(fraction_ > 0.0 && fraction_ <= 1.0 && tolerance_ > 0.0);
}

bool ShadowTap::sampled(std::uint64_t id) const {
  if (fraction_ >= 1.0) return true;
  const double u =
      static_cast<double>(hash_mix(seed_, id, 0x5AAD03ULL) >> 11) * 0x1.0p-53;
  return u < fraction_;
}

void ShadowTap::observe(
    const std::vector<std::uint64_t>& ids,
    const std::vector<const std::vector<std::uint32_t>*>& codes,
    double freq_mhz, double derate) {
  OCLP_CHECK(ids.size() == codes.size());
  // Sampling is a pure hash of the request id — no lock needed, and the
  // mirrored subset is independent of which replica served the segment.
  bool any = false;
  for (std::uint64_t id : ids)
    if (sampled(id)) {
      any = true;
      break;
    }
  if (!any) return;

  std::lock_guard lock(mutex_);
  // Follow the serving operating point lazily, exactly like the serving
  // replicas do: the candidate is judged at the clock it would serve at.
  if (freq_mhz != freq_mhz_ || derate != derate_) {
    circuit_.set_clock(freq_mhz, derate);
    freq_mhz_ = freq_mhz;
    derate_ = derate;
  }
  mirrored_.clear();
  for (std::size_t i = 0; i < ids.size(); ++i)
    if (sampled(ids[i])) mirrored_.push_back(codes[i]);
  // Every mirrored request is scored against its settled value, taken
  // from the same stream pass (project_batch's fused references).
  all_rows_.resize(mirrored_.size());
  for (std::size_t i = 0; i < all_rows_.size(); ++i) all_rows_[i] = i;
  circuit_.project_batch(mirrored_, timed_, &all_rows_, &settled_);

  for (std::size_t i = 0; i < mirrored_.size(); ++i) {
    bool mismatch = false;
    for (std::size_t k = 0; k < timed_[i].size(); ++k)
      if (std::abs(timed_[i][k] - settled_[i][k]) > tolerance_) {
        mismatch = true;
        break;
      }
    const std::uint64_t n = compared_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (inject_every_ != 0 && n % inject_every_ == 0) mismatch = true;
    if (mismatch) mismatches_.fetch_add(1, std::memory_order_relaxed);
    if (metrics_ != nullptr) metrics_->on_shadow_compare(mismatch);
  }
}

DesignSwapper::DesignSwapper(ProjectionServer& server, SwapConfig cfg)
    : server_(server), cfg_(cfg) {
  OCLP_CHECK(cfg_.shadow_fraction >= 0.0 && cfg_.shadow_fraction <= 1.0);
  OCLP_CHECK(cfg_.shadow_timeout_ms > 0.0 && cfg_.mismatch_slack >= 0.0);
  OCLP_CHECK_MSG(cfg_.min_shadow_compares == 0 || cfg_.shadow_fraction > 0.0,
                 "shadow phase requested (min_shadow_compares > 0) with a "
                 "zero shadow fraction — no request would ever be mirrored");
}

double DesignSwapper::predicted_mismatch_rate(
    const LinearProjectionDesign& design,
    const ErrorModelMap* models, double freq_mhz) {
  if (models == nullptr) return 0.0;
  double sum = 0.0;
  for (const auto& col : design.columns) {
    const auto it = models->find(col.config);
    if (it == models->end()) continue;  // lowering rejects this earlier
    for (const auto& c : col.coeffs)
      sum += it->second.error_rate(c.magnitude, freq_mhz);
  }
  return std::min(1.0, sum);
}

SwapReport DesignSwapper::run(
    const LinearProjectionDesign& next,
    std::shared_ptr<const ErrorModelMap> models) {
  OCLP_CHECK_MSG(
      next.dims_p() == server_.dims_p() && next.dims_k() == server_.dims_k(),
      "swap_design: incoming design is " << next.dims_k() << "×"
                                         << next.dims_p()
                                         << ", the server serves "
                                         << server_.dims_k() << "×"
                                         << server_.dims_p());

  SwapReport report;
  const auto t0 = SteadyClock::now();

  // ---- Lower: the candidate datapath on the serving fabric locations.
  // A model violation (a CCM coefficient off the characterised grid, a
  // missing word-length) throws out of here — nothing was installed, the
  // server is untouched.
  std::vector<std::unique_ptr<ProjectionServer::Replica>> fresh =
      server_.lower_candidate(next, models.get());
  const auto t1 = SteadyClock::now();
  report.lower_ms = elapsed_ms(t0, t1);

  // ---- Shadow: mirror live traffic through a dedicated candidate
  // circuit until the divergence verdict is in. The flip replicas stay
  // pristine throughout (bitwise golden equality with a cold server).
  auto t2 = t1;
  if (cfg_.min_shadow_compares > 0) {
    report.predicted_mismatch_rate = predicted_mismatch_rate(
        next, models.get(), server_.governor().frequency_mhz());
    auto tap = std::make_shared<ShadowTap>(
        server_.make_shadow(next, models.get()), cfg_.shadow_fraction,
        server_.cfg_.check_tolerance, server_.cfg_.seed,
        cfg_.inject_divergence_every, &server_.metrics());
    server_.install_shadow(tap);
    const auto deadline =
        t1 + std::chrono::duration_cast<SteadyClock::duration>(
                 std::chrono::duration<double, std::milli>(
                     cfg_.shadow_timeout_ms));
    while (tap->compared() < cfg_.min_shadow_compares &&
           SteadyClock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    server_.clear_shadow();

    report.shadow_compared = tap->compared();
    report.shadow_mismatches = tap->mismatches();
    report.observed_mismatch_rate =
        report.shadow_compared == 0
            ? 0.0
            : static_cast<double>(report.shadow_mismatches) /
                  static_cast<double>(report.shadow_compared);
    t2 = SteadyClock::now();
    report.shadow_ms = elapsed_ms(t1, t2);
    report.total_ms = elapsed_ms(t0, t2);

    if (report.shadow_compared < cfg_.min_shadow_compares) {
      std::ostringstream os;
      os << "shadow starvation: " << report.shadow_compared << " of "
         << cfg_.min_shadow_compares << " compares within "
         << cfg_.shadow_timeout_ms << " ms";
      report.abort_reason = os.str();
      server_.metrics().on_swap_aborted();
      return report;
    }
    if (report.observed_mismatch_rate >
        report.predicted_mismatch_rate + cfg_.mismatch_slack) {
      std::ostringstream os;
      os << "shadow divergence: observed mismatch rate "
         << report.observed_mismatch_rate << " exceeds predicted "
         << report.predicted_mismatch_rate << " + slack "
         << cfg_.mismatch_slack;
      report.abort_reason = os.str();
      server_.metrics().on_swap_aborted();
      return report;
    }
  }

  // ---- Flip + Retire: generation-counted publication; in-flight batches
  // finish on the old datapath, the last flip unpins the old circuits.
  server_.publish_design(next, std::move(models), std::move(fresh));
  server_.wait_design_flipped();
  const auto t3 = SteadyClock::now();
  report.flip_ms = elapsed_ms(t2, t3);
  report.total_ms = elapsed_ms(t0, t3);
  report.committed = true;
  report.generation = server_.design_generation();
  server_.metrics().on_swap_committed(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t3 - t0).count()));
  return report;
}

}  // namespace oclp
