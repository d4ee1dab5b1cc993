// fleet_drift: a ProjectionFleet under bursty open-loop load while a bench
// control thread re-characterises the dies round-robin and plays a fixed
// schedule: derate step on die 1, drift removed, staged fleet-wide
// swap_design to a second design. The fleet's capacity is measured apart from the
// schedule, whose load is a fixed mean rate: capacity drains time each die
// of a paused fleet emptying a full queue.
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <exception>
#include <functional>
#include <iterator>
#include <limits>
#include <mutex>
#include <string>
#include <thread>

#include "fabric/calibration.hpp"
#include "serve/fleet.hpp"
#include "workloads.hpp"

using namespace oclp;

namespace pb {

namespace {

constexpr std::uint64_t kDieSeeds[] = {22, 83};
constexpr std::size_t kWorkersPerDie = 1;
constexpr std::size_t kWindowChecks = 16;    ///< governor window
constexpr double kStepDownFactor = 0.7;
constexpr double kStepUpMhz = 10.0;
constexpr std::size_t kRecheckSamples = 160;
constexpr double kRecheckPeriodMs = 250.0;
// Bursty on/off arrivals at a fixed mean rate below capacity.
constexpr double kMeanRateRps = 3000.0;
constexpr double kOnMs = 50.0, kOffMs = 50.0;
/// Latency percentiles are medians over windows of this length.
constexpr double kWindowMs = 500.0;
// The schedule, as fractions of the run: derate step on die 1, drift
// removed, staged swap. The swap comes after the drift: a swap's shadow check
// on the drifted die compares against that die's subsampled recheck model,
// whose predicted mismatch rate for the second design's coefficients is an
// estimate from few samples, and about one swap in 70 aborted there.
constexpr std::size_t kDriftedDie = 1;
constexpr double kDerate = 1.6;
constexpr double kDerateAt = 0.25, kClearAt = 0.5, kSwapAt = 0.65;
/// A batch picked up just before a control-plane change (drift removed,
/// design swapped) may answer after it; answers up to this long after the
/// change still count as served before it.
constexpr double kAnswerMarginS = 0.25;
/// Fleet constructions (set-up samples), each followed by a capacity drain.
constexpr std::size_t kSetups = 5;
/// Pause between constructions, so a passing slow spell of the host does
/// not set the median.
constexpr double kSetupGapMs = 150.0;

/// Loose bound on |Δ| for answers the drifted die serves while drifted:
/// the check tolerance plus, for the worst output of `design`, every
/// product erring at once by its RMS error size, √(variance / error rate),
/// in `models` at `freq_mhz`.
double drifted_error_bound(const ErrorModelMap& models,
                           const LinearProjectionDesign& design, double freq_mhz) {
  double worst = 0.0;
  for (const auto& col : design.columns) {
    const ErrorModel& model = models.at(col.config);
    double sum = 0.0;
    for (const auto& c : col.coeffs) {
      const double rate = model.error_rate(c.magnitude, freq_mhz);
      if (rate > 0.0)
        sum += std::sqrt(model.variance_value_units(c.magnitude, freq_mhz) / rate);
    }
    worst = std::max(worst, sum);
  }
  return kWrongTolerance + worst;
}

/// The bench control plane: recharacterise() one die per period, and run
/// each schedule event once its time has come. Joined by its destructor.
class ControlThread {
 public:
  struct Event {
    double at_s;
    std::function<void()> fn;
  };

  ControlThread(ProjectionFleet& fleet, double period_ms,
                std::vector<Event> events, Clock::time_point start)
      : fleet_(fleet), period_ms_(period_ms), events_(std::move(events)),
        start_(start), thread_([this] { loop(); }) {}
  ~ControlThread() { stop(); }
  ControlThread(const ControlThread&) = delete;
  ControlThread& operator=(const ControlThread&) = delete;

  void stop() {
    {
      std::lock_guard lock(mutex_);
      stopping_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  const std::vector<double>& recheck_ms() const { return recheck_ms_; }
  std::size_t events_run() const { return next_event_; }
  /// The first exception a recheck or an event threw (empty if none).
  const std::string& error() const { return error_; }

 private:
  void loop() {
    std::size_t die = 0;
    auto next = start_;
    std::unique_lock lock(mutex_);
    while (!stopping_) {
      next += std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double, std::milli>(period_ms_));
      if (cv_.wait_until(lock, next, [&] { return stopping_; })) break;
      lock.unlock();
      try {
        while (next_event_ < events_.size() &&
               seconds_since(start_) >= events_[next_event_].at_s)
          events_[next_event_++].fn();
        const auto t0 = Clock::now();
        {
          Span s("fleet.recharacterise");
          fleet_.recharacterise(die);
        }
        recheck_ms_.push_back(ms_between(t0, Clock::now()));
      } catch (const std::exception& e) {
        // Reported as a failed gate, never a crash.
        if (error_.empty()) error_ = e.what();
      }
      die = (die + 1) % fleet_.num_dies();
      lock.lock();
    }
  }

  ProjectionFleet& fleet_;
  double period_ms_;
  std::vector<Event> events_;
  Clock::time_point start_;
  std::size_t next_event_ = 0;
  std::vector<double> recheck_ms_;
  std::string error_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
  std::thread thread_;
};

}  // namespace

Result run_fleet_drift(std::uint64_t seed, double seconds) {
  const auto design_a = serve_design(kServeWl, kServeFreqMhz, 0);
  const auto design_b = serve_design(kServeWl, kServeFreqMhz, 1);

  FleetConfig cfg;
  cfg.die_seeds.assign(std::begin(kDieSeeds), std::end(kDieSeeds));
  cfg.device = reference_device_config();
  cfg.wl_x = kWlX;
  cfg.with_jitter = false;
  cfg.serve.workers = kWorkersPerDie;
  cfg.serve.queue_capacity = kQueueCapacity;
  cfg.serve.max_batch = kMaxBatch;
  cfg.serve.max_wait_ms = kMaxWaitMs;
  cfg.serve.check_fraction = kCheckFraction;
  cfg.serve.governor.window_checks = kWindowChecks;
  cfg.serve.governor.step_down_factor = kStepDownFactor;
  cfg.serve.governor.step_up_mhz = kStepUpMhz;
  cfg.serve.governor.healthy_windows_to_ramp = 2;
  cfg.recheck_samples = kRecheckSamples;
  cfg.seed = hash_mix(seed, 0xF1EE);

  Result out;
  const Device ref_device = reference_device();
  const ProjectionCircuit exact_a(design_a, ref_device,
                                  simulated_plan(design_a, cfg.char_placement),
                                  kWlX, nullptr, 1);
  const ProjectionCircuit exact_b(design_b, ref_device,
                                  simulated_plan(design_b, cfg.char_placement),
                                  kWlX, nullptr, 1);
  const auto codes = request_codes(kCodePool, hash_mix(seed, 0xC0DE));

  // Set-up samples and capacity drains. Each construction (per-die
  // characterisation and replica lowering) is timed. The paused fleet is
  // then loaded through its router, and each die in turn is resumed and
  // timed emptying its queue; the fleet's capacity is the sum of the dies'
  // rates. Draining one die at a time keeps the dies from contending for
  // the host's cores, which on the reference VM moves a concurrent drain
  // between two modes from one drain to the next. The drain requests carry
  // no schedule.
  FleetConfig drain_cfg = cfg;
  drain_cfg.serve.queue_capacity = kDrainRequests;
  drain_cfg.serve.start_paused = true;
  std::vector<double> setups, drain_rps;
  std::uint64_t drain_wrong = 0;
  for (std::size_t i = 0; i < kSetups; ++i) {
    if (i > 0)
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(kSetupGapMs));
    LoadLog drain(std::vector<double>(kDrainRequests, 0.0), design_a.dims_k());
    const auto t_setup = Clock::now();
    ProjectionFleet fleet(design_a, drain_cfg,
                          [&drain](std::size_t die, const ServeResult& r) {
                            drain.on_result(r.id, r.y, r.freq_mhz, die);
                          });
    setups.push_back(seconds_since(t_setup));
    std::uint64_t accepted = 0;
    for (std::size_t k = 0; k < kDrainRequests; ++k)
      accepted += fleet.submit({k + 1, codes[k % codes.size()], 0.0}) ? 1 : 0;
    double rate = 0.0;
    for (std::size_t d = 0; d < fleet.num_dies(); ++d) {
      ProjectionServer& server = fleet.server(d);
      const std::uint64_t queued = server.metrics_snapshot().submitted;
      const auto t0 = Clock::now();
      server.resume();
      server.wait_idle();
      rate += static_cast<double>(queued) / seconds_since(t0);
    }
    fleet.stop();

    std::uint64_t wrong = 0;
    for (double e : answer_errors(drain, codes, exact_a)) wrong += e > kWrongTolerance;
    const std::uint64_t answered = drain.answered();
    out.gate("accounting.drain" + std::to_string(i),
             accepted == kDrainRequests && answered == kDrainRequests &&
                 drain.duplicate_answers() == 0);
    drain_wrong += wrong;
    out.attempted += kDrainRequests;
    out.failed += (kDrainRequests - answered) + wrong;
    drain_rps.push_back(rate);
    out.detail["drain" + std::to_string(i) + ".rps"] = rate;
  }

  // The scheduled run, on a fleet of its own (one more set-up sample).
  Rng rng(hash_mix(seed, 0xB0B5));
  LoadLog log(onoff_arrivals(kMeanRateRps, kOnMs, kOffMs, seconds, rng),
              design_a.dims_k());
  std::mutex die_mutex;
  std::vector<std::uint64_t> served_by_die(std::size(kDieSeeds), 0);
  const auto t_setup = Clock::now();
  ProjectionFleet fleet(design_a, cfg,
                        [&](std::size_t die, const ServeResult& r) {
                          log.on_result(r.id, r.y, r.freq_mhz, die);
                          std::lock_guard lock(die_mutex);
                          ++served_by_die[die];
                        });
  setups.push_back(seconds_since(t_setup));

  FleetSwapReport swap;
  double swap_ms = 0.0;
  // When the drift and the swap began and ended, and the bound on answers
  // the drifted die serves, from its model as re-characterised under the
  // drift, at its target clock (the fastest its governor serves).
  Clock::time_point drifted_from{}, drifted_to{}, swap_from{}, swap_to{};
  double drifted_bound = kWrongTolerance;
  std::vector<ControlThread::Event> events = {
      {kDerateAt * seconds,
       [&] {
         drifted_from = Clock::now();
         fleet.set_die_drift(kDriftedDie, kDerate);
       }},
      {kClearAt * seconds,
       [&] {
         drifted_bound = drifted_error_bound(
             *fleet.die_models(kDriftedDie), design_a,
             fleet.die_status(kDriftedDie).f_target_mhz);
         drifted_to = Clock::now();
         fleet.set_die_drift(kDriftedDie, 1.0);
       }},
      {kSwapAt * seconds,
       [&] {
         swap_from = Clock::now();
         Span s("fleet.swap_design");
         swap = fleet.swap_design(design_b, SwapConfig());
         swap_to = Clock::now();
         swap_ms = ms_between(swap_from, swap_to);
       }}};

  std::vector<double> recheck_ms;
  std::string control_error;
  std::size_t events_run = 0;
  {
    ControlThread control(fleet, kRecheckPeriodMs, std::move(events), Clock::now());
    log.drive(
        [&](std::size_t i) {
          const auto slo = i % 3 == 0 ? SloClass::LatencySensitive
                                      : SloClass::BestEffort;
          return fleet.submit({i + 1, codes[i % codes.size()], 0.0}, slo);
        },
        "fleet.submit");
    fleet.wait_idle();
    control.stop();
    recheck_ms = control.recheck_ms();
    control_error = control.error();
    events_run = control.events_run();
  }
  fleet.stop();

  // Accounting per die and across the fleet.
  std::uint64_t served = 0, batches = 0, checks = 0, check_errors = 0,
                freq_changes = 0, routed_total = 0, routed_max = 0;
  double batched = 0.0;  // requests served in batches, over all dies
  std::size_t queue_peak = 0;
  bool per_die_ok = true;
  for (std::size_t d = 0; d < fleet.num_dies(); ++d) {
    const auto s = fleet.server(d).metrics_snapshot();
    per_die_ok = per_die_ok && s.submitted == s.served + s.shed_oldest +
                                                  s.shed_deadline + s.rejected_full;
    served += s.served;
    batches += s.batches;
    batched += s.mean_batch_size * static_cast<double>(s.batches);
    checks += s.checks;
    check_errors += s.check_errors;
    freq_changes += s.frequency_timeline.empty() ? 0 : s.frequency_timeline.size() - 1;
    queue_peak = std::max(queue_peak, s.queue_peak);
    const std::uint64_t routed = fleet.die_status(d).routed;
    routed_total += routed;
    routed_max = std::max(routed_max, routed);
  }

  // Wrong answers. Every die serves at a clock its own characterisation
  // found error-free, so an answer must sit within the check tolerance of
  // the exact projection, except the drifted die's while it is drifted,
  // which must sit within drifted_bound. Answers before the swap must come
  // from the first design, answers after it from the second.
  const auto err_a = answer_errors(log, codes, exact_a);
  const auto err_b = answer_errors(log, codes, exact_b);
  const auto since_start = [&](Clock::time_point t, bool happened, double otherwise) {
    return happened ? std::chrono::duration<double>(t - log.start()).count() : otherwise;
  };
  const double inf = std::numeric_limits<double>::infinity();
  const double drift_from_s = since_start(drifted_from, events_run >= 1, inf);
  const double drift_to_s = since_start(drifted_to, events_run >= 2, inf) + kAnswerMarginS;
  const double swap_from_s = since_start(swap_from, events_run >= 3, inf);
  const double swap_to_s =
      since_start(swap_to, swap.committed, inf) + kAnswerMarginS;
  std::uint64_t wrong = 0, drifted_answers = 0;
  double max_err = 0.0, max_err_drifted = 0.0;
  for (std::size_t i = 0; i < log.size(); ++i) {
    if (!log.answered(i)) continue;
    const double t = log.answered_at_s(i);
    const bool drifted =
        log.die(i) == kDriftedDie && t >= drift_from_s && t <= drift_to_s;
    const double e = t < swap_from_s  ? err_a[i]
                     : t > swap_to_s ? err_b[i]
                                     : std::min(err_a[i], err_b[i]);
    drifted_answers += drifted ? 1 : 0;
    double& worst = drifted ? max_err_drifted : max_err;
    worst = std::max(worst, e);
    wrong += e > (drifted ? drifted_bound : kWrongTolerance) ? 1 : 0;
  }

  const std::uint64_t answered = log.answered();
  out.attempted += log.size();
  out.failed += (log.size() - answered) + wrong;
  out.gate("accounting", per_die_ok && served == answered &&
                             log.duplicate_answers() == 0 &&
                             routed_total == log.accepted());
  out.gate("no_wrong_answers", wrong + drain_wrong == 0);
  out.gate("control_plane",
           control_error.empty() && events_run == 3 && swap.committed);
  if (!control_error.empty())
    std::fprintf(stderr, "perfbench: control plane threw: %s\n",
                 control_error.c_str());
  if (events_run != 3)
    std::fprintf(stderr, "perfbench: %zu of 3 schedule events ran\n", events_run);
  for (std::size_t d = 0; d < swap.dies.size(); ++d)
    if (!swap.dies[d].abort_reason.empty())
      std::fprintf(stderr, "perfbench: swap aborted on die %zu: %s\n", d,
                   swap.dies[d].abort_reason.c_str());

  // The latency percentiles are medians over fixed windows of the run, not
  // one pooled figure: a slow spell of the host moves a few windows only.
  const auto lat = log.latencies(0, log.size());
  const double window_s = kWindowMs * 1e-3;
  const auto p50_w = log.window_quantiles(0.5, window_s);
  const auto p90_w = log.window_quantiles(0.9, window_s);
  // Median of the per-window figures of the windows starting in [from, to)
  // (fractions of the run).
  const auto windows_median = [&](const std::vector<double>& w, double from,
                                  double to) {
    std::vector<double> v;
    for (std::size_t i = 0; i < w.size(); ++i) {
      const double t = static_cast<double>(i) * window_s / seconds;
      if (t >= from && t < to && !std::isnan(w[i])) v.push_back(w[i]);
    }
    return median(std::move(v));
  };
  out.e2e["setup_s"] = median(setups);
  out.e2e["p50_ms"] = windows_median(p50_w, 0.0, 1.0);
  out.e2e["ops_per_s"] = median(drain_rps);
  out.e2e["p90_ms"] = windows_median(p90_w, 0.0, 1.0);
  out.detail["p90_drift_ms"] = windows_median(p90_w, kDerateAt, kClearAt);
  out.detail["p99_ms"] = quantile(lat, 0.99);
  out.detail["answered_rps"] = log.throughput();

  out.detail["samples"] = static_cast<double>(lat.size());
  out.detail["served_freq_mhz"] = log.mean_freq_mhz();
  out.detail["swap_ms"] = swap_ms;
  out.detail["recharacterisations"] = static_cast<double>(recheck_ms.size());
  out.detail["fail_frac"] =
      static_cast<double>(out.failed) / static_cast<double>(out.attempted);
  out.detail["max_err"] = max_err;
  out.detail["max_err_drifted"] = max_err_drifted;
  out.detail["drifted_answers"] = static_cast<double>(drifted_answers);
  out.detail["drifted_error_bound"] = drifted_bound;
  for (std::size_t d = 0; d < served_by_die.size(); ++d)
    out.detail["die" + std::to_string(d) + ".served"] =
        static_cast<double>(served_by_die[d]);

  double lower = 0.0, shadow = 0.0, flip = 0.0;
  for (const auto& r : swap.dies) {
    lower += r.lower_ms;
    shadow += r.shadow_ms;
    flip += r.flip_ms;
  }
  out.layer["serve.mean_batch_size"] =
      batches ? batched / static_cast<double>(batches) : 0.0;
  out.layer["serve.queue_peak"] = static_cast<double>(queue_peak);
  out.layer["serve.submit_us_p99"] =
      Tracer::stat("fleet.submit").quantile_ns(0.99) * 1e-3;
  out.layer["serve.check_err_frac"] =
      checks ? static_cast<double>(check_errors) / static_cast<double>(checks) : 0.0;
  out.layer["serve.freq_changes"] = static_cast<double>(freq_changes);
  out.layer["router.routed_share_max"] =
      routed_total ? static_cast<double>(routed_max) / static_cast<double>(routed_total)
                   : 0.0;
  out.layer["swap.lower_ms"] = lower;
  out.layer["swap.shadow_ms"] = shadow;
  out.layer["swap.flip_ms"] = flip;
  out.layer["charlib.recharacterise_ms"] = median(recheck_ms);
  out.layer["loadgen.lag_p99_ms"] = quantile(log.lags(), 0.99);
  out.detail["loadgen.lag_p99_ms"] = out.layer["loadgen.lag_p99_ms"];

  out.gate("serve_matches_scalar",
           serve_matches_scalar(design_a, ref_device, cfg.char_placement,
                                request_codes(kVerifyRequests, hash_mix(seed, 0x7E51))));
  if (Tracer::enabled()) {
    CircuitPlan plan = simulated_plan(design_a, cfg.char_placement);
    plan.with_jitter = false;
    replay_kernels(design_a, ref_device, plan, codes, out.layer);
  }
  return out;
}

}  // namespace pb
