// serve_steady: one ProjectionServer under open-loop Poisson load over a
// fixed ladder of absolute rates. Each rung gets a fixed share of the run
// and a freshly constructed server; that construction, with the rung's
// request data, is one set-up sample, so the samples spread over the run.
// Capacity is measured apart from the ladder, whose top rate one generator
// thread bounds: capacity drains time a paused one-replica server emptying
// a full queue.
#include <algorithm>
#include <string>

#include "fabric/calibration.hpp"
#include "serve/server.hpp"
#include "workloads.hpp"

using namespace oclp;

namespace pb {

namespace {

constexpr std::size_t kWorkers = 2;
constexpr double kFloorMhz = 160.0;

/// The ladder in run order: rate (req/s) and share of the run. The nominal
/// rate repeats so its latency is a median over fresh servers.
struct RungSpec {
  double rate, share;
};
constexpr RungSpec kLadder[] = {{16000, 2}, {500, 3},   {16000, 2},
                                {4000, 2},  {16000, 2}, {64000, 2},
                                {16000, 2}, {128000, 2}};
constexpr double kNominalRate = 16000;
/// A rung passes when p90 and the backlog's median stay under this.
constexpr double kP90LimitMs = 1.0;

struct Rung {
  double rate = 0.0;
  std::size_t sent = 0, answered = 0, failed = 0;
  double p50_ms = 0.0, p90_ms = 0.0, p99_ms = 0.0, tail_p50_ms = 0.0;
  double freq_mhz = 0.0, throughput = 0.0;
  bool passed = false;
  ServeMetrics::Snapshot snap;
};

std::string rung_key(std::size_t index, double rate, const char* what) {
  return "rung" + std::to_string(index) + "." +
         std::to_string(static_cast<long long>(rate)) + "." + what;
}

}  // namespace

Result run_serve_steady(std::uint64_t seed, double seconds) {
  const auto design = serve_design(kServeWl, kServeFreqMhz);
  const Device device = reference_device();
  CircuitPlan plan = simulated_plan(design, reference_location_1());
  plan.with_jitter = true;

  ServeConfig cfg;
  cfg.workers = kWorkers;
  cfg.queue_capacity = kQueueCapacity;
  cfg.max_batch = kMaxBatch;
  cfg.max_wait_ms = kMaxWaitMs;
  cfg.check_fraction = kCheckFraction;
  cfg.governor.f_target_mhz = kServeFreqMhz;
  cfg.governor.f_floor_mhz = kFloorMhz;
  cfg.seed = hash_mix(seed, 0x5E7E);

  Result out;
  ProjectionCircuit reference(design, device, plan, kWlX, nullptr, 1);
  std::vector<double> setups, lags;
  std::vector<Rung> rungs;
  std::uint64_t checks = 0, check_errors = 0, freq_changes = 0, wrong = 0;
  std::vector<std::vector<std::uint32_t>> codes;
  double share_sum = 0.0;
  for (const auto& spec : kLadder) share_sum += spec.share;
  // A request further than this from the exact projection is wrong.
  const auto count_wrong = [&](const LoadLog& log) {
    std::uint64_t n = 0;
    for (double e : answer_errors(log, codes, reference))
      n += e > kWrongTolerance ? 1 : 0;
    return n;
  };

  // Capacity drains: a paused server is loaded with a full queue, then
  // resumed; the answered requests over the time to drain them is the rate
  // it sustains with every batch full. The server has one replica: two
  // busy workers share the host's cores in modes that come and go (on the
  // reference VM one drain reads 1.6× one worker, the next 1.1×), while
  // one worker's rate holds. The requests carry no schedule, so the log's
  // latencies are not used. One drain follows each rung, so the samples
  // spread over the run; a drain server's construction is no set-up sample
  // (it lowers one replica, a rung's server two).
  std::vector<double> drain_rps;
  const auto drain = [&](std::size_t d) {
    LoadLog log(std::vector<double>(kDrainRequests, 0.0), design.dims_k());
    ServeConfig dcfg = cfg;
    dcfg.queue_capacity = kDrainRequests;
    dcfg.workers = 1;
    dcfg.start_paused = true;
    codes = request_codes(kCodePool, hash_mix(seed, d, 0xD7A1));
    ProjectionServer server(
        design, device, plan, kWlX, nullptr, dcfg,
        [&log](const ServeResult& res) { log.on_result(res.id, res.y, res.freq_mhz); });
    for (std::size_t i = 0; i < kDrainRequests; ++i)
      server.submit({i + 1, codes[i % codes.size()], 0.0});
    const auto t0 = Clock::now();
    server.resume();
    server.wait_idle();
    const double drain_s = seconds_since(t0);
    server.stop();

    const auto s = server.metrics_snapshot();
    const std::uint64_t drain_wrong = count_wrong(log);
    const std::uint64_t answered = log.answered();
    out.gate("accounting.drain" + std::to_string(d),
             s.submitted == kDrainRequests && s.served == kDrainRequests &&
                 answered == kDrainRequests && log.duplicate_answers() == 0);
    wrong += drain_wrong;
    out.attempted += kDrainRequests;
    out.failed += (kDrainRequests - answered) + drain_wrong;
    drain_rps.push_back(static_cast<double>(answered) / drain_s);
    out.detail["drain" + std::to_string(d) + ".mean_batch"] = s.mean_batch_size;
    out.detail["drain" + std::to_string(d) + ".rps"] = drain_rps.back();
  };

  for (std::size_t r = 0; r < std::size(kLadder); ++r) {
    const double rate = kLadder[r].rate;
    Rng rng(hash_mix(seed, r, 0xA771));
    LoadLog log(poisson_arrivals(rate, seconds * kLadder[r].share / share_sum, rng),
                design.dims_k());
    const auto t_setup = Clock::now();
    codes = request_codes(kCodePool, hash_mix(seed, r, 0xC0DE));
    ProjectionServer server(
        design, device, plan, kWlX, nullptr, cfg,
        [&log](const ServeResult& res) { log.on_result(res.id, res.y, res.freq_mhz); });
    setups.push_back(seconds_since(t_setup));

    log.drive(
        [&](std::size_t i) {
          return server.submit({i + 1, codes[i % codes.size()], 0.0});
        },
        "serve.submit");
    server.wait_idle();
    server.stop();

    Rung rung;
    rung.rate = rate;
    rung.snap = server.metrics_snapshot();
    rung.sent = log.size();
    rung.answered = log.answered();
    rung.freq_mhz = log.mean_freq_mhz();
    rung.throughput = log.throughput();
    const std::uint64_t rung_wrong = count_wrong(log);
    wrong += rung_wrong;
    rung.failed = rung.sent - rung.answered + rung_wrong;
    const auto lat = log.latencies(0, log.size());
    rung.p50_ms = quantile(lat, 0.5);
    rung.p90_ms = quantile(lat, 0.9);
    rung.p99_ms = quantile(lat, 0.99);
    // Backlog: the last tenth of the sends must not queue up behind the
    // rest — their median stays under the latency limit.
    rung.tail_p50_ms = median(log.latencies(log.size() - log.size() / 10, log.size()));
    rung.passed = rung.failed == 0 && rung.p90_ms <= kP90LimitMs &&
                  rung.tail_p50_ms <= kP90LimitMs;

    // Every request reaches exactly one terminal state the bench can see.
    const auto& s = rung.snap;
    out.gate("accounting." + std::to_string(r),
             s.submitted == rung.sent &&
                 s.submitted == s.served + s.shed_oldest + s.shed_deadline +
                                    s.rejected_full &&
                 s.served == rung.answered && log.duplicate_answers() == 0);
    out.attempted += rung.sent;
    out.failed += rung.failed;
    checks += s.checks;
    check_errors += s.check_errors;
    freq_changes += s.frequency_timeline.empty() ? 0 : s.frequency_timeline.size() - 1;
    const auto l = log.lags();
    lags.insert(lags.end(), l.begin(), l.end());

    out.detail[rung_key(r, rate, "p50_ms")] = rung.p50_ms;
    out.detail[rung_key(r, rate, "p90_ms")] = rung.p90_ms;
    out.detail[rung_key(r, rate, "p99_ms")] = rung.p99_ms;
    out.detail[rung_key(r, rate, "samples")] = static_cast<double>(lat.size());
    out.detail[rung_key(r, rate, "mean_batch")] = s.mean_batch_size;
    out.detail[rung_key(r, rate, "passed")] = rung.passed ? 1.0 : 0.0;
    rungs.push_back(std::move(rung));
    drain(r);
  }

  out.gate("no_wrong_answers", wrong == 0);

  // The nominal rate repeats on the ladder: each repeat is a fresh server,
  // and the reported latency is the median over the repeats.
  std::vector<double> nominal_p50, nominal_p90, nominal_p99, nominal_freq;
  double max_rate = 0.0;
  for (const auto& g : rungs) {
    if (g.passed) max_rate = std::max(max_rate, g.rate);
    if (g.rate != kNominalRate) continue;
    nominal_p50.push_back(g.p50_ms);
    nominal_p90.push_back(g.p90_ms);
    nominal_p99.push_back(g.p99_ms);
    nominal_freq.push_back(g.freq_mhz);
  }
  OCLP_CHECK_MSG(!nominal_p50.empty(), "nominal rate is not a ladder rung");

  out.e2e["setup_s"] = median(setups);
  out.e2e["p50_ms"] = median(nominal_p50);
  out.e2e["p90_ms"] = median(nominal_p90);
  out.detail["p99_ms"] = median(nominal_p99);
  out.e2e["ops_per_s"] = median(drain_rps);
  out.detail["top_rung_answered_rps"] = rungs.back().throughput;
  out.detail["max_rate_rps"] = max_rate;
  out.detail["fail_frac"] =
      static_cast<double>(out.failed) / static_cast<double>(out.attempted);
  out.detail["served_freq_mhz"] = median(nominal_freq);
  out.detail["wrong_answers"] = static_cast<double>(wrong);

  const Rung& top = rungs.back();
  out.layer["serve.mean_batch_size"] = top.snap.mean_batch_size;
  out.layer["serve.queue_peak"] = static_cast<double>(top.snap.queue_peak);
  out.layer["serve.submit_us_p99"] = Tracer::stat("serve.submit").quantile_ns(0.99) * 1e-3;
  out.layer["serve.check_err_frac"] =
      checks ? static_cast<double>(check_errors) / static_cast<double>(checks) : 0.0;
  out.layer["serve.freq_changes"] = static_cast<double>(freq_changes);
  out.layer["loadgen.lag_p99_ms"] = quantile(lags, 0.99);
  out.detail["loadgen.lag_p99_ms"] = out.layer["loadgen.lag_p99_ms"];

  // Serving gate on the same design, then the kernel replays (traced runs).
  out.gate("serve_matches_scalar",
           serve_matches_scalar(design, device, reference_location_1(),
                                request_codes(kVerifyRequests,
                                              hash_mix(seed, 0x7E51))));
  if (Tracer::enabled()) replay_kernels(design, device, plan, codes, out.layer);
  return out;
}

}  // namespace pb
