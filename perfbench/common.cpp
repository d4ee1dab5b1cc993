#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <thread>

#include "core/synthetic.hpp"
#include "fabric/calibration.hpp"
#include "fabric/timing_annotation.hpp"
#include "mult/bitcodec.hpp"
#include "mult/multiplier.hpp"
#include "serve/server.hpp"
#include "timing/overclock_sim.hpp"

using namespace oclp;

namespace pb {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// --- Result / statistics ---------------------------------------------------

void Result::gate(const std::string& name, bool passed) {
  gates.emplace_back(name, passed);
}

bool Result::correct() const {
  for (const auto& [name, passed] : gates)
    if (!passed) return false;
  return !gates.empty();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

// --- designs and inputs ----------------------------------------------------

LinearProjectionDesign serve_design(int wl, double freq_mhz, int variant) {
  static const double kBasis[2][3][6] = {
      {{0.40, 0.42, 0.38, 0.41, 0.39, 0.43},
       {0.52, 0.33, 0.08, -0.21, -0.45, -0.58},
       {-0.35, 0.47, 0.51, 0.12, -0.44, -0.39}},
      {{0.43, 0.39, 0.41, 0.38, 0.42, 0.40},
       {-0.58, -0.45, -0.21, 0.08, 0.33, 0.52},
       {0.39, -0.44, 0.12, 0.51, 0.47, -0.35}}};
  const MultConfig cfg{MultArch::Array, wl, 1};
  LinearProjectionDesign d;
  for (const auto& col : kBasis[variant])
    d.columns.push_back(make_column(std::vector<double>(col, col + 6), cfg));
  d.target_freq_mhz = freq_mhz;
  d.origin = variant == 0 ? "perfbench-a" : "perfbench-b";
  return d;
}

Device reference_device() {
  Device device(reference_device_config(), kReferenceDieSeed);
  device.set_temperature(kCharacterisationTempC);
  return device;
}

std::vector<std::vector<std::uint32_t>> request_codes(std::size_t n,
                                                      std::uint64_t seed) {
  SyntheticDataConfig dc;
  dc.cases = n;
  dc.seed = seed;
  const Matrix x = make_synthetic_dataset(dc);
  std::vector<std::vector<std::uint32_t>> out(n);
  std::vector<double> sample(x.rows());
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t r = 0; r < x.rows(); ++r) sample[r] = x(r, i);
    out[i] = encode_input(sample, kWlX);
  }
  return out;
}

// --- arrivals --------------------------------------------------------------

std::vector<double> poisson_arrivals(double rate, double seconds, Rng& rng) {
  std::vector<double> at;
  double t = 0.0;
  while (true) {
    t += -std::log(1.0 - rng.uniform()) / rate;
    if (t >= seconds) break;
    at.push_back(t);
  }
  return at;
}

std::vector<double> onoff_arrivals(double rate, double on_ms, double off_ms,
                                   double seconds, Rng& rng) {
  const double on_s = on_ms * 1e-3, period_s = (on_ms + off_ms) * 1e-3;
  const double on_rate = rate * period_s / on_s;
  std::vector<double> at;
  double tau = 0.0;  // time inside on windows only
  while (true) {
    tau += -std::log(1.0 - rng.uniform()) / on_rate;
    const double window = std::floor(tau / on_s);
    const double t = window * period_s + (tau - window * on_s);
    if (t >= seconds) break;
    at.push_back(t);
  }
  return at;
}

// --- LoadLog ---------------------------------------------------------------

LoadLog::LoadLog(std::vector<double> offsets_s, std::size_t dims_k)
    : offsets_(std::move(offsets_s)),
      dims_k_(dims_k),
      lag_ms_(offsets_.size(), 0.0),
      accepted_(offsets_.size(), 0),
      latency_ms_(offsets_.size(), 0.0),
      freq_mhz_(offsets_.size(), 0.0),
      y_(offsets_.size() * dims_k, 0.0),
      die_(offsets_.size(), 0),
      answers_(new std::atomic<std::uint32_t>[offsets_.size()]) {
  for (std::size_t i = 0; i < offsets_.size(); ++i) answers_[i].store(0);
}

void LoadLog::wait_until(Clock::time_point due) {
  // Sleep through long gaps; spin only the last stretch, so the generator
  // neither burns a core between sparse arrivals nor oversleeps dense ones.
  constexpr auto kSpin = std::chrono::microseconds(60);
  if (Clock::now() + kSpin < due) std::this_thread::sleep_until(due - kSpin);
  while (Clock::now() < due) std::this_thread::yield();
}

void LoadLog::on_result(std::uint64_t id, const std::vector<double>& y,
                        double freq_mhz, std::size_t die) {
  const auto now = Clock::now();
  if (id == 0 || id > offsets_.size()) return;  // counted as never answered
  const std::size_t i = id - 1;
  const auto due = start_ + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(offsets_[i]));
  if (answers_[i].load(std::memory_order_relaxed) == 0) {
    latency_ms_[i] = ms_between(due, now);
    freq_mhz_[i] = freq_mhz;
    die_[i] = static_cast<std::uint8_t>(die);
    for (std::size_t k = 0; k < dims_k_ && k < y.size(); ++k)
      y_[i * dims_k_ + k] = y[k];
    if (y.size() != dims_k_) y_[i * dims_k_] = std::nan("");
  }
  answers_[i].fetch_add(1, std::memory_order_release);
}

std::uint64_t LoadLog::accepted() const {
  return static_cast<std::uint64_t>(
      std::count(accepted_.begin(), accepted_.end(), std::uint8_t{1}));
}

std::uint64_t LoadLog::answered() const {
  std::uint64_t n = 0;
  for (std::size_t i = 0; i < offsets_.size(); ++i) n += answered(i) ? 1 : 0;
  return n;
}

std::uint64_t LoadLog::duplicate_answers() const {
  std::uint64_t n = 0;
  for (std::size_t i = 0; i < offsets_.size(); ++i) {
    const auto a = answers_[i].load(std::memory_order_acquire);
    n += a > 1 ? a - 1 : 0;
  }
  return n;
}

std::vector<double> LoadLog::latencies(std::size_t lo, std::size_t hi) const {
  std::vector<double> out;
  for (std::size_t i = lo; i < hi && i < offsets_.size(); ++i)
    if (answered(i)) out.push_back(latency_ms_[i]);
  return out;
}

std::vector<double> LoadLog::window_quantiles(double q, double window_s) const {
  std::vector<double> per_window;
  for (std::size_t lo = 0; lo < offsets_.size();) {
    const double window = std::floor(offsets_[lo] / window_s);
    const std::size_t hi = std::max<std::size_t>(
        lo + 1, static_cast<std::size_t>(
                    std::lower_bound(offsets_.begin() + lo, offsets_.end(),
                                     (window + 1.0) * window_s) -
                    offsets_.begin()));
    const auto lat = latencies(lo, hi);
    per_window.resize(static_cast<std::size_t>(window) + 1, std::nan(""));
    if (!lat.empty()) per_window.back() = quantile(lat, q);
    lo = hi;
  }
  return per_window;
}

double LoadLog::throughput() const {
  double end_s = 0.0;
  std::uint64_t n = 0;
  for (std::size_t i = 0; i < offsets_.size(); ++i)
    if (answered(i)) {
      end_s = std::max(end_s, offsets_[i] + latency_ms_[i] * 1e-3);
      ++n;
    }
  return end_s > 0.0 ? static_cast<double>(n) / end_s : 0.0;
}

double LoadLog::mean_freq_mhz() const {
  double sum = 0.0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < offsets_.size(); ++i)
    if (answered(i)) {
      sum += freq_mhz_[i];
      ++n;
    }
  return n ? sum / static_cast<double>(n) : 0.0;
}

std::vector<double> answer_errors(
    const LoadLog& log, const std::vector<std::vector<std::uint32_t>>& codes,
    const ProjectionCircuit& exact) {
  std::vector<double> err(log.size(), std::nan(""));
  for (std::size_t i = 0; i < log.size(); ++i) {
    if (!log.answered(i)) continue;
    const double* y = log.y(i);
    const auto want = exact.project_exact(codes[i % codes.size()]);
    double worst = 0.0;
    for (std::size_t k = 0; k < want.size(); ++k)
      worst = std::isfinite(y[k]) ? std::max(worst, std::fabs(y[k] - want[k]))
                                  : std::numeric_limits<double>::infinity();
    err[i] = worst;
  }
  return err;
}

// --- serving gate ----------------------------------------------------------

bool serve_matches_scalar(const LinearProjectionDesign& design,
                          const Device& device, const Placement& placement,
                          const std::vector<std::vector<std::uint32_t>>& codes) {
  CircuitPlan plan = simulated_plan(design, placement);
  plan.with_jitter = false;

  ServeConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = codes.size() + 1;
  cfg.max_batch = kMaxBatch;
  cfg.max_wait_ms = 0.0;
  cfg.check_fraction = 0.0;
  cfg.start_paused = true;  // queue everything, then serve full batches
  cfg.governor.f_target_mhz = design.target_freq_mhz;
  cfg.governor.f_floor_mhz = design.target_freq_mhz;

  std::vector<std::vector<double>> served(codes.size());
  {
    ProjectionServer server(design, device, plan, kWlX, nullptr, cfg,
                            [&](const ServeResult& r) {
                              if (r.id >= 1 && r.id <= served.size())
                                served[r.id - 1] = r.y;
                            });
    for (std::size_t i = 0; i < codes.size(); ++i)
      if (!server.submit({i + 1, codes[i], 0.0})) return false;
    server.resume();
    server.wait_idle();
    server.stop();
  }

  ProjectionCircuit scalar(design, device, plan, kWlX, nullptr, 1);
  std::vector<double> y;
  for (std::size_t i = 0; i < codes.size(); ++i) {
    scalar.project(codes[i], y);
    if (served[i].size() != y.size() ||
        std::memcmp(served[i].data(), y.data(), y.size() * sizeof(double)) != 0)
      return false;
  }
  return true;
}

// --- kernel replays --------------------------------------------------------

namespace {

/// Median over `reps` passes of `fn()`'s wall time, divided by `per`.
template <typename Fn>
double ns_per(std::size_t reps, double per, Fn&& fn) {
  return median_seconds(reps, fn) * 1e9 / per;
}

}  // namespace

void replay_kernels(const LinearProjectionDesign& design, const Device& device,
                    const CircuitPlan& plan,
                    const std::vector<std::vector<std::uint32_t>>& codes,
                    std::map<std::string, double>& layer) {
  constexpr std::size_t kSamples = 4096, kReps = 5;
  std::vector<const std::vector<std::uint32_t>*> all(kSamples);
  for (std::size_t i = 0; i < kSamples; ++i) all[i] = &codes[i % codes.size()];

  std::vector<const std::vector<std::uint32_t>*> batch;
  std::vector<std::vector<double>> ys;
  for (std::size_t b : {std::size_t{1}, std::size_t{16}, std::size_t{64}}) {
    ProjectionCircuit circuit(design, device, plan, kWlX, nullptr, 42);
    layer["core.project_batch_ns.b" + std::to_string(b)] =
        ns_per(kReps, kSamples, [&] {
          for (std::size_t s0 = 0; s0 < kSamples; s0 += b) {
            batch.assign(all.begin() + s0, all.begin() + s0 + b);
            Span s("core.project_batch");
            circuit.project_batch(batch, ys);
          }
        });
  }
  {
    ProjectionCircuit circuit(design, device, plan, kWlX, nullptr, 42);
    layer["core.project_settled_ns"] = ns_per(kReps, kSamples, [&] {
      for (std::size_t s0 = 0; s0 < kSamples; s0 += 64) {
        batch.assign(all.begin() + s0, all.begin() + s0 + 64);
        Span s("core.project_settled");
        circuit.project_settled(batch, ys);
      }
    });
  }

  // One calibrated 8×8 multiplier streaming jittered-period captures.
  constexpr int kWl = 8;
  constexpr std::size_t kStream = 32768;
  Netlist nl = make_multiplier(kWl, kWl);
  auto delays = annotate_timing(nl, device, Placement{0, 30, 3});
  OverclockSim sim(std::move(nl), std::move(delays), TimingMode::IntegerExact);
  const std::size_t ni = sim.netlist().num_inputs();
  Rng rng(0x5E77);
  std::vector<std::uint8_t> flat(kStream * ni);
  for (std::size_t s = 0; s < kStream; ++s) {
    auto row = to_bits(rng.uniform_u64(1u << kWl), kWl);
    append_bits(row, rng.uniform_u64(1u << kWl), kWl);
    std::copy(row.begin(), row.end(), flat.begin() + s * ni);
  }
  const std::vector<std::uint8_t> zero(ni, 0);
  OverclockSim::State st;
  OverclockSim::SweepStream stream;
  layer["timing.run_stream_ns"] = ns_per(kReps, kStream, [&] {
    sim.reset(st, zero);
    Span s("timing.run_stream");
    sim.run_stream(st, flat.data(), kStream, stream);
  });
}

double peak_rss_mb() {
  std::ifstream is("/proc/self/status");
  std::string line;
  while (std::getline(is, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  return 0.0;
}

}  // namespace pb
