#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <mutex>
#include <thread>
#include <vector>

#include "charlib/sweep.hpp"
#include "common/rng.hpp"
#include "fabric/calibration.hpp"

namespace oclp {
namespace {

constexpr int kWlX = 8;

// P=4, K=2, wl=8 with near-maximal magnitudes: the deepest carry chains of
// the multiplier port, the coefficients that miss timing first.
LinearProjectionDesign serve_design(double freq_mhz) {
  const MultConfig cfg{MultArch::Array, 8, 1};
  LinearProjectionDesign d;
  d.columns.push_back(make_column(
      {255.0 / 256, -239.0 / 256, 251.0 / 256, -223.0 / 256}, cfg));
  d.columns.push_back(make_column(
      {-247.0 / 256, 233.0 / 256, 253.0 / 256, 227.0 / 256}, cfg));
  d.target_freq_mhz = freq_mhz;
  d.origin = "serve-test";
  return d;
}

Device make_device() {
  Device device(reference_device_config(), kReferenceDieSeed);
  device.set_temperature(kCharacterisationTempC);
  return device;
}

CircuitPlan deterministic_plan(const LinearProjectionDesign& d) {
  auto plan = simulated_plan(d, reference_location_1());
  plan.with_jitter = false;  // served outputs depend only on request order
  return plan;
}

std::vector<std::uint32_t> random_codes(Rng& rng, std::size_t p) {
  std::vector<std::uint32_t> codes(p);
  for (auto& c : codes)
    c = static_cast<std::uint32_t>(rng.uniform_u64(1u << kWlX));
  return codes;
}

/// Characterised fB / fC of the wl=8 × wl_x=8 multiplier at the plan's
/// placement — probed once, the anchors every frequency constant in the
/// governor tests derives from (exactly how a deployment would pick them).
const OperatingRegimes& probed_regimes() {
  static const OperatingRegimes regimes = [] {
    const Device device = make_device();
    std::vector<double> freqs;
    for (double f = 120.0; f <= 540.0; f += 20.0) freqs.push_back(f);
    const auto curve = error_rate_curve(device, 8, kWlX,
                                        reference_location_1(), freqs, 400, 99);
    return find_regimes(curve);
  }();
  return regimes;
}

/// Thread-safe capture of every served result.
struct ResultLog {
  std::mutex mutex;
  std::vector<ServeResult> results;
  ProjectionServer::ResultCallback callback() {
    return [this](const ServeResult& r) {
      std::lock_guard lock(mutex);
      results.push_back(r);
    };
  }
};

TEST(ProjectionServer, ServesExactResultsAtSafeClock) {
  const auto design = serve_design(100.0);
  const Device device = make_device();
  const auto plan = deterministic_plan(design);

  ServeConfig cfg;
  cfg.workers = 2;
  cfg.max_batch = 4;
  cfg.max_wait_ms = 0.0;
  cfg.check_fraction = 0.0;
  cfg.governor.f_target_mhz = 100.0;  // far below any timing limit
  cfg.governor.f_floor_mhz = 100.0;

  ResultLog log;
  ProjectionServer server(design, device, plan, kWlX, nullptr, cfg,
                          log.callback());
  ProjectionCircuit reference(design, device, plan, kWlX, nullptr, 1);

  Rng rng(42);
  std::vector<std::vector<std::uint32_t>> codes_by_id(21);
  for (std::uint64_t id = 1; id <= 20; ++id) {
    codes_by_id[id] = random_codes(rng, 4);
    EXPECT_TRUE(server.submit({id, codes_by_id[id], 0.0}));
  }
  server.wait_idle();

  std::lock_guard lock(log.mutex);
  ASSERT_EQ(log.results.size(), 20u);
  std::vector<bool> seen(21, false);
  for (const auto& r : log.results) {
    ASSERT_GE(r.id, 1u);
    ASSERT_LE(r.id, 20u);
    EXPECT_FALSE(seen[r.id]);
    seen[r.id] = true;
    EXPECT_DOUBLE_EQ(r.freq_mhz, 100.0);
    EXPECT_FALSE(r.checked);
    const auto exact = reference.project_exact(codes_by_id[r.id]);
    ASSERT_EQ(r.y.size(), exact.size());
    for (std::size_t k = 0; k < exact.size(); ++k)
      EXPECT_NEAR(r.y[k], exact[k], 1e-12);
  }
}

// Far below the multipliers' critical path every batched multiplier
// stream is slack-gated, and the snapshot says so.
TEST(ProjectionServer, SafeClockRunsEveryStreamGated) {
  const auto design = serve_design(100.0);
  const Device device = make_device();
  const auto plan = deterministic_plan(design);

  ServeConfig cfg;
  cfg.workers = 1;
  cfg.max_batch = 16;
  cfg.max_wait_ms = 0.0;
  cfg.check_fraction = 0.5;
  cfg.start_paused = true;  // full batches: no single-sample scalar detour
  cfg.governor.f_target_mhz = 100.0;
  cfg.governor.f_floor_mhz = 100.0;

  ProjectionServer server(design, device, plan, kWlX, nullptr, cfg, nullptr);
  Rng rng(9);
  for (std::uint64_t id = 1; id <= 64; ++id)
    ASSERT_TRUE(server.submit({id, random_codes(rng, 4), 0.0}));
  server.resume();
  server.wait_idle();

  const auto snap = server.metrics_snapshot();
  EXPECT_EQ(snap.served, 64u);
  EXPECT_EQ(snap.check_errors, 0u);
  EXPECT_GT(snap.checks, 0u);
  EXPECT_GT(snap.streams_gated, 0u);
  EXPECT_EQ(snap.streams_gated % 8, 0u);  // K·P = 8 streams per segment
  EXPECT_EQ(snap.streams_full, 0u);
  EXPECT_DOUBLE_EQ(snap.gated_share(), 1.0);
}

TEST(ProjectionServer, SubmitValidatesRequestShape) {
  const auto design = serve_design(100.0);
  const Device device = make_device();
  const auto plan = deterministic_plan(design);
  ServeConfig cfg;
  cfg.workers = 1;
  cfg.governor.f_target_mhz = 100.0;
  cfg.governor.f_floor_mhz = 100.0;
  ProjectionServer server(design, device, plan, kWlX, nullptr, cfg, nullptr);
  EXPECT_THROW(server.submit({1, {1, 2, 3}, 0.0}), CheckError);  // P=4
  EXPECT_THROW(server.submit({2, {1, 2, 3, 256}, 0.0}), CheckError);  // 2^wl_x
  EXPECT_TRUE(server.submit({3, {1, 2, 3, 255}, 0.0}));
  server.wait_idle();
}

TEST(ProjectionServer, RejectNewestBouncesWhenQueueFull) {
  const auto design = serve_design(100.0);
  const Device device = make_device();
  const auto plan = deterministic_plan(design);
  ServeConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 2;
  cfg.overload = OverloadPolicy::RejectNewest;
  cfg.check_fraction = 0.0;
  cfg.start_paused = true;
  cfg.governor.f_target_mhz = 100.0;
  cfg.governor.f_floor_mhz = 100.0;

  ResultLog log;
  ProjectionServer server(design, device, plan, kWlX, nullptr, cfg,
                          log.callback());
  EXPECT_TRUE(server.submit({1, {1, 2, 3, 4}, 0.0}));
  EXPECT_TRUE(server.submit({2, {5, 6, 7, 8}, 0.0}));
  EXPECT_FALSE(server.submit({3, {9, 10, 11, 12}, 0.0}));  // bounced
  server.resume();
  server.wait_idle();

  const auto snap = server.metrics_snapshot();
  EXPECT_EQ(snap.submitted, 3u);
  EXPECT_EQ(snap.rejected_full, 1u);
  EXPECT_EQ(snap.served, 2u);
  EXPECT_EQ(snap.queue_peak, 2u);
  std::lock_guard lock(log.mutex);
  ASSERT_EQ(log.results.size(), 2u);
  for (const auto& r : log.results) EXPECT_NE(r.id, 3u);
}

TEST(ProjectionServer, ShedOldestKeepsTheFreshestRequests) {
  const auto design = serve_design(100.0);
  const Device device = make_device();
  const auto plan = deterministic_plan(design);
  ServeConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 2;
  cfg.overload = OverloadPolicy::ShedOldest;
  cfg.check_fraction = 0.0;
  cfg.start_paused = true;
  cfg.governor.f_target_mhz = 100.0;
  cfg.governor.f_floor_mhz = 100.0;

  ResultLog log;
  ProjectionServer server(design, device, plan, kWlX, nullptr, cfg,
                          log.callback());
  EXPECT_TRUE(server.submit({1, {1, 2, 3, 4}, 0.0}));
  EXPECT_TRUE(server.submit({2, {5, 6, 7, 8}, 0.0}));
  EXPECT_TRUE(server.submit({3, {9, 10, 11, 12}, 0.0}));  // evicts id 1
  server.resume();
  server.wait_idle();

  const auto snap = server.metrics_snapshot();
  EXPECT_EQ(snap.shed_oldest, 1u);
  EXPECT_EQ(snap.served, 2u);
  std::lock_guard lock(log.mutex);
  ASSERT_EQ(log.results.size(), 2u);
  for (const auto& r : log.results) EXPECT_NE(r.id, 1u);
}

// submit() copies the codes into the server's FIFO: the caller may reuse,
// overwrite or free its request the moment the call returns, and every
// answer is still its own codes' projection.
TEST(ProjectionServer, SubmitCopiesTheCodesAtTheDoor) {
  const auto design = serve_design(100.0);
  const Device device = make_device();
  const auto plan = deterministic_plan(design);
  ServeConfig cfg;
  cfg.workers = 1;
  cfg.max_batch = 4;
  cfg.check_fraction = 0.5;
  cfg.start_paused = true;
  cfg.governor.f_target_mhz = 100.0;
  cfg.governor.f_floor_mhz = 100.0;

  ResultLog log;
  ProjectionServer server(design, device, plan, kWlX, nullptr, cfg,
                          log.callback());
  const ProjectionCircuit reference(design, device, plan, kWlX, nullptr, 1);
  Rng rng(23);
  std::vector<std::vector<std::uint32_t>> codes_by_id(13);
  ServeRequest req;  // one request object, reused for every submit
  for (std::uint64_t id = 1; id <= 12; ++id) {
    codes_by_id[id] = random_codes(rng, 4);
    req.id = id;
    req.x_codes = codes_by_id[id];
    ASSERT_TRUE(server.submit(req));
    if (id % 2 == 0) {
      req.x_codes.assign(4, 255);
    } else {
      req.x_codes.clear();
      req.x_codes.shrink_to_fit();
    }
  }
  server.resume();
  server.wait_idle();

  const auto snap = server.metrics_snapshot();
  EXPECT_EQ(snap.check_errors, 0u);
  std::lock_guard lock(log.mutex);
  ASSERT_EQ(log.results.size(), 12u);
  for (const auto& r : log.results)
    EXPECT_EQ(r.y, reference.project_exact(codes_by_id[r.id])) << "id " << r.id;
}

// The code FIFO moves in step with the queue: when ShedOldest evicts, when
// RejectNewest bounces, when deadline sheds at pickup compact a batch, and
// while the FIFO grows over many blocks, every served answer — and every
// check's reference — is its own request's codes.
TEST(ProjectionServer, CodeFifoStaysAlignedUnderOverload) {
  const auto design = serve_design(100.0);
  const Device device = make_device();
  const auto plan = deterministic_plan(design);
  const ProjectionCircuit reference(design, device, plan, kWlX, nullptr, 1);
  for (const OverloadPolicy policy :
       {OverloadPolicy::ShedOldest, OverloadPolicy::RejectNewest})
    for (const std::size_t capacity : {std::size_t{3}, std::size_t{2000}}) {
      ServeConfig cfg;
      cfg.workers = 1;
      cfg.queue_capacity = capacity;
      cfg.overload = policy;
      cfg.max_batch = 16;
      cfg.max_wait_ms = 0.0;
      cfg.check_fraction = 0.5;
      cfg.start_paused = true;
      cfg.governor.f_target_mhz = 100.0;
      cfg.governor.f_floor_mhz = 100.0;

      ResultLog log;
      ProjectionServer server(design, device, plan, kWlX, nullptr, cfg,
                              log.callback());
      const std::size_t sent = capacity + 37;
      Rng rng(capacity);
      std::vector<std::vector<std::uint32_t>> codes(sent + 1);
      std::size_t accepted = 0;
      for (std::uint64_t id = 1; id <= sent; ++id) {
        codes[id] = random_codes(rng, 4);
        // Every third request lapses before pickup.
        accepted += server.submit({id, codes[id], id % 3 == 0 ? 0.001 : 0.0});
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      server.resume();
      server.wait_idle();

      const auto snap = server.metrics_snapshot();
      EXPECT_EQ(accepted, policy == OverloadPolicy::ShedOldest ? sent : capacity);
      EXPECT_EQ(snap.served + snap.shed_deadline, capacity);
      EXPECT_EQ(snap.check_errors, 0u);
      std::lock_guard lock(log.mutex);
      EXPECT_EQ(log.results.size(), snap.served);
      for (const auto& r : log.results) {
        EXPECT_NE(r.id % 3, 0u);
        // ShedOldest keeps the newest `capacity`, RejectNewest the oldest.
        if (policy == OverloadPolicy::ShedOldest) {
          EXPECT_GT(r.id, sent - capacity);
        } else {
          EXPECT_LE(r.id, capacity);
        }
        ASSERT_EQ(r.y, reference.project_exact(codes[r.id]))
            << "capacity " << capacity << " id " << r.id;
      }
    }
}

TEST(ProjectionServer, ExpiredDeadlinesAreShedAtPickup) {
  const auto design = serve_design(100.0);
  const Device device = make_device();
  const auto plan = deterministic_plan(design);
  ServeConfig cfg;
  cfg.workers = 1;
  cfg.check_fraction = 0.0;
  cfg.start_paused = true;
  cfg.governor.f_target_mhz = 100.0;
  cfg.governor.f_floor_mhz = 100.0;

  ResultLog log;
  ProjectionServer server(design, device, plan, kWlX, nullptr, cfg,
                          log.callback());
  EXPECT_TRUE(server.submit({1, {1, 2, 3, 4}, /*deadline_ms=*/0.001}));
  EXPECT_TRUE(server.submit({2, {5, 6, 7, 8}, /*deadline_ms=*/0.0}));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  server.resume();
  server.wait_idle();

  const auto snap = server.metrics_snapshot();
  EXPECT_EQ(snap.shed_deadline, 1u);
  EXPECT_EQ(snap.served, 1u);
  std::lock_guard lock(log.mutex);
  ASSERT_EQ(log.results.size(), 1u);
  EXPECT_EQ(log.results.front().id, 2u);
}

TEST(ProjectionServer, DeadlineBatchJudgedAtOnePickupInstant) {
  // The shed loop must judge every request of a batch against a single
  // pickup timestamp. With per-request clock reads, whether a request
  // survived could depend on how long its batch-mates' checks took; with
  // one instant, identical (enqueue time, deadline) requests in one batch
  // always share a verdict.
  const auto design = serve_design(100.0);
  const Device device = make_device();
  const auto plan = deterministic_plan(design);
  ServeConfig cfg;
  cfg.workers = 1;
  cfg.max_batch = 16;  // everything below lands in one batch
  cfg.check_fraction = 0.0;
  cfg.start_paused = true;
  cfg.governor.f_target_mhz = 100.0;
  cfg.governor.f_floor_mhz = 100.0;

  ResultLog log;
  ProjectionServer server(design, device, plan, kWlX, nullptr, cfg,
                          log.callback());
  // Interleave lapsed-deadline and deadline-free requests so a drifting
  // judgement instant would have to cross several shed decisions.
  for (std::uint64_t id = 1; id <= 12; ++id)
    EXPECT_TRUE(server.submit(
        {id, {1, 2, 3, 4}, /*deadline_ms=*/id % 2 == 1 ? 0.001 : 0.0}));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  server.resume();
  server.wait_idle();

  const auto snap = server.metrics_snapshot();
  EXPECT_EQ(snap.batches, 1u);
  EXPECT_EQ(snap.shed_deadline, 6u);
  EXPECT_EQ(snap.served, 6u);
  std::lock_guard lock(log.mutex);
  ASSERT_EQ(log.results.size(), 6u);
  for (const auto& r : log.results) EXPECT_EQ(r.id % 2, 0u);
}

TEST(ProjectionServer, SwapErrorModelsAppliesAtNextBatch) {
  const auto design = serve_design(100.0);
  const Device device = make_device();
  const auto plan = deterministic_plan(design);
  ServeConfig cfg;
  cfg.workers = 1;
  cfg.max_batch = 4;
  cfg.max_wait_ms = 0.0;
  cfg.check_fraction = 0.0;
  cfg.governor.f_target_mhz = 100.0;  // safe clock: served value is exact
  cfg.governor.f_floor_mhz = 100.0;

  ResultLog log;
  ProjectionServer server(design, device, plan, kWlX, nullptr, cfg,
                          log.callback());
  const std::vector<std::uint32_t> codes{9, 20, 7, 255};
  EXPECT_TRUE(server.submit({1, codes, 0.0}));
  server.wait_idle();

  // A re-characterised model with a recognisable mean error per code: the
  // circuit must subtract Σ_p sign·mean(mag)/2^(wl+wl_x) from the next
  // batch on.
  const MultConfig mcfg{MultArch::Array, 8, 1};
  ErrorModel em(mcfg, kWlX, {100.0});
  for (std::uint32_t m = 0; m < em.num_multiplicands(); ++m)
    em.set(m, 0, 0.0, static_cast<double>(m), 0.0);
  SharedErrorModels shared;
  shared.store({{mcfg, em}});
  server.swap_error_models(shared.load());

  EXPECT_TRUE(server.submit({2, codes, 0.0}));
  server.wait_idle();

  std::vector<double> correction(design.dims_k(), 0.0);
  const double scale = std::ldexp(1.0, 8 + kWlX);
  for (std::size_t k = 0; k < design.columns.size(); ++k)
    for (const auto& c : design.columns[k].coeffs)
      correction[k] += c.sign * static_cast<double>(c.magnitude) / scale;

  std::lock_guard lock(log.mutex);
  ASSERT_EQ(log.results.size(), 2u);
  const auto& before = log.results[0];
  const auto& after = log.results[1];
  ASSERT_EQ(before.id, 1u);
  ASSERT_EQ(after.id, 2u);
  for (std::size_t k = 0; k < correction.size(); ++k)
    EXPECT_NEAR(after.y[k], before.y[k] - correction[k], 1e-12);
}

TEST(ProjectionServer, QueueDepthGaugeTracksPausedQueue) {
  const auto design = serve_design(100.0);
  const Device device = make_device();
  const auto plan = deterministic_plan(design);
  ServeConfig cfg;
  cfg.workers = 1;
  cfg.start_paused = true;
  cfg.governor.f_target_mhz = 100.0;
  cfg.governor.f_floor_mhz = 100.0;
  ProjectionServer server(design, device, plan, kWlX, nullptr, cfg, nullptr);
  EXPECT_EQ(server.queue_depth(), 0u);
  for (std::uint64_t id = 1; id <= 5; ++id)
    server.submit({id, {1, 2, 3, 4}, 0.0});
  EXPECT_EQ(server.queue_depth(), 5u);
  server.resume();
  server.wait_idle();
  EXPECT_EQ(server.queue_depth(), 0u);
}

TEST(ProjectionServer, StoppedServerRefusesSubmissions) {
  const auto design = serve_design(100.0);
  const Device device = make_device();
  const auto plan = deterministic_plan(design);
  ServeConfig cfg;
  cfg.workers = 1;
  cfg.governor.f_target_mhz = 100.0;
  cfg.governor.f_floor_mhz = 100.0;
  ProjectionServer server(design, device, plan, kWlX, nullptr, cfg, nullptr);
  server.stop();
  EXPECT_FALSE(server.submit({1, {1, 2, 3, 4}, 0.0}));
}

// Workers count their batches done without the queue lock, taking it only
// to wake wait_idle() at zero. Under four workers, with one batch per
// request and with full batches: wait_idle() returns only once every
// callback has run, and stop() straight after a burst serves all of it.
TEST(ProjectionServer, BatchCompletionOffTheQueueLockLosesNoRequest) {
  const auto design = serve_design(100.0);
  const Device device = make_device();
  const auto plan = deterministic_plan(design);
  constexpr std::uint64_t kRequests = 10000;
  Rng rng(31);
  std::vector<std::vector<std::uint32_t>> codes(kRequests);
  for (auto& c : codes) c = random_codes(rng, 4);

  for (const std::size_t max_batch : {std::size_t{1}, std::size_t{64}}) {
    ServeConfig cfg;
    cfg.workers = 4;
    cfg.queue_capacity = kRequests;  // nothing rejected
    cfg.max_batch = max_batch;
    cfg.max_wait_ms = 0.0;
    cfg.governor.f_target_mhz = 100.0;
    cfg.governor.f_floor_mhz = 100.0;
    for (int rep = 0; rep < 3; ++rep) {
      for (const bool via_stop : {false, true}) {
        std::atomic<std::uint64_t> callbacks{0};
        ProjectionServer server(
            design, device, plan, kWlX, nullptr, cfg,
            [&](const ServeResult&) {
              // A callback that takes a while widens the window in which
              // a count lowered too early would let wait_idle() return.
              std::this_thread::yield();
              callbacks.fetch_add(1, std::memory_order_relaxed);
            });
        for (std::uint64_t id = 1; id <= kRequests; ++id)
          ASSERT_TRUE(server.submit({id, codes[id - 1], 0.0}));
        if (via_stop)
          server.stop();
        else
          server.wait_idle();
        const std::uint64_t at_return = callbacks.load();
        const auto snap = server.metrics_snapshot();
        EXPECT_EQ(snap.submitted, kRequests);
        EXPECT_EQ(at_return, snap.submitted)
            << "max_batch " << max_batch << (via_stop ? " stop" : " wait_idle");
        EXPECT_EQ(snap.served, snap.submitted);
      }
    }
  }
}

TEST(ProjectionServer, CheckFractionSamplesASubset) {
  const auto design = serve_design(100.0);
  const Device device = make_device();
  const auto plan = deterministic_plan(design);
  ServeConfig cfg;
  cfg.workers = 1;
  cfg.check_fraction = 0.5;
  cfg.governor.f_target_mhz = 100.0;
  cfg.governor.f_floor_mhz = 100.0;
  ProjectionServer server(design, device, plan, kWlX, nullptr, cfg, nullptr);
  Rng rng(7);
  for (std::uint64_t id = 1; id <= 40; ++id)
    server.submit({id, random_codes(rng, 4), 0.0});
  server.wait_idle();
  const auto snap = server.metrics_snapshot();
  EXPECT_EQ(snap.served, 40u);
  EXPECT_GT(snap.checks, 5u);  // sampled…
  EXPECT_LT(snap.checks, 35u);  // …but not exhaustively
  EXPECT_EQ(snap.check_errors, 0u);  // everything exact at 100 MHz
}

TEST(ProjectionServer, ServedResultsAreDeterministicAcrossRuns) {
  const auto& regimes = probed_regimes();
  const double fb = regimes.error_free_fmax_mhz;
  ASSERT_GE(fb, 140.0);
  // Deliberately beyond fB: over-clocking errors occur and must replay
  // identically (one worker, no jitter, seeded sampling).
  const double target = 1.1 * fb;

  auto run = [&] {
    const auto design = serve_design(target);
    const Device device = make_device();
    const auto plan = deterministic_plan(design);
    ServeConfig cfg;
    cfg.workers = 1;
    cfg.max_batch = 4;
    cfg.max_wait_ms = 0.0;
    cfg.check_fraction = 0.25;
    cfg.governor.f_target_mhz = target;
    cfg.governor.f_floor_mhz = 0.4 * fb;
    cfg.governor.window_checks = 8;

    ResultLog log;
    ProjectionServer server(design, device, plan, kWlX, nullptr, cfg,
                            log.callback());
    Rng rng(1234);
    for (std::uint64_t id = 1; id <= 30; ++id)
      server.submit({id, random_codes(rng, 4), 0.0});
    server.stop();
    std::lock_guard lock(log.mutex);
    auto sorted = log.results;
    std::sort(sorted.begin(), sorted.end(),
              [](const auto& a, const auto& b) { return a.id < b.id; });
    return sorted;
  };

  const auto a = run();
  const auto b = run();
  ASSERT_EQ(a.size(), 30u);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].checked, b[i].checked);
    EXPECT_EQ(a[i].check_error, b[i].check_error);
    EXPECT_DOUBLE_EQ(a[i].freq_mhz, b[i].freq_mhz);
    ASSERT_EQ(a[i].y.size(), b[i].y.size());
    for (std::size_t k = 0; k < a[i].y.size(); ++k)
      EXPECT_DOUBLE_EQ(a[i].y[k], b[i].y[k]);
  }
}

// The ISSUE's acceptance test: a seeded load trace with a temperature
// derate step injected mid-run. The server must catch the error-rate
// breach through its sampled safe-frequency checks, step the clock down
// within the configured window, keep the served results inside the error
// SLO while degraded, and ramp back after recovery.
TEST(ProjectionServer, GovernorDegradesAndRecoversUnderThermalStep) {
  const auto& regimes = probed_regimes();
  const double fb = regimes.error_free_fmax_mhz;
  const double fc = regimes.usable_fmax_mhz;
  ASSERT_GE(fb, 140.0) << "error-free regime implausibly low";
  ASSERT_GT(fc, fb);

  // Operating point just under the characterised error-free bound; a hot
  // derate that pushes the *effective* clock past fC (where the paper says
  // results stop being meaningful); a floor low enough to stay error-free
  // even while hot. One breach window steps target → floor exactly, one
  // healthy streak steps floor → target.
  const double f_target = 0.9 * fb;
  const double d_hot = (fc + 20.0) / f_target;
  const double f_floor = std::min(0.5 * fb, 0.9 * fb / d_hot);
  ASSERT_LT(f_floor * d_hot, 0.95 * fb);

  GovernorConfig gov;
  gov.f_target_mhz = f_target;
  gov.f_floor_mhz = f_floor;
  gov.slo_error_rate = 0.05;
  gov.window_checks = 16;
  gov.step_down_factor = f_floor / f_target;
  gov.step_up_mhz = f_target - f_floor;
  gov.healthy_windows_to_ramp = 2;

  ServeConfig cfg;
  cfg.workers = 1;  // determinism: verdict order == submission order
  cfg.max_batch = 4;
  cfg.max_wait_ms = 0.0;
  cfg.check_fraction = 1.0;  // every request carries a verdict
  cfg.governor = gov;

  const auto design = serve_design(f_target);
  const Device device = make_device();
  const auto plan = deterministic_plan(design);

  ResultLog log;
  ProjectionServer server(design, device, plan, kWlX, nullptr, cfg,
                          log.callback());
  ProjectionCircuit reference(design, device, plan, kWlX, nullptr, 1);

  Rng rng(2014);
  std::vector<std::vector<std::uint32_t>> codes_by_id(97);
  std::uint64_t next_id = 1;
  auto submit_requests = [&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i, ++next_id) {
      codes_by_id[next_id] = random_codes(rng, 4);
      ASSERT_TRUE(server.submit({next_id, codes_by_id[next_id], 0.0}));
    }
    server.wait_idle();
  };
  auto mse_for_ids = [&](std::uint64_t lo, std::uint64_t hi) {
    std::lock_guard lock(log.mutex);
    double sum = 0.0;
    std::size_t n = 0;
    for (const auto& r : log.results)
      if (r.id >= lo && r.id <= hi) {
        const auto exact = reference.project_exact(codes_by_id[r.id]);
        for (std::size_t k = 0; k < exact.size(); ++k) {
          const double d = r.y[k] - exact[k];
          sum += d * d;
          ++n;
        }
      }
    return n == 0 ? -1.0 : sum / static_cast<double>(n);
  };

  // --- Phase A: nominal environment, two full windows -----------------------
  submit_requests(32);  // ids 1..32
  EXPECT_NEAR(server.governor().frequency_mhz(), f_target, 1e-9);
  {
    const auto snap = server.metrics_snapshot();
    ASSERT_EQ(snap.window_error_rates.size(), 2u);
    EXPECT_DOUBLE_EQ(snap.window_error_rates[0], 0.0);
    EXPECT_DOUBLE_EQ(snap.window_error_rates[1], 0.0);
    EXPECT_EQ(snap.check_errors, 0u);
  }
  EXPECT_NEAR(mse_for_ids(1, 32), 0.0, 1e-18);  // error-free below fB

  // --- Phase B: thermal event — delays stretch by d_hot ---------------------
  server.set_timing_derate(d_hot);
  submit_requests(16);  // ids 33..48: one window at the hot target clock
  // Breach detected and stepped down within the configured window.
  EXPECT_NEAR(server.governor().frequency_mhz(), f_floor, 1e-9);
  {
    const auto snap = server.metrics_snapshot();
    ASSERT_EQ(snap.window_error_rates.size(), 3u);
    EXPECT_GT(snap.window_error_rates[2], gov.slo_error_rate);
    EXPECT_GT(snap.check_errors, 0u);
  }

  submit_requests(16);  // ids 49..64: degraded but healthy at the floor
  {
    const auto snap = server.metrics_snapshot();
    ASSERT_EQ(snap.window_error_rates.size(), 4u);
    EXPECT_LE(snap.window_error_rates[3], gov.slo_error_rate);
  }
  // Graceful degradation: served results stay inside the error SLO even
  // though the die is still hot — the floor clock has the timing slack.
  EXPECT_NEAR(mse_for_ids(49, 64), 0.0, 1e-18);

  // --- Phase C: environment recovers, governor ramps back -------------------
  server.set_timing_derate(1.0);
  submit_requests(32);  // ids 65..96: healthy streak completes, step up
  EXPECT_NEAR(server.governor().frequency_mhz(), f_target, 1e-6);
  EXPECT_NEAR(mse_for_ids(65, 96), 0.0, 1e-18);

  EXPECT_EQ(server.governor().windows_closed(), 6u);
  EXPECT_EQ(server.governor().checks_recorded(), 96u);

  // Frequency timeline tells the whole story: target → floor → target.
  const auto snap = server.metrics_snapshot();
  ASSERT_GE(snap.frequency_timeline.size(), 3u);
  EXPECT_NEAR(snap.frequency_timeline.front().freq_mhz, f_target, 1e-9);
  EXPECT_NEAR(snap.frequency_timeline[1].freq_mhz, f_floor, 1e-9);
  EXPECT_NEAR(snap.frequency_timeline.back().freq_mhz, f_target, 1e-6);
  EXPECT_EQ(snap.served, 96u);
  EXPECT_EQ(snap.checks, 96u);

  std::lock_guard lock(log.mutex);
  ASSERT_EQ(log.results.size(), 96u);
  // The hot window's requests were served at the target clock and flagged.
  std::size_t hot_flagged = 0;
  for (const auto& r : log.results)
    if (r.id >= 33 && r.id <= 48 && r.check_error) ++hot_flagged;
  EXPECT_GT(hot_flagged, 0u);
}

}  // namespace
}  // namespace oclp
