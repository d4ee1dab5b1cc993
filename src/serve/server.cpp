#include "serve/server.hpp"

#include <algorithm>
#include <cmath>

#include "common/rng.hpp"

namespace oclp {

namespace {

double to_ms(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

LinearProjectionDesign retargeted(LinearProjectionDesign design, double freq) {
  design.target_freq_mhz = freq;
  return design;
}

}  // namespace

ProjectionServer::ProjectionServer(const LinearProjectionDesign& design,
                                   const Device& device, const CircuitPlan& plan,
                                   int wl_x,
                                   const ErrorModelMap* models,
                                   const ServeConfig& cfg,
                                   ResultCallback on_result)
    : cfg_(cfg),
      dims_p_(design.dims_p()),
      dims_k_(design.dims_k()),
      wl_x_(wl_x),
      check_freq_mhz_(cfg.check_freq_mhz > 0.0 ? cfg.check_freq_mhz
                                               : cfg.governor.f_floor_mhz),
      device_(device),
      plan_(plan),
      on_result_(std::move(on_result)),
      governor_(cfg.governor),
      paused_(cfg.start_paused),
      pool_(cfg.workers) {
  OCLP_CHECK(cfg.workers >= 1 && cfg.queue_capacity >= 1 && cfg.max_batch >= 1);
  OCLP_CHECK(cfg.max_wait_ms >= 0.0);
  OCLP_CHECK(cfg.check_fraction >= 0.0 && cfg.check_fraction <= 1.0);
  OCLP_CHECK(cfg.check_tolerance > 0.0);
  OCLP_CHECK_MSG(check_freq_mhz_ <= cfg.governor.f_floor_mhz,
                 "check frequency " << check_freq_mhz_
                                    << " MHz is above the governor floor — the "
                                       "safe duplicate would not be safe");

  // Deploy the datapath replicas at the governor's operating point. The
  // safe-clock duplicate needs no second circuit: below the floor every
  // output settles within the period, so its capture is the settled
  // functional value — computed per batch on the serving replica's
  // compiled netlists (uncorrected: the settled datapath is exact, which
  // keeps the comparison honest).
  for (std::size_t w = 0; w < cfg.workers; ++w) {
    ProjectionCircuit serve(retargeted(design, cfg.governor.f_target_mhz),
                            device, plan, wl_x, models,
                            hash_mix(cfg.seed, w, 0x5E2FE1ULL));
    auto rep = std::make_unique<Replica>(std::move(serve));
    rep->serve_freq_mhz = cfg.governor.f_target_mhz;
    free_replicas_.push_back(std::move(rep));
  }
  metrics_.record_initial_frequency(cfg.governor.f_target_mhz);
  dispatcher_ = std::thread([this] { dispatcher_loop(); });
}

ProjectionServer::~ProjectionServer() { stop(); }

bool ProjectionServer::submit(ServeRequest req) {
  OCLP_CHECK_MSG(req.x_codes.size() == dims_p_,
                 "request " << req.id << " has " << req.x_codes.size()
                            << " codes for a P=" << dims_p_ << " design");
  const std::uint32_t limit = std::uint32_t{1} << wl_x_;
  for (std::uint32_t c : req.x_codes)
    OCLP_CHECK_MSG(c < limit, "input code " << c << " out of range for wl_x="
                                            << wl_x_);
  metrics_.on_submitted();
  {
    std::lock_guard lock(queue_mutex_);
    if (stopping_) {
      metrics_.on_rejected_full();
      return false;
    }
    if (queue_.size() >= cfg_.queue_capacity) {
      if (cfg_.overload == OverloadPolicy::RejectNewest) {
        metrics_.on_rejected_full();
        return false;
      }
      queue_.pop_front();
      metrics_.on_shed_oldest();
    }
    queue_.push_back({std::move(req), Clock::now()});
    metrics_.queue_depth_sample(queue_.size());
  }
  dispatch_cv_.notify_one();
  return true;
}

void ProjectionServer::resume() {
  {
    std::lock_guard lock(queue_mutex_);
    paused_ = false;
  }
  dispatch_cv_.notify_all();
}

void ProjectionServer::wait_idle() {
  std::unique_lock lock(queue_mutex_);
  idle_cv_.wait(lock, [&] { return queue_.empty() && inflight_batches_ == 0; });
}

void ProjectionServer::stop() {
  {
    std::lock_guard lock(queue_mutex_);
    stopping_ = true;
    paused_ = false;
  }
  dispatch_cv_.notify_all();
  if (dispatcher_.joinable()) dispatcher_.join();
  wait_idle();  // dispatcher drained the queue; wait out in-flight batches
}

void ProjectionServer::set_timing_derate(double derate) {
  OCLP_CHECK(derate > 0.0);
  derate_.store(derate, std::memory_order_relaxed);
}

double ProjectionServer::timing_derate() const {
  return derate_.load(std::memory_order_relaxed);
}

void ProjectionServer::swap_error_models(
    std::shared_ptr<const ErrorModelMap> models) {
  std::lock_guard lock(replica_mutex_);
  swapped_models_ = std::move(models);
  ++models_generation_;
}

SwapReport ProjectionServer::swap_design(
    const LinearProjectionDesign& next,
    std::shared_ptr<const ErrorModelMap> models,
    const SwapConfig& scfg) {
  std::lock_guard serialise(swap_mutex_);
  DesignSwapper swapper(*this, scfg);
  return swapper.run(next, std::move(models));
}

std::uint64_t ProjectionServer::design_generation() const {
  std::lock_guard lock(replica_mutex_);
  return design_generation_;
}

std::vector<std::unique_ptr<ProjectionServer::Replica>>
ProjectionServer::lower_candidate(const LinearProjectionDesign& next,
                                  const ErrorModelMap* models) const {
  // Same fabric locations, same per-worker clock seeds, same operating
  // point as the constructor — a flipped-in replica is indistinguishable
  // from a cold-constructed one, register state included (the Shadow
  // phase runs on its own circuit, never these).
  std::vector<std::unique_ptr<Replica>> fresh;
  fresh.reserve(cfg_.workers);
  for (std::size_t w = 0; w < cfg_.workers; ++w) {
    ProjectionCircuit serve(retargeted(next, cfg_.governor.f_target_mhz),
                            device_, plan_, wl_x_, models,
                            hash_mix(cfg_.seed, w, 0x5E2FE1ULL));
    auto rep = std::make_unique<Replica>(std::move(serve));
    rep->serve_freq_mhz = cfg_.governor.f_target_mhz;
    fresh.push_back(std::move(rep));
  }
  return fresh;
}

ProjectionCircuit ProjectionServer::make_shadow(
    const LinearProjectionDesign& next,
    const ErrorModelMap* models) const {
  return ProjectionCircuit(retargeted(next, cfg_.governor.f_target_mhz),
                           device_, plan_, wl_x_, models,
                           hash_mix(cfg_.seed, 0xA110CULL, 0x5AAD03ULL));
}

void ProjectionServer::install_shadow(std::shared_ptr<ShadowTap> tap) {
  std::lock_guard lock(shadow_mutex_);
  shadow_ = std::move(tap);
  shadow_active_.store(shadow_ != nullptr, std::memory_order_release);
}

void ProjectionServer::clear_shadow() {
  std::lock_guard lock(shadow_mutex_);
  shadow_active_.store(false, std::memory_order_release);
  shadow_.reset();
}

std::shared_ptr<ShadowTap> ProjectionServer::current_shadow() const {
  if (!shadow_active_.load(std::memory_order_acquire)) return nullptr;
  std::lock_guard lock(shadow_mutex_);
  return shadow_;
}

void ProjectionServer::flip_if_stale_locked(
    std::unique_ptr<Replica>& rep,
    std::deque<std::unique_ptr<Replica>>& destroy) {
  if (rep->design_generation == design_generation_) return;
  // Every stale replica has a fresh replacement waiting: publish_design
  // stages exactly one per deployed replica, and each flip consumes one.
  OCLP_CHECK(!pending_replicas_.empty());
  retired_replicas_.push_back(std::move(rep));
  rep = std::move(pending_replicas_.front());
  pending_replicas_.pop_front();
  // Last stale replica moved off: the old design is unpinned. Hand the
  // retired circuits to the caller so teardown happens off the lock.
  if (pending_replicas_.empty()) destroy.swap(retired_replicas_);
}

void ProjectionServer::publish_design(
    const LinearProjectionDesign& next,
    std::shared_ptr<const ErrorModelMap> models,
    std::vector<std::unique_ptr<Replica>> fresh) {
  OCLP_CHECK(fresh.size() == cfg_.workers);
  (void)next;  // shape already validated; replicas carry the lowering
  std::deque<std::unique_ptr<Replica>> destroy;
  {
    std::lock_guard lock(replica_mutex_);
    // The new design's models become the published set (the replicas were
    // lowered with them), so later swap_error_models pushes compose.
    swapped_models_ = std::move(models);
    ++models_generation_;
    ++design_generation_;
    for (auto& rep : fresh) {
      rep->design_generation = design_generation_;
      rep->models = swapped_models_;
      rep->models_generation = models_generation_;
      pending_replicas_.push_back(std::move(rep));
    }
    // Idle replicas flip right now; checked-out ones at their next batch
    // boundary (process_batch checkout / return).
    for (auto& rep : free_replicas_) flip_if_stale_locked(rep, destroy);
    metrics_.set_design_generation(design_generation_);
  }
  replica_cv_.notify_all();
  destroy.clear();  // old circuits, torn down outside the lock
}

void ProjectionServer::wait_design_flipped() {
  std::unique_lock lock(replica_mutex_);
  replica_cv_.wait(lock, [&] { return pending_replicas_.empty(); });
}

std::size_t ProjectionServer::queue_depth() const {
  std::lock_guard lock(queue_mutex_);
  return queue_.size();
}

ServeMetrics::Snapshot ProjectionServer::metrics_snapshot() const {
  return metrics_.snapshot(&pool_);
}

bool ProjectionServer::sampled_for_check(std::uint64_t id) const {
  if (cfg_.check_fraction >= 1.0) return true;
  if (cfg_.check_fraction <= 0.0) return false;
  const double u =
      static_cast<double>(hash_mix(cfg_.seed, id, 0x5A3E17ULL) >> 11) *
      0x1.0p-53;
  return u < cfg_.check_fraction;
}

void ProjectionServer::dispatcher_loop() {
  for (;;) {
    std::vector<Pending> batch;
    {
      std::unique_lock lock(queue_mutex_);
      dispatch_cv_.wait(
          lock, [&] { return stopping_ || (!paused_ && !queue_.empty()); });
      if (queue_.empty()) {
        if (stopping_) return;
        continue;
      }
      // Micro-batch linger: once one request is waiting, hold the batch
      // open up to max_wait for followers — latency traded for batch size.
      if (queue_.size() < cfg_.max_batch && cfg_.max_wait_ms > 0.0 &&
          !stopping_) {
        const auto deadline =
            Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double, std::milli>(
                                   cfg_.max_wait_ms));
        dispatch_cv_.wait_until(lock, deadline, [&] {
          return stopping_ || queue_.size() >= cfg_.max_batch;
        });
        if (queue_.empty()) continue;  // shed/raced away during the linger
      }
      const std::size_t n = std::min(cfg_.max_batch, queue_.size());
      batch.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      metrics_.queue_depth_sample(queue_.size());
      ++inflight_batches_;
    }
    pool_.submit(
        [this, b = std::make_shared<std::vector<Pending>>(std::move(batch))] {
          process_batch(std::move(*b));
        });
  }
}

void ProjectionServer::process_batch(std::vector<Pending>&& batch) {
  std::unique_ptr<Replica> rep;
  bool apply_models = false;
  std::deque<std::unique_ptr<Replica>> destroy;
  {
    std::unique_lock lock(replica_mutex_);
    replica_cv_.wait(lock, [&] { return !free_replicas_.empty(); });
    rep = std::move(free_replicas_.front());
    free_replicas_.pop_front();
    // Pickup boundary: a replica lowered from a retired design never
    // serves again — it swaps for its fresh-generation replacement here.
    flip_if_stale_locked(rep, destroy);
    if (rep->models_generation != models_generation_) {
      rep->models = swapped_models_;
      rep->models_generation = models_generation_;
      apply_models = true;
    }
  }
  if (!destroy.empty()) {
    replica_cv_.notify_all();  // a waiting swap sees the flip complete
    destroy.clear();
  }
  // Correction recompute happens outside the lock (it walks the model per
  // coefficient); the replica is checked out, so nothing else touches it.
  if (apply_models) rep->serve.set_error_models(rep->models.get());

  // Deadline shedding at pickup: a request whose deadline lapsed while it
  // queued is dropped before any kernel work is spent on it. One pickup
  // instant judges the whole batch — per-request clock reads would judge
  // batch-mates at drifting instants, so whether a request survived could
  // depend on how long its predecessors' shed checks took.
  const auto pickup = Clock::now();
  rep->live.clear();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto& req = batch[i].req;
    if (req.deadline_ms > 0.0 &&
        to_ms(pickup - batch[i].enqueued) > req.deadline_ms) {
      metrics_.on_shed_deadline();
      continue;
    }
    rep->live.push_back(i);
  }

  // Sampled survivors get the safe-duplicate check. Its reference is the
  // settled functional value of the datapath, which project_batch returns
  // for the checked rows from the same stream pass that serves them: it
  // depends only on the request — never on the governor or derate state —
  // so computing it there cannot perturb the governor trajectory below.
  rep->checked.assign(batch.size(), 0);
  for (std::size_t i : rep->live)
    rep->checked[i] = sampled_for_check(batch[i].req.id);

  // Serve the survivors through the batched run_stream kernel. The clock
  // can only move on the check verdict that closes a governor window, so
  // the batch is cut at the predicted window-close points: every request
  // of a segment shares one (frequency, derate) and the segment is clocked
  // through project_batch in a single call. With one worker the predicted
  // boundaries are exact and the segmented batch reproduces the sequential
  // per-request loop bit for bit; with several workers, checks from other
  // replicas may shift a window boundary — a scheduling race the
  // per-request loop had as well.
  std::vector<double> latencies;
  latencies.reserve(batch.size());
  const std::shared_ptr<ShadowTap> shadow = current_shadow();
  std::vector<std::uint64_t> shadow_ids;  // per-segment mirrored request ids
  const std::size_t window = governor_.config().window_checks;
  std::size_t into = governor_.checks_into_window();
  std::size_t seg_begin = 0;
  while (seg_begin < rep->live.size()) {
    // Extend the segment up to (and including) the request whose check
    // closes the currently open window.
    std::size_t seg_end = seg_begin;
    while (seg_end < rep->live.size()) {
      const bool checked = rep->checked[rep->live[seg_end]] != 0;
      ++seg_end;
      if (checked && ++into == window) {
        into = 0;
        break;
      }
    }

    const double freq = governor_.frequency_mhz();
    const double derate = derate_.load(std::memory_order_relaxed);
    if (rep->serve_freq_mhz != freq || rep->serve_derate != derate) {
      rep->serve.set_clock(freq, derate);
      rep->serve_freq_mhz = freq;
      rep->serve_derate = derate;
    }

    rep->batch_inputs.clear();
    rep->ref_rows.clear();
    for (std::size_t j = seg_begin; j < seg_end; ++j) {
      const std::size_t bi = rep->live[j];
      if (rep->checked[bi]) rep->ref_rows.push_back(j - seg_begin);
      rep->batch_inputs.push_back(&batch[bi].req.x_codes);
    }
    const auto streams_before = rep->serve.stream_counts();
    rep->serve.project_batch(rep->batch_inputs, rep->batch_ys, &rep->ref_rows,
                             &rep->check_refs);
    const auto streams_after = rep->serve.stream_counts();
    metrics_.on_streams(streams_after.gated - streams_before.gated,
                        streams_after.full - streams_before.full);

    std::size_t next_ref = 0;
    for (std::size_t j = seg_begin; j < seg_end; ++j) {
      const std::size_t bi = rep->live[j];
      auto& pending = batch[bi];
      // The output rows stay in batch_ys (the next batch reuses their
      // storage); the callback sees a copy in the replica's result buffer.
      ServeResult& res = rep->result;
      const std::vector<double>& y = rep->batch_ys[j - seg_begin];
      res.id = pending.req.id;
      res.freq_mhz = freq;
      res.y.assign(y.begin(), y.end());
      res.checked = false;
      res.check_error = false;

      if (rep->checked[bi]) {
        const auto& ref = rep->check_refs[next_ref++];
        bool error = false;
        for (std::size_t i = 0; i < ref.size(); ++i)
          if (std::abs(res.y[i] - ref[i]) > cfg_.check_tolerance) {
            error = true;
            break;
          }
        res.checked = true;
        res.check_error = error;
        metrics_.on_check(error);
        const auto decision = governor_.record_check(error);
        if (decision.window_closed)
          metrics_.on_window(
              decision.window_error_rate, decision.freq_mhz,
              decision.action == FrequencyGovernor::Action::StepDown ||
                  decision.action == FrequencyGovernor::Action::StepUp);
      }

      res.latency_ms = to_ms(Clock::now() - pending.enqueued);
      latencies.push_back(res.latency_ms);
      metrics_.on_served();
      if (on_result_) on_result_(res);
    }

    // Shadow phase of an in-progress swap: mirror this segment through the
    // candidate datapath at the operating point it was just served at.
    // The tap samples, times and scores on its own circuit — served
    // results and the governor trajectory are untouched.
    if (shadow) {
      shadow_ids.clear();
      for (std::size_t j = seg_begin; j < seg_end; ++j)
        shadow_ids.push_back(batch[rep->live[j]].req.id);
      shadow->observe(shadow_ids, rep->batch_inputs, freq, derate);
    }
    seg_begin = seg_end;
  }
  metrics_.on_batch(batch.size(), latencies);

  {
    std::lock_guard lock(replica_mutex_);
    // Return boundary: flip here too, so a swap drains even when no new
    // batch arrives to trigger the pickup-boundary flip.
    flip_if_stale_locked(rep, destroy);
    free_replicas_.push_back(std::move(rep));
  }
  replica_cv_.notify_all();
  destroy.clear();
  {
    std::lock_guard lock(queue_mutex_);
    --inflight_batches_;
  }
  idle_cv_.notify_all();
}

}  // namespace oclp
