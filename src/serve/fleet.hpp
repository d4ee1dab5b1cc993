// Multi-die serving: the paper's premise is that every die has its own
// error surface E(m, f), so a production deployment is a *fleet* of
// per-die operating points, not one server. ProjectionFleet deploys one
// ProjectionServer per synthetic die of a family (fabric inter-die scaling
// + per-location variation), characterises each die at construction with
// the subsampled sweep (charlib/recharacterise_multiplier on a compiled
// CharacterisationCircuit) and clocks it at a fraction of its own
// error-free fmax — the fast die serves faster than the slow one, by
// construction rather than by luck.
//
// At run time two loops keep the fleet honest:
//   * a HeadroomRouter places every request on the die with the most
//     headroom (governor frequency / queue depth), with per-tenant SLO
//     classes — latency-sensitive tenants avoid dies ramping back from an
//     SLO breach;
//   * a background re-characterisation thread walks the dies round-robin,
//     re-probing each die's error model at a low rate *while it serves*
//     (the probe runs inline on the control thread, never on serving
//     workers) and publishing the result through SharedErrorModels — the
//     server's replicas pick the new corrections up at their next batch —
//     plus a governor floor adjustment when the measured error-free fmax
//     moved (aging/temperature drift: the offline bench_ext_aging probe
//     promoted to a live control plane).
//
// Determinism: construction and recharacterise() are deterministic in the
// config seeds; tests drive recharacterise() synchronously and keep the
// background thread off (recheck_period_ms = 0).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "charlib/char_circuit.hpp"
#include "charlib/error_model.hpp"
#include "charlib/sweep.hpp"
#include "fabric/device.hpp"
#include "serve/router.hpp"
#include "serve/server.hpp"

namespace oclp {

struct FleetConfig {
  // --- the dies -----------------------------------------------------------
  std::size_t num_dies = 3;
  std::uint64_t family_seed = 0xD1E5;  ///< derives die seeds when...
  std::vector<std::uint64_t> die_seeds;  ///< ...this override is empty
  DeviceConfig device;                 ///< family fabric (same product)
  double temperature_c = 25.0;         ///< common serving ambient
  Placement char_placement{0, 30, 3};  ///< where each die's datapath lands

  // --- construction-time characterisation ---------------------------------
  /// Frequency grid of every die's error model; empty → 40..540 step 10.
  std::vector<double> char_freqs_mhz;
  std::size_t char_samples = 240;   ///< stream length per probed code
  std::size_t char_m_stride = 16;   ///< coverage beyond the design's codes
  /// Per-die operating point as fractions of the die's measured error-free
  /// fmax: the governor serves at target and never steps below floor.
  double target_fraction = 0.9;
  double floor_fraction = 0.5;

  // --- serving -------------------------------------------------------------
  int wl_x = 8;
  bool with_jitter = false;  ///< plan + characterisation jitter
  /// Per-die server template; governor clamps, check frequency and seed
  /// are overridden per die from the characterisation above.
  ServeConfig serve;

  // --- live re-characterisation -------------------------------------------
  /// > 0 starts the background thread: one die re-probed per period,
  /// round-robin. 0 keeps re-characterisation manual (recharacterise()).
  double recheck_period_ms = 0.0;
  std::size_t recheck_samples = 160;
  std::size_t recheck_m_stride = 64;

  std::uint64_t seed = 2014;
};

/// Outcome of a staged fleet-wide design rollout (swap_design).
struct FleetSwapReport {
  bool committed = false;   ///< every die flipped to the new design
  std::size_t canary = 0;   ///< die that swapped (and baked) first
  /// Per-die swap reports, indexed by die. Dies the rollout never reached
  /// (because an earlier die aborted) keep a default-constructed entry
  /// (committed == false, empty abort_reason).
  std::vector<SwapReport> dies;
};

/// Point-in-time view of one die (diagnostics, benches, tests).
struct DieStatus {
  std::uint64_t die_seed = 0;
  double inter_die_factor = 0.0;
  double error_free_fmax_mhz = 0.0;  ///< construction-time measurement
  double recheck_fmax_mhz = 0.0;     ///< latest re-characterised estimate
  double f_target_mhz = 0.0;
  double f_floor_mhz = 0.0;   ///< current governor floor (moves with drift)
  double freq_mhz = 0.0;      ///< current governor frequency
  double derate = 1.0;        ///< injected environment drift
  std::size_t queue_depth = 0;
  std::uint64_t routed = 0;   ///< requests this fleet placed on the die
  std::uint64_t recharacterisations = 0;
};

class ProjectionFleet {
 public:
  /// Invoked from die worker threads for every served request; must be
  /// thread-safe (several dies serve concurrently).
  using ResultCallback =
      std::function<void(std::size_t die, const ServeResult&)>;

  ProjectionFleet(const LinearProjectionDesign& design, const FleetConfig& cfg,
                  ResultCallback on_result = nullptr);
  ~ProjectionFleet();

  ProjectionFleet(const ProjectionFleet&) = delete;
  ProjectionFleet& operator=(const ProjectionFleet&) = delete;

  std::size_t num_dies() const { return dies_.size(); }

  /// Route and enqueue one request. Walks the router's fallback order —
  /// every attempt reads the same request, and the accepting die copies
  /// its codes — so false means *every* die rejected it (all queues full
  /// under RejectNewest, or the fleet is stopping). Thread-safe.
  bool submit(const ServeRequest& req, SloClass slo = SloClass::BestEffort);

  /// Start dispatching on every die (fleet built with serve.start_paused).
  void resume();
  /// Block until every die's queue is drained and no batch is in flight.
  void wait_idle();
  /// Stop the re-characterisation thread, then drain and stop every die.
  void stop();

  /// Inject environment drift on one die: its serving datapaths *and* its
  /// re-characterisation probes see every delay scaled by `derate` — the
  /// probe measures the die as it currently is, which is what lets the
  /// control plane detect the drift.
  void set_die_drift(std::size_t die, double derate);

  /// Staged fleet-wide hot-swap onto `next` (same P and K as the serving
  /// design; every column multiplier configuration must already be
  /// characterised on every die — the probe circuits and error surfaces
  /// are per configuration, so a swap within the characterised set needs
  /// no re-characterisation). The canary die swaps first — its Shadow phase
  /// is the bake — and an abort there stops the rollout before any
  /// sibling is touched; siblings then swap in die order, each against
  /// its own die's current model snapshot. Holds the re-characterisation
  /// cycle lock for the whole rollout (the model control plane is frozen
  /// while designs move). On full commit the fleet's probe focus list
  /// follows the new coefficients; a partial rollout (some dies aborted)
  /// leaves the focus list on the old design — re-issue the swap to
  /// converge. Live traffic must keep flowing during the rollout when
  /// scfg.min_shadow_compares > 0.
  FleetSwapReport swap_design(const LinearProjectionDesign& next,
                              const SwapConfig& scfg = SwapConfig(),
                              std::size_t canary = 0);

  /// One synchronous re-characterisation cycle for `die` — exactly what
  /// the background thread runs per tick: subsampled probe at the die's
  /// current drift, model publication, governor floor adjustment. Returns
  /// the probe report aggregated over the design's word-lengths. Safe to
  /// call while the die serves.
  SubsweepReport recharacterise(std::size_t die);

  /// Total re-characterisation cycles completed (all dies, both the
  /// background thread's and manual ones).
  std::uint64_t recharacterisation_cycles() const;

  DieStatus die_status(std::size_t die) const;

  /// Direct access to a die's server (tests/benches drive a specific die).
  ProjectionServer& server(std::size_t die);
  const ProjectionServer& server(std::size_t die) const;

  /// The die's currently published error-model snapshot.
  std::shared_ptr<const ErrorModelMap> die_models(
      std::size_t die) const;

 private:
  struct Die {
    std::uint64_t seed = 0;
    Device device;
    /// One compiled characterisation circuit per distinct column
    /// multiplier configuration, built once and re-probed for the fleet's
    /// lifetime.
    std::map<MultConfig, std::unique_ptr<CharacterisationCircuit>>
        char_circuits;
    SharedErrorModels models;
    double error_free_fmax_mhz = 0.0;  ///< construction-time fB
    double f_target_mhz = 0.0;
    std::unique_ptr<ProjectionServer> server;
    std::atomic<double> derate{1.0};
    std::atomic<double> floor_mhz{0.0};
    std::atomic<double> recheck_fmax_mhz{0.0};
    std::atomic<std::uint64_t> routed{0};
    std::atomic<std::uint64_t> recharacterisations{0};
    std::uint64_t recheck_phase = 0;  ///< guarded by recheck_mutex_

    explicit Die(Device d) : device(std::move(d)) {}
  };

  void recheck_loop();

  FleetConfig cfg_;
  LinearProjectionDesign design_;
  std::vector<double> char_grid_;
  /// Design coefficient magnitudes per column multiplier configuration
  /// (the probe's focus list).
  std::map<MultConfig, std::vector<std::uint32_t>> design_codes_;

  std::vector<std::unique_ptr<Die>> dies_;
  HeadroomRouter router_;
  ResultCallback on_result_;

  std::mutex recheck_mutex_;  ///< serialises re-characterisation cycles
  std::atomic<std::uint64_t> recheck_cycles_{0};

  std::mutex stop_mutex_;
  std::condition_variable stop_cv_;
  bool stopping_ = false;
  std::thread recheck_thread_;
};

}  // namespace oclp
