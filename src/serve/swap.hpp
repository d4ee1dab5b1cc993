// Runtime design hot-swap: replace a serving ProjectionServer's datapath
// with a freshly fitted design without draining traffic (ROADMAP item 4;
// DESIGN.md §10).
//
// The swap is a four-phase state machine driven by DesignSwapper:
//
//   Lower  — the incoming design is lowered on the *same* fabric locations
//            the server was deployed on (retained Device + CircuitPlan),
//            off the serving threads: one pristine replica per worker plus
//            one dedicated shadow circuit. For MultArch::Ccm every
//            coefficient change re-lowers its cell from scratch
//            (mult/ccm.hpp bakes the constant into the netlist) — the
//            re-lower cost bench_swap measures; the hardware analogue is
//            the dynamically reconfigurable constant multiplier rewritten
//            in place (arXiv 2310.10053).
//   Shadow — a sampled fraction of live requests is mirrored through the
//            shadow circuit, timed at the governor's current operating
//            point, and compared against the shadow's own settled
//            functional value with the serving tolerance (the razor
//            duplicate check applied to the *candidate* datapath). The
//            mirrored traffic runs on the dedicated shadow circuit only:
//            the flip replicas stay pristine, which is what makes a
//            completed swap bitwise-equal to a cold-constructed server.
//            Divergence beyond what the characterised error model predicts
//            at the shadow frequency (plus slack) aborts the swap.
//   Flip   — the new replicas are published under the server's replica
//            lock and generation counter (the copy-on-write pattern of
//            SharedErrorModels): idle replicas flip immediately, busy ones
//            at their next batch boundary (pickup or return). In-flight
//            batches always finish on the datapath they picked up.
//   Retire — old replicas accumulate in a retired list while any of them
//            might still be serving; when the last one moves off, the old
//            design's circuits are destroyed outside the lock.
//
// Rollback: an abort in Lower or Shadow discards the candidate circuits
// and leaves the server untouched — live traffic never moved, so a failed
// swap costs zero requests by construction. Once Flip begins there is no
// divergence signal left to act on (the candidate passed shadow), so Flip
// always runs to completion.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "charlib/error_model.hpp"
#include "core/circuit_eval.hpp"

namespace oclp {

class ProjectionServer;
class ServeMetrics;

struct SwapConfig {
  /// Fraction of live requests mirrored through the shadow datapath
  /// during the Shadow phase (deterministic per-request-id sampling).
  double shadow_fraction = 0.25;
  /// Shadow compares required before the divergence verdict. 0 skips the
  /// Shadow phase entirely (trusted swap: Lower → Flip), which also keeps
  /// the whole swap on the calling thread — no concurrent traffic needed.
  std::uint64_t min_shadow_compares = 32;
  /// Abort if the shadow phase has not reached min_shadow_compares within
  /// this long (traffic starvation — the candidate cannot be validated).
  double shadow_timeout_ms = 5000.0;
  /// Allowed excess of the observed shadow-mismatch rate over the rate the
  /// characterised error model predicts at the shadow frequency.
  double mismatch_slack = 0.02;
  /// Test hook: every Nth shadow compare is forced to count as a
  /// mismatch (0 = off) — drives the abort path deterministically.
  std::uint64_t inject_divergence_every = 0;
};

struct SwapReport {
  bool committed = false;
  std::string abort_reason;     ///< empty when committed
  std::uint64_t generation = 0; ///< design generation after the swap
  // Phase wall-clock breakdown (total == lower + shadow + flip).
  double lower_ms = 0.0;
  double shadow_ms = 0.0;
  double flip_ms = 0.0;
  double total_ms = 0.0;
  // Shadow verdict inputs.
  std::uint64_t shadow_compared = 0;
  std::uint64_t shadow_mismatches = 0;
  double predicted_mismatch_rate = 0.0;  ///< union bound from the model
  double observed_mismatch_rate = 0.0;
};

/// The Shadow-phase tap the server mirrors live traffic through. Owned by
/// the in-progress swap; the server holds a shared_ptr and calls observe()
/// per served batch segment, so the tap must be thread-safe (workers of a
/// multi-replica server hit it concurrently).
class ShadowTap {
 public:
  /// `circuit` is the candidate datapath (lowered on the serving plan);
  /// `tolerance` is the serving check tolerance; `seed`/`salt` drive the
  /// per-request-id sampling; `metrics` (may be null) receives live
  /// shadow_compared / shadow_mismatch counts.
  ShadowTap(ProjectionCircuit circuit, double fraction, double tolerance,
            std::uint64_t seed, std::uint64_t inject_divergence_every,
            ServeMetrics* metrics);

  /// Mirror the sampled subset of a served segment through the shadow
  /// datapath at the segment's operating point and score each mirrored
  /// request against the shadow's settled functional value.
  void observe(const std::vector<std::uint64_t>& ids,
               const std::vector<const std::vector<std::uint32_t>*>& codes,
               double freq_mhz, double derate);

  std::uint64_t compared() const {
    return compared_.load(std::memory_order_relaxed);
  }
  std::uint64_t mismatches() const {
    return mismatches_.load(std::memory_order_relaxed);
  }

 private:
  bool sampled(std::uint64_t id) const;

  std::mutex mutex_;  // shadow circuit register state is sequential
  ProjectionCircuit circuit_;
  double freq_mhz_ = 0.0;  ///< operating point the circuit is clocked at
  double derate_ = 1.0;
  double fraction_;
  double tolerance_;
  std::uint64_t seed_;
  std::uint64_t inject_every_;
  ServeMetrics* metrics_;
  std::atomic<std::uint64_t> compared_{0};
  std::atomic<std::uint64_t> mismatches_{0};
  // observe() scratch, reused under the lock.
  std::vector<const std::vector<std::uint32_t>*> mirrored_;
  std::vector<std::size_t> all_rows_;
  std::vector<std::vector<double>> timed_, settled_;
};

/// Drives one swap end to end against a ProjectionServer. run() blocks the
/// calling thread through all four phases; during Shadow, live traffic
/// must keep flowing (from other threads) or the phase times out. The
/// usual entry point is ProjectionServer::swap_design, which constructs a
/// swapper inline.
class DesignSwapper {
 public:
  DesignSwapper(ProjectionServer& server, SwapConfig cfg);

  /// Swap the server onto `next` (same P, K and wl_x as the serving
  /// design; its per-column multiplier configurations must be covered by
  /// `models` — a mixed-architecture design needs one characterised model
  /// per distinct configuration). `models` is
  /// the error-model set the new datapath corrects with — kept alive by
  /// the replicas exactly as in swap_error_models; may be null to drop
  /// corrections (then the shadow divergence prediction is 0 + slack).
  SwapReport run(const LinearProjectionDesign& next,
                 std::shared_ptr<const ErrorModelMap> models);

  /// Union-bound per-request mismatch probability at `freq_mhz`: the sum
  /// over all K·P multipliers of the model's error rate for the deployed
  /// coefficient, clamped to 1. Deliberately conservative-high — the
  /// shadow verdict only aborts when the observed rate beats prediction
  /// *plus* slack, so overestimating keeps healthy swaps committing.
  static double predicted_mismatch_rate(
      const LinearProjectionDesign& design,
      const ErrorModelMap* models, double freq_mhz);

 private:
  ProjectionServer& server_;
  SwapConfig cfg_;
};

}  // namespace oclp
