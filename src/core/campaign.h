// Deterministic parallel campaign engine.
//
// Every experiment in the reproduction (E1–E11) is a Monte-Carlo campaign:
// hundreds of independent attack trials, glitch sweeps at many DVFS points,
// thousands of captured power traces. This engine fans those trials out
// across host cores while keeping results *bit-identical to the sequential
// run regardless of worker count or scheduling*.
//
// The determinism contract:
//  * trial i receives the seed sim::derive_seed(campaign.seed, i) — a pure
//    function of the campaign seed and the trial index, independent of
//    which worker runs the trial or when;
//  * each trial constructs its own state (its own sim::Machine, Rng,
//    recorder, ...) from that seed; trials share no mutable state;
//  * results land in a pre-sized vector at slot i.
// Hence run_campaign(seed, workers=1) and run_campaign(seed, workers=N)
// return identical vectors, for any N.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/machine_pool.h"
#include "core/obs/metrics.h"
#include "core/obs/trace.h"
#include "sim/rng.h"
#include "sim/thread_pool.h"

namespace hwsec::sim {
struct TrialWatchdog;
}

namespace hwsec::core {

struct CampaignConfig {
  std::uint64_t seed = 1;  ///< campaign master seed.
  std::size_t trials = 0;  ///< number of independent trials.
  unsigned workers = 0;    ///< 0 = ThreadPool::default_workers().
};

/// Identity of one trial, handed to the trial body.
struct TrialContext {
  std::size_t index = 0;   ///< 0 .. trials-1, stable across worker counts.
  std::uint64_t seed = 0;  ///< derive_seed(campaign seed, index).
  /// Armed by the resilient runner (null under plain run_campaign). A body
  /// that simulates guest code should pass it to Machine::arm_watchdog so
  /// runaway guests convert into structured TimedOut outcomes.
  sim::TrialWatchdog* watchdog = nullptr;
  /// Snapshot/reset machine pool for this campaign. Bodies should obtain
  /// machines via acquire_machine(ctx.machines, profile, ctx.seed) instead
  /// of constructing sim::Machine directly: the pool hands back a
  /// reset-reused machine bit-identical to fresh construction, amortizing
  /// per-trial setup. Null when the runner offers no pooling; the helper
  /// then builds a fresh machine, so bodies need no fallback of their own.
  MachinePool* machines = nullptr;
};

namespace detail {

/// Shared per-trial instrumentation: a "trial" span plus the
/// campaign_trials_completed counter. Observability never touches the
/// trial's seed or state, so results stay bit-identical with it on or off.
struct TrialObs {
  static const obs::Counter& completed() {
    static const obs::Counter c = obs::counter("campaign_trials_completed");
    return c;
  }
  static const obs::Histogram& trial_us() {
    static const obs::Histogram h = obs::histogram("trial_us");
    return h;
  }
};

}  // namespace detail

/// Runs `trials` independent trials of `body` on a caller-owned pool and
/// returns their results in trial order. `body` must be callable
/// concurrently from multiple threads and must derive all randomness from
/// its TrialContext. Reusing the pool avoids a per-campaign thread spawn
/// for repeated small campaigns (e.g. inside a benchmark loop). The
/// machine pool lives per call: pooled machines carry no state between
/// campaigns.
template <typename Result>
std::vector<Result> run_campaign(hwsec::sim::ThreadPool& pool, std::uint64_t seed,
                                 std::size_t trials,
                                 const std::function<Result(const TrialContext&)>& body) {
  std::vector<Result> results(trials);
  MachinePool machines;
  pool.parallel_for(trials, [&](std::size_t i) {
    obs::ScopedTimer trial_timer(detail::TrialObs::trial_us());
    obs::Span trial_span("trial", static_cast<std::int64_t>(i), "trial");
    results[i] = body(TrialContext{i, hwsec::sim::derive_seed(seed, i), nullptr, &machines});
    detail::TrialObs::completed().add(1);
  });
  return results;
}

/// Same, on ThreadPool::shared() when `config.workers` is 0 (no
/// per-campaign thread spawn) and otherwise on a pool of that many workers.
template <typename Result>
std::vector<Result> run_campaign(const CampaignConfig& config,
                                 const std::function<Result(const TrialContext&)>& body) {
  if (config.workers == 0) {
    return run_campaign<Result>(hwsec::sim::ThreadPool::shared(), config.seed, config.trials,
                                body);
  }
  hwsec::sim::ThreadPool pool(config.workers);
  return run_campaign<Result>(pool, config.seed, config.trials, body);
}

/// Summary of a campaign of scalar outcomes: count, mean, min, max, sum.
struct CampaignSummary {
  std::size_t trials = 0;
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
  double sum = 0.0;
};

CampaignSummary summarize(const std::vector<double>& outcomes);

}  // namespace hwsec::core
