// Fault-contained campaign runner (the tentpole of the resilience layer).
//
// run_campaign_resilient has the same determinism contract as run_campaign
// — trial i is a pure function of (campaign seed, i) — but adds:
//  * containment: a throwing trial becomes a SimError in its own slot; all
//    other slots hold exactly the fault-free values, at any worker count;
//  * policy: fail-fast (stop scheduling, rethrow lowest-index failure),
//    collect (default), or bounded same-seed retry for transient host
//    faults (the trial body itself stays deterministic, so retry only
//    helps against injected/host-side failures — which is the point);
//  * watchdogs: a per-trial cycle budget (deterministic TimedOut) plus an
//    optional wall-clock backstop (nondeterministic, last resort);
//  * crash safety: periodic atomic checkpoints keyed by the campaign
//    identity; a killed sweep resumes bit-identically, re-running only
//    unfinished slots;
//  * self-chaos: seeded fault injection ahead of the trial body, for
//    exercising all of the above deterministically in tests.
#pragma once

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/campaign.h"
#include "core/obs/heartbeat.h"
#include "core/shutdown.h"
#include "core/obs/metrics.h"
#include "core/obs/trace.h"
#include "core/resilience/chaos.h"
#include "core/resilience/checkpoint.h"
#include "core/resilience/monitor.h"
#include "core/resilience/outcome.h"
#include "sim/rng.h"
#include "sim/watchdog.h"

namespace hwsec::core {

struct ResilienceConfig {
  FailurePolicy policy = FailurePolicy::kCollect;
  /// Attempts per trial under kRetry (>=1); other policies always run one.
  unsigned max_attempts = 3;
  /// Simulated-cycle budget per trial; 0 disables. Exceeding it raises a
  /// deterministic ErrorKind::kTimedOut from inside the Cpu.
  sim::Cycle trial_cycle_budget = 0;
  /// Wall-clock budget per trial attempt; zero disables. Nondeterministic
  /// backstop for trials wedged on the host side.
  std::chrono::milliseconds wall_clock_timeout{0};
  /// When non-empty, completed slots are checkpointed here atomically and
  /// restored on the next run with the same (seed, trials, Result).
  std::string checkpoint_path;
  /// Owner namespace folded into the checkpoint identity (empty = legacy
  /// config-only identity). Multi-tenant runners (hwsecd) set this to
  /// "tenant/job-id" so two identical specs from different owners can
  /// never cross-resume each other's files, even through a shared path.
  std::string checkpoint_scope;
  /// Save the checkpoint after this many newly completed trials (and once
  /// more at the end). Minimum 1.
  std::size_t checkpoint_every = 16;
  /// Self-chaos injection (disabled by default).
  ChaosConfig chaos;
  /// Snapshot/reset machine pool handed to trial bodies via
  /// TrialContext::machines. Null (default): the runner creates a pool for
  /// this campaign. Supply one to reuse machines across campaigns (e.g. a
  /// benchmark loop running many short sweeps on the same profile).
  MachinePool* machines = nullptr;
  /// Progress-heartbeat period. Negative (default): take the period from
  /// HWSEC_HEARTBEAT_MS (unset/0 = off). Zero: off. Positive: emit one
  /// progress line to stderr per period while the campaign runs.
  std::chrono::milliseconds heartbeat{-1};
};

namespace detail {

/// Converts the in-flight exception into the taxonomy: SimError passes
/// through untouched, std::bad_alloc maps to kResourceExhausted, any other
/// std::exception (and anything else) to kInternalError.
SimError wrap_current_exception();

/// Runs one trial with the full resilience semantics — retry attempts,
/// chaos injection keyed by (chaos seed, index, attempt), cycle-budget
/// watchdog, wall-clock registration, exception wrapping with trial
/// attribution. The single source of truth for per-trial behavior: the
/// in-process resilient runner and the shard worker both call it, which is
/// what makes an N-process sharded campaign bit-identical to the 1-process
/// run — there is only one trial execution path to diverge from.
template <typename Result>
TrialOutcome<Result> execute_trial(std::size_t index, std::uint64_t campaign_seed,
                                   const ResilienceConfig& res, MachinePool* machines,
                                   WallClockMonitor& monitor,
                                   const std::function<Result(const TrialContext&)>& body) {
  static const obs::Counter kRetries = obs::counter("campaign_trial_retries");
  static const obs::Counter kWatchdogTrips = obs::counter("watchdog_trips");
  TrialOutcome<Result> out;
  const std::uint64_t seed = hwsec::sim::derive_seed(campaign_seed, index);
  const unsigned attempts_allowed =
      res.policy == FailurePolicy::kRetry ? std::max(1u, res.max_attempts) : 1u;
  obs::ScopedTimer trial_timer(TrialObs::trial_us());
  obs::Span trial_span("trial", static_cast<std::int64_t>(index), "trial");
  for (unsigned attempt = 1; attempt <= attempts_allowed; ++attempt) {
    out.attempts = attempt;
    if (attempt > 1) {
      kRetries.add(1);
      obs::Tracer::instance().instant("trial_retry", static_cast<std::int64_t>(index),
                                      "trial");
    }
    hwsec::sim::TrialWatchdog watchdog;
    watchdog.cycle_budget = res.trial_cycle_budget;
    auto registration = monitor.watch(watchdog);
    try {
      ChaosInjector(res.chaos, index, attempt).inject();
      out.result = body(TrialContext{index, seed, &watchdog, machines});
      out.error.reset();
      break;
    } catch (...) {
      out.error = wrap_current_exception().with_trial(index, seed);
      out.result.reset();
      if (out.error->kind() == ErrorKind::kTimedOut) {
        kWatchdogTrips.add(1);
        obs::Tracer::instance().instant("watchdog_trip", static_cast<std::int64_t>(index),
                                        "trial");
      }
    }
  }
  return out;
}

/// The one TrialOutcome -> CheckpointRecord conversion: what checkpoints,
/// shard kTrial frames and hwsecd result blobs store for a slot. A slot
/// that never ran (skipped) converts to a failed record with no error.
template <typename Result>
CheckpointRecord to_record(const TrialOutcome<Result>& out) {
  static_assert(std::is_trivially_copyable_v<Result>, "records hold raw Result bytes");
  CheckpointRecord rec;
  rec.ok = out.ok();
  rec.attempts = out.attempts;
  if (out.ok()) {
    rec.payload.assign(reinterpret_cast<const char*>(&*out.result), sizeof(Result));
  } else if (out.error.has_value()) {
    rec.kind = static_cast<std::uint8_t>(out.error->kind());
    rec.detail = out.error->detail();
    rec.machine = out.error->machine();
  }
  return rec;
}

/// The inverse of to_record for slot `index` of the campaign seeded
/// `campaign_seed` (which re-attributes a restored error to its trial).
/// The caller has checked an ok record's payload size.
template <typename Result>
TrialOutcome<Result> from_record(const CheckpointRecord& rec, std::size_t index,
                                 std::uint64_t campaign_seed) {
  static_assert(std::is_trivially_copyable_v<Result>, "records hold raw Result bytes");
  TrialOutcome<Result> out;
  out.attempts = rec.attempts;
  if (rec.ok) {
    Result restored{};
    std::memcpy(&restored, rec.payload.data(), sizeof(Result));
    out.result = restored;
  } else {
    SimError err(static_cast<ErrorKind>(rec.kind), rec.detail);
    if (!rec.machine.empty()) {
      err.with_machine(rec.machine);
    }
    err.with_trial(index, hwsec::sim::derive_seed(campaign_seed, index));
    out.error = std::move(err);
  }
  return out;
}

/// A record-producing trial runner (the shard worker's TrialRunner seam):
/// owns its MachinePool and WallClockMonitor and captures everything by
/// value, so a forked worker, a remote worker and the supervisor's
/// in-process fallback each run trials exactly as execute_trial does.
template <typename Result>
std::function<CheckpointRecord(std::size_t)> record_runner(
    std::uint64_t campaign_seed, const ResilienceConfig& res,
    std::function<Result(const TrialContext&)> body) {
  auto machines = std::make_shared<MachinePool>();
  auto monitor = std::make_shared<WallClockMonitor>(res.wall_clock_timeout);
  return [machines, monitor, campaign_seed, res, body = std::move(body)](std::size_t index) {
    return to_record(
        execute_trial<Result>(index, campaign_seed, res, machines.get(), *monitor, body));
  };
}

}  // namespace detail

/// Runs `config.trials` trials of `body` with fault containment. Returns
/// one TrialOutcome per slot, in trial order. Under kFailFast a failure
/// stops new trials from starting and the lowest-index SimError is thrown
/// after in-flight trials drain (their slots are still checkpointed).
template <typename Result>
std::vector<TrialOutcome<Result>> run_campaign_resilient(
    const CampaignConfig& config, const ResilienceConfig& res,
    const std::function<Result(const TrialContext&)>& body) {
  constexpr bool kCheckpointable =
      std::is_trivially_copyable_v<Result> && std::is_default_constructible_v<Result>;
  const bool checkpointing = !res.checkpoint_path.empty();
  if (checkpointing && !kCheckpointable) {
    throw SimError(ErrorKind::kConfigError,
                   "checkpointing requires a trivially copyable, default-constructible "
                   "Result type");
  }

  std::vector<TrialOutcome<Result>> outcomes(config.trials);
  CheckpointFile checkpoint(config.seed, config.trials, sizeof(Result), res.checkpoint_scope);
  if constexpr (kCheckpointable) {
    if (checkpointing && checkpoint.load(res.checkpoint_path)) {
      for (const auto& [index, rec] : checkpoint.records()) {
        outcomes[index] = detail::from_record<Result>(rec, index, config.seed);
        outcomes[index].from_checkpoint = true;
      }
    }
  }

  MachinePool local_machines;
  MachinePool* machines = res.machines != nullptr ? res.machines : &local_machines;
  WallClockMonitor monitor(res.wall_clock_timeout);
  std::mutex checkpoint_mutex;
  std::size_t completions_since_save = 0;
  const std::size_t checkpoint_every = res.checkpoint_every == 0 ? 1 : res.checkpoint_every;
  std::atomic<bool> tripped{false};
  std::mutex failure_mutex;
  std::optional<std::pair<std::size_t, SimError>> first_failure;

  // Campaign observability. The counters feed the CI scrape-and-assert
  // step (a clean non-chaos campaign must end with zero retries and zero
  // watchdog trips) and the heartbeat line below; none of it reads or
  // writes trial state, so results stay bit-identical with it on or off.
  static const obs::Counter kFailed = obs::counter("campaign_trials_failed");
  static const obs::Counter kRestored = obs::counter("campaign_trials_restored");
  std::atomic<std::size_t> heartbeat_done{0};
  std::atomic<std::size_t> heartbeat_failed{0};
  std::atomic<std::size_t> heartbeat_retries{0};
  const auto campaign_start = std::chrono::steady_clock::now();
  const std::chrono::milliseconds heartbeat_period =
      res.heartbeat.count() < 0 ? obs::heartbeat_interval_from_env() : res.heartbeat;
  obs::Heartbeat heartbeat(heartbeat_period, [&, campaign_start] {
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - campaign_start)
            .count();
    const std::size_t done = heartbeat_done.load(std::memory_order_relaxed);
    std::ostringstream line;
    line << "[campaign seed=" << config.seed << "] " << done << "/" << config.trials
         << " trials, " << static_cast<std::uint64_t>(elapsed > 0.0 ? done / elapsed : 0.0)
         << " trials/sec, retries=" << heartbeat_retries.load(std::memory_order_relaxed)
         << ", failed=" << heartbeat_failed.load(std::memory_order_relaxed)
         << ", pool: " << machines->machines_built() << " built / "
         << machines->leases_served() << " leases";
    return line.str();
  });

  auto run_slot = [&](std::size_t i) {
    TrialOutcome<Result>& out = outcomes[i];
    if (out.from_checkpoint) {
      kRestored.add(1);
      heartbeat_done.fetch_add(1, std::memory_order_relaxed);
      return;  // restored slot; never re-run.
    }
    if (res.policy == FailurePolicy::kFailFast &&
        tripped.load(std::memory_order_acquire)) {
      out.skipped = true;
      return;
    }
    // Graceful shutdown (SIGTERM/SIGINT with install_graceful_shutdown):
    // stop starting trials; in-flight ones finish and the final checkpoint
    // save below still runs, so an operator Ctrl-C loses nothing completed.
    if (shutdown_requested()) {
      out.skipped = true;
      return;
    }
    out = detail::execute_trial<Result>(i, config.seed, res, machines, monitor, body);
    if (out.attempts > 1) {
      heartbeat_retries.fetch_add(out.attempts - 1, std::memory_order_relaxed);
    }
    detail::TrialObs::completed().add(1);
    heartbeat_done.fetch_add(1, std::memory_order_relaxed);
    if (!out.ok()) {
      kFailed.add(1);
      heartbeat_failed.fetch_add(1, std::memory_order_relaxed);
    }
    if (!out.ok() && res.policy == FailurePolicy::kFailFast) {
      tripped.store(true, std::memory_order_release);
      std::lock_guard<std::mutex> lock(failure_mutex);
      if (!first_failure.has_value() || i < first_failure->first) {
        first_failure.emplace(i, *out.error);
      }
    }
    if (checkpointing) {
      if constexpr (kCheckpointable) {
        CheckpointRecord rec = detail::to_record(out);
        std::lock_guard<std::mutex> lock(checkpoint_mutex);
        checkpoint.record(i, std::move(rec));
        if (++completions_since_save >= checkpoint_every) {
          completions_since_save = 0;
          checkpoint.save(res.checkpoint_path);
        }
      }
    }
  };

  auto run_on = [&](hwsec::sim::ThreadPool& pool) {
    pool.parallel_for(config.trials, run_slot);
  };
  if (config.workers == 0) {
    run_on(hwsec::sim::ThreadPool::shared());
  } else {
    hwsec::sim::ThreadPool pool(config.workers);
    run_on(pool);
  }

  if (checkpointing) {
    std::lock_guard<std::mutex> lock(checkpoint_mutex);
    checkpoint.save(res.checkpoint_path);
  }
  if (res.policy == FailurePolicy::kFailFast) {
    std::lock_guard<std::mutex> lock(failure_mutex);
    if (first_failure.has_value()) {
      throw first_failure->second;
    }
  }
  return outcomes;
}

/// Runs a list of heterogeneous independent tasks (each its own closure)
/// across `workers` threads, fault-contained: every task runs, and the
/// returned vector holds task k's wrapped exception (or nullopt on
/// success). Task k must derive all randomness from inputs fixed before
/// the call, so completion order cannot affect results. The caller decides
/// what a partial fan-out means.
std::vector<std::optional<SimError>> run_parallel_tasks_resilient(
    const std::vector<std::function<void()>>& tasks, unsigned workers = 0);

}  // namespace hwsec::core
