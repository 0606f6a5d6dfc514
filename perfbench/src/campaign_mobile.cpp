// campaign_mobile: long in-process spectre_leak campaigns through
// service::run_spec on a caller-owned, pre-warmed MachinePool.
//
// Why: the simulator layers (uop dispatch, cache hierarchy, MMU/TLB) and
// pool reset do almost all the work here, so this is the workload a
// simulator fast path must move.
#include <iostream>
#include <memory>

#include "attacks/transient/spectre.h"
#include "bench.h"
#include "core/machine_pool.h"
#include "core/obs/metrics.h"
#include "core/obs/trace.h"
#include "core/service/catalog.h"
#include "core/service/protocol.h"
#include "sim/rng.h"

namespace perfbench {

namespace {

namespace core = hwsec::core;
namespace service = hwsec::core::service;
namespace sim = hwsec::sim;

constexpr unsigned kWorkers = 2;
constexpr std::uint64_t kTrialsPerJob = 4096;
constexpr std::uint64_t kWarmTrials = 512;
constexpr int kSetupRepeats = 10;  // before and after the timed phase.

service::CampaignSpec job_spec(std::uint64_t seed, std::uint64_t job, std::uint64_t trials) {
  service::CampaignSpec spec;
  spec.tenant = "perfbench";
  spec.kind = "spectre_leak";
  spec.seed = sim::derive_seed(seed, job);
  spec.trials = trials;
  spec.workers = kWorkers;
  spec.processes = 0;
  return spec;
}

core::ResilienceConfig pool_config(core::MachinePool& pool) {
  core::ResilienceConfig res;
  res.machines = &pool;
  res.heartbeat = std::chrono::milliseconds(0);
  return res;
}

/// Setup: build a pool and warm it with a short campaign, so the timed
/// phase starts with both workers' machines built and programs decoded.
std::unique_ptr<core::MachinePool> build_warm_pool(std::uint64_t seed) {
  auto pool = std::make_unique<core::MachinePool>();
  service::run_spec(job_spec(seed ^ 0x5E7u, 0, kWarmTrials), pool_config(*pool));
  return pool;
}

/// Output check: every trial completed and leaked the planted 'K'.
void check_outcomes(service::ServiceOutcomes& outcomes, const Options& opt, Report& report) {
  if (opt.corrupt == "leak" && !outcomes.empty() && outcomes.back().result) {
    outcomes.back().result->hi ^= 1;
  }
  std::uint64_t wrong = 0;
  for (const auto& outcome : outcomes) {
    if (outcome.error) {
      ++report.failed;
    } else if (!outcome.result || outcome.result->lo != 1 || outcome.result->hi != 'K') {
      ++wrong;
    }
  }
  report.check(wrong == 0, std::to_string(wrong) + " trials did not leak 'K'");
}

/// Closed loop of run_spec jobs until `seconds` have passed.
LoopResult run_jobs(core::MachinePool& pool, const Options& opt, Report& report) {
  LoopResult loop;
  const auto start = Clock::now();
  for (std::uint64_t job = 0; loop.seconds < opt.seconds; ++job) {
    const auto job_start = Clock::now();
    service::ServiceOutcomes outcomes =
        service::run_spec(job_spec(opt.seed, job, kTrialsPerJob), pool_config(pool));
    loop.job_ms.push_back(ms_since(job_start));
    check_outcomes(outcomes, opt, report);
    loop.ops += static_cast<double>(outcomes.size());
    report.attempted += outcomes.size();
    loop.seconds = seconds_since(start);
  }
  return loop;
}

// ---- traced run ------------------------------------------------------------

sim::CpuStats total_stats(const sim::Machine& machine) {
  sim::CpuStats sum;
  for (sim::CoreId c = 0; c < machine.num_cores(); ++c) {
    const sim::CpuStats& s = machine.cpu(c).stats();
    sum.retired += s.retired;
    sum.loads += s.loads;
    sum.l1_hits += s.l1_hits;
    sum.llc_hits += s.llc_hits;
    sum.dram_accesses += s.dram_accesses;
  }
  return sum;
}

struct TrialLedger {
  NsSum acquire, plant, leak;
  std::atomic<std::uint64_t> trials{0}, retired{0}, loads{0}, l1_hits{0}, llc_hits{0}, dram{0};
};

/// The spectre_leak trial body of service/catalog.cpp, re-issued from the
/// benchmark with a span around each public call it makes. The digest
/// check below proves it computes exactly what run_spec computes.
service::ServiceTrialResult traced_trial(const core::TrialContext& ctx, TrialLedger& ledger) {
  hwsec::obs::Tracer& tracer = hwsec::obs::Tracer::instance();
  const double t0 = tracer.now_us();
  core::MachineLease lease =
      core::acquire_machine(ctx.machines, sim::MachineProfile::mobile(), ctx.seed);
  const double t1 = tracer.now_us();
  const sim::CpuStats before = total_stats(*lease);
  hwsec::attacks::SpectreV1 spectre(*lease, 0);
  const sim::Word index = spectre.plant_secret("K");
  const double t2 = tracer.now_us();
  const auto byte = spectre.leak_byte(index);
  const double t3 = tracer.now_us();
  const sim::CpuStats after = total_stats(*lease);
  tracer.complete("machine_pool.acquire", t0, t1 - t0);
  tracer.complete("attacks.plant", t1, t2 - t1);
  tracer.complete("sim.leak", t2, t3 - t2);
  ledger.acquire.add(1e3 * (t1 - t0));
  ledger.plant.add(1e3 * (t2 - t1));
  ledger.leak.add(1e3 * (t3 - t2));
  ledger.trials.fetch_add(1, std::memory_order_relaxed);
  ledger.retired.fetch_add(after.retired - before.retired, std::memory_order_relaxed);
  ledger.loads.fetch_add(after.loads - before.loads, std::memory_order_relaxed);
  ledger.l1_hits.fetch_add(after.l1_hits - before.l1_hits, std::memory_order_relaxed);
  ledger.llc_hits.fetch_add(after.llc_hits - before.llc_hits, std::memory_order_relaxed);
  ledger.dram.fetch_add(after.dram_accesses - before.dram_accesses, std::memory_order_relaxed);
  service::ServiceTrialResult r;
  r.lo = byte.has_value() && *byte == 'K' ? 1 : 0;
  r.hi = byte.value_or(0xFFFF);
  return r;
}

service::ServiceOutcomes run_traced_job(const service::CampaignSpec& spec,
                                        core::MachinePool& pool, TrialLedger& ledger) {
  core::CampaignConfig config;
  config.seed = spec.seed;
  config.trials = static_cast<std::size_t>(spec.trials);
  config.workers = spec.workers;
  const std::function<service::ServiceTrialResult(const core::TrialContext&)> body =
      [&ledger](const core::TrialContext& ctx) { return traced_trial(ctx, ledger); };
  return core::run_campaign_resilient<service::ServiceTrialResult>(config, pool_config(pool),
                                                                   body);
}

/// Traced run: untraced run_spec jobs alternate with traced jobs of the
/// benchmark-side body, so both see the same host conditions and their
/// ops/s ratio is the tracing overhead.
void traced_run(core::MachinePool& pool, const Options& opt, Report& report) {
  // Digest check: the benchmark-side body against run_spec, same spec.
  const service::CampaignSpec probe = job_spec(opt.seed, 0, kTrialsPerJob);
  TrialLedger probe_ledger;
  std::uint64_t traced_digest =
      service::fnv1a64(service::encode_outcomes(run_traced_job(probe, pool, probe_ledger)));
  const std::uint64_t direct_digest =
      service::fnv1a64(service::encode_outcomes(service::run_spec(probe, pool_config(pool))));
  if (opt.corrupt == "digest") traced_digest ^= 1;
  report.check(traced_digest == direct_digest,
               "benchmark-side trial body digest differs from run_spec");

  TrialLedger ledger;
  ObsDelta obs;
  double ops[2] = {0, 0};
  double busy_s[2] = {0, 0};
  double jobs = 0;
  const auto start = Clock::now();
  // At least one job of each kind, however short the run.
  for (std::uint64_t job = 0; job < 2 || seconds_since(start) < opt.seconds; ++job) {
    const bool traced = job % 2 == 1;
    const service::CampaignSpec spec = job_spec(opt.seed, job, kTrialsPerJob);
    const auto job_start = Clock::now();
    service::ServiceOutcomes outcomes;
    if (traced) {
      TracedJob bracket(obs);
      hwsec::obs::Span span("perfbench.job", static_cast<std::int64_t>(job), "job");
      outcomes = run_traced_job(spec, pool, ledger);
      ++jobs;
    } else {
      outcomes = service::run_spec(spec, pool_config(pool));
    }
    busy_s[traced] += seconds_since(job_start);
    ops[traced] += static_cast<double>(outcomes.size());
    report.attempted += outcomes.size();
    check_outcomes(outcomes, opt, report);
  }

  const double n = static_cast<double>(ledger.trials.load());
  const double acquire = ledger.acquire.us() / n;
  const double plant = ledger.plant.us() / n;
  const double leak = ledger.leak.us() / n;
  const double trial_us = obs.trial_us();
  const double overhead = trial_us - (acquire + plant + leak);
  const double busy_per_op = 1e6 * busy_s[1] * kWorkers / ops[1];
  auto& m = report.metrics;
  m["machine_pool.acquire_us"] = acquire;
  m["machine_pool.builds"] = obs.counter("pool_machines_built") / jobs;
  m["attacks.plant_us"] = plant;
  m["sim.leak_us"] = leak;
  m["sim.retired"] = static_cast<double>(ledger.retired.load()) / n;
  m["sim.loads"] = static_cast<double>(ledger.loads.load()) / n;
  m["sim.l1_hits"] = static_cast<double>(ledger.l1_hits.load()) / n;
  m["sim.llc_hits"] = static_cast<double>(ledger.llc_hits.load()) / n;
  m["sim.dram_accesses"] = static_cast<double>(ledger.dram.load()) / n;
  m["sim.ns_per_retired"] = 1e3 * (plant + leak) / m["sim.retired"];
  m["campaign.overhead_us"] = overhead;
  m["ledger.gap_pct"] = 100.0 * (busy_per_op - trial_us) / busy_per_op;
  set_trace_overhead(report, ops[0] / busy_s[0], ops[1] / busy_s[1]);
  std::cout << "ledger (per trial, thread time): acquire " << acquire << " + plant " << plant
            << " + leak " << leak << " + campaign " << overhead << " = " << trial_us
            << " us vs traced wall x workers / trials " << busy_per_op << " us\n";
}

}  // namespace

void run_campaign_mobile(const Options& opt, Report& report) {
  // Set-up is sampled before and after the timed phase, so its median does
  // not hang on the host's speed in the run's first second.
  std::vector<double> setup_s;
  std::unique_ptr<core::MachinePool> pool;
  const auto set_up = [&] {
    for (int i = 0; i < kSetupRepeats; ++i) {
      pool.reset();
      const auto start = Clock::now();
      pool = build_warm_pool(opt.seed);
      setup_s.push_back(seconds_since(start));
    }
  };
  set_up();
  const auto loop = [&pool](const Options& o, Report& r) { return run_jobs(*pool, o, r); };
  warm_up(opt, report, loop);
  if (opt.trace) {
    // Service layers first: their forked shard workers count the pages they
    // share with this process in shard.worker_rss_mib, and the tracer's
    // span buffers would otherwise be among them.
    measure_service_layers(opt, report);
    traced_run(*pool, opt, report);
    return;
  }
  const LoopResult timed = loop(opt, report);
  const double rss = peak_rss_mib();
  set_up();
  set_end_to_end(report, timed, setup_s, rss);
}

}  // namespace perfbench
