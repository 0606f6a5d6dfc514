// fuzz_allarch: differential conformance fuzzing over all eight FuzzArch
// profiles through conformance::run_fuzz (fresh_every = 16).
//
// Why: every trial decodes a new program, so the decoded-program cache
// misses where campaign_mobile always hits; half the trials run MPU
// profiles on the legacy stepper; one trial in 16 builds a fresh machine.
// It is the only workload where the arch policies, the reference
// interpreter and the differ do the work.
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <iostream>
#include <stdexcept>

#include "bench.h"
#include "conformance/differ.h"
#include "conformance/fuzzer.h"
#include "conformance/reference.h"
#include "core/campaign.h"
#include "core/obs/metrics.h"
#include "core/obs/trace.h"
#include "sim/rng.h"

namespace perfbench {

namespace {

namespace conf = hwsec::conformance;
namespace core = hwsec::core;
namespace sim = hwsec::sim;

constexpr unsigned kWorkers = 2;
constexpr std::size_t kTrialsPerJob = 512;
constexpr std::size_t kFreshEvery = conf::FuzzConfig{}.fresh_every;
constexpr int kSetupRepeats = 5;

/// Setup: the process-wide arch contexts of all eight profiles.
double build_arch_contexts() {
  const auto start = Clock::now();
  for (const conf::FuzzArch arch : conf::kAllFuzzArchs) conf::arch_context(arch);
  return seconds_since(start);
}

/// arch_context() builds once per process, so repeated set-up samples come
/// from forked children that each build it cold. Called before any thread
/// exists.
double build_arch_contexts_in_child() {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    close(fds[0]);
    const double s = build_arch_contexts();
    const bool ok = write(fds[1], &s, sizeof s) == static_cast<ssize_t>(sizeof s);
    _exit(ok ? 0 : 1);
  }
  close(fds[1]);
  double s = 0;
  const bool got = read(fds[0], &s, sizeof s) == static_cast<ssize_t>(sizeof s);
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!got || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("arch_context set-up child failed");
  }
  return s;
}

conf::FuzzConfig job_config(std::uint64_t seed, std::uint64_t job) {
  conf::FuzzConfig config;
  config.seed = sim::derive_seed(seed, job);
  config.trials = kTrialsPerJob;
  config.workers = kWorkers;
  return config;
}

/// Output check: no divergence and no invariant violation.
void check_divergences(std::size_t divergences, const Options& opt, Report& report) {
  if (opt.corrupt == "divergence") ++divergences;
  report.check(divergences == 0, std::to_string(divergences) + " conformance divergences");
}

LoopResult run_jobs(const Options& opt, Report& report) {
  LoopResult loop;
  const auto start = Clock::now();
  for (std::uint64_t job = 0; loop.seconds < opt.seconds; ++job) {
    const auto job_start = Clock::now();
    const conf::FuzzReport fuzz = conf::run_fuzz(job_config(opt.seed, job));
    loop.job_ms.push_back(ms_since(job_start));
    check_divergences(fuzz.divergences, opt, report);
    loop.ops += static_cast<double>(fuzz.trials);
    report.attempted += fuzz.trials;
    loop.seconds = seconds_since(start);
  }
  return loop;
}

// ---- traced run ------------------------------------------------------------

struct TrialLedger {
  NsSum generate, run_case, reference, acquire, fresh_build, install, mpu_run, mmu_run, probe;
  std::atomic<std::uint64_t> trials{0}, pooled{0}, fresh{0}, mpu{0}, mmu{0}, divergences{0};
};

/// run_fuzz's trial body (arch = index mod 8, fresh every 16th), with the
/// real run_case verdict timed as a whole. run_case's inner steps are not
/// reachable from outside, so a probe re-runs the public pieces it is made
/// of — reference interpreter, machine lease, install_env, Cpu::run_from —
/// on the same case, and conformance.diff_us is run_case minus those parts.
/// The probe's own time is excluded from the per-trial ledger.
///
/// The probe leases its pooled machines from `probe_pool`, not from the
/// campaign's pool: the decoded-program cache is per pool and keyed by
/// program content, so a probe on the campaign's pool would find the
/// programs run_case just decoded, and the decode cost would land in
/// diff_us instead of install_us.
conf::TrialVerdict traced_trial(const core::TrialContext& ctx, core::MachinePool& probe_pool,
                                TrialLedger& ledger) {
  hwsec::obs::Tracer& tracer = hwsec::obs::Tracer::instance();
  const conf::FuzzArch arch = conf::kAllFuzzArchs[ctx.index % std::size(conf::kAllFuzzArchs)];
  const bool fresh = ctx.index % kFreshEvery == 0;
  core::MachinePool* pool = fresh ? nullptr : ctx.machines;
  const conf::ArchContext& ac = conf::arch_context(arch);
  const conf::EnvSpec& spec = ac.spec;

  const double t0 = tracer.now_us();
  const conf::GeneratedCase test = conf::generate_case(spec, ctx.seed);
  const double t1 = tracer.now_us();
  conf::TrialVerdict verdict =
      conf::run_case(ac, test, ctx.seed, pool,
                     fresh ? conf::MachineVariant::kFresh : conf::MachineVariant::kPooled);
  const double t2 = tracer.now_us();

  sim::Program halt_stub;
  halt_stub.base = spec.halt_stub;
  halt_stub.code.push_back(sim::Instruction{.op = sim::Opcode::kHalt});
  conf::ReferenceInterpreter ref(spec, ac.baseline, {halt_stub, test.normal, test.enclave});
  ref.run(spec.code_base, conf::kTrialBudget);
  const double t3 = tracer.now_us();
  core::MachineLease lease =
      core::acquire_machine(fresh ? nullptr : &probe_pool, ac.profile, ctx.seed);
  const double t4 = tracer.now_us();
  conf::MachineRunLog log;
  conf::install_env(*lease, spec, log);
  sim::Cpu& cpu = lease->cpu(0);
  cpu.load_program(test.normal);
  cpu.load_program(test.enclave);
  const double t5 = tracer.now_us();
  cpu.run_from(spec.code_base, conf::kTrialBudget);
  const double t6 = tracer.now_us();

  tracer.complete("conformance.generate", t0, t1 - t0);
  tracer.complete("conformance.run_case", t1, t2 - t1);
  tracer.complete("probe.reference", t2, t3 - t2);
  tracer.complete(fresh ? "probe.fresh_build" : "probe.pool_acquire", t3, t4 - t3);
  tracer.complete("probe.install_env", t4, t5 - t4);
  tracer.complete(spec.has_mmu ? "probe.mmu_run" : "probe.mpu_run", t5, t6 - t5);
  ledger.generate.add(1e3 * (t1 - t0));
  ledger.run_case.add(1e3 * (t2 - t1));
  ledger.reference.add(1e3 * (t3 - t2));
  (fresh ? ledger.fresh_build : ledger.acquire).add(1e3 * (t4 - t3));
  (fresh ? ledger.fresh : ledger.pooled).fetch_add(1, std::memory_order_relaxed);
  ledger.install.add(1e3 * (t5 - t4));
  (spec.has_mmu ? ledger.mmu_run : ledger.mpu_run).add(1e3 * (t6 - t5));
  (spec.has_mmu ? ledger.mmu : ledger.mpu).fetch_add(1, std::memory_order_relaxed);
  ledger.probe.add(1e3 * (t6 - t2));
  ledger.trials.fetch_add(1, std::memory_order_relaxed);
  if (verdict.failed()) ledger.divergences.fetch_add(1, std::memory_order_relaxed);
  return verdict;
}

/// Traced run: untraced run_fuzz jobs alternate with traced jobs of the
/// benchmark-side body, so both see the same host conditions.
void traced_run(const Options& opt, Report& report) {
  TrialLedger ledger;
  core::MachinePool probe_pool;
  ObsDelta obs;
  double ops[2] = {0, 0};
  double busy_s[2] = {0, 0};
  double jobs = 0;
  const std::function<conf::TrialVerdict(const core::TrialContext&)> body =
      [&ledger, &probe_pool](const core::TrialContext& ctx) {
        return traced_trial(ctx, probe_pool, ledger);
      };
  std::size_t divergences = 0;
  const auto start = Clock::now();
  // At least one job of each kind, however short the run.
  for (std::uint64_t job = 0; job < 2 || seconds_since(start) < opt.seconds; ++job) {
    const bool traced = job % 2 == 1;
    const conf::FuzzConfig fuzz = job_config(opt.seed, job);
    const auto job_start = Clock::now();
    if (traced) {
      // run_fuzz's campaign, with the benchmark-side trial body.
      TracedJob bracket(obs);
      hwsec::obs::Span span("perfbench.job", static_cast<std::int64_t>(job), "job");
      core::CampaignConfig config;
      config.seed = fuzz.seed;
      config.trials = fuzz.trials;
      config.workers = fuzz.workers;
      core::run_campaign(config, body);
      ++jobs;
    } else {
      divergences += conf::run_fuzz(fuzz).divergences;
    }
    busy_s[traced] += seconds_since(job_start);
    ops[traced] += static_cast<double>(fuzz.trials);
    report.attempted += fuzz.trials;
  }
  check_divergences(divergences + static_cast<std::size_t>(ledger.divergences.load()), opt,
                    report);

  const double n = static_cast<double>(ledger.trials.load());
  const auto per = [](const NsSum& sum, double count) { return count > 0 ? sum.us() / count : 0.0; };
  const double generate = per(ledger.generate, n);
  const double run_case = per(ledger.run_case, n);
  const double reference = per(ledger.reference, n);
  const double install = per(ledger.install, n);
  // Per-trial shares of the steps only some trials take.
  const double lease_share = (ledger.acquire.us() + ledger.fresh_build.us()) / n;
  const double run_share = (ledger.mpu_run.us() + ledger.mmu_run.us()) / n;
  const double diff = run_case - reference - lease_share - install - run_share;
  const double probe = per(ledger.probe, n);
  const double overhead = obs.trial_us() - (generate + run_case + probe);
  const double busy_per_op = 1e6 * busy_s[1] * kWorkers / n - probe;
  const double rows = generate + reference + lease_share + install + run_share + diff + overhead;

  auto& m = report.metrics;
  m["machine_pool.acquire_us"] = per(ledger.acquire, static_cast<double>(ledger.pooled.load()));
  m["machine_pool.builds"] =
      (obs.counter("pool_machines_built") - static_cast<double>(probe_pool.machines_built())) /
      jobs;
  m["sim.fresh_build_us"] = per(ledger.fresh_build, static_cast<double>(ledger.fresh.load()));
  m["sim.mpu_run_us"] = per(ledger.mpu_run, static_cast<double>(ledger.mpu.load()));
  m["sim.mmu_run_us"] = per(ledger.mmu_run, static_cast<double>(ledger.mmu.load()));
  m["conformance.generate_us"] = generate;
  m["conformance.reference_us"] = reference;
  m["conformance.install_us"] = install;
  m["conformance.diff_us"] = diff;
  m["campaign.overhead_us"] = overhead;
  m["ledger.gap_pct"] = 100.0 * (busy_per_op - rows) / busy_per_op;
  // The probe's extra work is not tracing overhead: compare per-trial time
  // with the probe taken out.
  set_trace_overhead(report, ops[0] / busy_s[0], 1e6 * kWorkers / (busy_per_op));
  std::cout << "ledger (per trial, thread time, probe " << probe << " us excluded): generate "
            << generate << " + reference " << reference << " + lease " << lease_share
            << " + install " << install << " + run " << run_share << " + diff " << diff
            << " + campaign " << overhead << " = " << rows << " us vs " << busy_per_op
            << " us\n";
}

}  // namespace

void run_fuzz_allarch(const Options& opt, Report& report) {
  // Forked children sample the set-up before and after the timed phase, so
  // its median does not hang on the host's speed in the run's first second.
  std::vector<double> setup_s;
  for (int i = 1; i < kSetupRepeats; ++i) setup_s.push_back(build_arch_contexts_in_child());
  setup_s.push_back(build_arch_contexts());
  warm_up(opt, report, run_jobs);
  if (opt.trace) {
    report.metrics["conformance.arch_context_ms"] = 1e3 * median(setup_s);
    traced_run(opt, report);
    return;
  }
  const LoopResult loop = run_jobs(opt, report);
  const double rss = peak_rss_mib();
  // run_fuzz's worker threads have exited, so forking is safe again.
  for (int i = 1; i < kSetupRepeats; ++i) setup_s.push_back(build_arch_contexts_in_child());
  set_end_to_end(report, loop, setup_s, rss);
}

}  // namespace perfbench
