// The service, shard and checkpoint layers, measured in campaign_mobile's
// traced run.
//
// One client thread submits spectre_leak jobs — campaign_mobile's trial
// body, 1000 trials, processes = 2, workers = 1 — one at a time to an
// in-process hwsecd Daemon over a Unix socket (executors = 1, progress
// interval 1 ms, no checkpoint_dir). Each job is followed, outside its
// timing, by three direct run_spec calls of its spec: in-process and
// sharded, whose difference splits the job's latency into layers, and
// sharded with a checkpoint path, which prices the checkpoint layer.
//
// Why here and not a gated workload of its own: run as a closed loop of
// jobs, these layers were steady while the host was calm, but whenever the
// host's steal time rose to 10-25% (for minutes at a time, several times
// an hour) jobs ran 30-40% slower and their p90 nearly doubled, so two of
// three ten-seed sets broke the largest allowed bound (see README.md).
//
// Daemon::stream_job sleeps one progress interval between job-state
// checks, so a job's latency is rounded up to the next tick: at the 50 ms
// default every ~50 ms job reads 50 or 100 ms. 1 ms keeps the rounding
// near 2%. The daemon runs without checkpoint_dir because each 1000-trial
// job would rewrite its checkpoint 63 times and put the disk's writeback
// stalls into its latency.
#include <sys/resource.h>
#include <sys/un.h>
#include <unistd.h>

#include <filesystem>
#include <iostream>
#include <memory>
#include <stdexcept>

#include "bench.h"
#include "core/obs/metrics.h"
#include "core/obs/trace.h"
#include "core/service/catalog.h"
#include "core/service/client.h"
#include "core/service/daemon.h"
#include "core/service/protocol.h"
#include "core/service/spec.h"
#include "sim/rng.h"

namespace perfbench {

namespace {

namespace core = hwsec::core;
namespace service = hwsec::core::service;
namespace sim = hwsec::sim;

constexpr std::uint64_t kTrialsPerJob = 1000;
constexpr std::uint32_t kProcesses = 2;
constexpr std::uint32_t kWorkersPerProcess = 1;
constexpr std::uint64_t kJobs = 40;

service::CampaignSpec job_spec(std::uint64_t seed, std::uint64_t job) {
  service::CampaignSpec spec;
  spec.tenant = "perfbench";
  spec.kind = "spectre_leak";
  spec.seed = sim::derive_seed(seed, job);
  spec.trials = kTrialsPerJob;
  spec.workers = kWorkersPerProcess;
  spec.processes = kProcesses;
  return spec;
}

/// The same campaign run in-process with the same total parallelism.
service::CampaignSpec in_process(service::CampaignSpec spec) {
  spec.workers = spec.processes * spec.workers;
  spec.processes = 0;
  return spec;
}

struct Paths {
  std::string socket;
  std::string checkpoints;
};

service::ServiceConfig daemon_config(const Paths& paths) {
  service::ServiceConfig config;
  config.unix_socket = paths.socket;
  config.executors = 1;
  config.progress_interval = std::chrono::milliseconds(1);
  return config;
}

struct JobRecord {
  std::uint64_t digest = 0;
  double start_us = 0;  ///< tracer clock.
  double submit_ms = 0;
  double latency_ms = 0;
  /// Client-side time not covered by the job running: ack to the first
  /// kRunning update (queueing), plus the last update to the result
  /// (the stream poll and the result frame). Each is read off frame
  /// arrival times, to within one progress interval.
  double wait_ms = 0;
};

/// Submits one job and waits for its result. Rejected or failed jobs, and
/// trials carrying a SimError, count as failed ops.
JobRecord submit_job(const Paths& paths, const service::CampaignSpec& spec, Report& report) {
  const hwsec::obs::Tracer& tracer = hwsec::obs::Tracer::instance();
  JobRecord record;
  service::ClientConfig client_config;
  client_config.unix_socket = paths.socket;
  report.attempted += spec.trials;
  const auto start = Clock::now();
  record.start_us = tracer.now_us();
  service::ServiceClient client(client_config);
  service::SubmittedPayload ack;
  std::string error;
  const bool submitted = client.submit(service::encode_spec(spec), ack, error);
  record.submit_ms = ms_since(start);
  service::JobResultPayload result;
  double running_ms = -1;
  double last_update_ms = record.submit_ms;
  const auto on_update = [&](const service::JobUpdatePayload& update) {
    last_update_ms = ms_since(start);
    if (running_ms < 0 && update.state == service::JobState::kRunning) {
      running_ms = last_update_ms;
    }
  };
  const bool finished =
      submitted && ack.accepted && client.wait_result(result, error, on_update);
  record.latency_ms = ms_since(start);
  // Without a kRunning update the whole wait counts as waiting.
  record.wait_ms = running_ms < 0 ? record.latency_ms - record.submit_ms
                                  : (running_ms - record.submit_ms) +
                                        (record.latency_ms - last_update_ms);
  std::vector<service::OutcomeRecord> outcomes;
  if (!finished || result.state != service::JobState::kDone ||
      !service::decode_outcomes(result.records, outcomes)) {
    std::cerr << "job failed: " << (error.empty() ? ack.message + result.error : error) << "\n";
    report.failed += spec.trials;
    return record;
  }
  for (const service::OutcomeRecord& outcome : outcomes) {
    if (!outcome.ok) ++report.failed;
  }
  record.digest = result.digest;
  return record;
}

double cpu_ms(int who) {
  rusage usage{};
  getrusage(who, &usage);
  return 1e3 * static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-3 * static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec);
}

/// A direct run_spec of `spec`; returns its wall time and the digest of its
/// outcomes, which is computed outside the timing.
double timed_run_spec_ms(const service::CampaignSpec& spec, const std::string& checkpoint,
                         std::uint64_t* digest = nullptr) {
  core::ResilienceConfig res;
  res.heartbeat = std::chrono::milliseconds(0);
  res.checkpoint_path = checkpoint;
  const auto start = Clock::now();
  const service::ServiceOutcomes outcomes = service::run_spec(spec, res);
  const double ms = ms_since(start);
  if (digest != nullptr) *digest = service::fnv1a64(service::encode_outcomes(outcomes));
  if (!checkpoint.empty()) std::filesystem::remove(checkpoint);
  return ms;
}

/// kJobs daemon jobs, each followed by the three direct run_spec calls.
///
/// The tracer stays off while the daemon runs: its per-thread ring
/// registration takes a mutex that the shard supervisor's fork() can copy
/// into a worker in the locked state (a hang seen with tracing on; see
/// README.md). The client-side spans are recorded once the daemon is idle.
void measure(const Paths& paths, const Options& opt, Report& report) {
  std::vector<JobRecord> jobs;
  std::vector<std::uint64_t> direct_digests;
  ObsDelta obs;  ///< counters over the daemon jobs only.
  double daemon_cpu = 0, children_cpu = 0;
  double direct = 0, sharded = 0, checkpointed = 0, checkpoint_saves = 0;
  hwsec::obs::MetricsRegistry& registry = hwsec::obs::MetricsRegistry::instance();
  const std::string checkpoint = paths.checkpoints + "/direct.ckpt";
  for (std::uint64_t job = 0; job < kJobs; ++job) {
    const service::CampaignSpec spec = job_spec(opt.seed, job);
    const auto daemon_job = [&] {
      const double self0 = cpu_ms(RUSAGE_SELF);
      const double client0 = cpu_ms(RUSAGE_THREAD);
      const double children0 = cpu_ms(RUSAGE_CHILDREN);
      const hwsec::obs::MetricsSnapshot before = registry.snapshot();
      jobs.push_back(submit_job(paths, spec, report));
      obs.add(before, registry.snapshot());
      daemon_cpu += (cpu_ms(RUSAGE_SELF) - self0) - (cpu_ms(RUSAGE_THREAD) - client0);
      children_cpu += cpu_ms(RUSAGE_CHILDREN) - children0;
    };
    // The in-process call goes last: a sharded run right after it took
    // 5-9 ms longer, which made the daemon look faster than run_spec.
    const auto direct_calls = [&] {
      sharded += timed_run_spec_ms(spec, "");
      const hwsec::obs::MetricsSnapshot saves0 = registry.snapshot();
      checkpointed += timed_run_spec_ms(spec, checkpoint);
      checkpoint_saves += static_cast<double>(registry.snapshot().counter("checkpoint_saves") -
                                              saves0.counter("checkpoint_saves"));
      direct_digests.push_back(0);
      direct += timed_run_spec_ms(in_process(spec), "", &direct_digests.back());
    };
    // Every other job runs the direct calls first, so neither side always
    // runs right after the other.
    if (job % 2 == 0) {
      daemon_job();
      direct_calls();
    } else {
      direct_calls();
      daemon_job();
    }
  }
  rusage children{};
  getrusage(RUSAGE_CHILDREN, &children);
  hwsec::obs::Tracer& tracer = hwsec::obs::Tracer::instance();
  tracer.set_enabled(true);
  for (const JobRecord& job : jobs) {
    tracer.complete("service.submit", job.start_us, 1e3 * job.submit_ms);
    tracer.complete("service.job", job.start_us, 1e3 * job.latency_ms);
  }
  tracer.set_enabled(false);

  // Output check: every daemon job's digest equals an in-process run_spec
  // of its spec.
  if (opt.corrupt == "job_digest") jobs.front().digest ^= 1;
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (jobs[i].digest != direct_digests[i]) ++mismatches;
  }
  report.check(mismatches == 0, std::to_string(mismatches) + " of " +
                                    std::to_string(jobs.size()) +
                                    " daemon job digests differ from in-process run_spec");

  const double n = static_cast<double>(jobs.size());
  double submit = 0, wait = 0, latency = 0;
  for (const JobRecord& job : jobs) {
    submit += job.submit_ms;
    wait += job.wait_ms;
    latency += job.latency_ms;
  }
  submit /= n;
  wait /= n;
  latency /= n;
  direct /= n;
  sharded /= n;
  checkpointed /= n;
  auto& m = report.metrics;
  m["checkpoint.saves"] = checkpoint_saves / n;
  m["checkpoint.cost_ms"] = checkpointed - sharded;
  m["shard.overhead_ms"] = sharded - direct;
  m["shard.duplicate_trials"] = obs.counter("shard_duplicate_trials") / n;
  m["shard.migrations"] = obs.counter("shard_migrations") / n;
  m["shard.assignments"] = obs.counter("shard_assignments") / n;
  m["shard.worker_cpu_ms"] = children_cpu / n;
  m["shard.worker_rss_mib"] = static_cast<double>(children.ru_maxrss) / 1024.0;
  m["service.submit_ms"] = submit;
  m["service.direct_ms"] = direct;
  m["service.result_wait_ms"] = wait;
  m["service.daemon_cpu_ms"] = daemon_cpu / n;
  // Every row is measured on its own: the gap is how far the daemon's run
  // of a job is from a direct sharded run_spec of the same spec.
  const double rows = submit + direct + (sharded - direct) + wait;
  m["ledger.service_gap_pct"] = 100.0 * (latency - rows) / latency;
  std::cout << "service ledger (per job, " << jobs.size() << " daemon jobs): submit " << submit
            << " + in-process run_spec " << direct << " + shard " << sharded - direct
            << " + result wait " << wait << " = " << rows << " ms vs job latency " << latency
            << " ms; a checkpoint path would add " << checkpointed - sharded << " ms\n";
}

}  // namespace

void measure_service_layers(const Options& opt, Report& report) {
  const std::string pid = std::to_string(getpid());
  const Paths paths{opt.out_dir + "/hwsecd-" + pid + ".sock", opt.out_dir + "/ckpt-" + pid};
  if (paths.socket.size() >= sizeof(sockaddr_un{}.sun_path)) {
    throw std::runtime_error("socket path too long: " + paths.socket);
  }
  std::filesystem::create_directories(paths.checkpoints);
  service::Daemon daemon(daemon_config(paths));
  daemon.start();
  measure(paths, opt, report);
  daemon.stop();
  std::filesystem::remove_all(paths.checkpoints);
}

}  // namespace perfbench
