// E12 — campaign-engine gates: the determinism contract of the parallel
// trial engine that drives every other experiment, re-proven on every run.
//
// Runs a Figure-1-style campaign (each trial: lease a pooled mobile
// Machine reset to the trial seed, mount Spectre-PHT, record whether the
// planted byte leaked) and exits 1 unless every gate holds:
//   * E12: workers=4 reproduces the workers=1 result vector bit for bit,
//     both runs leasing from one shared machine pool;
//   * E12b: the sharded supervisor (core/shard) at 1/2/4 worker processes,
//     plus a worker-kill chaos row, merges bit-identical to the in-process
//     reference (HWSEC_SHARD_TRIALS overrides the trial count);
//   * E12c: forked hwsec-shard-worker processes listen on loopback TCP
//     ports, the supervisor dials them through the host-discovery path
//     hwsecd uses, and the merged vector is bit-identical at 1/2/4 hosts —
//     including a chaos row where seeded worker SIGKILLs force
//     disconnect-migrate-redial recovery;
//   * both chaos rows (E12b and E12c) must show worker deaths and
//     migrations, or the chaos was vacuous and the run fails (a healthy
//     fleet's straggler splits migrate too, so migrations alone do not
//     prove a kill landed);
//   * HWSEC_CAMPAIGN_MIN_TPS, when set, is a floor on the trials/sec of the
//     timed sequential pass.
//
// Speed is measured by perfbench (its campaign_mobile workload, whose
// traced run adds the service.* and shard.* rows); the sequential pass is
// the one timing here, kept for the floor. The verdicts land in
// BENCH_campaign.json (path override: HWSEC_BENCH_JSON) for CI to archive.
//
// Observability: HWSEC_TRACE_OUT=<path> captures a Chrome trace_event
// JSON (trial/setup/body and pool spans — load it in Perfetto), and
// --metrics-json=<path> (or HWSEC_METRICS_JSON) dumps the merged metrics
// registry (trial counters, pool accounting, latency histograms) for the
// CI scrape-and-assert step. --benchmark_* flags are accepted and ignored,
// so every experiment binary takes the same command line.
#include <csignal>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "attacks/transient/spectre.h"
#include "core/campaign.h"
#include "core/machine_pool.h"
#include "core/obs/metrics.h"
#include "core/obs/trace.h"
#include "core/resilience/resilient.h"
#include "core/service/catalog.h"
#include "core/service/remote_worker.h"
#include "core/service/spec.h"
#include "core/shard/supervisor.h"
#include "core/shutdown.h"
#include "sim/machine.h"
#include "table.h"

namespace sim = hwsec::sim;
namespace core = hwsec::core;
namespace service = hwsec::core::service;
namespace attacks = hwsec::attacks;
namespace obs = hwsec::obs;

namespace {

/// One campaign trial: pooled machine, fresh attack, outcome encoded so
/// that any divergence (success flag OR leaked value) breaks equality.
struct TrialResult {
  bool leaked = false;
  std::uint32_t value = 0;

  bool operator==(const TrialResult& other) const {
    return leaked == other.leaked && value == other.value;
  }
};

TrialResult spectre_trial(const core::TrialContext& ctx) {
  // A pool reset-reuse when the campaign runner supplies a pool, a full
  // construction otherwise.
  auto machine_lease =
      core::acquire_machine(ctx.machines, sim::MachineProfile::mobile(), ctx.seed);
  sim::Machine& machine = *machine_lease;
  obs::Span body_span("trial_body", static_cast<std::int64_t>(ctx.index), "trial");
  attacks::SpectreV1 spectre(machine, 0);
  const sim::Word index = spectre.plant_secret("K");
  const auto byte = spectre.leak_byte(index);
  TrialResult r;
  r.leaked = byte.has_value() && *byte == 'K';
  r.value = byte.value_or(0xFFFF);
  return r;
}

std::size_t env_size_t(const char* name, std::size_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') {
    return fallback;
  }
  const std::size_t parsed = static_cast<std::size_t>(std::strtoull(value, nullptr, 10));
  return parsed == 0 ? fallback : parsed;  // unparseable/zero -> default.
}

double env_double(const char* name, double fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') {
    return fallback;
  }
  const double parsed = std::strtod(value, nullptr);
  return parsed <= 0.0 ? fallback : parsed;
}

/// Slot-for-slot equality (flag AND payload). A failed trial never counts
/// as reproducing anything, so a run with one reads as diverged.
template <typename Result>
bool same_results(const std::vector<core::TrialOutcome<Result>>& got,
                  const std::vector<core::TrialOutcome<Result>>& want) {
  if (got.size() != want.size()) {
    return false;
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (!got[i].ok() || !want[i].ok()) {
      const auto& failed = got[i].ok() ? want[i] : got[i];
      if (failed.error.has_value()) {
        std::cerr << "trial " << i << " failed: " << failed.error->what() << "\n";
      }
      return false;
    }
    if (!(got[i].value() == want[i].value())) {
      return false;
    }
  }
  return true;
}

// ---- E12c helpers: loopback TCP shard workers ---------------------------

/// Forks a shard worker listening on an ephemeral loopback port (the same
/// code path the hwsec-shard-worker tool runs) and reports the port the
/// kernel assigned through a pipe. The child serves sessions until killed.
pid_t fork_tcp_worker(std::uint16_t& port_out) {
  int port_pipe[2];
  if (pipe(port_pipe) != 0) {
    return -1;
  }
  const pid_t pid = fork();
  if (pid < 0) {
    close(port_pipe[0]);
    close(port_pipe[1]);
    return -1;
  }
  if (pid == 0) {
    close(port_pipe[0]);
    service::RemoteWorkerOptions options;
    options.listen_port = 0;
    options.serve_forever = true;
    options.worker_name = "bench-worker";
    options.on_listening = [fd = port_pipe[1]](std::uint16_t port) {
      (void)!write(fd, &port, sizeof(port));
      close(fd);
    };
    _exit(service::run_remote_worker(options));
  }
  close(port_pipe[1]);
  std::uint16_t port = 0;
  const ssize_t n = read(port_pipe[0], &port, sizeof(port));
  close(port_pipe[0]);
  if (n != sizeof(port)) {
    kill(pid, SIGKILL);
    waitpid(pid, nullptr, 0);
    return -1;
  }
  port_out = port;
  return pid;
}

void reap_worker(pid_t pid) {
  if (pid > 0) {
    kill(pid, SIGKILL);
    waitpid(pid, nullptr, 0);
  }
}

/// One gate verdict: a worker, process or host count, with or without
/// chaos, and whether its merged vector matched the reference.
struct GateRow {
  const char* gate = "";  ///< "workers", "processes" or "hosts".
  std::size_t count = 0;
  bool chaos = false;
  bool deterministic = false;
  core::shard::ShardStats stats;
};

/// True for a chaos row that tested nothing: no worker died mid-shard, or
/// nothing migrated (a healthy fleet's straggler splits migrate too, so
/// migrations alone do not prove a kill landed).
bool vacuous_chaos(const GateRow& row) {
  return row.chaos && (row.stats.worker_deaths == 0 || row.stats.migrations == 0);
}

hwsec::bench::Table shard_table(const char* count_header) {
  hwsec::bench::Table t(
      {count_header, "chaos", "bit-identical", "deaths", "migrations", "fallback"},
      {7, 7, 14, 8, 11, 10});
  t.print_header();
  return t;
}

void print_shard_row(const hwsec::bench::Table& t, const GateRow& row) {
  t.print_row(row.count, row.chaos ? "kill" : "-", row.deterministic ? "YES" : "DIVERGED",
              row.stats.worker_deaths, row.stats.migrations, row.stats.fallback_trials);
}

}  // namespace

int main(int argc, char** argv) {
  using hwsec::bench::Table;

  // SIGTERM/SIGINT stop the gates between campaigns, flush every artifact
  // (JSON, metrics, trace) below, and exit 128+signal — a partial run is
  // reported as partial, never silently truncated.
  core::install_graceful_shutdown();

  // --metrics-json=<path> (HWSEC_METRICS_JSON fallback): merged metrics
  // registry snapshot, written after the gates.
  std::string metrics_path;
  if (const char* env = std::getenv("HWSEC_METRICS_JSON"); env != nullptr && *env != '\0') {
    metrics_path = env;
  }
  for (int i = 1; i < argc; ++i) {
    constexpr const char* kMetricsFlag = "--metrics-json=";
    if (std::strncmp(argv[i], kMetricsFlag, std::strlen(kMetricsFlag)) == 0) {
      metrics_path = argv[i] + std::strlen(kMetricsFlag);
    } else if (std::strncmp(argv[i], "--benchmark_", 12) != 0) {
      std::cerr << "usage: " << argv[0] << " [--metrics-json=<path>] [--benchmark_*=...]\n";
      return 2;
    }
  }

  const std::size_t trials = env_size_t("HWSEC_CAMPAIGN_TRIALS", 400);
  std::vector<GateRow> rows;

  hwsec::bench::section("E12 — campaign engine: Spectre-PHT, workers=4 vs. workers=1");
  std::cout << "(" << trials << " trials per run; both runs lease from one machine pool)\n";

  // One machine pool shared by both runs: the check below then also
  // validates that machines reset-reused across whole campaigns reproduce
  // the sequential results bit for bit.
  core::MachinePool machine_pool;

  // Untimed warmup: pool construction and the one-off memory snapshot per
  // machine happen here, so the timed sequential pass measures
  // steady-state reset-reuse rather than cold builds.
  core::run_campaign_resilient<TrialResult>({.seed = 2019, .trials = 32, .workers = 4},
                                            {.machines = &machine_pool}, spectre_trial);

  const auto start = std::chrono::steady_clock::now();
  const auto reference = core::run_campaign_resilient<TrialResult>(
      {.seed = 2019, .trials = trials, .workers = 1}, {.machines = &machine_pool},
      spectre_trial);
  const std::chrono::duration<double> sequential = std::chrono::steady_clock::now() - start;
  const double sequential_tps = static_cast<double>(trials) / sequential.count();
  // Compared with itself, the reference passes only if every trial succeeded.
  rows.push_back(
      {.gate = "workers", .count = 1, .deterministic = same_results(reference, reference)});
  if (!core::shutdown_requested()) {
    const auto parallel = core::run_campaign_resilient<TrialResult>(
        {.seed = 2019, .trials = trials, .workers = 4}, {.machines = &machine_pool},
        spectre_trial);
    rows.push_back({.gate = "workers",
                    .count = 4,
                    .deterministic = !core::shutdown_requested() &&
                                     same_results(parallel, reference)});
  }
  Table t({"workers", "bit-identical"}, {9, 14});
  t.print_header();
  for (const GateRow& row : rows) {
    t.print_row(row.count, row.deterministic ? "YES" : "DIVERGED");
  }
  std::cout << "sequential pass: " << sequential_tps
            << " trials/sec (the HWSEC_CAMPAIGN_MIN_TPS floor reads this)\n";

  // ---- E12b: sharded multi-process supervisor ---------------------------
  // Same engine, process-level parallelism: fork N workers, feed shards
  // over pipes, merge by trial index. Every row must be bit-identical to
  // the in-process reference — including the chaos row, where seeded
  // worker SIGKILLs force deaths, shard migrations, and respawns.
  // Vacuous-chaos guard: false = the chaos row lost no worker or never migrated.
  bool shard_chaos_migrated = true;
  const std::size_t shard_trials = env_size_t("HWSEC_SHARD_TRIALS", 1024);
  if (!core::shutdown_requested()) {
    hwsec::bench::section("E12b — sharded campaigns: multi-process supervisor");
    std::cout << "(" << shard_trials << " trials per run; fork/pipe/merge must not change"
              << " a single byte)\n";
    const auto shard_reference = core::run_campaign_resilient<TrialResult>(
        {.seed = 2027, .trials = shard_trials, .workers = 1}, {}, spectre_trial);
    const Table st = shard_table("procs");
    for (const auto& [procs, chaos] : {std::pair{1u, false}, std::pair{2u, false},
                                       std::pair{4u, false}, std::pair{4u, true}}) {
      if (core::shutdown_requested()) {
        break;
      }
      core::ResilienceConfig res;
      core::shard::ShardConfig shard;
      shard.processes = procs;
      if (chaos) {
        res.chaos.worker_kill_probability = 0.02;
      }
      GateRow row{.gate = "processes", .count = procs, .chaos = chaos};
      const auto outcomes = core::shard::run_campaign_sharded<TrialResult>(
          {.seed = 2027, .trials = shard_trials, .workers = 1}, res, shard, spectre_trial,
          &row.stats);
      row.deterministic = !core::shutdown_requested() && same_results(outcomes, shard_reference);
      if (vacuous_chaos(row)) {
        shard_chaos_migrated = false;
      }
      print_shard_row(st, row);
      rows.push_back(row);
    }
    std::cout << "(chaos row: seeded worker SIGKILLs — the supervisor migrates each dead\n"
                 " worker's shard and respawns it; the merged vector must still match,\n"
                 " with nonzero deaths and migrations, or the row counts as a failed run)\n";
  }

  // ---- E12c: multi-host loopback — the campaign over real TCP ----------
  // Vacuous-chaos guard: false = the chaos row lost no worker or never migrated.
  bool multihost_chaos_migrated = true;
  const std::size_t multihost_trials = env_size_t("HWSEC_MULTIHOST_TRIALS", 256);
  if (!core::shutdown_requested()) {
    hwsec::bench::section("E12c — multi-host campaigns: loopback TCP shard workers");
    std::cout << "(" << multihost_trials << " trials per run; forked hwsec-shard-worker"
              << " processes on 127.0.0.1,\n dialed through the spec host-discovery path;"
              << " N hosts must not change a byte)\n";

    // The spec-driven form of the E12 workload: remote workers rebuild the
    // trial body from these bytes after the handshake, so the campaign
    // identity digest covers everything that could change a result.
    service::CampaignSpec spec;
    spec.tenant = "bench";
    spec.kind = "spectre_leak";
    spec.seed = 2028;
    spec.trials = multihost_trials;
    const service::ServiceOutcomes spec_reference =
        service::run_spec(spec, core::ResilienceConfig{});

    const Table mt = shard_table("hosts");
    for (const auto& [hosts, chaos] : {std::pair{1u, false}, std::pair{2u, false},
                                       std::pair{4u, false}, std::pair{2u, true}}) {
      if (core::shutdown_requested()) {
        break;
      }
      std::vector<pid_t> workers;
      core::shard::ShardConfig shard_cfg;
      shard_cfg.processes = 0;  // every trial crosses the wire.
      bool spawned = true;
      for (unsigned i = 0; i < hosts && spawned; ++i) {
        std::uint16_t port = 0;
        const pid_t pid = fork_tcp_worker(port);
        spawned = pid > 0;
        if (spawned) {
          workers.push_back(pid);
          shard_cfg.hosts.push_back({.host = "127.0.0.1", .port = port});
        }
      }
      if (!spawned) {
        std::cerr << "E12c: failed to fork a loopback worker; skipping hosts=" << hosts << "\n";
        for (const pid_t pid : workers) {
          reap_worker(pid);
        }
        continue;
      }
      shard_cfg.remote_spec_json = service::encode_spec(spec);
      core::ResilienceConfig res;
      res.policy = spec.policy;
      res.max_attempts = spec.max_attempts;
      res.trial_cycle_budget = spec.trial_cycle_budget;
      if (chaos) {
        // Seeded self-SIGKILLs ship to the remote workers inside the
        // kWelcome frame; each kill takes down a whole listening worker, so
        // this row exercises disconnect -> migrate -> re-dial (refused) ->
        // budget exhaustion -> in-process fallback, end to end.
        res.chaos.worker_kill_probability = 0.02;
        shard_cfg.max_reconnects = 2;
      }
      GateRow row{.gate = "hosts", .count = hosts, .chaos = chaos};
      const auto outcomes = core::shard::run_campaign_sharded<service::ServiceTrialResult>(
          {.seed = spec.seed, .trials = static_cast<std::size_t>(spec.trials),
           .workers = spec.workers},
          res, shard_cfg, service::make_trial_body(spec), &row.stats);
      for (const pid_t pid : workers) {
        reap_worker(pid);
      }
      row.deterministic = !core::shutdown_requested() && same_results(outcomes, spec_reference);
      if (vacuous_chaos(row)) {
        multihost_chaos_migrated = false;
      }
      print_shard_row(mt, row);
      rows.push_back(row);
    }
    std::cout << "(chaos row: worker kills sever the TCP link mid-shard; the supervisor\n"
              << " migrates, re-dials, and finishes in-process once the budget is spent —\n"
              << " with nonzero deaths and migrations, or the row counts as a failed run)\n";
  }

  // ---- machine-readable verdicts for CI ----------------------------------
  const char* json_path_env = std::getenv("HWSEC_BENCH_JSON");
  const std::string json_path =
      json_path_env != nullptr && *json_path_env != '\0' ? json_path_env : "BENCH_campaign.json";
  bool all_deterministic = true;
  std::ostringstream json;
  json << "{\n"
       << "  \"experiment\": \"campaign_gates\",\n"
       << "  \"trial_body\": \"spectre_pht_mobile\",\n"
       << "  \"trials\": " << trials << ",\n"
       << "  \"shard_trials\": " << shard_trials << ",\n"
       << "  \"multihost_trials\": " << multihost_trials << ",\n"
       << "  \"hardware_concurrency\": " << std::thread::hardware_concurrency() << ",\n"
       << "  \"sequential_trials_per_sec\": " << sequential_tps << ",\n"
       << "  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const GateRow& row = rows[i];
    all_deterministic = all_deterministic && row.deterministic;
    json << "    {\"gate\": \"" << row.gate << "\", \"count\": " << row.count
         << ", \"chaos_kill\": " << (row.chaos ? "true" : "false")
         << ", \"deterministic\": " << (row.deterministic ? "true" : "false")
         << ", \"worker_deaths\": " << row.stats.worker_deaths
         << ", \"migrations\": " << row.stats.migrations
         << ", \"fallback_trials\": " << row.stats.fallback_trials << "}"
         << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  json << "  ],\n"
       << "  \"shard_chaos_migrated\": " << (shard_chaos_migrated ? "true" : "false") << ",\n"
       << "  \"multihost_chaos_migrated\": " << (multihost_chaos_migrated ? "true" : "false")
       << ",\n"
       << "  \"all_deterministic\": " << (all_deterministic ? "true" : "false") << "\n"
       << "}\n";
  // Atomic write: a run killed mid-write can never leave a torn JSON for
  // CI to archive — it sees the previous complete file or the new one.
  if (core::write_file_atomic(json_path, json.str())) {
    std::cout << "wrote " << json_path << "\n";
  } else {
    std::cerr << "failed to write " << json_path << "\n";
  }

  // ---- observability records -------------------------------------------
  if (!metrics_path.empty()) {
    if (core::write_file_atomic(metrics_path, obs::MetricsRegistry::instance().to_json())) {
      std::cout << "wrote " << metrics_path << "\n";
    } else {
      std::cerr << "failed to write " << metrics_path << "\n";
    }
  }
  obs::Tracer& tracer = obs::Tracer::instance();
  if (!tracer.autodump_path().empty()) {
    // The atexit hook writes this too; writing here as well guarantees a
    // complete trace whatever happens at exit.
    if (tracer.write(tracer.autodump_path())) {
      std::cout << "wrote " << tracer.autodump_path() << "\n";
    }
  }

  // ---- graceful shutdown exit ------------------------------------------
  // Everything above (results JSON, metrics, trace) is already flushed; a
  // signal-interrupted run exits with the conventional 128+signal so the
  // caller knows the artifacts describe a partial run.
  if (core::shutdown_requested()) {
    std::cerr << "shutdown requested (signal " << core::shutdown_signal()
              << "); artifacts flushed, exiting " << core::shutdown_exit_code() << "\n";
    return core::shutdown_exit_code();
  }

  // ---- perf smoke floor (CI) -------------------------------------------
  // HWSEC_CAMPAIGN_MIN_TPS sets a sequential trials/sec floor; a run below
  // it fails, catching setup-cost regressions before they land.
  const double min_tps = env_double("HWSEC_CAMPAIGN_MIN_TPS", 0.0);
  const bool fast_enough = min_tps <= 0.0 || sequential_tps >= min_tps;
  if (min_tps > 0.0) {
    std::cout << "perf floor: " << sequential_tps << " trials/sec vs. floor " << min_tps
              << " -> " << (fast_enough ? "OK" : "REGRESSION") << "\n";
  }
  return all_deterministic && fast_enough && shard_chaos_migrated && multihost_chaos_migrated
             ? 0
             : 1;
}
