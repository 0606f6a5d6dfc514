// Shared plumbing for the hwsec benchmark: options, the per-run report, the
// metric catalogue, timing and small statistics helpers.
//
// Every workload runs in its own process (run.py launches one per run), so
// process-wide state — ru_maxrss, the obs registry, the decoded-program
// cache, the conformance arch contexts — never carries over between
// workloads.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/obs/metrics.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline double ms_since(Clock::time_point start) { return 1e3 * seconds_since(start); }

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< length of the timed phase.
  bool trace = false;     ///< traced run: per-layer ledger instead of e2e metrics.
  std::string out_dir;    ///< Perfetto trace, checkpoints and the daemon socket.
  /// Self-test hook: name of one output check whose result is corrupted
  /// before the check runs, so the check must fire ("" = none).
  std::string corrupt;
};

struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, printed for every workload by an untraced run.
const std::vector<MetricDef>& end_to_end_metrics();
/// Per-layer metrics, printed for every workload by a traced run; a layer
/// the workload does not exercise reads 0.
const std::vector<MetricDef>& per_layer_metrics();

/// One run's result. Output checks record failures here; the run exits
/// non-zero when any check failed.
struct Report {
  std::uint64_t attempted = 0;  ///< ops (trials or traces) attempted in the timed phase.
  std::uint64_t failed = 0;     ///< ops that carried a SimError or belonged to a failed job.
  std::vector<std::string> check_failures;
  std::map<std::string, double> metrics;

  void check(bool ok, const std::string& what) {
    if (!ok) check_failures.push_back(what);
  }
  bool correct() const { return check_failures.empty(); }
};

/// Workload entry points; each runs setup, the timed phase and the output
/// checks, and fills either the end-to-end or the per-layer metrics.
void run_campaign_mobile(const Options& opt, Report& report);
void run_fuzz_allarch(const Options& opt, Report& report);
void run_sca_stream(const Options& opt, Report& report);

/// Traced-run part of campaign_mobile: the service, shard and checkpoint
/// layers, through an in-process hwsecd Daemon and direct run_spec calls.
void measure_service_layers(const Options& opt, Report& report);

// ---- statistics ----------------------------------------------------------

/// Linear-interpolated percentile (q in [0, 1]) of `values`.
inline double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

inline double median(const std::vector<double>& values) { return percentile(values, 0.5); }

inline double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Totals of a closed loop of jobs.
struct LoopResult {
  double ops = 0;
  double seconds = 0;
  std::vector<double> job_ms;
};

/// Untimed jobs between set-up and the timed phase. Jobs run up to twice
/// as slowly for about a second at times, often right after a process
/// starts; the warm-up keeps that out of the timed phase.
constexpr double kWarmupSeconds = 2.0;

/// Runs `loop(options, report)` — a workload's closed loop of jobs — for
/// kWarmupSeconds on another seed, so the timed jobs find none of the
/// warm-up's inputs in a cache. Its output checks still count.
template <class Loop>
void warm_up(const Options& opt, Report& report, Loop&& loop) {
  Options warm = opt;
  warm.seed = opt.seed ^ 0x9E3779B97F4A7C15ull;
  warm.seconds = kWarmupSeconds;
  warm.corrupt.clear();
  Report scratch;
  loop(warm, scratch);
  for (const std::string& failure : scratch.check_failures) {
    report.check(false, "warm-up: " + failure);
  }
  report.check(scratch.failed == 0, "warm-up: " + std::to_string(scratch.failed) + " failed ops");
}

/// Fills the end-to-end metrics shared by every workload; `rss_mib` is
/// peak_rss_mib() taken when the timed phase ended.
void set_end_to_end(Report& report, const LoopResult& loop,
                    const std::vector<double>& setup_seconds, double rss_mib);

/// Fills the tracing-overhead rows of a traced run.
void set_trace_overhead(Report& report, double untraced_ops_per_s, double traced_ops_per_s);

/// A nanosecond accumulator on its own cache line, summed from the
/// campaign's worker threads.
struct alignas(64) NsSum {
  std::atomic<std::uint64_t> value{0};
  void add(double ns) { value.fetch_add(static_cast<std::uint64_t>(ns), std::memory_order_relaxed); }
  double us() const { return static_cast<double>(value.load()) / 1e3; }
};

/// obs counters and the engine's trial_us histogram summed over the traced
/// jobs of a traced run (untraced jobs interleave with them).
struct ObsDelta {
  std::map<std::string, std::uint64_t> counters;
  double trial_sum_us = 0;
  std::uint64_t trial_count = 0;

  void add(const hwsec::obs::MetricsSnapshot& before, const hwsec::obs::MetricsSnapshot& after) {
    for (const auto& [name, value] : after.counters) counters[name] += value - before.counter(name);
    const auto b = before.histograms.find("trial_us");
    const auto a = after.histograms.find("trial_us");
    if (a != after.histograms.end()) {
      trial_sum_us += a->second.sum_us - (b == before.histograms.end() ? 0.0 : b->second.sum_us);
      trial_count += a->second.count - (b == before.histograms.end() ? 0 : b->second.count);
    }
  }
  double counter(const std::string& name) const {
    const auto it = counters.find(name);
    return it == counters.end() ? 0.0 : static_cast<double>(it->second);
  }
  double trial_us() const {
    return trial_count == 0 ? 0.0 : trial_sum_us / static_cast<double>(trial_count);
  }
};

/// Brackets one traced job: tracer on and an obs snapshot on entry; tracer
/// off and the counter delta folded into `delta` on exit.
class TracedJob {
 public:
  explicit TracedJob(ObsDelta& delta);
  ~TracedJob();
  TracedJob(const TracedJob&) = delete;
  TracedJob& operator=(const TracedJob&) = delete;

 private:
  ObsDelta& delta_;
  hwsec::obs::MetricsSnapshot before_;
};

}  // namespace perfbench
