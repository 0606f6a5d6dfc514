// hwsec_perfbench — one workload per process, end-to-end or traced.
//
//   hwsec_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--out-dir <dir>] [--commit <id>] [--corrupt <check>]
//
// Prints human-readable progress, then as its last stdout line one JSON
// object {"correct", "attempted", "failed", "metrics"}. Exit code 0 when
// every output check passed, 1 when one failed, 2 on a usage or runtime
// error (no JSON line then).
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <thread>

#include "bench.h"
#include "core/obs/trace.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"ops_per_s", "1/s"},
      {"setup_s", "s"},
      {"peak_rss_mib", "MiB"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      {"machine_pool.acquire_us", "us"},
      {"machine_pool.builds", "count"},
      {"attacks.plant_us", "us"},
      {"sim.leak_us", "us"},
      {"sim.retired", "count"},
      {"sim.loads", "count"},
      {"sim.l1_hits", "count"},
      {"sim.llc_hits", "count"},
      {"sim.dram_accesses", "count"},
      {"sim.ns_per_retired", "ns"},
      {"sim.mpu_run_us", "us"},
      {"sim.mmu_run_us", "us"},
      {"sim.fresh_build_us", "us"},
      {"conformance.generate_us", "us"},
      {"conformance.reference_us", "us"},
      {"conformance.install_us", "us"},
      {"conformance.diff_us", "us"},
      {"conformance.arch_context_ms", "ms"},
      {"campaign.overhead_us", "us"},
      {"capture.batch_us", "us"},
      {"sca.add_batch_us", "us"},
      {"sca.merge_ms", "ms"},
      {"sca.finalize_ms", "ms"},
      {"checkpoint.saves", "count"},
      {"checkpoint.cost_ms", "ms"},
      {"shard.overhead_ms", "ms"},
      {"shard.duplicate_trials", "count"},
      {"shard.migrations", "count"},
      {"shard.assignments", "count"},
      {"shard.worker_cpu_ms", "ms"},
      {"shard.worker_rss_mib", "MiB"},
      {"service.submit_ms", "ms"},
      {"service.direct_ms", "ms"},
      {"service.result_wait_ms", "ms"},
      {"service.daemon_cpu_ms", "ms"},
      {"trace.untraced_ops_per_s", "1/s"},
      {"trace.traced_ops_per_s", "1/s"},
      {"trace.overhead_pct", "%"},
      {"ledger.gap_pct", "%"},
      {"ledger.service_gap_pct", "%"},
  };
  return defs;
}

void set_end_to_end(Report& report, const LoopResult& loop,
                    const std::vector<double>& setup_seconds, double rss_mib) {
  report.metrics["ops_per_s"] = loop.ops / loop.seconds;
  report.metrics["setup_s"] = median(setup_seconds);
  report.metrics["peak_rss_mib"] = rss_mib;
  std::cout << "jobs: " << loop.job_ms.size() << ", job time p50 "
            << percentile(loop.job_ms, 0.5) << " ms, p90 " << percentile(loop.job_ms, 0.9)
            << " ms; setup repeats: " << setup_seconds.size() << "\n";
}

void set_trace_overhead(Report& report, double untraced_ops_per_s, double traced_ops_per_s) {
  report.metrics["trace.untraced_ops_per_s"] = untraced_ops_per_s;
  report.metrics["trace.traced_ops_per_s"] = traced_ops_per_s;
  report.metrics["trace.overhead_pct"] = 100.0 * (1.0 - traced_ops_per_s / untraced_ops_per_s);
}

TracedJob::TracedJob(ObsDelta& delta)
    : delta_(delta), before_(hwsec::obs::MetricsRegistry::instance().snapshot()) {
  hwsec::obs::Tracer::instance().set_enabled(true);
}

TracedJob::~TracedJob() {
  hwsec::obs::Tracer::instance().set_enabled(false);
  delta_.add(before_, hwsec::obs::MetricsRegistry::instance().snapshot());
}

namespace {

// Knobs that would silently change what a workload measures: a shard host
// list reroutes run_spec to remote workers, the others change the dispatch
// backend, thread counts, tracing and stderr heartbeats.
constexpr const char* kPinnedEnv[] = {"HWSEC_SHARD_HOSTS", "HWSEC_DISPATCH", "HWSEC_WORKERS",
                                      "HWSEC_TRACE_OUT", "HWSEC_HEARTBEAT_MS"};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "hwsec_perfbench: " << why << "\n"
            << "usage: hwsec_perfbench --workload "
               "<campaign_mobile|fuzz_allarch|sca_stream> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>] [--commit <id>] "
               "[--corrupt <check>]\n";
  std::exit(2);
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_json(const Report& report, const std::vector<MetricDef>& defs) {
  std::ostringstream out;
  out << "{\"correct\": " << (report.correct() ? "true" : "false")
      << ", \"attempted\": " << report.attempted << ", \"failed\": " << report.failed
      << ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& def : defs) {
    const auto it = report.metrics.find(def.name);
    out << (first ? "" : ", ") << "\"" << def.name << "\": {\"value\": "
        << json_number(it == report.metrics.end() ? 0.0 : it->second) << ", \"unit\": \""
        << def.unit << "\"}";
    first = false;
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

void print_table(const Report& report, const std::vector<MetricDef>& defs) {
  std::printf("%-28s %18s  %-6s\n", "metric", "value", "unit");
  for (const MetricDef& def : defs) {
    const auto it = report.metrics.find(def.name);
    if (it == report.metrics.end()) {
      std::printf("%-28s %18s  %-6s\n", def.name, "-", def.unit);
    } else {
      std::printf("%-28s %18.4f  %-6s\n", def.name, it->second, def.unit);
    }
  }
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  std::string commit = "unknown";
  bool have_seed = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        opt.workload = value;
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value);
        have_seed = true;
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        opt.trace = value == "1";
        have_trace = true;
      } else if (arg == "--out-dir") {
        opt.out_dir = value;
      } else if (arg == "--commit") {
        commit = value;
      } else if (arg == "--corrupt") {
        opt.corrupt = value;
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg + ": " + value);
    }
  }
  if (!have_seed || !have_trace || opt.workload.empty()) usage("--workload, --seed and --trace are required");
  if (!(opt.seconds > 0.0)) usage("--seconds must be positive");
  if (opt.out_dir.empty()) opt.out_dir = "perfbench-out";

  for (const char* name : kPinnedEnv) unsetenv(name);
  std::filesystem::create_directories(opt.out_dir);
  std::cout << "host: nproc=" << std::thread::hardware_concurrency()
            << " build=" << PERFBENCH_BUILD_TYPE << " compiler=\"" << __VERSION__
            << "\" commit=" << commit << "\n"
            << "run: workload=" << opt.workload << " seed=" << opt.seed
            << " seconds=" << opt.seconds << " trace=" << (opt.trace ? 1 : 0) << "\n";

  Report report;
  try {
    // Off unless a traced run arms it around its traced jobs.
    hwsec::obs::Tracer::instance().set_enabled(false);
    if (opt.workload == "campaign_mobile") {
      run_campaign_mobile(opt, report);
    } else if (opt.workload == "fuzz_allarch") {
      run_fuzz_allarch(opt, report);
    } else if (opt.workload == "sca_stream") {
      run_sca_stream(opt, report);
    } else {
      usage("unknown workload " + opt.workload);
    }
  } catch (const std::exception& e) {
    std::cerr << "hwsec_perfbench: " << opt.workload << " aborted: " << e.what() << "\n";
    return 2;
  }

  const std::vector<MetricDef>& defs = opt.trace ? per_layer_metrics() : end_to_end_metrics();
  std::set<std::string> known;
  for (const MetricDef& def : defs) known.insert(def.name);
  for (const auto& [name, value] : report.metrics) {
    if (known.count(name) == 0 || !std::isfinite(value)) {
      std::cerr << "hwsec_perfbench: metric " << name << " = " << value
                << " is not a finite catalogue metric\n";
      return 2;
    }
  }
  if (opt.trace) {
    const std::string path =
        opt.out_dir + "/trace-" + opt.workload + "-" + std::to_string(opt.seed) + ".json";
    if (hwsec::obs::Tracer::instance().write(path)) {
      std::cout << "perfetto trace: " << path << "\n";
    }
  }
  print_table(report, defs);
  for (const std::string& failure : report.check_failures) {
    std::cout << "CHECK FAILED: " << failure << "\n";
  }
  print_json(report, defs);
  return report.correct() ? 0 : 1;
}
